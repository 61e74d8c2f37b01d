"""Benchmark of the legisnet analysis battery.

Run from the root of a source checkout:

    python3 bench/run.py --workload battery --seed 11 --seconds 25 --trace 0

Set-up generates the workload's corpus with ``legisnet generate`` from
``--seed`` (five times, in fresh processes; ``setup_s`` is the median
of import plus generation).  A fresh process then repeats the
workload's command sequence while a typical repetition still ends
within ``--seconds``; ``wall_s`` is the median repetition.  Both are in
reference-host seconds: each raw time is scaled by the calibration
samples timed all through it (see ``calibrate.py``), and the raw times
are on the ``meta:`` line.  Every command's outputs are checked against
answers computed from the corpus.  ``--trace 1`` adds one traced
repetition in another process and reports the per-layer metrics
instead; their times are raw.  The last line of standard output is one
JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
give a readable summary and the run's metadata (``meta: {...}``).
``--record FILE`` also appends the full result to a JSON list in FILE.

Without ``src/legisnet`` beside this directory it prints no result and
exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calibrate import scale
from spans import covered, summarize, unit_of
from workloads import WORKLOADS, CorpusFacts, output_digests, verify

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
DEADLINE_S = 170  # every child is stopped by then, so a run ends in time

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Spans whose covered time shows what each workload was chosen to stress,
# and the least share of the traced wall time they must reach.
STRESS = {
    "battery": ({"metrics.path_stats", "metrics.path_metrics",
                 "resilience.random"}, 0.5),
    "corpus-ops": ({"corpus.parse", "corpus.ingest"}, 0.5),
    "tailfit": ({"heavytail.bootstrap"}, 0.75),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def run_child(spec: dict, workdir: Path, deadline: float) -> dict:
    """Run worker.py on ``spec`` in a fresh interpreter and return its result."""
    spec_path = workdir / "spec.json"
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({**spec, "src": str(SRC),
                                     "result": str(result_path)}),
                         encoding="utf-8")
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
        cwd=workdir, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def setup(workload, seed: int, workdir: Path,
          deadline: float) -> tuple[Path, list[dict]]:
    """Generate the corpus SETUP_REPEATS times; all copies must agree."""
    corpus = workdir / "corpus.jsonl"
    results, digests = [], set()
    for _ in range(SETUP_REPEATS):
        corpus.unlink(missing_ok=True)
        result = run_child({"mode": "generate",
                            "argv": workload.generate_argv(corpus, seed)},
                           workdir, deadline)
        if result["code"] != 0 or not corpus.exists():
            raise BenchError(f"generate exited {result['code']}: {result['error']}")
        results.append(result)
        digests.add(hashlib.sha256(corpus.read_bytes()).hexdigest())
    if len(digests) != 1:
        raise BenchError("the same seed generated different corpora")
    return corpus, results


def measure(workload, seed: int, facts: CorpusFacts, workdir: Path,
            seconds: float, trace: bool, deadline: float) -> dict:
    """Repeat the command sequence in one fresh process, then check outputs.

    Adds to the worker's result, per repetition, why each command failed
    (None when it passed) and the digests of every output file.
    """
    result = run_child({"mode": "measure", "workload": workload.name,
                        "seed": seed, "corpus": str(facts.path),
                        "workdir": str(workdir), "seconds": seconds,
                        "trace": trace}, workdir, deadline)
    result["errors"], result["digests"] = [], []
    for i, ran in enumerate(result["ran"]):
        rep_dir = workdir / f"rep{i}"
        outs = workload.output_dirs(rep_dir)
        result["errors"].append([verify(cmd, out, r, facts) for cmd, out, r
                                 in zip(workload.commands, outs, ran)])
        result["digests"].append({f"{out.name}/{name}": digest for out in outs
                                  for name, digest in output_digests(out).items()})
        shutil.rmtree(rep_dir)
    return result


def git_sha() -> str | None:
    """HEAD of the checkout's own repository; None outside one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
                              capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    meta = {"workload": workload_name, "seed": seed, "seconds": seconds,
            "git_sha": git_sha(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    deadline = perf_counter() + DEADLINE_S
    try:
        corpus, setups = setup(workload, seed, workdir, deadline)
        facts = CorpusFacts(corpus)
        timed = measure(workload, seed, facts, workdir, seconds, False, deadline)
        # --seconds 0 stops the traced process after one repetition.
        traced = (measure(workload, seed, facts, workdir, 0, True, deadline)
                  if trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_raw = [s["import_s"] + s["generate_s"] for s in setups]
    setup_s = [scale(raw, s["sample_s"]) for raw, s in zip(setup_raw, setups)]
    done = [timed, traced] if traced else [timed]
    outcomes = [e for part in done for rep in part["errors"] for e in rep]
    errors = [e for e in outcomes if e is not None]
    walls = [scale(raw, sample)
             for raw, sample in zip(timed["walls"], timed["samples"])]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    digests = [d for part in done for d in part["digests"]]
    meta.update({
        **setups[0]["versions"],
        "corpus": {"docs_per_year": workload.docs_per_year,
                   "nodes": setups[0]["counts"]["generator.nodes"],
                   "edges": setups[0]["counts"]["generator.edges"]},
        "repetitions": len(walls), "wall_s_all": walls, "setup_s_all": setup_s,
        "wall_s_raw": timed["walls"], "setup_s_raw": setup_raw,
        "samples_s": timed["samples"],
        "setup_samples_s": [s["sample_s"] for s in setups],
        "digests": digests[0],
        "digests_agree": all(d == digests[0] for d in digests),
        "errors": errors[:10],
    })
    result = {"correct": not errors, "attempted": len(outcomes),
              "failed": len(errors), "end_to_end": end_to_end, "meta": meta}
    if traced:
        spans = traced["spans"]
        layers = summarize(spans, traced["counts"])
        traced_wall = traced["walls"][0]  # raw, like the spans
        layers["generator.generate_s"] = statistics.median(
            [s["generate_s"] for s in setups])
        layers["trace.wall_s"] = scale(traced_wall, traced["samples"][0])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - end_to_end["wall_s"]
        names, least = STRESS[workload_name]
        meta["stress_share"] = covered(spans, names) / traced_wall
        meta["stress_share_least"] = least
        meta["self_share"] = {name[:-len(".self_s")]: value / traced_wall
                              for name, value in layers.items()
                              if name.endswith(".self_s")}
        result["per_layer"] = layers
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append the full result to this JSON list")
    args = parser.parse_args(argv)
    if not (SRC / "legisnet" / "__init__.py").is_file():
        print(f"no legisnet source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in result["per_layer"].items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    meta = result["meta"]
    print(f"{args.workload} seed={args.seed} nodes={meta['corpus']['nodes']} "
          f"edges={meta['corpus']['edges']} "
          f"repetitions={meta['repetitions']}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {result['end_to_end'][name]:.4f} {unit}")
    print(f"  ops_failed   {result['failed'] / result['attempted']:.4f} "
          f"ratio ({result['failed']}/{result['attempted']} commands)")
    for error in meta["errors"]:
        print(f"  FAILED: {error}")
    print("meta: " + json.dumps(meta, sort_keys=True))
    if args.record:
        entries = (json.loads(args.record.read_text(encoding="utf-8"))
                   if args.record.exists() else [])
        entries.append(result)
        args.record.write_text(json.dumps(entries, indent=1) + "\n",
                               encoding="utf-8")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
