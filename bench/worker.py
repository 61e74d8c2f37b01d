"""Child process of the benchmark: import legisnet, run commands, report.

Usage: ``python3 worker.py SPEC.json``.  The spec names the source tree
to import from and what to do:

* ``"generate"``: run ``legisnet generate`` once and time it;
* ``"measure"``: repeat the workload's command sequence through
  ``legisnet.cli.main`` while a typical repetition still fits in
  ``seconds`` (at least once), each repetition writing into its own
  directory ``rep<i>`` for the parent to check; with ``trace`` set,
  every repetition records spans.

A ``calibrate.Ticker`` times a calibration sample every quarter
second throughout (across the import of legisnet, too); each timed
stretch is reported as its raw time without the ticks plus its mean
sample time, so the parent can express it in reference-host seconds.
Spans are timed on the same tick-free clock.

The result goes to the JSON file the spec names.  The parent starts a
fresh process for each of these, so the measuring process has done
nothing but import the package before it starts timing, and its peak
resident memory is the workload's alone.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import Ticker
from spans import Tracer
from workloads import WORKLOADS


def run_commands(cli, argvs: list[list[str]],
                 tracer: Tracer | None) -> list[dict]:
    """Run the CLI on each argument list; a crash fails its command only."""
    ran = []
    root = tracer.begin("run") if tracer else None
    for argv in argvs:
        index = tracer.begin("cli.main") if tracer else None
        try:
            ran.append({"code": cli.main(argv), "error": None})
        except Exception:  # the boundary of one command: record and go on
            ran.append({"code": None, "error": traceback.format_exc()})
        if tracer:
            tracer.end(index)
    if tracer:
        tracer.end(root)
    return ran


def measure(cli, spec: dict, tracer: Tracer | None, ticker: Ticker) -> dict:
    """Repeat the sequence while a typical repetition still fits in time.

    ``walls[i]`` is repetition i's raw time without ticks and
    ``samples[i]`` its mean calibration sample.
    """
    workload = WORKLOADS[spec["workload"]]
    corpus = Path(spec["corpus"])
    walls, samples, ran, durations = [], [], [], []
    started = perf_counter()
    while not walls or (perf_counter() - started + statistics.median(durations)
                        <= spec["seconds"]):
        begun = perf_counter()
        outs = workload.output_dirs(Path(spec["workdir"]) / f"rep{len(walls)}")
        for out in outs:
            out.mkdir(parents=True)
        mark = ticker.mark()
        ran.append(run_commands(
            cli, [cmd.render(corpus, out, spec["seed"])
                  for cmd, out in zip(workload.commands, outs)], tracer))
        wall_s, sample = ticker.since(mark)
        walls.append(wall_s)
        samples.append(sample)
        durations.append(perf_counter() - begun)
    return {"walls": walls, "samples": samples, "ran": ran}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    ticker = Ticker().start()
    mark = ticker.mark()
    import legisnet.cli as cli
    import_s = ticker.since(mark)[0]
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"legisnet was imported from {cli.__file__}, not {src}")
    import numpy
    import scipy

    tracer = Tracer(spec["mode"], clock=ticker.clock)
    result = {"import_s": import_s,
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if spec["mode"] == "generate":
        cli.generate = tracer.wrap(
            cli.generate, "generator.generate",
            lambda a, k, graph, e: {"generator.nodes": graph.node_count,
                                    "generator.edges": graph.edge_count})
        mark = ticker.mark()
        ran = run_commands(cli, [spec["argv"]], None)
        result.update(code=ran[0]["code"], error=ran[0]["error"],
                      generate_s=ticker.since(mark)[0])
    else:
        if spec["trace"]:
            tracer.install()
        result.update(measure(cli, spec, tracer if spec["trace"] else None,
                              ticker))
        if spec["trace"]:
            result["spans"] = tracer.spans
    ticker.stop()
    result["sample_s"] = sum(ticker.samples) / len(ticker.samples)
    result["counts"] = dict(tracer.counts)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
