"""The benchmark's workloads and the checks on their outputs.

A workload is a generated corpus plus a sequence of ``legisnet``
commands run on it.  Every command has a check that compares its
outputs with answers computed here from the corpus JSONL with the
standard library alone, so a check never trusts the code it checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The criterion-11 generator flags; only --docs-per-year and --seed vary.
GENERATOR_FLAGS = ("--years", "1951:2000", "--densification", "1.128",
                   "--mixing", "0.8", "--sunset-prob", "0.15",
                   "--sunset-horizon", "25")

LEGISLATION = 3   # sector code of the RN preset
MIN_TAIL = 25     # the powerlaw command's default --min-tail


class CorpusFacts:
    """What the checks need to know about a corpus, read with the stdlib."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.data = path.read_bytes()
        self.docs = []  # (sector, date_of_effect, date_of_expiry or None)
        self._in_force: dict[tuple[str, int | None], int] = {}
        for line in self.data.decode("utf-8").splitlines():
            if line.strip():
                obj = json.loads(line)
                self.docs.append((obj["sector"], obj["date_of_effect"],
                                  obj.get("date_of_expiry")))

    def in_force(self, day: str, sector: int | None = None) -> int:
        """Documents with effect <= day <= expiry (ISO dates compare as text)."""
        key = (day, sector)
        if key not in self._in_force:
            self._in_force[key] = sum(
                1 for sec, effect, expiry in self.docs
                if effect <= day and (expiry is None or day <= expiry)
                and (sector is None or sec == sector))
        return self._in_force[key]

    def years(self) -> range:
        effect_years = [int(effect[:4]) for _, effect, _ in self.docs]
        return range(min(effect_years), max(effect_years) + 1)


class CheckFailed(Exception):
    """An output disagrees with the answer computed from the corpus."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _results(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["results"]


def _unit_interval(value: float, what: str) -> None:
    _require(0.0 <= value <= 1.0, f"{what} = {value} lies outside [0, 1]")


def _check_snapshot_nodes(csv_path: Path, facts: CorpusFacts) -> None:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _require([int(r["year"]) for r in rows] == list(facts.years()),
             f"{csv_path.name}: years do not span the corpus")
    for row in rows:
        expected = facts.in_force(f"{row['year']}-12-31")
        _require(int(row["nodes"]) == expected,
                 f"{csv_path.name} {row['year']}: nodes {row['nodes']} != "
                 f"{expected} in force")


def _check_bowtie(results: dict, nodes: int) -> None:
    _require(sum(results["sizes"].values()) == nodes,
             f"bow-tie sizes sum to {sum(results['sizes'].values())}, not {nodes}")


# -- per-command checks: (output dir, corpus facts) -> None or CheckFailed --


def check_report_all(out: Path, facts: CorpusFacts) -> None:
    report = _results(out / "report.json")
    _require(report["nodes"] == len(facts.docs),
             f"report nodes {report['nodes']} != {len(facts.docs)} corpus lines")
    _check_bowtie(report["bowtie"], report["nodes"])
    for direction, fit in report["powerlaw"].items():
        _unit_interval(fit["p_value"], f"powerlaw {direction} p_value")
    for curve in report["resilience"]:
        for point in curve["points"]:
            for key, value in point.items():
                _unit_interval(value, f"resilience {curve['strategy']} {key}")


def check_ingest(out: Path, facts: CorpusFacts) -> None:
    report = _results(out / "ingest_report.json")
    _require(report["nodes"] == len(facts.docs),
             f"ingest nodes {report['nodes']} != {len(facts.docs)} corpus lines")
    _require((out / "corpus.jsonl").read_bytes() == facts.data,
             "re-exported corpus differs from the input corpus")


def check_filter_rn(out: Path, facts: CorpusFacts) -> None:
    lines = (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    expected = facts.in_force("1990-12-31", sector=LEGISLATION)
    _require(len(lines) == expected,
             f"RN filter kept {len(lines)} docs, {expected} in force")


def check_temporal(out: Path, facts: CorpusFacts) -> None:
    _results(out / "temporal.json")
    _check_snapshot_nodes(out / "temporal_snapshots.csv", facts)


def check_bowtie_current(out: Path, facts: CorpusFacts) -> None:
    results = _results(out / "bowtie.json")
    expected = facts.in_force("2000-12-31")
    _require(results["nodes"] == expected,
             f"bow-tie nodes {results['nodes']} != {expected} in force")
    _check_bowtie(results, expected)
    with open(out / "bowtie_members.csv", newline="", encoding="utf-8") as fh:
        members = sum(1 for _ in fh) - 1
    _require(members == expected, f"{members} bow-tie members, {expected} nodes")


def check_powerlaw(out: Path, facts: CorpusFacts) -> None:
    fit = _results(out / "powerlaw.json")
    _require(fit["gamma"] > 1, f"gamma {fit['gamma']} <= 1")
    _require(fit["n_tail"] >= MIN_TAIL, f"n_tail {fit['n_tail']} < {MIN_TAIL}")
    _require(fit["x_min"] >= 1, f"x_min {fit['x_min']} < 1")
    _unit_interval(fit["p_value"], "p_value")


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``{corpus}``, ``{out}`` and ``{seed}`` are filled in."""

    argv: tuple[str, ...]
    check: Callable[[Path, CorpusFacts], None]

    def render(self, corpus: Path, out: Path, seed: int) -> list[str]:
        return [arg.format(corpus=corpus, out=out, seed=seed) for arg in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    docs_per_year: int
    commands: tuple[Command, ...]

    def output_dirs(self, rep_dir: Path) -> list[Path]:
        """One output directory per command of a repetition."""
        return [rep_dir / f"{i}-{cmd.argv[0]}"
                for i, cmd in enumerate(self.commands)]

    def generate_argv(self, out: Path, seed: int) -> list[str]:
        return ["generate", *GENERATOR_FLAGS,
                "--docs-per-year", str(self.docs_per_year),
                "--seed", str(seed), "--out", str(out)]


_COMMON = ("--input", "{corpus}", "--output-dir", "{out}", "--threads", "1",
           "--seed", "{seed}")

# Sizes: a repetition takes a few seconds on one core, so a 30-second run
# holds several and the whole run (set-up included) stays under a minute.
# Each workload keeps the share of work it was chosen for: traversal in
# ``battery``, parse + ingest in ``corpus-ops``, bootstrap in ``tailfit``.
WORKLOADS = {w.name: w for w in (
    Workload(
        "battery",
        "report-all: path BFS in the graph and its nulls plus resilience "
        "dominate; traversal kernels move it",
        100,
        (Command(("report-all", *_COMMON, "--path-mode", "sampled",
                  "--path-sources", "300", "--smallworld-replicas", "4",
                  "--resilience-reps", "20", "--bootstrap", "100"),
                 check_report_all),),
    ),
    Workload(
        "corpus-ops",
        "five commands that each re-parse and re-ingest, then filter, "
        "snapshot and export; the graph core moves it",
        200,
        (Command(("ingest", *_COMMON, "--out", "{out}/corpus.jsonl"),
                 check_ingest),
         Command(("filter", *_COMMON, "--network", "RN", "--at", "1990-12-31",
                  "--out", "{out}/corpus.jsonl"), check_filter_rn),
         Command(("temporal", *_COMMON), check_temporal),
         Command(("temporal", *_COMMON, "--network", "ICN"), check_temporal),
         Command(("bowtie", *_COMMON, "--current", "2000-12-31",
                  "--dump-members"), check_bowtie_current)),
    ),
    Workload(
        "tailfit",
        "power-law fits in and out at --bootstrap 2500; the bootstrap "
        "refits dominate and traversal is idle",
        100,
        (Command(("powerlaw", *_COMMON, "--direction", "in"), check_powerlaw),
         Command(("powerlaw", *_COMMON, "--direction", "out"), check_powerlaw)),
    ),
)}


def verify(cmd: Command, out: Path, ran: dict, facts: CorpusFacts) -> str | None:
    """Why a command failed, or None: exit code first, then its check."""
    if ran["code"] != 0:
        return f"{cmd.argv[0]} exited {ran['code']}: {ran['error'] or ''}"
    try:
        cmd.check(out, facts)
    except CheckFailed as exc:
        return f"{cmd.argv[0]}: {exc}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{cmd.argv[0]}: unreadable output: {exc!r}"
    return None


def output_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every output file; JSON reports without their manifest."""
    digests = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            try:
                body = json.dumps(_results(path), indent=2, sort_keys=True)
                data = body.encode("utf-8")
            except (ValueError, KeyError, TypeError):
                pass  # verify() reports the malformed report; hash it whole

        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digests
