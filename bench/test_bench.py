"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

The slow tests run real workloads; together they take a few minutes
on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import calibrate
import run
from spans import COUNTS, covered, self_times, summarize, unit_of
from workloads import (
    WORKLOADS,
    CheckFailed,
    CorpusFacts,
    check_bowtie_current,
    check_filter_rn,
    check_report_all,
)

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": "t"}


SPANS = [
    _span("run", 0.0, 10.0, -1),
    _span("cli.main", 0.0, 10.0, 0),
    _span("metrics.path_metrics", 1.0, 5.0, 1),
    _span("metrics.path_stats", 2.0, 4.5, 2),
    _span("randmodels.small_world", 5.0, 9.0, 1),
    _span("metrics.path_stats", 6.0, 8.0, 4),
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(SPANS) == [0.0, 2.0, 1.5, 2.5, 2.0, 2.0]


def test_covered_counts_nested_spans_once():
    names = {"metrics.path_metrics", "metrics.path_stats"}
    assert covered(SPANS, names) == pytest.approx(4.0 + 2.0)


def test_summarize_sums_inclusive_time_and_module_self_time():
    layers = summarize(SPANS, {"heavytail.refits": 4,
                               "heavytail.refits_failed": 1})
    assert layers["metrics.path_stats_s"] == pytest.approx(4.5)
    assert layers["metrics.self_s"] == pytest.approx(1.5 + 2.5 + 2.0)
    assert layers["cli.self_s"] == pytest.approx(2.0)
    assert layers["heavytail.refit_failed_ratio"] == 0.25
    assert layers["corpus.edges_kept_ratio"] == 0.0


@pytest.fixture
def facts(tmp_path: Path) -> CorpusFacts:
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"id":"a","sector":3,"date_of_effect":"1980-01-01","references":[]}\n'
        '{"id":"b","sector":3,"date_of_effect":"1985-01-01",'
        '"date_of_expiry":"1990-06-30","references":[]}\n'
        '{"id":"c","sector":1,"date_of_effect":"1990-12-31","references":[]}\n',
        encoding="utf-8")
    return CorpusFacts(corpus)


def test_ticker_takes_its_ticks_out_of_the_time_it_reports():
    ticker = calibrate.Ticker().start()
    mark = ticker.mark()
    started = perf_counter()
    while perf_counter() - started < 3 * calibrate.PERIOD_S:
        pass
    elapsed = perf_counter() - started
    raw, mean_sample = ticker.since(mark)
    ticker.stop()
    ticks = ticker.samples[1:]  # start() took the first, before the mark
    assert len(ticks) >= 2
    assert raw == pytest.approx(elapsed - sum(ticks), abs=0.01)
    taken = len(ticker.samples)
    while perf_counter() - started < 5 * calibrate.PERIOD_S:
        pass
    assert len(ticker.samples) == taken  # none after stop()
    assert mean_sample == pytest.approx(sum(ticks) / len(ticks))
    assert calibrate.scale(raw, mean_sample) == pytest.approx(
        raw * calibrate.REFERENCE_S / mean_sample)


def test_corpus_facts_count_documents_in_force(facts):
    assert facts.in_force("1990-12-31") == 2
    assert facts.in_force("1990-12-31", sector=3) == 1
    assert facts.in_force("1986-01-01") == 2
    assert list(facts.years()) == list(range(1980, 1991))


def _write_report(path: Path, results: dict) -> None:
    path.write_text(json.dumps({"manifest": {}, "results": results}),
                    encoding="utf-8")


def test_checks_reject_wrong_outputs(facts, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "corpus.jsonl").write_text("x\ny\n", encoding="utf-8")
    with pytest.raises(CheckFailed):
        check_filter_rn(out, facts)  # one sector-3 doc in force, not two

    _write_report(out / "bowtie.json", {"nodes": 2, "sizes": {"core": 1}})
    (out / "bowtie_members.csv").write_text("component,id\ncore,a\nin,c\n")
    with pytest.raises(CheckFailed):
        check_bowtie_current(out, facts)  # sizes sum to 1, not 2

    good = {"nodes": 3, "bowtie": {"sizes": {"core": 3}},
            "powerlaw": {"in": {"p_value": 0.5}},
            "resilience": [{"strategy": "random",
                            "points": [{"fraction_removed": 0.0,
                                        "gc_fraction_of_original": 1.0}]}]}
    _write_report(out / "report.json", good)
    check_report_all(out, facts)
    good["resilience"][0]["points"][0]["gc_fraction_of_original"] = 1.5
    _write_report(out / "report.json", good)
    with pytest.raises(CheckFailed):
        check_report_all(out, facts)


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    for metric in spec["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"])


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "battery", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# Counts each workload must move; the others stay at zero by design.
_EXERCISED = {
    "battery": {*COUNTS, "corpus.edges_kept_ratio"},
    "corpus-ops": {"corpus.records", "graph.induced_subgraph_calls",
                   "temporal.snapshots", "corpus.edges_kept_ratio"},
    "tailfit": {"corpus.records", "heavytail.refits", "corpus.edges_kept_ratio"},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_and_digests_repeat_exactly(name, tmp_path):
    workload = WORKLOADS[name]
    deadline = perf_counter() + 300
    corpus, _ = run.setup(workload, 5, tmp_path, deadline)
    facts = CorpusFacts(corpus)
    first, second = (run.measure(workload, 5, facts, tmp_path, 0, True, deadline)
                     for _ in range(2))
    assert first["errors"] == second["errors"] == [[None] * len(workload.commands)]
    counts = [{key: value for key, value
               in summarize(rep["spans"], rep["counts"]).items()
               if unit_of(key) != "s"} for rep in (first, second)]
    assert counts[0] == counts[1]
    assert all(counts[0][key] > 0 for key in _EXERCISED[name])
    assert first["digests"] == second["digests"]
    names, least = run.STRESS[name]
    assert covered(first["spans"], names) >= least * first["walls"][0]


def test_traced_run_prints_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         "battery", "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
