from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legisnet
from legisnet.cli import _ingest_input, build_parser, main

from test_corpus import INGEST_FAULTS


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    assert main(["generate", "--years", "1990:1999", "--docs-per-year", "40",
                 "--densification", "1.2", "--mixing", "0.9", "--seed", "42",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture
def doubly_cited_path(tmp_path):
    """25 documents, each citing every other one as both ``legal_basis``
    and ``other``: 1,200 typed edges, more than the 600 distinct
    directed pairs of 25 nodes that a null could hold."""
    ids = [f"D{i:02d}" for i in range(25)]
    path = tmp_path / "doubly-cited.jsonl"
    path.write_text("".join(
        json.dumps({"id": doc_id, "sector": 3,
                    "date_of_effect": f"{1990 + i}-01-01",
                    "references": [{"target": target, "type": kind}
                                   for target in ids if target != doc_id
                                   for kind in ("legal_basis", "other")]})
        + "\n" for i, doc_id in enumerate(ids)))
    return path


NO_NULL = ("cannot place 1200 distinct directed edges on 25 nodes"
           " (max 600)")


def read_report(path: Path) -> dict:
    return json.loads(path.read_text())


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        args = ["generate", "--years", "1991:1995", "--docs-per-year", "20",
                "--seed", "7"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_output(self, capsys):
        assert main(["generate", "--years", "1991:1992", "--docs-per-year",
                     "5", "--seed", "1", "--out", "-"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        json.loads(lines[0])

    def test_bad_years_usage_error(self, capsys):
        assert main(["generate", "--years", "nope", "--out", "-"]) == 2

    @pytest.mark.parametrize("count", ["abc", "10,x"])
    def test_bad_docs_per_year_usage_error(self, capsys, count):
        assert main(["generate", "--years", "1990:1991", "--docs-per-year",
                     count, "--out", "-"]) == 2
        assert "bad document count" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--citation-scale", "nan"],
        ["--citation-scale", "inf"],
        ["--sector-weights", "nan,1,1,1,1,1"],
        ["--reftype-weights", "1,1,1,1,1,inf"],
        ["--years", "0:1"],
        ["--years", "9999:10000"],
        ["--sunset-prob", "1", "--sunset-horizon", "100000"],
        ["--years", "9998:9999", "--sunset-prob", "1"],
        # past int64, where the horizon draw fails even with no sunsets
        ["--sunset-horizon", "100000000000000000000"],
        ["--sunset-horizon", str(2**63)],
        ["--seed", "-1"],
        # finite, but the edge schedule overflows
        ["--citation-scale", "1e308"],
        ["--sector-weights", "1,2"],
        ["--docs-per-year", "0"],
        ["--sunset-prob", "1.5"],
        ["--sunset-horizon", "0"],
    ])
    def test_unusable_config_exits_2_with_one_line(self, tmp_path, capsys,
                                                   flags):
        out = tmp_path / "corpus.jsonl"
        assert main(["generate", "--years", "1990:1991", "--docs-per-year",
                     "5", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("legisnet generate [")
        assert not out.exists()

    def test_closed_pipe_exits_0(self):
        # like ``generate ... | head -1``: the reader leaves after one line
        env = {**os.environ,
               "PYTHONPATH": str(Path(legisnet.__file__).parent.parent)}
        run = subprocess.Popen(
            [sys.executable, "-m", "legisnet.cli", "generate", "--years",
             "1990:1999", "--docs-per-year", "500", "--seed", "3"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        json.loads(run.stdout.readline())
        run.stdout.close()  # far more than a pipe buffer is still unwritten
        assert run.wait(timeout=60) == 0
        assert run.stderr.read() == b""
        run.stderr.close()

    def test_largest_int64_horizon_still_generates(self, capsys):
        assert main(["generate", "--years", "1990:1990", "--docs-per-year",
                     "3", "--sunset-horizon", str(2**63 - 1), "--out", "-"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_infeasible_schedule_config_error(self, capsys):
        code = main(["generate", "--years", "1990:1990", "--docs-per-year",
                     "2", "--densification", "2.0", "--citation-scale", "10",
                     "--out", "-"])
        assert code == 2


class TestIngest:
    def test_report_schema(self, tmp_path, amendment_chain_jsonl):
        src = tmp_path / "in.jsonl"
        src.write_text(amendment_chain_jsonl)
        assert main(["ingest", "--input", str(src),
                     "--output-dir", str(tmp_path)]) == 0
        report = read_report(tmp_path / "ingest_report.json")
        assert set(report["results"]) == {"nodes", "edges", "stubs",
                                          "deduplicated", "per_type_counts"}
        assert report["results"]["nodes"] == 3
        assert report["results"]["edges"] == 4
        assert report["manifest"]["command"] == "ingest"
        assert report["manifest"]["input_digest"].startswith("sha256:")

    def test_bad_data_exit_3(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"id": "A", "sector": 99, "date_of_effect": "x"}\n')
        assert main(["ingest", "--input", str(src),
                     "--output-dir", str(tmp_path)]) == 3
        assert "legisnet ingest" in capsys.readouterr().err

    @pytest.mark.parametrize("references", ["5", "null"])
    def test_non_list_references_exit_3(self, tmp_path, capsys, references):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"id": "A", "sector": 3, "date_of_effect":'
                       f' "1990-01-01", "references": {references}}}\n')
        assert main(["ingest", "--input", str(src),
                     "--output-dir", str(tmp_path)]) == 3
        assert "references must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        (b'{"id": "A\xff", "sector": 3, "date_of_effect": "1990-01-01"}\n',
         "[legisnet.cli]: input '{path}' is not valid UTF-8"),
        (b"[" * 100_000 + b"\n",
         "[legisnet.corpus]: line 1: invalid JSON: maximum recursion depth "
         "exceeded while decoding a JSON array from a unicode string"),
        (b'{"id": "A", "sector": ' + b"1" * 4301 + b"}\n",
         "[legisnet.corpus]: line 1: invalid JSON: Exceeds the limit (4300 "
         "digits) for integer string conversion: value has 4301 digits; use "
         "sys.set_int_max_str_digits() to increase the limit"),
        (b'{"id": "A", "sector": 3, "date_of_effect": "1990-W01-1"}\n',
         "[legisnet.corpus]: line 1: bad date_of_effect '1990-W01-1': "
         "expected YYYY-MM-DD"),
    ], ids=["not-utf8", "deep-nesting", "long-integer", "week-date"])
    def test_malformed_input_exit_3(self, tmp_path, capsys, data, message):
        src = tmp_path / "bad.jsonl"
        src.write_bytes(data)
        assert main(["ingest", "--input", str(src),
                     "--output-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "legisnet ingest " + message.format(path=src)]

    @pytest.mark.parametrize("name", ["missing.jsonl", "adir"])
    def test_unreadable_input_exit_3(self, tmp_path, capsys, name):
        (tmp_path / "adir").mkdir()
        src = tmp_path / name
        assert main(["ingest", "--input", str(src),
                     "--output-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"legisnet ingest [legisnet.cli]: cannot read input {str(src)!r}: ")

    @pytest.mark.parametrize("lines, message", INGEST_FAULTS)
    def test_ingest_check_exit_3(self, tmp_path, capsys, lines, message):
        src = tmp_path / "bad.jsonl"
        src.write_text("\n".join(lines) + "\n")
        assert main(["ingest", "--input", str(src),
                     "--output-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "legisnet ingest [legisnet.corpus]: " + message]

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"],
                             ids=["line-separator", "paragraph-separator",
                                  "next-line"])
    def test_unicode_line_breaks_inside_strings(self, tmp_path, char):
        doc_id = f"A{char}B"
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"id": doc_id, "sector": 3,
                                   "date_of_effect": "1990-01-01"},
                                  ensure_ascii=False) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--input", str(src), "--out", str(out),
                     "--output-dir", str(tmp_path)]) == 0
        assert [json.loads(line)["id"]
                for line in out.read_text(encoding="utf-8").split("\n")
                if line] == [doc_id]

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends_read_alike_from_file_and_stdin(self, tmp_path,
                                                      monkeypatch, end):
        text = end.join(json.dumps({"id": doc_id, "sector": 3,
                                    "date_of_effect": "1990-01-01"})
                        for doc_id in "AB") + end
        src = tmp_path / "in.jsonl"
        src.write_bytes(text.encode())
        monkeypatch.setattr("sys.stdin", io.StringIO(text))  # untranslated
        reports = []
        for source in (str(src), "-"):
            out_dir = tmp_path / str(len(reports))
            assert main(["ingest", "--input", source,
                         "--output-dir", str(out_dir)]) == 0
            reports.append(read_report(out_dir / "ingest_report.json"))
        assert [r["results"]["nodes"] for r in reports] == [2, 2]
        assert len({r["manifest"]["input_digest"] for r in reports}) == 1

    def test_non_utf8_stdin_exit_3(self, tmp_path):
        env = {**os.environ,
               "PYTHONPATH": str(Path(legisnet.__file__).parent.parent)}
        run = subprocess.run(
            [sys.executable, "-m", "legisnet.cli", "ingest", "--input", "-"],
            input=b'{"id": "\xe9", "sector": 3, "date_of_effect": "1990-01-01"}\n',
            cwd=tmp_path, env=env, capture_output=True, timeout=60)
        assert run.returncode == 3
        assert run.stderr.decode().splitlines() == [
            "legisnet ingest [legisnet.cli]: input '-' is not valid UTF-8"]

    def test_strict_dangling_exit_3(self, tmp_path):
        src = tmp_path / "dangling.jsonl"
        src.write_text('{"id": "A", "sector": 3, "date_of_effect":'
                       ' "1990-01-01", "references":'
                       ' [{"target": "ZZZ", "type": "other"}]}\n')
        assert main(["ingest", "--input", str(src),
                     "--output-dir", str(tmp_path)]) == 3
        assert main(["ingest", "--lenient", "--input", str(src),
                     "--output-dir", str(tmp_path)]) == 0

    def test_stdin_input(self, tmp_path, monkeypatch, amendment_chain_jsonl):
        monkeypatch.setattr("sys.stdin", io.StringIO(amendment_chain_jsonl))
        assert main(["ingest", "--input", "-",
                     "--output-dir", str(tmp_path)]) == 0


class TestCollectorPause:
    """Loading a corpus pauses the cyclic collector and restores it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        gc.enable()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_load_leaves_the_collector_as_it_found_it(
            self, tmp_path, corpus_path, enabled):
        if not enabled:
            gc.disable()
        assert main(["ingest", "--input", str(corpus_path),
                     "--output-dir", str(tmp_path)]) == 0
        assert gc.isenabled() == enabled

    def test_collector_is_on_after_a_failed_load(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        good = '{"id": "%s", "sector": 3, "date_of_effect": "1990-01-01"}'
        src.write_text("\n".join([good % "A", good % "B", "{nope"]) + "\n")
        assert main(["ingest", "--input", str(src),
                     "--output-dir", str(tmp_path)]) == 3
        assert "line 3: invalid JSON" in capsys.readouterr().err
        assert gc.isenabled()

    def test_no_collection_while_loading(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.jsonl"
        assert main(["generate", "--years", "1990:1999", "--docs-per-year",
                     "200", "--seed", "5", "--out", str(path)]) == 0
        args = build_parser().parse_args(["ingest", "--input", str(path)])
        generations, loading = [], []

        def hook(phase, info):
            if phase == "start" and loading:
                generations.append(info["generation"])

        def traced_ingest(records, **kwargs):
            # ingest draws the records from read_records as it goes, so
            # this window covers parsing too
            loading.append(True)
            try:
                return ingest(records, **kwargs)
            finally:
                loading.clear()

        ingest = legisnet.cli.ingest
        monkeypatch.setattr(legisnet.cli, "ingest", traced_ingest)
        gc.callbacks.append(hook)
        try:
            graph, _, _ = _ingest_input(args)
        finally:
            gc.callbacks.remove(hook)
        assert graph.node_count >= 2000
        assert generations == []


class TestFilter:
    def test_sector_filter_roundtrip(self, tmp_path, corpus_path):
        out = tmp_path / "rn.jsonl"
        assert main(["filter", "--input", str(corpus_path), "--sector", "3",
                     "--out", str(out)]) == 0
        for line in out.read_text().splitlines():
            assert json.loads(line)["sector"] == 3

    def test_snapshot_filter(self, tmp_path, corpus_path):
        out = tmp_path / "t.jsonl"
        assert main(["filter", "--input", str(corpus_path), "--at",
                     "1994-12-31", "--out", str(out)]) == 0
        years = {json.loads(line)["date_of_effect"][:4]
                 for line in out.read_text().splitlines()}
        assert years <= {"1990", "1991", "1992", "1993", "1994"}

    def test_reftype_filter(self, tmp_path, corpus_path):
        out = tmp_path / "icn.jsonl"
        assert main(["filter", "--input", str(corpus_path), "--reftype",
                     "instruments_cited", "--out", str(out)]) == 0
        kinds = {ref["type"] for line in out.read_text().splitlines()
                 for ref in json.loads(line)["references"]}
        assert kinds <= {"instruments_cited"}


class TestMetrics:
    def test_report_and_csv(self, tmp_path, corpus_path):
        assert main(["metrics", "--input", str(corpus_path),
                     "--output-dir", str(tmp_path), "--seed", "3"]) == 0
        report = read_report(tmp_path / "metrics.json")
        results = report["results"]
        assert results["nodes"] == 400
        assert 0 <= results["components"]["gc_fraction"] <= 1
        assert "gini" in results["lorenz_gini"]["in"]
        for name in ("degree_histogram", "lorenz", "distances",
                     "clustering_by_degree"):
            csv_path = tmp_path / f"metrics_{name}.csv"
            assert csv_path.exists()
            raw = csv_path.read_bytes()
            assert b"\r\n" in raw  # RFC 4180 line endings

    def test_identical_reports_modulo_manifest(self, tmp_path, corpus_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["metrics", "--input", str(corpus_path),
                         "--output-dir", str(out), "--seed", "3"]) == 0
        rep_a = read_report(out_a / "metrics.json")
        rep_b = read_report(out_b / "metrics.json")
        assert rep_a["results"] == rep_b["results"]
        for key in ("command", "config", "input_digest", "seed",
                    "tool_version"):
            assert rep_a["manifest"][key] == rep_b["manifest"][key]

    @pytest.mark.parametrize("network, reftype", [
        ("ICN", "instruments_cited"), ("LBN", "legal_basis")])
    def test_network_preset(self, tmp_path, corpus_path, network, reftype):
        assert main(["ingest", "--input", str(corpus_path),
                     "--output-dir", str(tmp_path)]) == 0
        counts = read_report(tmp_path / "ingest_report.json")["results"][
            "per_type_counts"]
        assert main(["metrics", "--input", str(corpus_path), "--network",
                     network, "--output-dir", str(tmp_path)]) == 0
        report = read_report(tmp_path / "metrics.json")
        assert report["results"]["nodes"] == 400
        assert report["results"]["edges"] == counts[reftype] > 0
        assert report["manifest"]["config"]["network"] == network

    def test_two_documents_note_why_mixing_is_undefined(self, tmp_path):
        src = tmp_path / "two.jsonl"
        src.write_text(
            '{"id": "A", "sector": 3, "date_of_effect": "1990-01-01"}\n'
            '{"id": "B", "sector": 3, "date_of_effect": "1991-01-01",'
            ' "references": [{"target": "A", "type": "other"}]}\n')
        assert main(["metrics", "--input", str(src),
                     "--output-dir", str(tmp_path)]) == 0
        note = {"value": None,
                "note": "assortativity requires at least 2 projection edges"}
        assert read_report(tmp_path / "metrics.json")["results"][
            "assortativity"] == {"degree": note, "sector": note}

    def test_more_sources_than_the_giant_is_exact(self, tmp_path, corpus_path):
        paths = {}
        for mode in ("exact", "sampled"):
            out = tmp_path / mode
            assert main(["metrics", "--input", str(corpus_path), "--path-mode",
                         mode, "--path-sources", "100000",
                         "--output-dir", str(out)]) == 0
            paths[mode] = read_report(out / "metrics.json")["results"]
        sampled = paths["sampled"]["path_metrics"]
        assert sampled["mode"] == "exact"
        assert sampled["sources"] == paths["sampled"]["components"]["gc_size"]
        assert sampled["diameter_is_lower_bound"] is False
        assert sampled == paths["exact"]["path_metrics"]

    def test_float_formatting_nine_digits(self, tmp_path, corpus_path):
        assert main(["metrics", "--input", str(corpus_path),
                     "--output-dir", str(tmp_path)]) == 0
        text = (tmp_path / "metrics.json").read_text()
        gini = json.loads(text)["results"]["lorenz_gini"]["in"]["gini"]
        assert gini == float(f"{gini:.9g}")

    def test_bad_smallworld_factors_exit_2(self, tmp_path, capsys, corpus_path):
        out = tmp_path / "out"
        assert main(["smallworld", "--input", str(corpus_path),
                     "--length-factor", "nan", "--clustering-factor", "-1",
                     "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "legisnet smallworld [legisnet.randmodels]: length_factor must be"
            " finite and > 0, got nan"]
        assert not (out / "smallworld.json").exists()

    def test_compute_error_exit_4(self, tmp_path, capsys):
        src = tmp_path / "tiny.jsonl"
        src.write_text('{"id": "A", "sector": 3, "date_of_effect":'
                       ' "1990-01-01", "references": []}\n')
        assert main(["metrics", "--input", str(src),
                     "--output-dir", str(tmp_path)]) == 4


UNWRITABLE_OUT = "cannot write output {target!r}: No such file or directory"
DIRECTORY_OUT = "cannot write output {target!r}: Is a directory"


class TestOtherCommands:
    def test_bowtie(self, tmp_path, corpus_path):
        assert main(["bowtie", "--input", str(corpus_path), "--dump-members",
                     "--output-dir", str(tmp_path)]) == 0
        report = read_report(tmp_path / "bowtie.json")
        fractions = report["results"]["fractions"]
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)
        members = (tmp_path / "bowtie_members.csv").read_bytes()
        assert members.count(b"\r\n") >= 400

    def test_powerlaw(self, tmp_path, capsys, corpus_path):
        assert main(["powerlaw", "--input", str(corpus_path), "--direction",
                     "in", "--bootstrap", "20", "--output-dir",
                     str(tmp_path), "--seed", "5"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "legisnet powerlaw [legisnet.heavytail]: warning: bootstrap m=20"
            " below 2500: p-value resolution is limited to 0.05"]
        report = read_report(tmp_path / "powerlaw.json")
        assert report["results"]["gamma"] > 1.0
        assert 0.0 <= report["results"]["p_value"] <= 1.0
        assert (tmp_path / "powerlaw_ccdf_in.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["powerlaw", "--bootstrap", "0"],
        ["powerlaw", "--min-tail", "0"],
        ["powerlaw", "--min-tail", "-1"],
        ["smallworld", "--replicas", "0"],
        ["resilience", "--reps", "0"],
        ["report-all", "--bootstrap", "0"],
        ["report-all", "--min-tail", "0"],
        ["report-all", "--smallworld-replicas", "0"],
        ["report-all", "--resilience-reps", "-3"],
        ["resilience", "--threads", "0"],
        ["resilience", "--threads", "-3"],
        ["metrics", "--path-sources", "-5", "--path-mode", "sampled"],
        ["metrics", "--path-sources", "0", "--path-mode", "sampled"],
        ["metrics", "--path-sources", "0"],
        ["smallworld", "--path-sources", "-5", "--path-mode", "sampled"],
        ["smallworld", "--path-sources", "0", "--path-mode", "sampled"],
        ["smallworld", "--path-sources", "0"],
        ["report-all", "--path-sources", "0"],
    ])
    def test_count_below_one_exits_2_before_any_stage(self, tmp_path, capsys,
                                                      corpus_path, argv):
        out = tmp_path / "out"
        assert main([*argv, "--input", str(corpus_path),
                     "--output-dir", str(out)]) == 2
        command, flag, value = argv[:3]
        assert capsys.readouterr().err.splitlines() == [
            f"legisnet {command} [legisnet.cli]: {flag} must be >= 1,"
            f" got {value}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report-all", "resilience"])
    @pytest.mark.parametrize("flag, value, message", [
        pytest.param("--step", "0", "--step must be in (0, 1), got 0.0",
                     id="step-0"),
        pytest.param("--step", "1", "--step must be in (0, 1), got 1.0",
                     id="step-1"),
        pytest.param("--stop-at", "1.5", "--stop-at must be in (0, 1], got 1.5",
                     id="stop-at-1.5"),
        pytest.param("--stop-at", "0", "--stop-at must be in (0, 1], got 0.0",
                     id="stop-at-0"),
    ])
    def test_bad_removal_schedule_exits_2_before_reading_input(
            self, tmp_path, capsys, command, flag, value, message):
        out = tmp_path / "out"
        # an unreadable input would exit 3 once read
        assert main([command, flag, value,
                     "--input", str(tmp_path / "missing.jsonl"),
                     "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"legisnet {command} [legisnet.cli]: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, target, message", [
        (["generate", "--years", "1990:1991", "--out", "{missing}"],
         "{missing}", UNWRITABLE_OUT),
        (["ingest", "--input", "{corpus}", "--out", "{missing}",
          "--output-dir", "{reports}"], "{missing}", UNWRITABLE_OUT),
        (["filter", "--input", "{corpus}", "--sector", "3", "--out", "{missing}"],
         "{missing}", UNWRITABLE_OUT),
        (["generate", "--years", "1990:1999", "--docs-per-year", "40",
          "--out", "{adir}"], "{adir}", DIRECTORY_OUT),
        (["ingest", "--input", "{corpus}", "--out", "{adir}",
          "--output-dir", "{reports}"], "{adir}", DIRECTORY_OUT),
        (["ingest", "--input", "{corpus}", "--output-dir", "{corpus}"],
         "{corpus}", "cannot make output directory {target!r}: File exists"),
    ], ids=["generate-out", "ingest-out", "filter-out", "generate-out-dir",
            "ingest-out-dir", "ingest-output-dir"])
    def test_unwritable_output_exits_2_with_one_line(
            self, tmp_path, corpus_path, argv, target, message):
        # a fresh process, so that a traceback would reach stderr
        paths = {"missing": str(tmp_path / "missing" / "c.jsonl"),
                 "adir": str(tmp_path / "adir"),
                 "corpus": str(corpus_path), "reports": str(tmp_path / "reports")}
        (tmp_path / "adir").mkdir()
        argv = [arg.format(**paths) for arg in argv]
        target = target.format(**paths)
        env = {**os.environ,
               "PYTHONPATH": str(Path(legisnet.__file__).parent.parent)}
        run = subprocess.run([sys.executable, "-m", "legisnet.cli", *argv],
                             cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 2
        assert run.stderr.splitlines() == [
            f"legisnet {argv[0]} [legisnet.cli]: " + message.format(target=target)]
        # an unusable --out is found before any report is written
        assert not (tmp_path / "reports").exists()

    def test_out_directory_exits_2_before_generating(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(legisnet.cli, "generate",
                            lambda *args: calls.append(args))
        assert main(["generate", "--years", "1990:1999", "--docs-per-year",
                     "40", "--out", str(tmp_path)]) == 2
        assert calls == []
        assert capsys.readouterr().err.splitlines() == [
            "legisnet generate [legisnet.cli]: "
            + DIRECTORY_OUT.format(target=str(tmp_path))]

    def test_unmakeable_output_dir_exits_2_before_the_stage(
            self, capsys, monkeypatch, corpus_path):
        calls = []
        monkeypatch.setitem(legisnet.cli.STAGES, "metrics",
                            lambda *args: calls.append(args))
        out = str(corpus_path / "sub")
        assert main(["metrics", "--input", str(corpus_path),
                     "--output-dir", out]) == 2
        assert calls == []
        assert capsys.readouterr().err.splitlines() == [
            f"legisnet metrics [legisnet.cli]: cannot make output directory "
            f"{out!r}: Not a directory"]

    @pytest.mark.parametrize("argv", [
        ["report-all", "--years", "abc"],
        ["report-all", "--years", "2000:1990"],
        ["temporal", "--years", "2000:1990"],
        ["temporal", "--years", "0:5"],
    ])
    def test_bad_years_exits_2_before_any_stage(self, tmp_path, capsys,
                                                corpus_path, argv):
        out = tmp_path / "out"
        assert main([*argv, "--input", str(corpus_path),
                     "--output-dir", str(out)]) == 2
        command, _, raw = argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"legisnet {command} [legisnet.cli]: bad year range {raw!r}; ")
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["20001231", "2000-W52-1"])
    @pytest.mark.parametrize("command, flag", [("bowtie", "--current"),
                                               ("filter", "--at")])
    def test_only_calendar_dates_are_dates(self, capsys, corpus_path,
                                           command, flag, raw):
        assert main([command, flag, raw, "--input", str(corpus_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"legisnet {command} [legisnet.cli]: bad date {raw!r}: "
            "expected YYYY-MM-DD"]

    def test_min_tail_above_every_tail_exits_4(self, tmp_path, capsys,
                                               corpus_path):
        assert main(["powerlaw", "--input", str(corpus_path), "--min-tail",
                     "100000", "--output-dir", str(tmp_path)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "legisnet powerlaw [legisnet.heavytail]: no threshold keeps"
            " min_tail=100000 observations in its tail; the sample has 285"
            " positive values"]
        assert not (tmp_path / "powerlaw.json").exists()

    def test_smallworld(self, tmp_path, corpus_path):
        assert main(["smallworld", "--input", str(corpus_path), "--replicas",
                     "2", "--output-dir", str(tmp_path)]) == 0
        report = read_report(tmp_path / "smallworld.json")
        assert isinstance(report["results"]["small_world_verdict"], bool)

    def test_temporal(self, tmp_path, corpus_path):
        assert main(["temporal", "--input", str(corpus_path),
                     "--output-dir", str(tmp_path)]) == 0
        report = read_report(tmp_path / "temporal.json")
        assert report["results"]["years"] == [1990, 1999]
        assert report["results"]["densification"]["slope"] > 1.0
        csv_lines = (tmp_path / "temporal_snapshots.csv").read_text().splitlines()
        assert len(csv_lines) == 11  # header + one row per year

    def test_temporal_of_an_empty_corpus_exits_4(self, tmp_path, capsys):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        out = tmp_path / "out"
        assert main(["temporal", "--input", str(src),
                     "--output-dir", str(out)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "legisnet temporal [legisnet.cli]: corpus has no documents;"
            " no year range to analyze"]
        assert not (out / "temporal.json").exists()

    def test_resilience(self, tmp_path, corpus_path):
        assert main(["resilience", "--input", str(corpus_path), "--strategy",
                     "both", "--reps", "3", "--output-dir", str(tmp_path),
                     "--seed", "2"]) == 0
        report = read_report(tmp_path / "resilience.json")
        strategies = {c["strategy"] for c in report["results"]["curves"]}
        assert strategies == {"random", "targeted_by_degree"}
        assert (tmp_path / "resilience_curve.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["smallworld", "--replicas", "2"],
        ["resilience", "--with-null", "--reps", "2"],
    ])
    def test_edges_no_null_can_hold_exit_4(self, tmp_path, capsys,
                                           doubly_cited_path, argv):
        out = tmp_path / "out"
        assert main([*argv, "--input", str(doubly_cited_path),
                     "--output-dir", str(out)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"legisnet {argv[0]} [legisnet.randmodels]: {NO_NULL}"]
        assert not (out / f"{argv[0]}.json").exists()

    def test_resilience_with_null(self, tmp_path, corpus_path):
        assert main(["resilience", "--input", str(corpus_path), "--strategy",
                     "random", "--reps", "2", "--with-null",
                     "--output-dir", str(tmp_path)]) == 0
        report = read_report(tmp_path / "resilience.json")
        assert len(report["results"]["curves"]) == 2
        assert report["results"]["curves"][1].get("null_model")

    def test_report_all(self, tmp_path, corpus_path):
        assert main(["report-all", "--input", str(corpus_path),
                     "--bootstrap", "10", "--resilience-reps", "2",
                     "--smallworld-replicas", "2", "--path-sources", "50",
                     "--output-dir", str(tmp_path), "--seed", "1"]) == 0
        report = read_report(tmp_path / "report.json")
        for section in ("structure", "bowtie", "powerlaw", "smallworld",
                        "temporal", "resilience"):
            assert section in report["results"]
        side_files = {p.name for p in tmp_path.glob("report_*.csv")}
        assert "report_snapshots.csv" in side_files
        assert "report_resilience.csv" in side_files


class TestReportAll:
    FLAGS = ["--seed", "1", "--bootstrap", "10", "--path-mode", "sampled",
             "--path-sources", "50"]

    def test_sections_equal_subcommands(self, tmp_path, corpus_path):
        report_dir = tmp_path / "report"
        assert main(["report-all", "--input", str(corpus_path),
                     "--output-dir", str(report_dir), *self.FLAGS,
                     "--smallworld-replicas", "2",
                     "--resilience-reps", "2"]) == 0
        report = read_report(report_dir / "report.json")["results"]
        paths = ["--path-mode", "sampled", "--path-sources", "50"]

        def sub(name, *argv):
            out = tmp_path / name
            assert main([*argv, "--input", str(corpus_path), "--output-dir",
                         str(out), "--seed", "1"]) == 0
            return read_report(out / f"{argv[0]}.json")["results"]

        def csv_bytes(name, file):
            return (tmp_path / name / file).read_bytes()

        def report_csv(key):
            return (report_dir / f"report_{key}.csv").read_bytes()

        assert report["structure"] == sub("metrics", "metrics", *paths)
        for key in ("degree_histogram", "lorenz", "distances",
                    "clustering_by_degree"):
            assert report_csv(key) == csv_bytes("metrics", f"metrics_{key}.csv")

        bowtie = sub("bowtie", "bowtie")
        assert bowtie.pop("nodes") == report["nodes"]
        assert report["bowtie"] == bowtie

        for d in ("in", "out"):
            assert report["powerlaw"][d] == sub(
                f"powerlaw-{d}", "powerlaw", "--direction", d,
                "--bootstrap", "10")
            assert report_csv(f"ccdf_{d}") == csv_bytes(
                f"powerlaw-{d}", f"powerlaw_ccdf_{d}.csv")

        assert report["smallworld"] == sub(
            "smallworld", "smallworld", "--replicas", "2", *paths)

        temporal = sub("temporal", "temporal")
        assert temporal.pop("network") == "LN"
        assert report["temporal"] == temporal
        assert report_csv("snapshots") == csv_bytes(
            "temporal", "temporal_snapshots.csv")

        # report-all's resilience: random with its null, then targeted
        random = sub("random", "resilience", "--strategy", "random",
                     "--reps", "2", "--with-null")
        targeted = sub("targeted", "resilience", "--strategy",
                       "targeted_by_degree")
        assert report["resilience"] == random["curves"] + targeted["curves"]
        targeted_rows = csv_bytes("targeted", "resilience_curve.csv")
        assert report_csv("resilience") == (
            csv_bytes("random", "resilience_curve.csv")
            + targeted_rows.split(b"\r\n", 1)[1])

    def test_undefined_sections_keep_the_rest(self, tmp_path, capsys):
        corpus = tmp_path / "two-years.jsonl"
        assert main(["generate", "--years", "1990:1991", "--docs-per-year",
                     "60", "--mixing", "0.9", "--seed", "4",
                     "--out", str(corpus)]) == 0
        out = tmp_path / "out"
        code = main(["report-all", "--input", str(corpus), "--output-dir",
                     str(out), "--min-tail", "10", "--smallworld-replicas",
                     "2", "--resilience-reps", "2", *self.FLAGS])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "legisnet report-all [legisnet.heavytail]: power-law fit needs"
            " >= 50 positive observations, got 47",
            "legisnet report-all [legisnet.temporal]: densification fit"
            " needs >= 3 usable snapshots, got 2",
        ]
        report = read_report(out / "report.json")["results"]
        assert report["temporal"] == {
            "error": "densification fit needs >= 3 usable snapshots, got 2"}
        assert set(report["powerlaw"]) == {"error"}
        assert report["structure"]["nodes"] == report["nodes"] == 120
        assert sum(report["bowtie"]["sizes"].values()) == 120
        assert isinstance(report["smallworld"]["small_world_verdict"], bool)
        assert len(report["resilience"]) == 3
        assert {p.name for p in out.glob("report_*.csv")} == {
            "report_degree_histogram.csv", "report_lorenz.csv",
            "report_distances.csv", "report_clustering_by_degree.csv",
            "report_resilience.csv"}


    def test_edges_no_null_can_hold_end_their_sections(
            self, tmp_path, capsys, doubly_cited_path):
        out = tmp_path / "out"
        code = main(["report-all", "--input", str(doubly_cited_path),
                     "--output-dir", str(out), "--smallworld-replicas", "2",
                     "--resilience-reps", "2", *self.FLAGS])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            "legisnet report-all [legisnet.heavytail]: power-law fit needs"
            " >= 50 positive observations, got 25",
            f"legisnet report-all [legisnet.randmodels]: {NO_NULL}",
            f"legisnet report-all [legisnet.randmodels]: {NO_NULL}",
        ]
        report = read_report(out / "report.json")["results"]
        assert report["edges"] == 1200 and report["nodes"] == 25
        assert report["smallworld"] == report["resilience"] == {"error": NO_NULL}
        assert report["structure"]["edges"] == 1200
        assert report["temporal"]["years"] == [1990, 2014]
        assert {p.name for p in out.glob("report_*.csv")} == {
            "report_degree_histogram.csv", "report_lorenz.csv",
            "report_distances.csv", "report_clustering_by_degree.csv",
            "report_snapshots.csv"}


class TestEnvironment:
    def test_output_dir_env_var(self, tmp_path, monkeypatch, amendment_chain_jsonl):
        src = tmp_path / "in.jsonl"
        src.write_text(amendment_chain_jsonl)
        target = tmp_path / "from-env"
        monkeypatch.setenv("LEGISNET_OUTPUT_DIR", str(target))
        assert main(["ingest", "--input", str(src)]) == 0
        assert (target / "ingest_report.json").exists()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["metrics", "--frobnicate"])
        assert err.value.code == 2

    def test_module_run_names_cli_module(self, tmp_path):
        # under ``python -m`` the CLI module's __name__ is __main__
        env = {**os.environ,
               "PYTHONPATH": str(Path(legisnet.__file__).parent.parent)}
        run = subprocess.run(
            [sys.executable, "-m", "legisnet.cli", "powerlaw", "--bootstrap",
             "0", "--input", os.devnull],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 2
        assert run.stderr.splitlines() == [
            "legisnet powerlaw [legisnet.cli]: --bootstrap must be >= 1, got 0"]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "legisnet" in capsys.readouterr().out
