from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from legisnet.cli import main


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    assert main(["generate", "--years", "1990:1999", "--docs-per-year", "40",
                 "--densification", "1.2", "--mixing", "0.9", "--seed", "42",
                 "--out", str(path)]) == 0
    return path


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

    def test_network_preset(self, tmp_path, corpus_path):
        assert main(["metrics", "--input", str(corpus_path), "--network",
                     "ICN", "--output-dir", str(tmp_path)]) == 0
        report = read_report(tmp_path / "metrics.json")
        assert report["results"]["nodes"] == 400
        assert report["manifest"]["config"]["network"] == "ICN"

    def test_float_formatting_nine_digits(self, tmp_path, corpus_path):
        assert main(["metrics", "--input", str(corpus_path),
                     "--output-dir", str(tmp_path)]) == 0
        text = (tmp_path / "metrics.json").read_text()
        gini = json.loads(text)["results"]["lorenz_gini"]["in"]["gini"]
        assert gini == float(f"{gini:.9g}")

    @pytest.mark.parametrize("command", ["metrics", "smallworld"])
    @pytest.mark.parametrize("sources", ["-5", "0"])
    def test_bad_path_sources_exit_2(self, tmp_path, capsys, corpus_path,
                                     command, sources):
        assert main([command, "--input", str(corpus_path), "--path-mode",
                     "sampled", "--path-sources", sources,
                     "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"legisnet {command} [legisnet.metrics]:" in err
        assert "Traceback" not in err

    def test_compute_error_exit_4(self, tmp_path, capsys):
        src = tmp_path / "tiny.jsonl"
        src.write_text('{"id": "A", "sector": 3, "date_of_effect":'
                       ' "1990-01-01", "references": []}\n')
        assert main(["metrics", "--input", str(src),
                     "--output-dir", str(tmp_path)]) == 4


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
    ])
    def test_count_below_one_exits_2_before_any_stage(self, tmp_path, capsys,
                                                      corpus_path, argv):
        out = tmp_path / "out"
        assert main([*argv, "--input", str(corpus_path),
                     "--output-dir", str(out)]) == 2
        command, flag, value = argv
        assert capsys.readouterr().err.splitlines() == [
            f"legisnet {command} [legisnet.cli]: {flag} must be >= 1,"
            f" got {value}"]
        assert not out.exists()

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

    def test_resilience(self, tmp_path, corpus_path):
        assert main(["resilience", "--input", str(corpus_path), "--strategy",
                     "both", "--reps", "3", "--output-dir", str(tmp_path),
                     "--seed", "2"]) == 0
        report = read_report(tmp_path / "resilience.json")
        strategies = {c["strategy"] for c in report["results"]["curves"]}
        assert strategies == {"random", "targeted_by_degree"}
        assert (tmp_path / "resilience_curve.csv").exists()

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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "legisnet" in capsys.readouterr().out
