"""Names that tooling looks up in the package still resolve, and the
reports stay the same.

``bench/spans.py`` patches CLI imports, module globals and graph methods
by name, so deleting or renaming one of them breaks the benchmark; so
does deleting or renaming a flag that a workload in
``bench/workloads.py`` passes, so every workload's commands must parse.
The tracer is installed in a fresh interpreter, so its patches never reach
the package this test session imports.  Its count of bootstrap refits
must equal the bootstrap's number of blocks.  ``__all__`` is kept apart
from the package's import list, and only a star import reads it.  The
version in ``pyproject.toml`` is ``legisnet.__version__``.

Every command starts a fresh process, so importing the package loads
no scipy and no process pool (only ``--threads`` > 1 uses one), and a
command loads only the scipy parts its stages call: none for
``generate``, ``ingest`` and ``filter``, ``scipy.special`` alone for
``powerlaw``.  ``bench/worker.py`` times set-up by wrapping
``legisnet.cli.generate``, so ``generate`` must write what that global
returns.  Each case is probed in a fresh interpreter, and a static
check finds any module-level scipy import.  A bare ``np.unique`` (no
index, inverse or counts asked for)
goes through numpy's hash table, many times slower than a sort at the
package's sizes, so the package may not call it.

Refactors that promise byte-identical output are held to it: a small
corpus built with the criterion-11 generator flags is run through five
commands, and the sha256 of every report body (manifest dropped) and
every CSV must equal the digest recorded before the refactor.  So must
the generated corpus and one filtered export, which guard the
generator's random stream and the byte order of ``export``.  Float
results can move with the numerical libraries, so the check is skipped
under other numpy or scipy versions than the recorded ones; the null
models' edges also come from numpy's ``Generator.choice``, whose draws
are fixed only within one numpy version.  Every JSON report must parse
as strict JSON (RFC 8259), with no NaN or Infinity token.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import legisnet
from legisnet.cli import build_parser, main

from conftest import export_text, reject_constant

ROOT = Path(__file__).resolve().parent.parent

CORPUS = ["generate", "--years", "1951:2000", "--docs-per-year", "40",
          "--densification", "1.128", "--mixing", "0.8", "--sunset-prob",
          "0.15", "--sunset-horizon", "25", "--seed", "11"]  # 2,000 docs

INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
spans.Tracer("t").install()
"""


def test_bench_tracer_installs():
    run = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr


BENCH_WORKLOADS = [w["name"] for w in
                   json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", BENCH_WORKLOADS)
def test_bench_argv_parses(tmp_path, monkeypatch, name):
    """Every command of each workload that ``BENCHMARK.json`` declares,
    and the workload's ``generate`` call, parses, so a deleted or renamed
    flag that the benchmark passes fails here rather than in every
    benchmark run.  ``workloads.py`` is loaded by path, leaving
    ``sys.path`` as it is; its dataclasses need it in ``sys.modules``
    while it runs."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    parser = build_parser()
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    workload = workloads.WORKLOADS[name]
    argvs = [workload.generate_argv(corpus, 11)]
    argvs += [cmd.render(corpus, out, 11) for cmd in workload.commands]
    for argv in argvs:
        assert parser.parse_args(argv).command == argv[0]


TRACED = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
tracer = spans.Tracer("t")
tracer.install()
from legisnet.cli import main
assert main(json.loads(sys.argv[3])) == 0
print(json.dumps(tracer.counts))
"""


def test_traced_bootstrap_counts_one_refit_per_block(tmp_path, tooling_corpus):
    """The tracer counts ``heavytail.refits`` by wrapping heavytail's
    ``fit_power_law`` global, so the bootstrap must refit each block
    through that name, once."""
    argv = ["powerlaw", "--input", str(tooling_corpus), "--output-dir",
            str(tmp_path), "--bootstrap", "60"]
    run = subprocess.run(
        [sys.executable, "-c", TRACED, str(ROOT / "bench"), str(ROOT / "src"),
         json.dumps(argv)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    counts = json.loads(run.stdout.splitlines()[-1])
    with open(tooling_corpus, encoding="utf-8") as fh:
        graph, _ = legisnet.ingest(legisnet.read_records(fh))
    n = int(np.count_nonzero(graph.degree_array("in")))
    per_block = max(1, legisnet.heavytail.BLOCK_VALUES // n)
    assert counts["heavytail.refits"] == -(-60 // per_block)


def test_generate_runs_through_the_cli_global(tmp_path, monkeypatch):
    """``bench/worker.py`` times set-up by wrapping ``legisnet.cli.generate``,
    so the command must call the module global and write what it returns."""
    import legisnet.cli as cli
    graphs = []

    def counted(config):
        graphs.append(cli_generate(config))
        return graphs[-1]

    cli_generate = cli.generate
    monkeypatch.setattr(cli, "generate", counted)
    out = tmp_path / "corpus.jsonl"
    assert main(["generate", "--years", "1990:1994", "--docs-per-year", "20",
                 "--seed", "3", "--out", str(out)]) == 0
    assert len(graphs) == 1
    assert out.read_text(encoding="utf-8") == export_text(graphs[0])


def _in_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


@pytest.fixture(scope="module")
def tooling_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("tooling") / "corpus.jsonl"
    assert main([*CORPUS, "--out", str(path)]) == 0
    return path


LOADED = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
argv = json.loads(sys.argv[2])
if argv:
    assert sys.modules["legisnet.cli"].main(argv) == 0
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize("module, argv, absent, present", [
    ("legisnet", [], ["scipy"], []),
    ("legisnet.cli", [], ["scipy"], []),
    ("legisnet.cli", [], ["concurrent.futures.process"], []),
    ("legisnet.cli", [*CORPUS, "--out", "{out}/g.jsonl"], ["scipy"], []),
    ("legisnet.cli", ["ingest", "--input", "{corpus}", "--out",
                      "{out}/i.jsonl", "--output-dir", "{out}"], ["scipy"], []),
    ("legisnet.cli", ["filter", "--input", "{corpus}", "--sector", "3",
                      "--out", "{out}/f.jsonl"], ["scipy"], []),
    ("legisnet.cli", ["powerlaw", "--input", "{corpus}", "--bootstrap", "20",
                      "--output-dir", "{out}"], ["scipy.sparse"],
     ["scipy.special"]),
    ("legisnet.cli", ["powerlaw", "--input", "{corpus}", "--direction", "out",
                      "--bootstrap", "300", "--threads", "2",
                      "--output-dir", "{out}"],
     ["concurrent.futures.process"], []),
], ids=["package-scipy", "cli-scipy", "cli-process-pool", "generate",
        "ingest", "filter", "powerlaw", "powerlaw-threads"])
def test_fresh_process_loads_only_what_it_runs(tmp_path, tooling_corpus,
                                               module, argv, absent, present):
    argv = [arg.format(corpus=tooling_corpus, out=tmp_path) for arg in argv]
    run = subprocess.run(
        [sys.executable, "-c", LOADED, module, json.dumps(argv)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout)
    assert [name for name in loaded for package in absent
            if _in_package(name, package)] == []
    assert [package for package in present
            if not any(_in_package(name, package) for name in loaded)] == []


def test_version_strings_agree():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == legisnet.__version__


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from legisnet import *", namespace)
    assert sorted(set(legisnet.__all__) - namespace.keys()) == []


def test_package_calls_no_bare_unique():
    sorted_by = {"return_index", "return_inverse", "return_counts"}
    bare = []
    for path in sorted((ROOT / "src" / "legisnet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and not sorted_by & {kw.arg for kw in node.keywords}):
                bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


def _runs_at_import(body):
    """Statements of ``body`` that run when the module is imported, nested
    ones included, leaving out function bodies and ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (isinstance(node, ast.If)
                and "TYPE_CHECKING" in {getattr(node.test, "id", None),
                                        getattr(node.test, "attr", None)}):
            yield from _runs_at_import(node.orelse)
            continue
        yield node
        for field in ("body", "handlers", "orelse", "finalbody"):
            yield from _runs_at_import(getattr(node, field, []))


def test_package_imports_scipy_only_inside_functions():
    eager = []
    for path in sorted((ROOT / "src" / "legisnet").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _runs_at_import(tree.body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(_in_package(name, "scipy") for name in names):
                eager.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert eager == []


# output directory: command and flags
RUNS = {
    # the small-world nulls and random-failure repetitions in a pool
    "report-all": ["report-all", "--bootstrap", "20",
                   "--smallworld-replicas", "2", "--resilience-reps", "5",
                   "--path-sources", "200", "--seed", "3", "--threads", "2"],
    "bowtie": ["bowtie", "--dump-members"],
    # a snapshot of the citation network with many weak components
    "bowtie-icn": ["bowtie", "--dump-members", "--current", "1990-12-31",
                   "--network", "ICN"],
    "resilience": ["resilience", "--with-null", "--degree-mode",
                   "adaptive_recompute", "--reps", "20"],
    "metrics": ["metrics", "--directed-paths"],
    # the bootstrap runs in one process at any --threads, so the flag
    # changes no byte here
    "powerlaw": ["powerlaw", "--direction", "out", "--bootstrap", "300",
                 "--threads", "2"],
}
RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}
DIGESTS = {
    "bowtie/bowtie.json":
        "bf936234a97c444152cf40e0fd9ddd595a1a9313c5d7b190ae48d9e7fab64fcd",
    "bowtie/bowtie_members.csv":
        "e1f3910da970064ebf23ee6fd14bf464966810b678853fec1ac0fa3945d2657b",
    "metrics/metrics.json":
        "4f4c682e7893adb544b2c902631aacc667d0d6ec4de6b9b7ed7a1a5cc4bc2308",
    "metrics/metrics_clustering_by_degree.csv":
        "6764e4148429a9528fa0279b7226e0198734cd63f6b0122e8760f723ab9fe6a2",
    "metrics/metrics_degree_histogram.csv":
        "ae2c9d1797286414bbac15dc269d882363aa7e894e7a3318a4d2a273b6f744bf",
    "metrics/metrics_distances.csv":
        "d0e3f294d389d57bf6c1eb4c5832b2c28a93763a6edd22b026f885cd16d35666",
    "metrics/metrics_lorenz.csv":
        "9ac1e039020f6b517d35e17dc08ac4f4ae5d86cd857fb44a0953b7ec1d5ee777",
    "powerlaw/powerlaw.json":
        "eb5242431bb203a938521492ebd19ba51be6a7323eb67b04f8e9dc1f234812eb",
    "powerlaw/powerlaw_ccdf_out.csv":
        "3fcd5f27f3f89a2137f985a812db82bdea143653f1a5ebd95760686a3197abc4",
    "report-all/report.json":
        "4b5ddda38ac0f0e875e169d473c704e990e526a35d41e49decbb47b7a797b507",
    "report-all/report_ccdf_in.csv":
        "0d55da0c4b72e7a0cf9d5f2d34caadcd9e2414a917840cddc9237f3a53a5acec",
    "report-all/report_ccdf_out.csv":
        "3fcd5f27f3f89a2137f985a812db82bdea143653f1a5ebd95760686a3197abc4",
    "report-all/report_clustering_by_degree.csv":
        "6764e4148429a9528fa0279b7226e0198734cd63f6b0122e8760f723ab9fe6a2",
    "report-all/report_curve.csv":
        "dd114d9613e7df798a65d50965ba61ba52da44b7194070da6a628a849fc45453",
    "report-all/report_degree_histogram.csv":
        "ae2c9d1797286414bbac15dc269d882363aa7e894e7a3318a4d2a273b6f744bf",
    "report-all/report_distances.csv":
        "df9fc2a1d01fb279e73433e7eff5e7e8e0e94349a930e5459f59ffddae44a782",
    "report-all/report_lorenz.csv":
        "9ac1e039020f6b517d35e17dc08ac4f4ae5d86cd857fb44a0953b7ec1d5ee777",
    "report-all/report_snapshots.csv":
        "fca3f854de37ad2f15b4bc8c0f07f7581c0dbc583a40f2b25ff54fc3ba57c57f",
    "resilience/resilience.json":
        "bb2ccbcd8a3f23d503dceeb6ad0b269996fc25698c2f3d823c6bfbf8075815ce",
    "resilience/resilience_curve.csv":
        "96d64c0d69322ab1da6c6d17da525fc01a5744e8968322ded3bf562619fba109",
}
ICN_DIGESTS = {
    "bowtie-icn/bowtie.json":
        "6677e422a585b9016b70cab8274d8e41a0dabe87e17e1d9f27503a8154baeb06",
    "bowtie-icn/bowtie_members.csv":
        "88d5639f1dab6fd1a5a4272b7578ad5b23782b1f1a9fb8df017ac7113c005b90",
}

EXPORT_DIGESTS = {
    "generate/corpus.jsonl":
        "fa453b80551ab7a56c40cf78f8d9a4aedc15b59ee2d713f653b23053408be8a4",
    "filter-rn/corpus.jsonl":
        "716c9aff6d00a07c4bb942c01ae44f216db2bf210647f61205a7aa6491a52665",
}


@pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != RECORDED_WITH,
    reason=f"digests recorded with {RECORDED_WITH}")
def test_report_digests_stay_the_same(tmp_path):
    corpus = tmp_path / "generate" / "corpus.jsonl"
    filtered = tmp_path / "filter-rn" / "corpus.jsonl"
    corpus.parent.mkdir()
    filtered.parent.mkdir()
    assert main([*CORPUS, "--out", str(corpus)]) == 0
    assert main(["filter", "--input", str(corpus), "--network", "RN",
                 "--current", "1990-12-31", "--out", str(filtered)]) == 0
    for out, (command, *flags) in RUNS.items():
        assert main([command, "--input", str(corpus), "--output-dir",
                     str(tmp_path / out), *flags]) == 0
    digests = {}
    for path in sorted(tmp_path.glob("*/*")):
        data = path.read_bytes()
        if path.suffix == ".json":
            body = json.loads(data, parse_constant=reject_constant)["results"]
            data = json.dumps(body, indent=2, sort_keys=True).encode()
        name = f"{path.parent.name}/{path.name}"
        digests[name] = hashlib.sha256(data).hexdigest()
    assert digests == {**DIGESTS, **ICN_DIGESTS, **EXPORT_DIGESTS}
