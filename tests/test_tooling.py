"""Names that tooling looks up in the package still resolve, and the
reports stay the same.

``bench/spans.py`` patches CLI imports, module globals and graph methods
by name, so deleting or renaming one of them breaks the benchmark.  The
tracer is installed in a fresh interpreter, so its patches never reach
the package this test session imports.  ``__all__`` is kept apart from
the package's import list, and only a star import reads it.  Importing
the CLI must not load the process pool, which only ``--threads`` > 1
uses.  A bare ``np.unique`` (no index, inverse or counts asked for)
goes through numpy's hash table, many times slower than a sort at the
package's sizes, so the package may not call it.

Refactors that promise byte-identical output are held to it: a small
corpus built with the criterion-11 generator flags is run through five
commands, and the sha256 of every report body (manifest dropped) and
every CSV must equal the digest recorded before the refactor.  Float
results can move with the numerical libraries, so the check is skipped
under other numpy or scipy versions than the recorded ones.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import legisnet
from legisnet.cli import main

ROOT = Path(__file__).resolve().parent.parent

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


def test_cli_import_leaves_the_process_pool_unloaded():
    probe = ("import sys; import legisnet.cli; "
             "print('concurrent.futures.process' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


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


CORPUS = ["generate", "--years", "1951:2000", "--docs-per-year", "40",
          "--densification", "1.128", "--mixing", "0.8", "--sunset-prob",
          "0.15", "--sunset-horizon", "25", "--seed", "11"]  # 2,000 docs
# output directory: command and flags
RUNS = {
    "report-all": ["report-all", "--bootstrap", "20",
                   "--smallworld-replicas", "2", "--resilience-reps", "5",
                   "--path-sources", "200", "--seed", "3"],
    "bowtie": ["bowtie", "--dump-members"],
    # a snapshot of the citation network with many weak components
    "bowtie-icn": ["bowtie", "--dump-members", "--current", "1990-12-31",
                   "--network", "ICN"],
    "resilience": ["resilience", "--with-null", "--degree-mode",
                   "adaptive_recompute", "--reps", "20"],
    "metrics": ["metrics", "--directed-paths"],
    # bootstrap refits in several blocks, across a process pool
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
        "a215d8147c3e2894933862dc4179c5dd0a75201e190752d955659e7365bdc38d",
    "powerlaw/powerlaw_ccdf_out.csv":
        "3fcd5f27f3f89a2137f985a812db82bdea143653f1a5ebd95760686a3197abc4",
    "report-all/report.json":
        "dba3da360e26332b01dc5c519b1a2e1551ff61efae8f1701cda7d9a149090d0c",
    "report-all/report_ccdf_in.csv":
        "0d55da0c4b72e7a0cf9d5f2d34caadcd9e2414a917840cddc9237f3a53a5acec",
    "report-all/report_ccdf_out.csv":
        "3fcd5f27f3f89a2137f985a812db82bdea143653f1a5ebd95760686a3197abc4",
    "report-all/report_clustering_by_degree.csv":
        "6764e4148429a9528fa0279b7226e0198734cd63f6b0122e8760f723ab9fe6a2",
    "report-all/report_degree_histogram.csv":
        "ae2c9d1797286414bbac15dc269d882363aa7e894e7a3318a4d2a273b6f744bf",
    "report-all/report_distances.csv":
        "df9fc2a1d01fb279e73433e7eff5e7e8e0e94349a930e5459f59ffddae44a782",
    "report-all/report_lorenz.csv":
        "9ac1e039020f6b517d35e17dc08ac4f4ae5d86cd857fb44a0953b7ec1d5ee777",
    "report-all/report_resilience.csv":
        "2026f6e1852e62e1ab80bf8f6baec52abe32ce96015ac4fa0f85e97bb9328abf",
    "report-all/report_snapshots.csv":
        "fca3f854de37ad2f15b4bc8c0f07f7581c0dbc583a40f2b25ff54fc3ba57c57f",
    "resilience/resilience.json":
        "435a5df3cd94e9d3c4410e889240b2c6464d6d7f6fb3226e9a2286dc90614b79",
    "resilience/resilience_curve.csv":
        "ef42b90891f5aa92b9493900ba1a38bdf7c0cc30cb11ad59989f0ebffaf232e6",
}
ICN_DIGESTS = {
    "bowtie-icn/bowtie.json":
        "6677e422a585b9016b70cab8274d8e41a0dabe87e17e1d9f27503a8154baeb06",
    "bowtie-icn/bowtie_members.csv":
        "88d5639f1dab6fd1a5a4272b7578ad5b23782b1f1a9fb8df017ac7113c005b90",
}


@pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != RECORDED_WITH,
    reason=f"digests recorded with {RECORDED_WITH}")
def test_report_digests_stay_the_same(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    assert main([*CORPUS, "--out", str(corpus)]) == 0
    for out, (command, *flags) in RUNS.items():
        assert main([command, "--input", str(corpus), "--output-dir",
                     str(tmp_path / out), *flags]) == 0
    digests = {}
    for path in sorted(tmp_path.glob("*/*")):
        data = path.read_bytes()
        if path.suffix == ".json":
            body = json.loads(data)["results"]
            data = json.dumps(body, indent=2, sort_keys=True).encode()
        name = f"{path.parent.name}/{path.name}"
        digests[name] = hashlib.sha256(data).hexdigest()
    assert digests == {**DIGESTS, **ICN_DIGESTS}
