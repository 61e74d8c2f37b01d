"""Names that tooling looks up in the package still resolve.

``bench/spans.py`` patches CLI imports, module globals and graph methods
by name, so deleting or renaming one of them breaks the benchmark.  The
tracer is installed in a fresh interpreter, so its patches never reach
the package this test session imports.  ``__all__`` is kept apart from
the package's import list, and only a star import reads it.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import legisnet

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


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from legisnet import *", namespace)
    assert sorted(set(legisnet.__all__) - namespace.keys()) == []
