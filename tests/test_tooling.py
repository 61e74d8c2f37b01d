"""The benchmark's tracer still finds every name it wraps in the package.

``bench/spans.py`` patches CLI imports, module globals and graph methods
by name, so deleting or renaming one of them breaks the benchmark.  The
tracer is installed in a fresh interpreter, so its patches never reach
the package this test session imports.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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
