"""The benchmark in perfbench/ still runs against this package."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # perfbench imports names from src/ (perfbench/layers.py builds
    # ConstantIndex, for one); losing such a name fails every sweep op while
    # the package's own tests still pass
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
