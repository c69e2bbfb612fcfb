"""The benchmark harness still drives the program end to end.

``perfbench/run.py --smoke`` runs every workload once at tiny size, untraced
and traced.  A change that drops a name the tracer wraps, or a CLI flag the
harness passes, fails here rather than only in a full benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
