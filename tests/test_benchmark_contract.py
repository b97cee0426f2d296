"""The benchmark under perfbench/ wraps solver functions by name and reads
fields of their results; its self-check fails when one of them is gone."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
