"""Smoke test of the benchmark: one untraced and one traced op of every
workload, each checked against its closed forms.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_mode_checks_every_workload():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
        capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"correct": True, "attempted": 4, "failed": 0,
                      "metrics": {}}
