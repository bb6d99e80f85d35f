"""Smoke test of the demos: each runs to completion with a clean stderr.

The demos use the public one-point API (`eval_jets`, `Jet.partial`,
`full_frame`), so this guards it against changes of the engine below.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         env=env, cwd=ROOT, timeout=120)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stderr == b""
