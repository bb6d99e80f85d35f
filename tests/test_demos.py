"""Smoke test of the demos: each runs to completion with a clean stderr.

The demos use the public one-point API (`eval_jets`, `Jet.partial`,
`full_frame`), so this guards it against changes of the engine below.
The CLI session `06_cli_session.sh` runs with a `calabi` shim on PATH
that starts `python -m calabi.cli` from this checkout.
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


def test_cli_session_runs_cleanly(tmp_path):
    shim = tmp_path / "calabi"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m calabi.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    res = subprocess.run(["sh", str(ROOT / "demos" / "06_cli_session.sh")],
                         capture_output=True, env=env, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stderr == b""
    assert b"== artifacts ==" in res.stdout
