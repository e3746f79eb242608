"""Smoke runs of the example scripts against the package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("name, args, expect", [
    ("dof_experiment.py", ("--samples", "400", "--powers", "1e2,1e3,1e4"),
     ("sba     eta =", "esa     eta =", "gs_cj   eta =",
      "single-slot ceiling:")),
    ("pairing_demo.py", ("--instants", "2000"), ("bins (M=B)",)),
])
def test_script_runs(name, args, expect):
    proc = _run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    for text in expect:
        assert text in proc.stdout
