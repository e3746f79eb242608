"""Smoke runs of the example scripts against the package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# one SNR point on a few hundred states: every command runs in seconds
TINY_CONFIG = ("samples = 200\ndual_samples = 200\ninner_samples = 10\n"
               "snr_db = 0\n")


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=120)


def test_output_digests_script(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    proc = _run([sys.executable, str(ROOT / "scripts" / "output_digests.py"),
                 "--config", str(cfg), "--workers", "1,2"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "identical across workers"
    rows = [line.split() for line in lines[:-1]]
    assert [r[:2] for r in rows] == [[f"{c}.csv", f"workers={w}"]
                                     for c in ("figure1", "figure2", "dof")
                                     for w in (1, 2)]
    assert all(len(r[2]) == 64 and int(r[2], 16) >= 0 for r in rows)


def test_output_digests_script_seeds(tmp_path):
    # --seeds passes each --seed to every command: one digest per
    # (command, seed, workers), and seeds change the figures
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    proc = _run([sys.executable, str(ROOT / "scripts" / "output_digests.py"),
                 "--config", str(cfg), "--workers", "1,2",
                 "--seeds", "3,4"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "identical across workers"
    rows = [line.split() for line in lines[:-1]]
    assert [r[:3] for r in rows] == [
        [f"{c}.csv", f"seed={s}", f"workers={w}"]
        for c in ("figure1", "figure2", "dof") for s in (3, 4)
        for w in (1, 2)]
    digest = {tuple(r[:3]): r[3] for r in rows}
    for c in ("figure1", "figure2", "dof"):
        assert (digest[f"{c}.csv", "seed=3", "workers=1"]
                != digest[f"{c}.csv", "seed=4", "workers=1"])
