"""Smoke runs of the example scripts against the package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# one SNR point on a few hundred states: every command runs in seconds
TINY_CONFIG = ("samples = 200\ndual_samples = 200\ninner_samples = 10\n"
               "snr_db = 0\n")


def _run(argv, env=(), cwd=None):
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), full.get("PYTHONPATH")) if p)
    full.update(env)
    return subprocess.run(argv, capture_output=True, text=True, env=full,
                          cwd=cwd, timeout=120)


@pytest.mark.parametrize("name, args, expect", [
    ("dof_experiment.py", ("--samples", "400", "--powers", "1e2,1e3,1e4"),
     ("sba     eta =", "esa     eta =", "gs_cj   eta =",
      "single-slot ceiling:")),
    ("pairing_demo.py", ("--instants", "2000"), ("bins (M=B)",)),
])
def test_script_runs(name, args, expect):
    proc = _run([sys.executable, str(ROOT / "scripts" / name), *args])
    assert proc.returncode == 0, proc.stderr
    for text in expect:
        assert text in proc.stdout


def test_run_figures_script(tmp_path):
    # a `macwt` command on PATH that runs the package in src/
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "macwt"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m macwt.cli "$@"\n')
    shim.chmod(0o755)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    path = os.pathsep.join((str(bin_dir), os.environ["PATH"]))
    proc = _run(["bash", str(ROOT / "scripts" / "run_figures.sh"),
                 "--config", str(cfg)], cwd=tmp_path,
                env={"PATH": path, "MACWT_WORKERS": "1"})
    assert proc.returncode == 0, proc.stderr
    # 2 var_g values x 3 (figure1) or 4 (figure2) variants x 1 SNR point
    for name, rows in (("figure1.csv", 6), ("figure2.csv", 8)):
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + rows


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
