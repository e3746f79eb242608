#!/usr/bin/env python3
"""SHA-256 digests of the figure1, figure2 and dof CSVs per worker count.

Runs ``macwt figure1``, ``macwt figure2`` and ``macwt dof`` for one config
(defaults without ``--config``) at each ``MACWT_WORKERS`` value, each
command in a fresh process, and prints one digest per CSV and worker
count.  Exits with status 1 if some CSV's digest differs between worker
counts.  Compare the printed digests of two checkouts to show that a
change keeps every CSV byte-identical:

    PYTHONPATH=src python scripts/output_digests.py --workers 1,2,3,4
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("figure1", "figure2", "dof")


def digests(config, workers, out_dir):
    """``{(command, workers): sha256 hex}`` of each command's CSV."""
    out = {}
    for w in workers:
        env = dict(os.environ, MACWT_WORKERS=str(w))
        for cmd in COMMANDS:
            path = Path(out_dir) / f"{cmd}-w{w}.csv"
            argv = [sys.executable, "-m", "macwt.cli", cmd, "--out", str(path)]
            if config:
                argv += ["--config", config]
            subprocess.run(argv, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            out[cmd, w] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", default=None, help="key=value config file")
    ap.add_argument("--workers", default="1",
                    help="comma-separated MACWT_WORKERS values")
    args = ap.parse_args()
    workers = [int(w) for w in args.workers.split(",") if w.strip()]
    with tempfile.TemporaryDirectory() as tmp:
        got = digests(args.config, workers, tmp)
    same = True
    for cmd in COMMANDS:
        for w in workers:
            print(f"{cmd}.csv workers={w} {got[cmd, w]}")
        same &= len({got[cmd, w] for w in workers}) == 1
    print("identical across workers" if same else "DIFFER across workers")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
