#!/usr/bin/env python3
"""SHA-256 digests of the figure1, figure2 and dof CSVs per seed and
worker count.

Runs ``macwt figure1``, ``macwt figure2`` and ``macwt dof`` for one config
(defaults without ``--config``) at each ``--seed`` in ``--seeds`` (the
config's seed if not given) and each ``MACWT_WORKERS`` value, each command
in a fresh process, and prints one digest per (CSV, seed, worker count).
Exits with status 1 if some CSV's digest at a seed differs between worker
counts.  The same arguments print the same lines in the same order, so
a change keeps every CSV byte-identical to its parent if one run with
each checked out,

    PYTHONPATH=src python scripts/output_digests.py --workers 1,2,4 \
        --seeds 12345,901,902,903,904,905,906,907,908,909 > parent.txt

(``> change.txt`` for the change), gives files that
``diff parent.txt change.txt`` finds equal.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("figure1", "figure2", "dof")


def digests(config, seeds, workers, out_dir):
    """``{(command, seed, workers): sha256 hex}`` of each command's CSV;
    a seed of None passes no ``--seed``."""
    out = {}
    for seed in seeds:
        for w in workers:
            env = dict(os.environ, MACWT_WORKERS=str(w))
            for cmd in COMMANDS:
                path = Path(out_dir) / f"{cmd}-s{seed}-w{w}.csv"
                argv = [sys.executable, "-m", "macwt.cli", cmd,
                        "--out", str(path)]
                if config:
                    argv += ["--config", config]
                if seed is not None:
                    argv += ["--seed", str(seed)]
                subprocess.run(argv, env=env, check=True,
                               stdout=subprocess.DEVNULL)
                out[cmd, seed, w] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return out


def _ints(text):
    return [int(v) for v in text.split(",") if v.strip()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", default=None, help="key=value config file")
    ap.add_argument("--workers", default="1",
                    help="comma-separated MACWT_WORKERS values")
    ap.add_argument("--seeds", default=None,
                    help="comma-separated --seed values (default: the "
                         "config's seed)")
    args = ap.parse_args()
    workers = _ints(args.workers)
    seeds = _ints(args.seeds) if args.seeds else [None]
    with tempfile.TemporaryDirectory() as tmp:
        got = digests(args.config, seeds, workers, tmp)
    same = True
    for cmd in COMMANDS:
        for seed in seeds:
            tag = "" if seed is None else f" seed={seed}"
            for w in workers:
                print(f"{cmd}.csv{tag} workers={w} {got[cmd, seed, w]}")
            same &= len({got[cmd, seed, w] for w in workers}) == 1
    print("identical across workers" if same else "DIFFER across workers")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
