import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from macwt import pool
from macwt.channel import FadingParams
from macwt.montecarlo import ESA, ergodic_region
from macwt.rates import ConstantPolicy

SRC = Path(__file__).resolve().parents[1] / "src"


def _thread(item):
    return item, threading.current_thread().name


def test_run_all_keeps_item_order_on_the_pool(monkeypatch):
    # item 0 runs on the caller, the rest on the pool's threads
    main = threading.current_thread().name
    monkeypatch.setenv("MACWT_WORKERS", "3")
    out = pool.run_all(_thread, range(7))
    assert [item for item, _ in out] == list(range(7))
    assert out[0][1] == main
    assert all(name.startswith("macwt") for _, name in out[1:])
    monkeypatch.setenv("MACWT_WORKERS", "40")
    out = pool.run_all(_thread, range(40))
    assert [item for item, _ in out] == list(range(40))
    assert out[0][1] == main
    names = {name for _, name in out[1:]}
    assert all(name.startswith("macwt") for name in names)
    assert len(names) <= pool.MAX_THREADS
    monkeypatch.setenv("MACWT_WORKERS", "1")
    assert pool.run_all(_thread, range(3)) == [(k, main) for k in range(3)]


def test_run_all_raises_the_first_failure_after_every_task(monkeypatch):
    monkeypatch.setenv("MACWT_WORKERS", "2")
    done = []

    def task(k):
        if k == 1:
            time.sleep(0.05)  # fails after item 3 has failed
        if k in (1, 3):
            raise ValueError(f"item {k}")
        done.append(k)

    with pytest.raises(ValueError, match="item 1"):
        pool.run_all(task, range(5))
    assert sorted(done) == [0, 2, 4]

    # item 0 fails at once on the caller, while the pool's items sleep
    # (one of them to fail too): its error comes only after they finish
    main = threading.current_thread().name
    done.clear()

    def slow(k):
        if k == 0:
            assert threading.current_thread().name == main
            raise ValueError("item 0")
        time.sleep(0.05)
        if k == 2:
            raise ValueError("item 2")
        done.append(k)

    with pytest.raises(ValueError, match="item 0"):
        pool.run_all(slow, range(4))
    assert sorted(done) == [1, 3]


def test_run_all_in_a_pool_thread_runs_inline(monkeypatch):
    # waiting on the pool from its own threads could deadlock it
    monkeypatch.setenv("MACWT_WORKERS", "2")

    def outer(k):
        name = threading.current_thread().name
        return name, pool.run_all(_thread, [k, k + 10])

    out = []
    caller = threading.Thread(target=lambda: out.extend(
        pool.run_all(outer, range(4))), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and len(out) == 4
    # outer item 0 runs on the caller, which is no pool thread: its inner
    # item 0 stays there and its inner item 1 goes to the pool
    name, [(_, a), (_, b)] = out[0]
    assert name == a == caller.name and b.startswith("macwt")
    # the others run on pool threads, and their inner items on that thread
    for k, (name, inner) in enumerate(out[1:], 1):
        assert name.startswith("macwt")
        assert inner == [(k, name), (k + 10, name)]


class _ThreadLog:
    """A constant-power policy that logs the thread of each call."""

    def __init__(self):
        self.policy = ConstantPolicy(1.0, 1.0)
        self.threads = []

    def decide_batch(self, batch):
        self.threads.append(threading.current_thread().name)
        return self.policy.decide_batch(batch)


def test_ergodic_region_in_a_pool_thread_runs_inline(monkeypatch):
    # figure grid points run on the pool would call ergodic_region from
    # pool threads: their shard runs stay on that thread, same bits
    monkeypatch.setenv("MACWT_WORKERS", "2")
    params = FadingParams.symmetric(1.0, 0.75)
    main = threading.current_thread().name

    def estimate(seed):
        log = _ThreadLog()
        est = ergodic_region(ESA, log, params, 3000, seed)
        return est, log.threads, threading.current_thread().name

    def on_caller_and_pool(threads):
        # two runs of 8 shards: one on the caller, the other on the pool
        rest = list(threads)
        rest.remove(main)
        return len(rest) == 1 and rest[0].startswith("macwt")

    (first, threads, name), (est, pooled, pooled_name) = pool.run_all(
        estimate, [1, 2])
    # item 0 runs on the caller, which is no pool thread
    assert name == main and on_caller_and_pool(threads)
    # item 1 runs on a pool thread: both of its runs stay there
    assert pooled_name.startswith("macwt")
    assert pooled == [pooled_name] * 2
    for seed, got in ((1, first), (2, est)):
        direct, direct_threads, _ = estimate(seed)
        assert on_caller_and_pool(direct_threads)
        assert repr(got) == repr(direct)


# a fresh process, so that the pool starts with no threads
ONE_POOL = """
import os, threading
from macwt.channel import FadingParams
from macwt.montecarlo import ESA, ergodic_region
from macwt.powerctl import dual_search
from macwt.rates import ConstantPolicy, PowerBudget

def pool_threads():
    return {t for t in threading.enumerate() if t.name.startswith("macwt")}

params = FadingParams.symmetric(1.0, 0.75)
os.environ["MACWT_WORKERS"] = "2"
dual_search(params, PowerBudget(5.0, 5.0), "gs_cj", 2000, seed=2)
assert not pool_threads(), "a search at 2 workers started a pool thread"
ergodic_region(ESA, ConstantPolicy(1.0, 1.0), params, 2000, seed=1)
started = pool_threads()
assert len(started) == 1, f"{len(started)} pool threads at 2 workers"
os.environ["MACWT_WORKERS"] = "4"
ergodic_region(ESA, ConstantPolicy(1.0, 1.0), params, 2000, seed=1)
assert started <= pool_threads(), "a call at 4 workers replaced the pool"
assert len(pool_threads()) <= 3, f"{len(pool_threads())} pool threads in all"
"""


def test_searches_leave_the_pool_to_the_estimates():
    # a search runs on the calling thread at any worker count; an
    # estimate at W workers runs on the caller and W - 1 pool threads,
    # and the one it starts at 2 workers is still the pool's after an
    # estimate at 4: nothing shuts the pool down
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", ONE_POOL], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
