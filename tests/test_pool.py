import threading
import time

import pytest

from macwt import pool
from macwt.channel import FadingParams
from macwt.montecarlo import ESA, ergodic_region
from macwt.powerctl import dual_search
from macwt.rates import ConstantPolicy, PowerBudget

PARAMS = FadingParams.symmetric(1.0, 0.75)


def _thread(item):
    return item, threading.current_thread().name


def test_run_all_keeps_item_order_on_the_pool():
    out = pool.run_all(_thread, range(7), workers=3)
    assert [item for item, _ in out] == list(range(7))
    assert all(name.startswith("macwt") for _, name in out)
    main = threading.current_thread().name
    assert pool.run_all(_thread, range(3), workers=1) == [
        (k, main) for k in range(3)]


def test_run_all_raises_the_first_failure_after_every_task():
    done = []

    def task(k):
        if k == 1:
            time.sleep(0.05)  # fails after item 3 has failed
        if k in (1, 3):
            raise ValueError(f"item {k}")
        done.append(k)

    with pytest.raises(ValueError, match="item 1"):
        pool.run_all(task, range(5), workers=2)
    assert sorted(done) == [0, 2, 4]


def test_run_all_in_a_pool_thread_runs_inline():
    # waiting on the pool from its own threads could deadlock it
    def outer(k):
        return pool.run_all(_thread, [k, k + 10], workers=2)

    out = []
    caller = threading.Thread(target=lambda: out.extend(
        pool.run_all(outer, range(4), workers=2)), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and len(out) == 4
    for (_, a), (_, b) in out:
        assert a == b and a.startswith("macwt")


def test_estimates_and_searches_share_one_pool():
    ergodic_region(ESA, ConstantPolicy(1.0, 1.0), PARAMS, 2000, seed=1,
                   workers=2)
    shared = pool._shared["pool"]
    dual_search(PARAMS, PowerBudget(5.0, 5.0), "gs_cj", 2000, seed=2,
                workers=2)
    ergodic_region(ESA, ConstantPolicy(1.0, 1.0), PARAMS, 2000, seed=1,
                   workers=2)
    assert shared is not None and pool._shared["pool"] is shared
