"""The process's one worker pool, shared by the Monte Carlo estimates and
the dual searches.

:func:`macwt.montecarlo.ergodic_region` runs its shard runs on it and
:func:`macwt.powerctl.dual_search` its chunked policy evaluations, so no
call starts threads of its own.  The caller waits for its tasks, and the
results come back in task order.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# threads in the pool at most, whatever MACWT_WORKERS asks for
MAX_THREADS = 16

_lock = threading.Lock()
_local = threading.local()
_shared = {"pool": None, "workers": 0}


def worker_count(default: int = 1) -> int:
    """Worker count from the MACWT_WORKERS environment variable."""
    try:
        return max(1, int(os.environ.get("MACWT_WORKERS", default)))
    except ValueError:
        return default


def _mark_pool_thread():
    _local.in_pool = True


def _pool(workers: int) -> ThreadPoolExecutor:
    """The shared pool, replaced by a larger one if it has fewer than
    ``workers`` threads."""
    with _lock:
        if _shared["workers"] < workers:
            if _shared["pool"] is not None:
                _shared["pool"].shutdown(wait=False)
            _shared["pool"] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="macwt",
                initializer=_mark_pool_thread)
            _shared["workers"] = workers
        return _shared["pool"]


def run_all(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, on the shared pool when
    ``workers > 1``, in item order.  The pool grows to the most threads
    a call can use, ``min(workers, len(items), MAX_THREADS)``, and keeps
    them.

    Every task finishes before this returns or raises; if several fail,
    the error of the lowest-numbered one is raised, the one a serial
    loop would meet first.  At one worker or item, and in a pool thread
    (where waiting on the pool could deadlock it), the items run inline.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1 or getattr(_local, "in_pool", False):
        return [fn(item) for item in items]
    pool = _pool(min(workers, len(items), MAX_THREADS))
    futures = [pool.submit(fn, item) for item in items]
    wait(futures)
    return [f.result() for f in futures]
