"""The process's one worker pool, and the one place that reads the worker
count.

:func:`macwt.montecarlo.ergodic_region` runs its shard runs on it, so no
call starts threads of its own; the dual searches stay on the calling
thread.  At W workers a call runs on W threads: the caller runs its first
item and W - 1 pool threads run the rest, and the results come back in
item order.  The caller works rather than waits because glibc keeps each
thread's malloc arena resident, while the main thread's arena trims: one
pool thread fewer took ``fig1-mc`` peak RSS from 45.3 to 43.4 MB (medians
of ten paired ``perfbench`` runs on a 2-core host).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# threads in the pool at most, whatever MACWT_WORKERS asks for
MAX_THREADS = 16

_local = threading.local()


def worker_count() -> int:
    """MACWT_WORKERS (at least 1), or 1 if unset or not an integer."""
    try:
        return max(1, int(os.environ.get("MACWT_WORKERS", 1)))
    except ValueError:
        return 1


def _mark_pool_thread():
    _local.in_pool = True


# never replaced: a thread starts only when a task finds none idle, and
# stays, so a call's k items run on the caller and at most
# min(k - 1, MAX_THREADS) pool threads
_EXECUTOR = ThreadPoolExecutor(max_workers=MAX_THREADS,
                               thread_name_prefix="macwt",
                               initializer=_mark_pool_thread)


def run_all(fn, items) -> list:
    """``[fn(item) for item in items]`` in item order; when
    :func:`worker_count` is above one, the first item runs on the calling
    thread and the rest on the shared pool.

    Every task finishes before this returns or raises; if several fail,
    the error of the lowest-numbered one is raised, the one a serial
    loop would meet first.  At one worker or item, and in a pool thread
    (where waiting on the pool could deadlock it), the items run inline.
    No caller runs on a pool thread today; the inline branch is kept for
    figure grid points run on the pool, whose ``ergodic_region`` calls
    would then run their shard runs on their own thread.
    """
    items = list(items)
    if (worker_count() <= 1 or len(items) <= 1
            or getattr(_local, "in_pool", False)):
        return [fn(item) for item in items]
    futures = [_EXECUTOR.submit(fn, item) for item in items[1:]]
    try:
        first = fn(items[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]
