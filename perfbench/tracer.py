"""Span tracing of the ``macwt`` layers, installed from outside the package.

Every public function of the package modules (and every public method of
their classes) is replaced by a wrapper that records a span: name, start,
end, parent span and thread id, plus the number of states the call worked
on.  Names a module imported from another module (``from .powerctl import
dual_search`` in ``macwt.cli``) are replaced too, and so is ``numpy.roots``,
which the root solver calls as its per-row fallback.  ``restore`` puts
every original back.  Nothing under ``src/`` is edited.

Spans stay in memory; :func:`layer_stats` turns them into per-layer
numbers and :meth:`Tracer.dump` writes them as JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time

import numpy as np

MODULES = ("cli", "config", "channel", "rates", "montecarlo", "powerctl", "dof")
POLICY_BATCH = ("powerctl.esa_policy_batch", "powerctl.esa_cj_policy_batch",
                "powerctl.gs_cj_baseline_batch")
NP_ROOTS = "powerctl.np_roots"
# esa_cj case codes that go through the common-root solve (no-jamming
# cases 4-7 nested as 14-17, the transmit/jam sub-cases c/d, branch 4 b-d)
CJ_ROOT_CODES = (14, 15, 16, 17, 23, 24, 33, 34, 42, 43, 44, 45, 46)

# span record fields
NAME, START, END, PARENT, TID, STATES, INFO = range(7)


def _states(args):
    """Rows of the first batch-like argument (a StateBatch or an array);
    a call without one works on a single state."""
    for a in args:
        if isinstance(a, np.ndarray):
            return int(a.shape[0]) if a.ndim else 1
        if type(a).__name__ == "StateBatch":
            return len(a)
    return 1


def _states_arg(pos, key):
    def get(args, kwargs):
        return int(kwargs[key] if key in kwargs else args[pos])
    return get


# calls whose work size is an explicit count rather than an array
_STATES = {
    "channel.sample_batch": _states_arg(1, "n"),
    "montecarlo.ergodic_region": _states_arg(3, "n"),
    "powerctl.dual_search": _states_arg(3, "n"),
}


def _dual_info(result):
    return {"sweeps": int(result.sweeps), "converged": bool(result.converged)}


def _esa_roots(result):
    return int(np.count_nonzero(result[2] >= 4))


def _esa_cj_roots(result):
    return int(np.count_nonzero(np.isin(result[4], CJ_ROOT_CODES)))


_INFO = {
    "powerctl.dual_search": _dual_info,
    "powerctl.esa_policy_batch": _esa_roots,
    "powerctl.esa_cj_policy_batch": _esa_cj_roots,
}


class Tracer:
    """Records spans for the wrapped calls of one process."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name, fn):
        """A wrapper of ``fn`` that records one span per call."""
        states = _STATES.get(name)
        info = _INFO.get(name)
        spans, lock = self.spans, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:  # a worker thread: its work belongs to the fanning-out call
                main = self._main_stack
                parent = main[-1] if main else None
            n = _states(args) if states is None else states(args, kwargs)
            rec = [name, 0.0, 0.0, parent, threading.get_ident(), n, None]
            with lock:
                idx = len(spans)
                spans.append(rec)
            stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[INFO] = info(result)
            return result

        return traced

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, package):
        """Wrap the public functions and methods of ``package``'s modules."""
        mods = {m: getattr(package, m) for m in MODULES}
        wrapped = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    wrapped[id(val)] = self.wrap(f"{short}.{attr}", val)
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    for meth, fn in list(vars(val).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self.patch(val, meth, self.wrap(
                                f"{short}.{val.__name__}.{meth}", fn))
        for mod in list(mods.values()) + [package]:
            for attr, val in list(vars(mod).items()):
                w = wrapped.get(id(val))
                if w is not None:
                    self.patch(mod, attr, w)
        self.patch(np, "roots", self.wrap(NP_ROOTS, np.roots))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "tid",
                                  "states", "info"],
                       "spans": self.spans}, fh)


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "thread_util", "per_root_state")):
        return "1"
    return "count"


def self_times(spans):
    """Per-span self time: duration minus same-thread direct children.

    Children on other threads run while the parent waits, so they are not
    subtracted from the parent's own time.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        p = s[PARENT]
        if p is not None and spans[p][TID] == s[TID]:
            out[p] -= s[END] - s[START]
    return out


def layer_stats(spans, workers=1):
    """Per-layer metrics (name -> value) from a traced run's spans."""
    selfs = self_times(spans)
    per = {}
    for s, st in zip(spans, selfs):
        d = per.setdefault(s[NAME], {"calls": 0, "states": 0, "busy_s": 0.0,
                                     "self_s": 0.0})
        d["calls"] += 1
        d["states"] += s[STATES] or 0
        d["busy_s"] += s[END] - s[START]
        d["self_s"] += st

    def stat(name, key):
        return per.get(name, {}).get(key, 0)

    out = {}

    def put(name, keys):
        for key in keys:
            out[f"{name}.{key}"] = stat(name, key)

    out["config.load_config.busy_s"] = stat("config.load_config", "busy_s")
    out["cli.self_s"] = stat("cli.main", "self_s")
    for name in ("channel.sample_batch", "channel.sba_block_gains"):
        put(name, ("calls", "states", "busy_s"))
    put("rates.RudimentarySbaPolicy.decide_batch",
        ("calls", "states", "busy_s", "self_s"))
    for k in ("sba", "esa", "esa_cj", "gs_cj"):
        put(f"rates.{k}_triple", ("states", "busy_s"))
    put("montecarlo.ergodic_region", ("calls", "states", "busy_s", "self_s"))

    er = {i for i, s in enumerate(spans) if s[NAME] == "montecarlo.ergodic_region"}
    child = sum(s[END] - s[START] for s in spans if s[PARENT] in er)
    er_busy = stat("montecarlo.ergodic_region", "busy_s")
    out["montecarlo.thread_util"] = child / (er_busy * workers) if er_busy else 0.0

    ds = {i: 0 for i, s in enumerate(spans) if s[NAME] == "powerctl.dual_search"}
    for s in spans:
        if s[NAME] in POLICY_BATCH and s[PARENT] in ds:
            ds[s[PARENT]] += 1
    put("powerctl.dual_search", ("calls", "busy_s", "self_s"))
    out["powerctl.dual_search.evals"] = sum(ds.values())
    out["powerctl.dual_search.evals_max"] = max(ds.values(), default=0)
    infos = [spans[i][INFO] for i in ds if spans[i][INFO] is not None]
    out["powerctl.dual_search.sweeps"] = sum(d["sweeps"] for d in infos)
    out["powerctl.dual_search.converged"] = sum(d["converged"] for d in infos)

    for name in POLICY_BATCH:
        put(name, ("calls", "states", "busy_s", "self_s"))
    # top-level case-tree calls only: the jamming tree nests the plain one
    root_states = case_states = 0
    for s in spans:
        if s[NAME] in POLICY_BATCH[:2] and s[INFO] is not None:
            p = s[PARENT]
            if p is None or spans[p][NAME] != "powerctl.esa_cj_policy_batch":
                root_states += s[INFO]
                case_states += s[STATES] or 0
    out["powerctl.root_case_frac"] = root_states / case_states if case_states else 0.0
    put(NP_ROOTS, ("calls", "busy_s"))
    out["powerctl.np_roots_per_root_state"] = (
        stat(NP_ROOTS, "calls") / root_states if root_states else 0.0)
    for name in ("esa_case_policy", "esa_case_id", "esa_kkt_residual",
                 "esa_cj_case_policy", "esa_cj_case_label",
                 "esa_cj_kkt_residual", "gs_cj_baseline_policy"):
        put(f"powerctl.{name}", ("calls", "busy_s"))
    return out
