"""Call tracer for the fdia_lab benchmark.

Wraps every public module-level function of the ``fdia_lab`` package at
every place it is bound (its defining module, every module that
from-imports it, and the package's re-exports), so a call made through any
binding is recorded. Each call records a span (id, op, name, start, end,
parent, thread) and adds to per-name counts and times. Self time is a span's
duration minus the time of the wrapped calls made inside it.

Counts and times are kept per thread and merged on read, so the plant,
proxy and controller threads of a networked session take no lock per call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# attributes of a wrapped callable that callers use directly (lru_cache)
_PASSTHROUGH = ("cache_clear", "cache_info")
SPAN_CAP = 50_000  # spans kept in memory, across all threads


class TracerError(Exception):
    """The tracer could not install or remove its wrappers cleanly."""


class _ThreadState:
    def __init__(self, name: str):
        self.thread = name
        self.endpoint = None
        self.stack = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts = defaultdict(float)
        self.spans = []


class Tracer:
    """Install with :meth:`install`, read with :meth:`stats`, remove with :meth:`uninstall`."""

    def __init__(self):
        self.spans_left = SPAN_CAP
        self.op = 0  # identifier shared by the spans of one benchmark operation
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched = []  # (module, attribute, original)
        self._wrappers = {}  # id(original) -> wrapper
        self.originals = {}  # label -> original callable
        self.modules = []

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._local.state = st
            with self._states_lock:
                self._states.append(st)
        return st

    def set_endpoint(self, endpoint: str) -> None:
        """Label the calling thread's netlink calls (plant, proxy, controller)."""
        self._state().endpoint = endpoint

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, label: str, fn):
        tracer = self
        key, before, after = _HOOKS.get(label, (None, None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            name = label if key is None else key(label, st, args, kwargs)
            token = before(tracer, args, kwargs) if before is not None else None
            parent = st.stack[-1] if st.stack else None
            frame = [0.0, next(tracer._ids)]
            st.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                rec = st.stats[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if tracer.spans_left > 0:
                    tracer.spans_left -= 1
                    st.spans.append((frame[1], tracer.op, name, t0, t1,
                                     parent[1] if parent is not None else None, st.thread))
            if after is not None:
                after(tracer, st, args, kwargs, result, token)
            return result

        for attr in _PASSTHROUGH:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__fdia_bench_wrapper__ = True
        return wrapper

    def install(self, package) -> None:
        """Wrap every public function of ``package``'s modules at every binding site."""
        if self._patched:
            raise TracerError("tracer already installed")
        prefix = package.__name__ + "."
        self.modules = [package] + sorted(
            (m for n, m in sys.modules.items() if n.startswith(prefix) and m is not None),
            key=lambda m: m.__name__,
        )
        for mod in self.modules[1:]:
            short = mod.__name__[len(prefix):]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_function(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                label = f"{short}.{attr}"
                self.originals[label] = obj
                self._wrappers[id(obj)] = self._wrap(label, obj)
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None and _is_function(obj):
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))
        self.check_bindings(installed=True)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []
        self.check_bindings(installed=False)

    def check_bindings(self, installed: bool) -> None:
        """Fail unless every binding holds a wrapper (installed) or none does (removed)."""
        originals = {id(fn) for fn in self.originals.values()}
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                if installed and id(obj) in originals:
                    raise TracerError(f"{mod.__name__}.{attr} escaped wrapping")
                if not installed and getattr(obj, "__fdia_bench_wrapper__", False):
                    raise TracerError(f"{mod.__name__}.{attr} still wrapped")

    # -- reading ----------------------------------------------------------

    def stats(self):
        """(calls/total/self per name, merged counters) across all threads."""
        merged = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(float)
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for name, (calls, total, self_s) in st.stats.items():
                rec = merged[name]
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for name, value in st.counts.items():
                counts[name] += value
        return dict(merged), dict(counts)

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans as JSON lines; returns the number written."""
        with self._states_lock:
            states = list(self._states)
        spans = sorted((s for st in states for s in st.spans), key=lambda s: s[3])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, op, name, t0, t1, parent, thread in spans:
                fh.write('{"id":%d,"op":%d,"name":"%s","start":%.9f,"end":%.9f,'
                         '"parent":%s,"thread":"%s"}\n'
                         % (sid, op, name, t0, t1, "null" if parent is None else parent, thread))
        return len(spans)


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


# -- per-function hooks ---------------------------------------------------
# A key hook renames the span (scalar vs array signature calls, classify per
# family, netlink calls per endpoint); an after hook adds counters, given what
# the before hook returned.


def _by_endpoint(label, st, args, kwargs):
    return f"{label}@{st.endpoint or 'proxy'}"


def _eval_signature_key(label, st, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return f"{label}.scalar" if np.ndim(x) == 0 else f"{label}.array"


def _eval_signature_after(tracer, st, args, kwargs, result, token):
    st.counts["smsf.eval_signature.elements"] += np.size(result)


def _classify_key(label, st, args, kwargs):
    fam = args[0] if args else kwargs["fam"]
    return f"{label}.{fam.tag}"


def _classify_after(tracer, st, args, kwargs, result, token):
    # computed from array shapes: classify scores every beta of its range
    # (beta = 0 excluded) against every point of the family's grid
    fam = args[0] if args else kwargs["fam"]
    step = kwargs.get("step", 0.001)
    lo, hi = kwargs.get("beta_range", (-3.0, 3.0))
    betas = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    n_beta = int(np.count_nonzero(np.abs(betas) > 0.5 * step))
    n_grid = tracer.originals["vulncheck.default_grid"](fam).size
    st.counts["vulncheck.grid_elements"] += n_beta * n_grid
    st.counts["vulncheck.bytes_computed"] += n_beta * n_grid * 8


def _encode_after(tracer, st, args, kwargs, result, token):
    endpoint = st.endpoint or "proxy"
    msg = args[0] if args else kwargs["msg"]
    st.counts[f"netlink.frames.{msg.kind}.{endpoint}"] += 1
    st.counts[f"netlink.encode.bytes.{endpoint}"] += len(result)


def _write_trace_csv_after(tracer, st, args, kwargs, result, token):
    path = args[0] if args else kwargs["path"]
    st.counts["simloop.write_trace_csv.bytes"] += os.path.getsize(path)


def _run_scenario_after(tracer, st, args, kwargs, result, token):
    out_dir = args[1] if len(args) > 1 else kwargs.get("out_dir")
    if out_dir is not None:
        st.counts["scenarios.artifact_bytes"] += sum(
            p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())


def _reference_table_before(tracer, args, kwargs):
    return tracer.originals["tracking.reference_table"].cache_info().misses


def _reference_table_after(tracer, st, args, kwargs, result, token):
    missed = tracer.originals["tracking.reference_table"].cache_info().misses - token
    st.counts["tracking.reference_table.misses"] += missed
    st.counts["tracking.reference_table.hits"] += 1 - missed


_HOOKS = {  # label -> (key, before, after)
    "smsf.eval_signature": (_eval_signature_key, None, _eval_signature_after),
    "vulncheck.classify": (_classify_key, None, _classify_after),
    "netlink.encode": (_by_endpoint, None, _encode_after),
    "netlink.decode": (_by_endpoint, None, None),
    "netlink.send_message": (_by_endpoint, None, None),
    "netlink.recv_message": (_by_endpoint, None, None),
    "simloop.write_trace_csv": (None, None, _write_trace_csv_after),
    "scenarios.run_scenario": (None, None, _run_scenario_after),
    "tracking.reference_table": (None, _reference_table_before, _reference_table_after),
}
