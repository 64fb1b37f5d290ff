"""Span tracing of resdyn's layers from outside the package.

``install`` replaces public resdyn functions by timing wrappers at the
place where each calling module looks them up (``resdyn.lattice.
piecewise_quad``, ``resdyn.friedrichs.erfc_complex``, ...), so no file of
the package changes.  Each span records its name, start, end, parent span
and thread; spans are kept in compact in-memory arrays and written out when
the pass ends.  ``layer_metrics`` turns them into the per-layer metrics.

A wrapped name that no longer exists is skipped; the metrics that need it
are then absent from the result instead of failing the run.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from array import array

import numpy as np

# (module, attribute, span name); one span name may wrap several lookups
TARGETS = (
    ("resdyn.lattice", "discrete_spectrum", "lattice.spectrum"),
    ("resdyn.lattice", "component_chi", "lattice.component"),
    ("resdyn.lattice", "theta_amplitude", "lattice.component"),
    ("resdyn.lattice", "ratio_r", "lattice.ratio"),
    ("resdyn.lattice", "survival_direct", "lattice.direct"),
    ("resdyn.lattice", "piecewise_quad", "kernel.quad"),
    ("resdyn.lattice", "bessel_j1", "kernel.j1"),
    ("resdyn.lattice", "poly_roots", "kernel.roots"),
    ("resdyn.lattice", "upper_gamma_mhalf", "kernel.gamma"),
    ("resdyn.friedrichs", "friedrichs_poles", "friedrichs.poles"),
    ("resdyn.friedrichs", "a_component", "friedrichs.component"),
    ("resdyn.friedrichs", "a_cut_direct", "friedrichs.cut"),
    ("resdyn.friedrichs", "piecewise_quad", "kernel.quad"),
    ("resdyn.friedrichs", "adaptive_quad", "kernel.quad"),
    ("resdyn.friedrichs", "erfc_complex", "kernel.erfc"),
    ("resdyn.friedrichs", "poly_roots", "kernel.roots"),
    ("resdyn.oracle", "build_hamiltonian", "oracle.build"),
    ("resdyn.oracle", "propagate", "oracle.propagate"),
)

OP_SPAN = "cli.main"


class Recorder:
    """Spans in parallel arrays; index order is opening order."""

    def __init__(self):
        self.names = [OP_SPAN]
        self._ids = {OP_SPAN: 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.thread = array("q")
        self.failed = array("b")
        self.work = array("q")  # quadrature evaluations / J1 points
        self.base = array("q")  # first-pass quadrature evaluations
        self.peak = array("d")  # traced allocation peak, bytes
        self.op_labels = {}     # op span index -> (op name, is a sweep)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = -1

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id):
        stack = self._stack()
        # a worker thread's outermost span belongs to the running operation
        parent = stack[-1] if stack else self._op
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.thread.append(threading.get_ident())
            self.failed.append(0)
            self.work.append(0)
            self.base.append(0)
            self.peak.append(0.0)
            self.end.append(float("nan"))
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx, failed=False):
        self.end[idx] = time.perf_counter()
        if failed:
            self.failed[idx] = 1
        self._stack().pop()

    def run_op(self, label, is_sweep, fn, *args):
        """Run one operation as a ``cli.main`` span."""
        idx = self.open(0)
        self._op = idx
        self.op_labels[idx] = (label, is_sweep)
        try:
            return fn(*args)
        finally:
            self._op = -1
            self.close(idx)

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "thread": np.frombuffer(self.thread, dtype=np.int64),
                "failed": np.frombuffer(self.failed, dtype=np.int8),
                "work": np.frombuffer(self.work, dtype=np.int64),
                "base": np.frombuffer(self.base, dtype=np.int64),
                "peak": np.frombuffer(self.peak)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            **self.arrays())


def _wrapper(rec, fn, name, attr):
    nid = rec.name_id(name)

    if name == "kernel.quad":
        def first_pass(a, k):
            if attr == "adaptive_quad":
                return 15
            return 15 * (len(k["breakpoints"] if "breakpoints" in k else a[1]) - 1)

        def wrapped(*a, **k):
            idx = rec.open(nid)
            ok = False
            try:
                out = fn(*a, **k)
                rec.work[idx] = out.evaluations
                rec.base[idx] = first_pass(a, k)
                ok = True
                return out
            finally:
                rec.close(idx, not ok)
    elif name == "kernel.j1":
        def wrapped(*a, **k):
            idx = rec.open(nid)
            ok = False
            try:
                out = fn(*a, **k)
                rec.work[idx] = np.size(a[0])
                ok = True
                return out
            finally:
                rec.close(idx, not ok)
    elif name == "oracle.propagate":
        def wrapped(*a, **k):
            idx = rec.open(nid)
            ok = False
            tracemalloc.start()
            try:
                out = fn(*a, **k)
                ok = True
                return out
            finally:
                rec.peak[idx] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                rec.close(idx, not ok)
    else:
        def wrapped(*a, **k):
            idx = rec.open(nid)
            ok = False
            try:
                out = fn(*a, **k)
                ok = True
                return out
            finally:
                rec.close(idx, not ok)
    return wrapped


def install(rec):
    """Wrap every target that exists; return the set of span names wrapped
    at all of their lookup sites."""
    import importlib

    missing = set()
    for module_name, attr, name in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.add(name)
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.add(name)
            continue
        setattr(module, attr, _wrapper(rec, fn, name, attr))
    return {name for _m, _a, name in TARGETS} - missing


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(rec, wrapped, recipe_names):
    """Per-layer metrics of one traced pass: a dict name -> value.

    Times are inclusive span durations summed over calls, except the two
    self times: ``kernel.quad.self_s`` (quadrature minus the J1 spans inside
    its integrands) and ``cli.self.s`` (cli.main minus the union of
    the layer spans beneath it, over all threads).
    """
    s = rec.arrays()
    names, parent = s["name"], s["parent"]
    dur = s["end"] - s["start"]
    ids = {n: i for i, n in enumerate(rec.names)}

    def mask(name):
        return names == ids.get(name, -1)

    out = {}
    for layer in ("lattice.component", "lattice.ratio", "lattice.direct",
                  "lattice.spectrum", "friedrichs.poles",
                  "friedrichs.component", "friedrichs.cut", "kernel.j1",
                  "kernel.roots", "kernel.erfc", "oracle.build",
                  "oracle.propagate"):
        if layer not in wrapped:
            continue
        m = mask(layer)
        out[f"{layer}.calls"] = int(m.sum())
        out[f"{layer}.s"] = float(dur[m].sum())
    if "kernel.gamma" in wrapped:
        out["kernel.gamma.calls"] = int(mask("kernel.gamma").sum())
    if "kernel.roots" in wrapped:
        out["kernel.roots.failed"] = int(s["failed"][mask("kernel.roots")].sum())
    if "kernel.j1" in wrapped:
        out["kernel.j1.points"] = int(s["work"][mask("kernel.j1")].sum())
    if "oracle.propagate" in wrapped:
        peak = s["peak"][mask("oracle.propagate")]
        out["oracle.propagate.peak_mb"] = float(peak.max() / 2**20) \
            if peak.size else 0.0

    # direct children's time, summed per parent span (children of one
    # parent in one thread never overlap)
    child_time = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])

    if "kernel.quad" in wrapped:
        q = mask("kernel.quad")
        out["kernel.quad.calls"] = int(q.sum())
        evals = int(s["work"][q].sum())
        out["kernel.quad.evals"] = evals
        out["kernel.quad.self_s"] = float((dur[q] - child_time[q]).sum())
        base = int(s["base"][q].sum())
        out["kernel.quad.refine_ratio"] = evals / base if base else 0.0

    if {"friedrichs.component", "kernel.quad"} <= wrapped:
        comp_id, quad_id = ids.get("friedrichs.component"), ids.get("kernel.quad")
        nm = names.tolist()
        flags = [False] * len(nm)
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                flags[i] = flags[p] or nm[p] == comp_id
        inside = np.array(flags, dtype=bool)
        out["friedrichs.component.quad_calls"] = int(
            (inside & (names == quad_id)).sum())

    # operation spans: self time over all threads, recipe times, parallelism
    ops = np.flatnonzero(mask(OP_SPAN))
    children = {int(i): [] for i in ops}
    for i in np.flatnonzero(np.isin(parent, ops)):
        children[int(parent[i])].append((s["start"][i], s["end"][i]))
    self_s = 0.0
    sweep_busy = sweep_wall = 0.0
    recipe_s = dict.fromkeys(recipe_names, 0.0)
    for i in ops:
        i = int(i)
        label, is_sweep = rec.op_labels[i]
        self_s += dur[i] - _union_length(children[i])
        if is_sweep:
            sweep_busy += sum(hi - lo for lo, hi in children[i])
            sweep_wall += dur[i]
        if label in recipe_s:
            recipe_s[label] = float(dur[i])
    out["cli.self.s"] = float(self_s)
    out["cli.sweep.parallelism"] = sweep_busy / sweep_wall if sweep_wall else 0.0
    for name, value in recipe_s.items():
        out[f"recipe.{name}.s"] = value
    return out
