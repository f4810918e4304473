"""Per-layer spans for a traced benchmark job.

A traced job runs in its own interpreter (see `traced_child.py`).  `Tracer.install`
wraps the public functions and methods of every loaded `qtensor` module; the
module's short name is the layer.  A wrapper records a span only where a call
crosses from one layer into another (and always for the few functions named in
`ALWAYS_SPANNED`, whose inclusive times are reported).  Every call of a wrapped
function is counted, crossing or not.

Spans live in memory as flat arrays, one set per thread, and are reduced once the
job ends.  A span's self time is its duration minus the time covered by its child
spans (the union of their intervals, so children running concurrently on worker
threads are not subtracted twice).  Bookkeeping the benchmark does inside the
process (installing wrappers, the hooks that derive counts from arguments and
results) is itself recorded as spans of the `trace` layer, so it is subtracted
from the layer that would otherwise absorb it.
"""

from __future__ import annotations

import functools
import sys
import threading
import types
from array import array
from time import perf_counter

TRACE = "trace"

# Inclusive times reported per workload: metric name -> spanned functions.
INCLUSIVE = {
    "dualcheck.gram_s": ("dualcheck.gram_check",),
    "dualcheck.norms_s": ("dualcheck.norm_predict",),
    "dualcheck.relations_s": (
        "dualcheck.check_quantum_relations",
        "dualcheck.check_hecke_relations",
        "dualcheck.check_commuting_actions",
    ),
    "dualcheck.specht_s": ("dualcheck.specht_matrices",),
}
ALWAYS_SPANNED = frozenset(name for names in INCLUSIVE.values() for name in names) | {"cli.run_cli"}

TENSOR_ACTIONS = frozenset(
    f"tensorspace.{fn}" for fn in ("apply_E", "apply_F", "apply_K", "apply_tK", "apply_T"))

_SKIPPED_ATTRS = frozenset({
    "__new__", "__setattr__", "__delattr__", "__getattribute__", "__getattr__",
    "__init_subclass__", "__class_getitem__", "__subclasshook__", "__reduce__", "__reduce_ex__",
})


class _Buffer:
    """Spans and counters recorded by one thread, spans in start order."""

    __slots__ = ("starts", "ends", "parents", "names", "counts", "sums", "maxes", "sets", "layer", "current")

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.names = array("H")
        self.counts: dict[int, int] = {}
        self.sums: dict[str, int] = {}
        self.maxes: dict[str, int] = {}
        self.sets: dict[str, set] = {}
        self.layer = ""
        self.current = -1


class _Local(threading.local):
    def __init__(self, tracer: Tracer):
        self.buf = _Buffer()
        with tracer._lock:
            tracer._buffers.append(self.buf)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._local = _Local(self)  # the calling (main) thread's buffer comes first

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self._names)
            self._names.append(name)
        return self._index[name]

    # -- explicit spans (job root, import) ------------------------------------

    def open(self, name: str) -> int:
        buf = self._local.buf
        sid = len(buf.starts)
        buf.parents.append(buf.current)
        buf.names.append(self.name_id(name))
        buf.ends.append(0.0)
        buf.current = sid
        buf.layer = sys.intern(name.partition(".")[0])
        buf.starts.append(perf_counter())
        return sid

    def start_of(self, sid: int) -> float:
        """`perf_counter` reading at which a span of this thread opened."""
        return self._local.buf.starts[sid]

    def close(self, sid: int) -> None:
        buf = self._local.buf
        buf.ends[sid] = perf_counter()
        buf.current = buf.parents[sid]
        buf.layer = "" if buf.current < 0 else sys.intern(self._names[buf.names[buf.current]].partition(".")[0])

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, hook=None):
        """Counting, span-recording stand-in for ``fn``.  ``hook(buf, args,
        kwargs, result)`` runs after each call, recorded as a `trace` span."""
        layer = sys.intern(layer)
        full = f"{layer}.{name}"
        idx = self.name_id(full)
        hook_idx = self.name_id(f"{TRACE}.hook")
        spanned = full in ALWAYS_SPANNED or hook is not None
        local = self._local

        def traced(*args, **kwargs):
            buf = local.buf
            top = buf.layer
            if top is TRACE:
                return fn(*args, **kwargs)
            counts = buf.counts
            counts[idx] = counts.get(idx, 0) + 1
            if top is layer and not spanned:
                return fn(*args, **kwargs)
            parent = buf.current
            sid = len(buf.starts)
            buf.parents.append(parent)
            buf.names.append(idx)
            buf.ends.append(0.0)
            buf.layer = layer
            buf.current = sid
            buf.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.ends[sid] = perf_counter()
                buf.layer = top
                buf.current = parent
            if hook is not None:
                hid = len(buf.starts)
                buf.parents.append(parent)
                buf.names.append(hook_idx)
                buf.ends.append(0.0)
                buf.layer = TRACE
                buf.starts.append(perf_counter())
                try:
                    hook(buf, args, kwargs, result)
                finally:
                    buf.ends[hid] = perf_counter()
                    buf.layer = top
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, package: str = "qtensor") -> None:
        """Wrap the public functions and methods of every loaded module of the
        package and rebind every module-level reference to them."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        replaced: dict[int, object] = {}
        for mod in modules:
            if mod.__name__ == package:
                continue
            layer = sys.intern(mod.__name__.rpartition(".")[2])
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for name in public:
                obj = vars(mod).get(name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self.wrap(obj, layer, name, HOOKS.get(f"{layer}.{name}"))
                elif (isinstance(obj, type) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(obj, layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and isinstance(obj, types.FunctionType):
                    setattr(mod, name, replaced[id(obj)])

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr in _SKIPPED_ATTRS or (attr.startswith("_") and not attr.startswith("__")):
                continue
            name = f"{cls.__name__}.{attr}"
            hook = HOOKS.get(f"{layer}.{name}")
            if isinstance(val, types.FunctionType):
                setattr(cls, attr, self.wrap(val, layer, name, hook))
            elif isinstance(val, (classmethod, staticmethod)) and isinstance(val.__func__, types.FunctionType):
                setattr(cls, attr, type(val)(self.wrap(val.__func__, layer, name, hook)))

    # -- reduction -----------------------------------------------------------------

    def summary(self) -> dict:
        """Reduce the recorded spans and counters of the finished job."""
        starts: list[float] = []
        ends: list[float] = []
        parents: list[int] = []
        names: list[int] = []
        counts: dict[str, int] = {}
        sums: dict[str, int] = {}
        maxes: dict[str, int] = {}
        sets: dict[str, set] = {}
        for b, buf in enumerate(self._buffers):
            offset = len(starts)
            starts.extend(buf.starts)
            ends.extend(buf.ends)
            # a worker thread's outermost spans are caused by the job root
            parents.extend(p + offset if p >= 0 else (0 if b else -1) for p in buf.parents)
            names.extend(buf.names)
            for idx, c in buf.counts.items():
                counts[self._names[idx]] = counts.get(self._names[idx], 0) + c
            for k, v in buf.sums.items():
                sums[k] = sums.get(k, 0) + v
            for k, v in buf.maxes.items():
                maxes[k] = max(maxes.get(k, 0), v)
            for k, v in buf.sets.items():
                sets.setdefault(k, set()).update(v)
        selfs, overlap = self_times(starts, ends, parents, presorted=len(self._buffers) == 1)
        self_by_name = [0.0] * len(self._names)
        dur_by_name = [0.0] * len(self._names)
        for nid, s, b, e in zip(names, selfs, starts, ends):
            self_by_name[nid] += s
            dur_by_name[nid] += e - b
        layer_self: dict[str, float] = {}
        by_name: dict[str, float] = {}
        for nid, name in enumerate(self._names):
            layer = name.partition(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_by_name[nid]
            by_name[name] = dur_by_name[nid]
        inclusive = {
            metric: sum(by_name.get(n, 0.0) for n in fns) for metric, fns in INCLUSIVE.items()
        }
        return {
            "root_s": ends[0] - starts[0],
            "overlap_s": overlap,
            "spans": len(starts),
            "layer_self": layer_self,
            "inclusive": inclusive,
            "counts": counts,
            "sums": sums,
            "maxes": maxes,
            "distinct": {k: len(v) for k, v in sets.items()},
        }


def self_times(starts, ends, parents, presorted: bool = False) -> tuple[list[float], float]:
    """Self time of every span, and the time counted more than once because
    children of one parent overlapped.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  The
    covered part of a parent is the union of its children's intervals.
    """
    n = len(starts)
    order = range(n) if presorted else sorted(range(n), key=starts.__getitem__)
    covered = [0.0] * n
    child_total = [0.0] * n
    reach = {}
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        s, e = starts[i], ends[i]
        child_total[p] += e - s
        last = reach.get(p)
        if last is None or s >= last:
            covered[p] += e - s
            reach[p] = e
        elif e > last:
            covered[p] += e - last
            reach[p] = e
    selfs = [ends[i] - starts[i] - covered[i] for i in range(n)]
    return selfs, sum(child_total) - sum(covered)


# -- hooks: counts that need a call's arguments or result --------------------------


def _add(buf: _Buffer, key: str, v: int) -> None:
    buf.sums[key] = buf.sums.get(key, 0) + v


def _max(buf: _Buffer, key: str, v: int) -> None:
    if v > buf.maxes.get(key, 0):
        buf.maxes[key] = v


def _ratfunc_init(buf, args, kwargs, result):
    den = args[0].den
    if den:
        _max(buf, "coeff.max_den_degree", den.max_exp() - den.min_exp())


def _action(name):
    def hook(buf, args, kwargs, result):
        v = args[1] if len(args) > 1 else kwargs["v"]
        key = (name, args[0], tuple(sorted(kwargs.items())), v.n, v.r, hash(frozenset(v.coeffs.items())))
        buf.sets.setdefault("tensorspace.inputs", set()).add(key)
        _add(buf, "tensorspace.terms_out", len(result.coeffs))
    return hook


def _bilinear(buf, args, kwargs, result):
    u, v = args
    if u.coeffs.keys().isdisjoint(v.coeffs):
        _add(buf, "tensorspace.bilinear_disjoint", 1)


def _enumerate_walks(buf, args, kwargs, result):
    _add(buf, "combinatorics.walks", len(result))


def _build_c_pi(buf, args, kwargs, result):
    pi, field = args[0], args[1]
    n = args[2] if len(args) > 2 else kwargs.get("n")
    rows = pi.rows
    prefixes = buf.sets.setdefault("psiphi.prefixes", set())
    for k in range(1, len(rows) + 1):
        prefixes.add((field.q0, n, rows[:k]))
    _add(buf, "psiphi.walk_steps", len(rows))
    _max(buf, "psiphi.peak_terms", len(result.vector.coeffs))


def _psiphi_terms(buf, args, kwargs, result):
    terms = getattr(result, "terms", None)
    if terms is None:
        terms = result.coeffs
    _max(buf, "psiphi.peak_terms", len(terms))


HOOKS = {
    "coeff.RatFunc.__init__": _ratfunc_init,
    "tensorspace.bilinear": _bilinear,
    "combinatorics.enumerate_walks": _enumerate_walks,
    "psiphi.build_c_pi": _build_c_pi,
    "psiphi.phi": _psiphi_terms,
    "psiphi.psi": _psiphi_terms,
    "psiphi.apply_neg": _psiphi_terms,
    **{name: _action(name) for name in TENSOR_ACTIONS},
}
