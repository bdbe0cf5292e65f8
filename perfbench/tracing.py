"""Span tracing of the prescurv package from outside it.

`Tracer.install(package)` replaces every public module-level function of the
package, and the public methods of the classes in TRACED_CLASSES, with a
wrapper that records one span per call.  The wrapper is bound at every place the function
is imported (for example `geometry.compute_geometry` is also patched as
`solver.compute_geometry`, `monitor.compute_geometry` and
`prescurv.compute_geometry`), so calls are caught however the package reaches
them.  `np.linalg.solve` is traced as `solver.linsolve`, only where the
solver calls it, through a proxy for the solver's `np`.  `Tracer.remove()`
puts every original back.

Spans live in flat in-memory arrays (name id, parent index, start, end,
raised flag); a span's parent is the innermost traced call open when it
started.  Nothing is written until `Tracer.save`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np


def newton_result(out):
    """Result hook for solver.newton_solve: (iterations, halvings)."""
    stats = out[1]
    return stats.iterations, stats.halvings


def continuation_result(out):
    """Result hook for solver.continuation_solve: accepted t-steps."""
    return len(out[1]) - 1


# span name -> hook run on the call's return value; its output is kept in
# Tracer.results under the span's index
HOOKS = {"solver.newton_solve": newton_result,
         "solver.continuation_solve": continuation_result}

# "<module>.<class>" whose public methods are traced as "<module>.<method>"
TRACED_CLASSES = ("warp.WarpProfile",)

# report.fmt formats one CSV value per call: a span each would cost more than
# the writers themselves, so it stays unwrapped and counts as writer time.
UNTRACED = ("report.fmt",)


class _Proxy:
    """Attribute pass-through to `target`, except for the given overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records nested call spans of wrapped functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.results: dict[int, object] = {}   # span index -> result-hook value
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """A wrapper of `fn` that records a span called `name` per call.

        `on_result(value)` runs after a call returns; its output is kept in
        `results` under the span's index.
        """
        nid = self._intern(name)
        stack, perf = self._stack, time.perf_counter
        name_ids, parents, starts, ends, raised = (
            self.name_id, self.parent, self.start, self.end, self.raised)
        results = self.results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            raised.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = perf()
                stack.pop()
            if on_result is not None:
                results[idx] = on_result(out)
            return out

        traced.__traced_original__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the package's public functions wherever they are bound.

        Calls named in HOOKS get their result hook; names in UNTRACED are
        left unwrapped.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(prefix))]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{short}.{attr}"
                if name in UNTRACED:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(name, obj, HOOKS.get(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for qualified in TRACED_CLASSES:
            short, _, cls_name = qualified.partition(".")
            cls = getattr(sys.modules[prefix + short], cls_name)
            for attr, obj in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(obj):
                    self._patch(cls, attr, self.wrap(f"{short}.{attr}", obj))
        solver = sys.modules.get(prefix + "solver")
        if solver is not None:
            np_mod = solver.np
            linalg = _Proxy(np_mod.linalg,
                            solve=self.wrap("solver.linsolve", np_mod.linalg.solve))
            self._patch(solver, "np", _Proxy(np_mod, linalg=linalg))

    def remove(self):
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- export --------------------------------------------------------------

    def arrays(self) -> "SpanArrays":
        return SpanArrays(
            names=list(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            raised=np.frombuffer(self.raised, dtype=np.int8).astype(bool),
        )

    def save(self, path: str):
        """Write all spans to a compressed .npz file."""
        a = self.arrays()
        np.savez_compressed(path, names=np.array(a.names), name_id=a.name_id,
                            parent=a.parent, start=a.start, end=a.end, raised=a.raised)


class SpanArrays:
    """Recorded spans as numpy arrays, with the span-tree arithmetic.

    Spans are stored in start order, so a parent's index is always smaller
    than its children's.
    """

    def __init__(self, names, name_id, parent, start, end, raised):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.raised = np.asarray(raised, dtype=bool)
        if np.any(self.parent >= np.arange(self.parent.size)):
            raise ValueError("a span's parent must precede it")
        self._depth = None

    def __len__(self):
        return self.parent.size

    @property
    def duration(self):
        return self.end - self.start

    @property
    def depth(self):
        if self._depth is None:
            depth = np.zeros(len(self), dtype=np.int64)
            parent = self.parent.tolist()
            for i, p in enumerate(parent):
                if p >= 0:
                    depth[i] = depth[p] + 1
            self._depth = depth
        return self._depth

    def mask(self, names) -> np.ndarray:
        """Spans whose name is in `names` (or starts with it, for a 'x.' prefix)."""
        ids = [i for i, n in enumerate(self.names)
               if any(n == want or (want.endswith(".") and n.startswith(want))
                      for want in names)]
        return np.isin(self.name_id, ids)

    def under(self, anc_mask: np.ndarray) -> np.ndarray:
        """Spans that have a proper ancestor in `anc_mask`."""
        inside = np.zeros(len(self), dtype=bool)
        depth = self.depth
        for d in range(1, int(depth.max(initial=0)) + 1):
            idx = np.nonzero(depth == d)[0]
            p = self.parent[idx]
            inside[idx] = inside[p] | anc_mask[p]
        return inside

    def self_time(self) -> np.ndarray:
        """Per span: its duration minus the part of it its children cover."""
        covered = np.zeros(len(self))
        order = np.lexsort((self.start, self.parent))
        start, end, parent = self.start.tolist(), self.end.tolist(), self.parent.tolist()
        current, reach = -1, 0.0
        for i in order.tolist():
            p = parent[i]
            if p < 0:
                continue
            if p != current:
                current, reach = p, start[p]
            lo = max(start[i], reach)
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach = hi
        return self.duration - covered

    def busy(self, names) -> tuple[int, float]:
        """(calls, busy seconds) of a layer: spans in `names` not nested in one another."""
        m = self.mask(names)
        outer = m & ~self.under(m)
        return int(outer.sum()), float(self.duration[outer].sum())


def load(path: str) -> SpanArrays:
    """Read spans written by `Tracer.save`."""
    with np.load(path) as z:
        return SpanArrays(z["names"].tolist(), z["name_id"], z["parent"], z["start"],
                          z["end"], z["raised"])
