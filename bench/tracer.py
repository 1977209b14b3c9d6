"""Outside-in tracing of plap's layers.

A ``Tracer`` wraps each function in TARGETS at every module attribute of the
plap package that refers to it (``residual`` is imported by name into
``cli`` and ``surgery``, for example), so calls made inside the package are
seen as well as calls made by the benchmark. Nothing under ``src/`` changes:
the wrappers exist only between ``install`` and ``remove``.

Each call becomes one span: its name, start, end, parent span, request id
and the size n of its operator or graph. Spans stay in memory, in flat
arrays, until the run ends. A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from array import array

import numpy as np

#: Traced functions, as "<module>.<function>" inside the plap package.
TARGETS = (
    "cli.main", "cli.parse_document",
    "treespec.tree_spectrum", "treespec.forest_eigenbasis",
    "treespec.eigenbasis",
    "oracle.p2_spectrum", "oracle.assemble_p2", "oracle.eig_sym",
    "nodal.analyze", "nodal.check_upper", "nodal.check_lower",
    "surgery.remove_edge", "surgery.remove_node", "surgery.verify_weyl_edge",
    "surgery.verify_weyl_nodes", "surgery.reduce_to_forest",
    "core.first_eigenpair", "core.apply", "core.residual",
)

#: The span whose operator arguments are compared for repeat_ratio.
KEYED = "treespec.tree_spectrum"


def operator_key(H) -> tuple:
    """Identity of an operator: p, vertex ids with rho and kappa, and edges."""
    g = H.graph
    return (float(H.p), tuple(g.vertex_triples()), tuple(g.edge_triples()))


def _size(args) -> int:
    """n of the first argument's operator, graph or matrix; -1 if none."""
    if not args:
        return -1
    a = args[0]
    g = getattr(a, "graph", a)
    n = getattr(g, "n", None)
    return n if isinstance(n, int) else -1


class Tracer:
    """Span recorder; use as a context manager around the traced requests."""

    def __init__(self, package):
        self.package = package
        self.names = TARGETS  # a span's name is names[name_id]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.name_id = array("q")
        self.size = array("q")
        self.operators: dict[int, object] = {}  # span -> KEYED's operator
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -------------------------------------------------------------- wrapping

    def _modules(self):
        root = self.package.__name__
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == root or name.startswith(root + "."))]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for target in TARGETS:
            modname, attr = target.split(".")
            mod = sys.modules.get(f"{self.package.__name__}.{modname}")
            fn = getattr(mod, attr, None)
            if fn is None:
                continue  # this version of the package has no such function
            wrapper = self._wrap(target, fn)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)
                        self._patches.append((m, name, fn))

    def remove(self):
        while self._patches:
            m, name, fn = self._patches.pop()
            setattr(m, name, fn)

    def _wrap(self, target: str, fn):
        nid = self.names.index(target)
        keyed = target == KEYED
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.name_id.append(nid)
            self.size.append(_size(args))
            if keyed:
                self.operators[idx] = args[0]
            self.end.append(math.nan)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    # -------------------------------------------------------------- analysis

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the time its direct children cover
        (children of one span run one after another, never overlapping)."""
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        covered = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(covered, parent[has], dur[has])
        return dur - covered

    def repeat_ratio(self, name: str = KEYED) -> float:
        """Share of ``name`` calls whose operator equals one already seen in
        the same request. Keys are built here, after the run, so that the
        spans do not pay for them."""
        seen: dict[int, set] = {}
        calls = repeats = 0
        for idx in sorted(self.operators):
            if self.names[self.name_id[idx]] != name:
                continue
            keys = seen.setdefault(self.request[idx], set())
            key = operator_key(self.operators[idx])
            calls += 1
            if key in keys:
                repeats += 1
            keys.add(key)
        return repeats / calls if calls else 0.0


def n_exponent(sizes, times) -> float:
    """Slope of log(median self time) against log(n) over the distinct n;
    0.0 when fewer than two sizes have a positive time."""
    groups: dict[int, list] = {}
    for n, t in zip(sizes, times):
        if n > 0:
            groups.setdefault(int(n), []).append(float(t))
    pts = [(math.log(n), math.log(statistics.median(ts)))
           for n, ts in sorted(groups.items()) if statistics.median(ts) > 0]
    if len(pts) < 2:
        return 0.0
    x = np.array([a for a, _ in pts])
    y = np.array([b for _, b in pts])
    x -= x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))
