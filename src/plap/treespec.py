"""Exact spectra of the generalized p-Laplacian on trees and forests.

Every vertex u of a rooted tree carries a scalar function of the spectral
parameter, written g_u below. For an eigenpair (lam, f) with f(u) != 0 the
value g_u(lam) equals the ratio f(parent of u) / f(u), which gives the
recursion its meaning. Leaves have the closed form

    g_u(lam) = 1 + phi_inv((kappa_u - rho_u * lam) / omega_{u,parent})

internal vertices add one term omega_{uv} * phi(1 - 1/g_v(lam)) per child v
inside the phi_inv argument, and the root of every component is treated
as hanging from a virtual parent by a unit-weight edge with its potential
reduced by one.
Under that convention the zeros of g_u are exactly the eigenvalues of the
subtree operator rooted at u (parent edge weight absorbed into the
potential), the poles of g_u are its children's zeros, and g_u decreases
strictly from +inf to -inf across every open interval between consecutive
poles as well as on the two unbounded tails.

One consequence answers every spectral question on a forest: the number of
vertices with g_u(x) < 0 is the number of eigenvalues below x
(`ForestCount`). Spectra come from halving intervals on that count
(`_slice`), and every pass's column of g values is kept with the intervals
it bounds.
An interval that holds one eigenvalue is narrowed by interpolating the g
value that the eigenfunction's largest entry would have if the tree were
re-rooted there (`_rerooted_g`), whose zeros are the component's
eigenvalues and which has no pole near this one: the zero of the Moebius
map through its last three values, else regula falsi. That entry is found
from the vertex v where the count rises, the one vertex whose sign differs
between the interval's two kept columns: dividing down v's subtree by the g
values rebuilds the eigenfunction there (`_largest_entry`). An interval
with no such single vertex keeps probing until it is SECANT_REL of its
value wide, by when it mostly has one; only where it still has none, mostly
on paths, does a top-down pass over every re-rooted g pick the entry
(`_steering`). A narrower SECANT_REL trades that pass for more probes, and
at 1e-6 path 45 at p = 1.2 takes more passes than the tests allow (see
SECANT_REL). Where the re-rooted g does not bracket a zero, the probe
is regula falsi on g_v, and where g_v does not either, the midpoint. The
count on the original rooting decides each step, and the halving is then
replayed, so every value is the float that halving alone returns
(`_Bracket`). Forests that differ from a counted one by one removal each,
of an edge, of a vertex or of nothing, with a few potentials patched,
are counted from its rooting at all the thresholds asked: one level pass
over the whole forest, then passes that re-evaluate only the vertices
each removal moves, the root paths above it and the paths that turn over
where a cut-off component is rooted anew (`PatchedCount`).
The vanishing vertices behind an eigenvalue come from the sign changes of
the g values across a narrow window around it (`_windows`, which counts
the windows of all of a component's values together).

One count is one pass of `_eval_vertices` over a component's plan, built
once per rooting: the leaves first, then the inner vertices children-first.
The pass writes every g value into a list indexed by vertex and counts the
negative ones as it goes. `_eval_vertices` is the reference: the only pass
of `ForestCount.count_below`, and the pass the array passes fall back to
wherever they meet a value that is not finite. `_level_pass`
is the one array pass, of `_lockstep` (the slicing rounds and
`ForestCount.counts_below`) and of every pass of `PatchedCount`: the
same float operations one height level at a time on arrays of a level's
vertices by (patch, threshold) lanes.

`_slice` works a component's intervals in rounds, one loop for rounds of
every width: every open interval gives its next probe, and the round
counts them all at once, as does the first round, the passes at the two
ends. An interval that holds one eigenvalue is a `_Bracket`, an object
whose state lives across rounds: a round moves each bracket's ends by its
pass's count and asks it for its next probe. Where there are enough
probes for the shape of the tree, the round is one `_lockstep` pass, one
`_level_pass` with one lane per probe, which gives every g value and count
float for float; the crossover is fixed by the number of probes and the
plan's height levels and child slots against its size. Its columns are
float64 bytes, one block per probe, read through read-only memoryviews: 8
bytes a value where a list of floats takes 32, no conversion of the
round's array to Python floats, indexing that gives floats as a list does,
and a write to a column that neighbouring intervals share raises. The
brackets that look for their flip vertex compare their stacked columns in
one array step (`_flip_vertex`). Below the crossover, as on paths, whose
every vertex is a level of its own, and on small trees, a round is one
scalar pass per probe, whose column is the list it writes, and so is
every probe whose column of a lockstep pass holds a value that is not
finite.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (FLOAT_RANGE, Operator, VertexFunction, WeightedGraph,
                   _defect, _newton_polish, _vertex_bounds, p_normalized, phi,
                   phi_inv)

#: Two spectral values are considered equal when they differ by at most
#: CLUSTER_REL * max(1, |value|).
CLUSTER_REL = 1e-9

#: Half-width, relative to max(1, |lam|), of the window whose sign changes
#: give the vertices vanishing at an eigenvalue lam.
WINDOW_REL = 1e-10

#: `_slice` locates an eigenvalue to within SLICE_REL * max(1, |value|).
SLICE_REL = 1e-13

#: Relative width below which a `_Bracket`, finding no single vertex where
#: the count rises, picks the vertex it steers on with `_steering`. Until
#: then it halves, and a narrower bracket mostly has a single flip vertex,
#: so the division walk picks instead. On the benchmark's tree spectra
#: `_steering` runs for about 0.06 of the eigenvalues of trees and 0.28 of
#: paths at 1e-3, against 0.27 and 0.43 at 1e-2, and spectra take less
#: time; 3e-3 to 1e-4 are no faster, and lower values add probes: at 1e-6
#: path 45 at p = 1.2 takes 16.2 counting passes per eigenvalue, over the
#: 15.1 the tests allow.
SECANT_REL = 1e-3

#: `_rerooted_g` reads a vertex's accumulator back from its g only where
#: |g - 1| exceeds this; nearer 1 the read-back loses too many digits.
RECOVER_REL = 1e-4

POLE = math.inf

#: The cost of one `_lockstep` pass in scalar vertex steps (one vertex of
#: one `_eval_vertices` pass): LEVEL_STEPS per height level and once more
#: for the pass, SLOT_STEPS per child slot, and PROBE_SHARE of a scalar
#: pass per probe.
LEVEL_STEPS = 30.0
SLOT_STEPS = 7.5
PROBE_SHARE = 0.22

#: `_slice` keeps at most IN_FLIGHT isolated brackets open or waiting
#: before it halves another interval, and halves at most HALVINGS
#: intervals at once, the lowest first. That bounds the columns it holds
#: and the width of a lockstep pass; wider rounds take fewer passes, each
#: of which pays its per-level cost once for more probes.
IN_FLIGHT = 64
HALVINGS = 16


def cluster_tagged(pairs, rel: float = CLUSTER_REL):
    """Single-linkage clustering of (value, tag) pairs.

    Returns a list of (center, values, tags) with centers ascending; two
    consecutive sorted values join one cluster when they differ by at most
    rel * max(1, |value|).
    """
    if not pairs:
        return []
    pairs = sorted(pairs, key=lambda t: t[0])
    groups = [[pairs[0]]]
    for v, tag in pairs[1:]:
        if v - groups[-1][-1][0] <= rel * max(1.0, abs(v)):
            groups[-1].append((v, tag))
        else:
            groups.append([(v, tag)])
    out = []
    for grp in groups:
        vals = [v for v, _ in grp]
        out.append((sum(vals) / len(vals), vals, [t for _, t in grp]))
    return out


class RootedTree:
    """Rooted overlay of a forest.

    Every component hangs from its own virtual parent: the vertex ``root``
    for its own component, otherwise the component's smallest dense index;
    a root has parent -1. Exposes parent/children arrays over the graph's
    dense indices, each vertex's parent edge weight, one children-first
    order per component (``components``, ordered by smallest vertex), and
    the potentials and masses as lists (``kappa``, ``rho``). The spectral
    output downstream does not depend on the roots.

    ``plans`` maps each component's order, in the order of ``components``,
    to what one evaluation of g walks (`_eval_vertices`): the leaves, each
    as (u, kappa_u, rho_u, is_root, parent weight), then the inner vertices
    children-first, each as the same five fields plus its (child,
    omega_child) pairs. A root's parent weight is the virtual edge's 1.0.
    """

    def __init__(self, graph: WeightedGraph, root=None):
        n = graph.n
        parent = [-2] * n
        parent_w = [math.nan] * n
        children = [[] for _ in range(n)]
        components = []
        starts = range(n) if root is None else (graph.index_of(root), *range(n))
        for r in starts:
            if parent[r] != -2:
                continue
            parent[r] = -1
            queue = [r]
            for u in queue:  # grows while it is read: breadth first
                for v, w in graph.adj[u]:
                    if parent[v] == -2:
                        parent[v] = u
                        parent_w[v] = w
                        children[u].append(v)
                        queue.append(v)
            components.append(tuple(reversed(queue)))  # children before parents
        if len(graph.edges) != n - len(components):
            raise ValueError("rooting requires a forest")
        components.sort(key=min)
        self.graph = graph
        self.parent = parent
        self.parent_w = parent_w
        self.children = tuple(tuple(c) for c in children)
        self.components = tuple(components)
        self.rho = rho = graph.rho.tolist()
        self.kappa = kappa = graph.kappa.tolist()
        self.plans = {}
        for comp in self.components:
            leaves, inner = [], []
            for u in comp:
                root = parent[u] == -1
                head = (u, kappa[u], rho[u], root, 1.0 if root else parent_w[u])
                if children[u]:
                    inner.append((*head, tuple((v, parent_w[v])
                                               for v in children[u])))
                else:
                    leaves.append(head)
            self.plans[comp] = (tuple(leaves), tuple(inner))

    @functools.cached_property
    def lowest(self) -> list:
        """The smallest dense index in every vertex's subtree: where this
        rooting roots the component that a removal cuts off at the vertex."""
        low = list(range(len(self.parent)))
        for comp in self.components:
            for u in comp:  # children first
                up = self.parent[u]
                if up != -1 and low[u] < low[up]:
                    low[up] = low[u]
        return low


def _eval_vertices(H: Operator, lam: float, plan, vals: list) -> int:
    """One pass of the g recursion over ``plan`` (a `RootedTree.plans`
    value): writes g_u(lam) into ``vals[u]`` for every vertex u it covers
    and returns how many of those values `_negative` marks, which is the
    number of eigenvalues below lam of the component.

    An exact zero at a child turns the parent's value into the pole marker;
    at a grandparent the marker washes out through 1 - 1/inf = 1, matching
    the removable singularity of the underlying rational-like function.
    phi(t) and phi_inv(a) branch on the sign of their argument x and compute
    x ** e or -((-x) ** e), the floats of copysign(abs(x) ** e, x); a NaN
    takes the negative branch.
    """
    pm1 = H.p - 1.0
    pinv = 1.0 / pm1
    leaves, inner = plan
    neg = 0
    for u, kappa, rho, root, w_par in leaves:
        acc = kappa - rho * lam
        if root:
            acc -= 1.0
        a = acc / w_par
        if a > 0.0:
            g = 1.0 + a ** pinv
            if g == POLE:  # a = +inf: _negative counts it like the marker
                neg += 1
        elif a == 0.0:
            g = 1.0
        else:
            g = 1.0 - (-a) ** pinv
            if g < 0.0:
                neg += 1
        vals[u] = g
    for u, kappa, rho, root, w_par, kids in inner:
        acc = kappa - rho * lam
        if root:
            acc -= 1.0
        for v, w in kids:
            gv = vals[v]
            if gv == 0.0:
                vals[u] = POLE
                neg += 1
                break
            t = 1.0 - 1.0 / gv
            if t > 0.0:
                acc += w * t ** pm1
            elif t != 0.0:
                acc -= w * (-t) ** pm1
        else:  # no pole: phi_inv as for a leaf, written out to save a call
            a = acc / w_par
            if a > 0.0:
                g = 1.0 + a ** pinv
                if g == POLE:
                    neg += 1
            elif a == 0.0:
                g = 1.0
            else:
                g = 1.0 - (-a) ** pinv
                if g < 0.0:
                    neg += 1
            vals[u] = g
    return neg


def _eval_plans(H: Operator, lam: float, plans, vals: list) -> int:
    """`_eval_vertices` over every plan of ``plans``, one forest's: the
    number of its eigenvalues below lam."""
    neg = 0
    for plan in plans:
        neg += _eval_vertices(H, lam, plan, vals)
    return neg


class _Lanes:
    """A plan laid out for `_level_pass`: its vertices grouped by height (0
    without a child in the plan, else one above its highest child in it),
    each level a block of consecutive rows, and per level the rows of its
    vertices' k-th children, one child slot at a time. A child outside the
    plan (``outside``, (child, weight) pairs, each listed once) has a row
    after the plan's n for its given term. ``order`` lists the plan's
    vertices by row, ``columns`` their kappa, rho, root marker (1.0 or 0.0) and
    parent weight. Within a level the vertices with more children come
    first, so slot k covers the level's first m_k rows, and among as many
    children the roots come last. ``batch_from`` is the number of probes
    from which one lockstep pass costs less than that many scalar passes
    (`_lockstep_pays`); ``size`` is the length of a column.
    """

    def __init__(self, plan, size: int):
        leaves, inner = plan
        height = dict.fromkeys([e[0] for e in leaves], 0)
        levels = [[(e, ()) for e in leaves]]
        for e in inner:  # children first: a level at most one above the last
            h = height[e[0]] = 1 + max(height.get(v, -1) for v, _w in e[5])
            if h == len(levels):
                levels.append([])
            levels[h].append((e, e[5]))
        for level in levels:
            if len(level) > 1:
                level.sort(key=lambda entry: (-len(entry[1]), entry[0][3]))
        self._grouped = levels
        heads = [e for level in levels for e, _kids in level]
        self.order = [e[0] for e in heads]
        self.outside = [*dict.fromkeys(kid for level in levels for _e, kids in level
                                       for kid in kids if kid[0] not in height)]
        self.columns = np.array([*zip(*heads)][1:5], dtype=float)[..., None, None]
        self.plan = plan
        self.size = size
        self.n = len(height)
        slots = sum(len(level[0][1]) for level in levels)
        self.batch_from = _lockstep_pays(self.n, len(levels), slots)

    @functools.cached_property
    def blocks(self) -> tuple:
        """Per level: its first and last row + 1, the end of its rows up to
        its last non-root (those add terms), its parent weights, and per
        child slot (m_k, the children's rows, a slice if consecutive)."""
        w = self.columns[3]
        row = dict(zip(self.order, range(self.n)))
        row.update(zip([v for v, _w in self.outside], itertools.count(self.n)))
        blocks = []
        s = 0
        for level in self._grouped:
            e = t = s + len(level)
            while t > s and level[t - s - 1][0][3]:
                t -= 1
            slots = []
            for k in range(len(level[0][1])):
                kids = [row[kids[k][0]] for _head, kids in level if len(kids) > k]
                m, a = len(kids), kids[0]
                slots.append((m, slice(a, a + m)
                              if m == 1 or kids == [*range(a, a + m)]
                              else np.array(kids, dtype=np.intp)))
            blocks.append((s, e, t, w[s:e], tuple(slots)))
            s = e
        return tuple(blocks)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The row of every dense index below ``size``; the vertices
        outside the plan read row n, which stays zero."""
        rows = np.full(self.size, self.n, dtype=np.intp)
        rows[self.order] = np.arange(self.n)
        return rows


def _lockstep_pays(n: int, levels: int, slots: int) -> int:
    """The number of probes from which one `_lockstep` pass over a plan of
    n vertices, ``levels`` height levels and ``slots`` child slots is
    cheaper than as many `_eval_vertices` passes, by the cost model of
    LEVEL_STEPS, SLOT_STEPS and PROBE_SHARE."""
    fixed = LEVEL_STEPS * (levels + 1) + SLOT_STEPS * slots
    return max(2, math.ceil(fixed / ((1.0 - PROBE_SHARE) * n)))


def _terms(pm1: float, g: np.ndarray, w, out=None, scratch=None) -> np.ndarray:
    """w * phi(1 - 1/g), a child's term over an edge of weight w, into
    ``out`` (``scratch`` is overwritten), both new where not given; phi is
    copysign(float_power(|t|, p - 1), t), the floats of the scalar pass."""
    t = np.divide(1.0, g, out=out)
    np.subtract(1.0, t, out=t)
    a = np.abs(t, out=scratch)
    np.float_power(a, pm1, out=a)
    np.copysign(a, t, out=t)
    t *= w
    return t


def _level_pass(H: Operator, lanes: _Lanes, lam: np.ndarray, kappa: np.ndarray,
                given=None) -> np.ndarray:
    """The g values of the plan of ``lanes`` in (patch, threshold) lanes, of
    shape (n + 1, patches, thresholds): one row per vertex and a last row
    of zeros. The thresholds are ``lam``, ``kappa`` (n, patches, 1) holds
    each patch's potentials and ``given`` the terms of the children outside
    the plan (`_terms` of their g values), one row each, by threshold.

    Every step is the scalar pass's float operation on a whole array:
    kappa - rho lam less the roots' 1.0 on every row at once (less 0.0
    elsewhere, which changes no float), then level by level the children's
    `_terms` one slot at a time in the plan's order, and phi_inv as
    copysign(float_power(|x|, e), x). A zero argument, which the scalar
    pass skips or maps to 1.0, adds a zero or gives 1.0 here too. An exact
    child zero, an overflow or a NaN leaves a value that is not finite in
    its lane, where the scalar pass writes the pole marker or raises.
    """
    pm1 = H.p - 1.0
    pinv = 1.0 / pm1
    n = lanes.n
    _kappa, rho, root, _w = lanes.columns
    g = np.zeros((n + 1, kappa.shape[1], len(lam)))
    up = np.empty((n + len(lanes.outside), *g.shape[1:]))  # terms by row
    scratch = np.empty_like(g)
    with np.errstate(all="ignore"):
        if given is not None:
            up[n:] = given[:, None]
        acc = g[:n]
        np.multiply(rho, lam, out=acc)
        np.subtract(kappa, acc, out=acc)
        acc -= root
        for s, e, t, w, slots in lanes.blocks:
            y = g[s:e]
            for m, kids in slots:
                y[:m] += up[kids]
            np.divide(y, w, out=y)
            a = np.abs(y, out=scratch[:e - s])
            np.float_power(a, pinv, out=a)
            np.copysign(a, y, out=y)
            y += 1.0
            if t > s:
                _terms(pm1, y[:t - s], w[:t - s], up[s:t], a[:t - s])
    return g


def _lockstep(H: Operator, lanes: _Lanes, xs: list) -> list:
    """One `_level_pass` over a component's plan with one lane per probe in
    ``xs``: per probe, the (column, count) that `_eval_vertices` gives
    there, float for float, or None where one of its g values is not
    finite, which sends that probe alone to the scalar pass (`_passes`).
    A column holds the probe's g values by dense vertex as float64 in bytes
    of its own, read through a read-only memoryview: indexing it gives
    floats as a list does, and it does not pin the round's array."""
    g = _level_pass(H, lanes, np.array(xs), lanes.columns[0])[:, 0]
    body = g[:lanes.n]
    finite = np.isfinite(body).all(axis=0).tolist()
    counts = np.count_nonzero(body < 0.0, axis=0).tolist()
    rows = np.ascontiguousarray(g[lanes.rows].T)
    return [(memoryview(row.tobytes()).cast("d"), c) if ok else None
            for row, c, ok in zip(rows, counts, finite)]


def _negative(g):
    """Whether a g value counts as negative, elementwise on an array: the
    pole marker does, since only an exact child zero produces it and the
    count takes left limits."""
    return (g < 0.0) | (g == POLE)


def _narrow(a: float, b: float, rel: float) -> float:
    """rel * max(1, min(|a|, |b|)), the width at or below which the interval
    (a, b) counts as narrow: relative to the value the interval locates
    rather than to the starting bracket, since a huge potential can push
    the spectral bound to 1e12 and beyond."""
    return rel * max(1.0, min(abs(a), abs(b)))


def _located(a: float, b: float, mid: float) -> bool:
    """Whether halving stops at (a, b) and returns its midpoint ``mid``."""
    return b - a <= _narrow(a, b, SLICE_REL) or not a < mid < b


def _checked(c: int, x: float, ca: int, cb: int) -> int:
    """The count c of a pass at x inside an interval whose ends count ca and
    cb; a count outside [ca, cb] is a hard error."""
    if not ca <= c <= cb:
        raise AssertionError(f"eigenvalue count not monotone near {x!r}")
    return c


def _passes(H: Operator, lanes: _Lanes, xs: list) -> list:
    """(column, count) of a pass over ``lanes.plan`` at every probe in
    ``xs``: one `_lockstep` pass when there are at least
    ``lanes.batch_from`` probes, else, and at every probe where that pass
    meets a value that is not finite, one `_eval_vertices` pass, whose
    column is the new list it writes."""
    out = (_lockstep(H, lanes, xs) if len(xs) >= lanes.batch_from
           else [None] * len(xs))
    for i, x in enumerate(xs):
        if out[i] is None:
            vals = [0.0] * lanes.size
            out[i] = (vals, _eval_vertices(H, x, lanes.plan, vals))
    return out


def _slice(T: RootedTree, H: Operator, order) -> list:
    """(value, multiplicity) of every distinct eigenvalue of the component
    that ``order`` spans (children-first), ascending. Every interval across
    which the eigenvalue count rises is halved, and each value is the
    midpoint of an interval where the halving stops.

    The count must read 0 at -hi and len(order) at +hi, a hard structural
    check, with hi = bound + max(1, 8 ulps of the bound), the bound being
    the largest `spectral_bound` term over ``order``. A hi outside the
    float range raises ArithmeticError, and so do end counts that disagree
    where an end pass holds a g value that is not finite: there the
    recursion left the float range, and the count's logic did not fail.
    An interval is halved until `_located`: its width is at most
    SLICE_REL * max(1, min(|a|, |b|)), or no float lies strictly inside
    it. An interval across which the count rises by exactly one is a
    `_Bracket`, which returns the same float from fewer counts; one across
    which it rises by more is halved here.

    The intervals are worked in rounds, one loop for rounds of every
    width. Every open interval gives one probe per round, and the round's
    probes are counted together (`_passes`): by one lockstep pass over the
    component's `_Lanes` from the number of probes at which that is
    cheaper than one scalar pass each, a number fixed by the plan's height
    levels and child slots against its size, and by a scalar pass for each
    probe below that number or whose lockstep column holds a value that is
    not finite; the first round is the passes at -hi and +hi. Before the
    probes, the brackets that look for their flip vertex have it found in
    one `_flip_vertex` call. An interval's probes depend on its own counts
    alone, so no value depends on which intervals share a round. Brackets
    open while fewer than IN_FLIGHT are open. Another interval is halved
    only while fewer than IN_FLIGHT brackets are open or waiting, at most
    HALVINGS at once and the lowest first, so the waiting intervals are
    mostly the right halves along a few paths down the halving. That keeps
    the columns held to a multiple of IN_FLIGHT, where opening every
    interval at once would hold one per eigenvalue; a round counts at most
    IN_FLIGHT + HALVINGS probes.

    Every pass gives a column of its own (`_passes`), which stays with the
    intervals it bounds, so each interval carries the columns at both its
    ends. The two halves of an interval share the column at its midpoint,
    so no column is written twice, and a lockstep column is read-only. A
    column is indexed by dense vertex, and only the entries up to the
    component's largest index exist.
    """
    n = len(order)
    bound = float(np.max(_vertex_bounds(H)[list(order)]))
    # past 2^50 the + 1.0 falls below 8 ulps, and with the rounding of the
    # bound the top eigenvalue may lie above it
    hi = bound + max(1.0, 8.0 * math.ulp(bound))
    if not math.isfinite(hi):
        raise ArithmeticError(f"spectral bound {bound:.6g} leaves {FLOAT_RANGE}")
    lanes = _Lanes(T.plans[order], max(order) + 1)
    (at_lo, c_lo), (at_hi, c_hi) = _passes(H, lanes, [-hi, hi])
    if (c_lo, c_hi) != (0, n):
        counts = (f"eigenvalue counts {c_lo} and {c_hi} at -/+{hi:.6g}, "
                  f"not 0 and {n}")
        if not all(math.isfinite(g[u]) for g in (at_lo, at_hi) for u in order):
            raise ArithmeticError(f"{counts}: the g recursion leaves {FLOAT_RANGE}")
        raise AssertionError(counts)
    out = []
    # a heap, the lowest first; the tie-breaker keeps the columns out of
    # every comparison
    to_halve = [(-hi, 0, hi, 0, n, at_lo, at_hi)]
    ties = itertools.count(1)
    to_isolate = []
    scope = (T, H, T.plans[order])
    brackets = []  # the open ones
    while to_halve or to_isolate or brackets:
        isolating = len(brackets)
        while to_isolate and isolating < IN_FLIGHT:
            bracket = _Bracket(scope, *to_isolate.pop())
            if bracket.settled(out):
                brackets.append(bracket)
            isolating += 1
        halving = []
        started = 0
        while (to_halve and started < HALVINGS
               and isolating + len(to_isolate) < IN_FLIGHT):
            a, _tie, b, ca, cb, at_a, at_b = heapq.heappop(to_halve)
            mid = 0.5 * (a + b)
            if not -POLE < mid < POLE:  # a + b left the float range
                mid = 0.5 * a + 0.5 * b
            if _located(a, b, mid):
                out.append((mid, cb - ca))
            else:
                halving.append((a, b, ca, cb, at_a, at_b, mid))
            started += 1
        seeking = [bracket for bracket in brackets if bracket.seeking]
        if seeking:
            for bracket, v in zip(seeking, _flip_vertex(
                    order, [bracket.at_lo for bracket in seeking],
                    [bracket.at_hi for bracket in seeking])):
                bracket.flip(v)
        xs = [bracket.probe() for bracket in brackets]
        answers = _passes(H, lanes, xs + [h[6] for h in halving])
        brackets = [bracket for bracket, (col, c) in zip(brackets, answers)
                    if bracket.answer(col, c, out)]
        for (a, b, ca, cb, at_a, at_b, mid), (at_mid, cm) in zip(
                halving, answers[len(xs):]):
            _checked(cm, mid, ca, cb)
            for half in ((mid, b, cm, cb, at_mid, at_b),
                         (a, mid, ca, cm, at_a, at_mid)):
                if half[3] - half[2] == 1:
                    to_isolate.append(half)
                elif half[3] > half[2]:
                    heapq.heappush(to_halve, (half[0], next(ties), *half[1:]))
    return sorted(out)


class _Bracket:
    """An isolated bracket of `_slice`, open across its rounds: it locates
    the midpoint that halving (a, b) until `_located` returns, where the
    count over the component rises from ca to ca + 1: one eigenvalue.
    ``at_lo`` and ``at_hi`` are the columns of the passes at its ends lo
    and hi, which neighbouring intervals share and which it never writes;
    every probe's column is new, and it then stays with the end it moves.
    ``scope`` is the component's (RootedTree, Operator, plan). A round asks
    every open bracket for its probe (`probe`), and the pass there moves
    one of its ends (`answer`).

    The vertex v where the count rises is the one vertex whose `_negative`
    sign differs between the columns at the bracket's two ends
    (`_flip_vertex`), when there is exactly one: g_v falls through zero
    inside the bracket. It is looked for before every probe until u* is
    picked, and after that whenever neither gamma nor g_v brackets a zero
    (``seeking``). The first probe at which v exists is v's regula falsi
    point, kept within the middle 60 % of the bracket, and its pass picks
    u*: the largest |f| over v's subtree, with f(v) = 1 and
    f(c) = f(u) / g_c down the tree (`_largest_entry`), which is the
    eigenfunction's largest entry where the eigenfunction lives below v.
    Where that walk meets a g of exactly 0.0 or leaves the float range,
    `_steering` picks u* at the same probe; where no single v exists, it
    picks at the first probe inside the relative width SECANT_REL. Until
    then the bracket is halved, and a single v mostly appears on the way,
    so `_steering` runs only where waiting did not give one, mostly on
    paths; a narrower SECANT_REL pays for fewer `_steering` calls with more
    probes, at 1e-6 more than the tests allow on path 45 at p = 1.2 (see
    SECANT_REL). From the pick on every pass also gives u*'s re-rooted g,
    gamma (`_rerooted_g`), and the kept columns give it at the two ends: it
    falls through zero at the eigenvalue and has no pole near it.

    Once three values of gamma exist, the next probe is the zero of the
    Moebius map through the last three (`_moebius_zero`), which is exact
    when the value is a ratio of two linear functions: one zero beside one
    simple pole. Where that zero lies outside the bracket, the probe is
    the regula falsi point on gamma's values at the two ends. Where gamma
    at the two ends does not straddle zero (a pole between them, a count
    that disagrees with gamma in the last digits, or no pick yet), the
    probe is the regula falsi point on g_v's values at the ends, and where
    g_v does not straddle zero either it is the midpoint. The count of the
    pass on the original rooting alone decides which end moves. After the
    pick a probe stays a quarter of the final width inside the bracket,
    and it is the midpoint when the bracket did not halve over the last
    two probes or is wider than the largest float; a midpoint whose sum of
    ends leaves the float range is half of one plus half of the other.
    Once the bracket is narrower than the final width, the halving of
    (a, b) is replayed (`_replayed`).
    """

    __slots__ = ("T", "H", "plan", "a", "b", "ca", "lo", "hi", "at_lo",
                 "at_hi", "v", "gv_lo", "gv_hi", "path", "g_lo", "g_hi", "pts",
                 "w1", "w2", "x", "tight", "on_gamma", "on_v", "seeking",
                 "cap")

    def __init__(self, scope: tuple, a: float, b: float, ca: int, _cb: int,
                 at_lo, at_hi):
        self.T, self.H, self.plan = scope
        self.a, self.b, self.ca = a, b, ca
        self.lo, self.hi, self.at_lo, self.at_hi = a, b, at_lo, at_hi
        self.v = -1  # the vertex where the count rises, while it is the only one
        self.gv_lo = self.gv_hi = math.nan  # g_v at lo and hi
        self.path = None  # the steering path to u*, once picked; () when there is none
        self.g_lo = self.g_hi = math.nan  # u*'s re-rooted g at lo and hi
        self.pts = []  # the last three (x, re-rooted g) with a finite value
        self.w1 = self.w2 = math.inf  # the bracket's width one and two probes ago
        self.x = math.nan  # the next probe
        self.cap = None  # the replay's width cap, once it replays

    def settled(self, out: list) -> bool:
        """After the ends moved: whether the bracket is still open, else
        its value is in ``out``. A bracket narrower than the final width
        ``tight`` replays; a wider one notes whether gamma straddles zero,
        else whether g_v does, and whether it is ``seeking`` its flip
        vertex: where neither does."""
        lo, hi = self.lo, self.hi
        if self.cap is None:
            self.tight = tight = _narrow(lo, hi, SLICE_REL)
            if not hi - lo <= tight:
                self.on_gamma = on_gamma = _straddles(self.g_lo, self.g_hi)
                self.on_v = on_v = not on_gamma and self.v >= 0 and _straddles(
                    self.gv_lo, self.gv_hi)
                self.seeking = not (on_gamma or on_v)
                return True
            # no `_narrow` of the intervals inside (a, b) exceeds it
            self.cap = SLICE_REL * max(1.0, abs(self.a), abs(self.b))
            self.seeking = False
        self.a, self.b, mid, located = _replayed(self.a, self.b, lo, hi,
                                                 self.cap)
        if located:
            out.append((mid, 1))
            return False
        self.x = mid
        return True

    def flip(self, v: int) -> None:
        """Take v as the flip vertex, with g_v at the ends."""
        self.v = v
        if v >= 0:
            self.gv_lo, self.gv_hi = self.at_lo[v], self.at_hi[v]
            self.on_v = _straddles(self.gv_lo, self.gv_hi)
        else:
            self.gv_lo = self.gv_hi = math.nan
            self.on_v = False

    def probe(self) -> float:
        """The next probe: the replay's midpoint, or the narrowing rule's
        point inside (lo, hi)."""
        if self.cap is not None:
            return self.x
        lo, hi = self.lo, self.hi
        w = hi - lo
        x = 0.5 * (lo + hi)
        if not -POLE < x < POLE:  # lo + hi left the float range
            x = 0.5 * lo + 0.5 * hi
        if w <= 0.5 * self.w2 and w < POLE:
            z = math.nan
            if self.on_gamma:
                g_lo, g_hi = self.g_lo, self.g_hi
                z = _moebius_zero(self.pts) if len(self.pts) == 3 else math.nan
                if not lo < z < hi:
                    z = lo + w * (g_lo / (g_lo - g_hi))
            elif self.on_v:
                gv_lo = self.gv_lo
                z = lo + w * (gv_lo / (gv_lo - self.gv_hi))
            if z == z:
                # the pick's probe keeps to the middle 60 % of the bracket
                q = 0.2 * w if self.path is None else 0.25 * self.tight
                x = min(max(z, lo + q), hi - q)
        self.w1, self.w2 = w, self.w1
        self.x = x
        return x

    def answer(self, col, c: int, out: list) -> bool:
        """Move an end by the (column, count) of the pass at the probe:
        whether the bracket is still open (`settled`)."""
        ca, x = self.ca, self.x
        _checked(c, x, ca, ca + 1)
        if self.cap is not None:  # a replay's midpoint inside (lo, hi)
            if c == ca:
                self.a = self.lo = x
            else:
                self.b = self.hi = x
            return self.settled(out)
        T, H, v, path = self.T, self.H, self.v, self.path
        if path is None:  # u*'s path, at a flip vertex or inside SECANT_REL
            lo, hi = self.lo, self.hi
            if v >= 0:
                star = _largest_entry(T, col, v)
                path = (_path_to(T, star) if star >= 0
                        else _steering(H, T, self.plan, col, x))
            elif hi - lo <= _narrow(lo, hi, SECANT_REL):
                path = _steering(H, T, self.plan, col, x)
            self.path = path
            if path:  # the ends get their values as well
                self.g_lo = _rerooted_g(H, path, self.at_lo, lo)
                self.g_hi = _rerooted_g(H, path, self.at_hi, hi)
                self.pts = [(e, g) for e, g in ((lo, self.g_lo),
                                                (hi, self.g_hi))
                            if math.isfinite(g)]
        g = _rerooted_g(H, path, col, x) if path else math.nan
        if math.isfinite(g):
            self.pts = [*self.pts[-2:], (x, g)]
        gv = col[v] if v >= 0 else math.nan
        if c == ca:
            self.lo, self.g_lo, self.gv_lo, self.at_lo = x, g, gv, col
        else:
            self.hi, self.g_hi, self.gv_hi, self.at_hi = x, g, gv, col
        return self.settled(out)


def _replayed(a: float, b: float, lo: float, hi: float, cap: float) -> tuple:
    """The replay of halving (a, b) inside the bracket (lo, hi) up to its
    next count: (a, b, mid, located), mid being the value once located and
    else the next midpoint, which lies inside (lo, hi). A midpoint outside
    the bracket takes the count of the end it lies beyond, the count being
    monotone. The replay asks `_located` only once its interval is at most
    ``cap`` wide, SLICE_REL * max(1, |a|, |b|) of the first (a, b), a
    bound on every `_narrow` of the intervals inside it, or once no float
    lies strictly inside it."""
    while True:
        mid = 0.5 * (a + b)
        if not (b - a > cap and a < mid < b):
            if not -POLE < mid < POLE:  # a + b left the float range
                mid = 0.5 * a + 0.5 * b
            if _located(a, b, mid):
                return a, b, mid, True
        if mid <= lo:
            a = mid
        elif mid >= hi:
            b = mid
        else:
            return a, b, mid, False


def _straddles(g_lo: float, g_hi: float) -> bool:
    """Whether g values at the low and high end of a bracket bound a zero
    that interpolation can locate: finite, falling, one of them nonzero."""
    return 0.0 <= g_lo < POLE and -POLE < g_hi <= 0.0 and g_lo != g_hi


def _flip_vertex(order, lows: list, highs: list) -> list:
    """Per bracket, from the columns at its two ends in ``lows`` and
    ``highs``: the one vertex of ``order`` whose g value is `_negative` at
    exactly one end, -1 where there is none or more than one. The brackets
    with lockstep columns at both ends are compared in one array comparison
    of the stacked columns, whose entries past the component are 0.0 at
    both ends and whose values are all finite, so that `_negative` is the
    sign; one with a scalar pass's list at an end is scanned over ``order``
    (`_scanned_flip`)."""
    out = []
    stacked = []
    for at_lo, at_hi in zip(lows, highs):
        if isinstance(at_lo, memoryview) and isinstance(at_hi, memoryview):
            stacked.append(len(out))
            out.append(-1)
        else:
            out.append(_scanned_flip(order, at_lo, at_hi))
    if stacked:  # finite, since `_lockstep` gives no other column: < 0.0
        lo, hi = (np.frombuffer(b"".join([ends[i] for i in stacked]))
                  .reshape(len(stacked), -1) for ends in (lows, highs))
        flips = (lo < 0.0) != (hi < 0.0)
        for i, v, k in zip(stacked, flips.argmax(axis=1).tolist(),
                           np.count_nonzero(flips, axis=1).tolist()):
            out[i] = v if k == 1 else -1
    return out


def _scanned_flip(order, at_lo, at_hi) -> int:
    """`_flip_vertex` of one bracket by a scan over ``order``; the test of
    `_negative` is written out, which saves two calls a vertex."""
    v = -1
    for u in order:
        x = at_lo[u]
        y = at_hi[u]
        if (x < 0.0 or x == POLE) is not (y < 0.0 or y == POLE):
            if v >= 0:
                return -1
            v = u
    return v


def _largest_entry(T: RootedTree, vals, v: int) -> int:
    """The vertex of v's subtree where |f| is largest, f(v) = 1 and
    f(c) = f(u) / g_c for every child c of u, on the g values in
    ``vals`` (a column or a list): one division per vertex. -1 when a g is exactly 0.0 or f
    leaves the finite range."""
    children = T.children
    best, top = v, 1.0
    todo = [(v, 1.0)]
    for u, fu in todo:  # grows while it is read
        for c in children[u]:
            g = vals[c]
            if g == 0.0:
                return -1
            fc = fu / g
            m = abs(fc)
            if not m <= top:
                if not m < POLE:  # inf or NaN
                    return -1
                best, top = c, m
            todo.append((c, fc))
    return best


def _path_to(T: RootedTree, star: int) -> tuple:
    """The steps `_rerooted_g` walks from the root of ``star``'s component
    down to ``star``: per vertex u, (u, kappa_u, rho_u, is_root, parent
    weight, the (child, omega) pairs off the path, the next vertex on the
    path, its edge weight), with -1 and the virtual edge's 1.0 at
    ``star``."""
    steps = []
    v, w_v, u = -1, 1.0, star
    while u != -1:
        root = T.parent[u] == -1
        steps.append((u, T.kappa[u], T.rho[u], root,
                      1.0 if root else T.parent_w[u],
                      tuple((k, T.parent_w[k]) for k in T.children[u]
                            if k != v), v, w_v))
        v, w_v, u = u, T.parent_w[u], T.parent[u]
    return tuple(reversed(steps))


def _moebius_zero(pts) -> float:
    """The zero of the Moebius map (alpha x + beta) / (gamma x + delta)
    through three points (x_i, y_i), det[x, y, xy] / det[1, y, xy], with the
    x_i taken relative to the last one; NaN when det[1, y, xy] is zero."""
    (x1, y1), (x2, y2), (x3, y3) = pts
    d1, d2 = x1 - x3, x2 - x3
    den = d2 * y2 * (y1 - y3) + d1 * y1 * (y3 - y2)
    if den == 0.0:
        return math.nan
    return x3 - y3 * d1 * d2 * (y2 - y1) / den


def _steering(H: Operator, T: RootedTree, plan, vals,
              lam: float) -> tuple:
    """The path (`_path_to`) from the component's root down to the vertex
    u* whose re-rooted g is smallest in magnitude at lam, read from the g
    values that a pass at lam over ``plan`` left in ``vals`` (a column or a
    list); empty when the recursion divides by zero, overflows or gives a
    value that is not finite. `_Bracket` calls it where the division walk
    cannot pick.

    The re-rooted g of u, gamma_u, is the g value u would have if the tree
    hung from u: its zeros are the component's eigenvalues, and near an
    eigenvalue |gamma_u| is smallest where the eigenfunction is largest.
    One top-down pass gives every gamma_u. With c_v = omega_v phi(1 - 1/g_v)
    the term child v adds to its parent, S_u the sum of those of u's
    children and up_u the term u's parent would add to u in the tree
    rooted at u, the parent u of v has the value
    1 + phi_inv((kappa_u - rho_u lam + S_u - c_v + up_u) / omega_v) there,
    up_v is omega_v phi(1 - 1/that value), and
    gamma_u = 1 + phi_inv(kappa_u - rho_u lam - 1 + S_u + up_u): the virtual
    parent's -1 moves from the original root to u. The up terms go into a
    list indexed by vertex, and the first vertex with the strictly smallest
    |gamma_u| is u*.
    """
    pm1 = H.p - 1.0
    pinv = 1.0 / pm1
    leaves, inner = plan
    up = [0.0] * len(vals)  # the root's stays 0.0: it has no parent
    best, star = math.inf, -1
    try:
        for u, kappa, rho, _root, _w, kids in reversed(inner):
            base = kappa - rho * lam + up[u]
            terms = []
            for v, w in kids:
                t = 1.0 - 1.0 / vals[v]
                c = w * t ** pm1 if t > 0.0 else -w * (-t) ** pm1
                terms.append(c)
                base += c
            a = base - 1.0
            m = abs(1.0 + (a ** pinv if a > 0.0 else -((-a) ** pinv)))
            if m < best:
                best, star = m, u
            for (v, w), c in zip(kids, terms):
                a = (base - c) / w
                t = 1.0 - 1.0 / (1.0 + (a ** pinv if a > 0.0
                                        else -((-a) ** pinv)))
                up[v] = w * t ** pm1 if t > 0.0 else -w * (-t) ** pm1
        for u, kappa, rho, _root, _w in leaves:
            a = kappa - rho * lam - 1.0 + up[u]
            m = abs(1.0 + (a ** pinv if a > 0.0 else -((-a) ** pinv)))
            if m < best:
                best, star = m, u
    except (OverflowError, ZeroDivisionError):
        return ()
    if star < 0 or not math.isfinite(sum(up)):
        return ()
    return _path_to(T, star)


def _rerooted_g(H: Operator, path: tuple, vals, lam: float) -> float:
    """gamma at the end u* of ``path`` (see `_steering`) from the g values
    that a pass at lam left in ``vals`` (a column or a list), walking down
    from the root; NaN when the recursion divides by zero or overflows.

    Where two or more children off the path would add a term, the pass's
    own sum is read back from g_u instead, since omega_u phi(g_u - 1) is the
    accumulator that gave g_u, and only the next path vertex's term is
    taken off it. Where g_u lies within RECOVER_REL of 1 that read-back
    loses the digits it needs, and the other children's terms are summed
    again.
    """
    pm1 = H.p - 1.0
    pinv = 1.0 / pm1
    up = g = 0.0
    try:
        for u, kappa, rho, root, w_par, others, v, w in path:
            h = vals[u] - 1.0
            if len(others) > 1 and abs(h) > RECOVER_REL:
                acc = w_par * (h ** pm1 if h > 0.0 else -((-h) ** pm1))
                if root:
                    acc += 1.0
                if v >= 0:
                    t = 1.0 - 1.0 / vals[v]
                    acc -= w * t ** pm1 if t > 0.0 else -w * (-t) ** pm1
            else:
                acc = kappa - rho * lam
                for k, wk in others:
                    t = 1.0 - 1.0 / vals[k]
                    acc += wk * t ** pm1 if t > 0.0 else -wk * (-t) ** pm1
            acc += up
            if v < 0:
                acc -= 1.0
            a = acc / w
            g = 1.0 + (a ** pinv if a > 0.0 else -((-a) ** pinv))
            if v >= 0:
                t = 1.0 - 1.0 / g
                up = w * t ** pm1 if t > 0.0 else -w * (-t) ** pm1
    except (OverflowError, ZeroDivisionError):
        return math.nan
    return g


def _windows(T: RootedTree, H: Operator, lams: list, order) -> list:
    """Per value lam of ``lams``, the sign changes of g across
    W = lam -/+ WINDOW_REL * max(1, |lam|) on ``order`` (children-first):
    (z, count jump, the column of g at lam).

    With s_u = [g_u < 0 right of W] - [g_u < 0 left of W], the count jump
    is the sum of s_u, the right count minus the left one, and, children
    first, z_u = s_u + [some child c has z_c >= 1]. A vertex whose g
    vanishes in W has z_u >= 1; a child's zero in W is a pole of g_u, whose
    s_u = -1 the child's z cancels. The three passes of every value, at
    the window's two ends and at lam, are counted together by `_passes`,
    IN_FLIGHT + HALVINGS probes at most to a round as in `_slice`.
    """
    lanes = _Lanes(T.plans[order], max(order) + 1)
    xs = []
    for lam in lams:
        d = WINDOW_REL * max(1.0, abs(lam))
        xs += [lam - d, lam + d, lam]
    width = 3 * max(1, (IN_FLIGHT + HALVINGS) // 3)
    got = [answer for s in range(0, len(xs), width)
           for answer in _passes(H, lanes, xs[s:s + width])]
    kids = T.children
    out = []
    for j in range(0, len(got), 3):
        (left, c_left), (right, c_right), (at, _c) = got[j:j + 3]
        s = (_negative(np.asarray(right)).astype(int)
             - _negative(np.asarray(left))).tolist()
        z = {}
        for u in order:
            z[u] = s[u] + any(z[c] >= 1 for c in kids[u])
        out.append((z, c_right - c_left, at))
    return out


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    mult: int
    basis: tuple | None = None


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with multiplicities and optional eigenbases."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        for e in entries:
            if e.mult < 1:
                raise ValueError("multiplicities must be positive")
        vals = [e.value for e in entries]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("spectrum values must be strictly increasing")
        # _below[i] = multiplicity of the first i entries
        object.__setattr__(self, "_values", vals)
        object.__setattr__(self, "_below",
                           [0, *itertools.accumulate(e.mult for e in entries)])

    @property
    def total(self) -> int:
        return self._below[-1]

    def values(self) -> list[float]:
        return [e.value for e in self.entries]

    def flat(self) -> list[float]:
        """Eigenvalues with repetition, ascending."""
        return [e.value for e in self.entries for _ in range(e.mult)]

    def count_below(self, x: float) -> int:
        """Number of eigenvalues strictly below ``x``, with multiplicity."""
        return self._below[bisect.bisect_left(self._values, x)]

    def counts_below(self, xs) -> list:
        """`count_below` at every threshold of ``xs``."""
        return [self.count_below(x) for x in xs]

    def find(self, lam: float, rel_tol: float = 1e-8) -> SpectrumEntry:
        best = None
        gap = math.inf
        for e in self.entries:
            d = abs(e.value - lam)
            if d < gap:
                best, gap = e, d
        if best is None or gap > rel_tol * max(1.0, abs(lam)):
            raise ValueError(f"{lam} is not in the spectrum")
        return best


class ForestCount:
    """Eigenvalue counter of a forest operator.

    Under the virtual-parent rooting, the number of vertices whose g is
    negative at x equals the number of eigenvalues below x. At p = 2 this
    is Sylvester inertia (Jacobs & Trevisan, "Locating the eigenvalues of
    trees", Linear Algebra Appl. 434, 2011); at other p the tests check it
    against closed forms and against first eigenvalues found by descent.
    One count is one pass of `_eval_vertices` over each component: leaves
    first, then inner vertices children-first, counting as it goes.
    ``operator`` and ``tree`` are the counted operator and its rooting.
    The removal counters of a `PatchedCount` read this counter's level
    pass (`level`), and stack their vertex removals in passes no wider
    than the widest level pass run from it so far (``_widest``, cells a
    threshold, at least the whole forest's n + 1 rows).
    """

    def __init__(self, H: Operator):
        self.operator = H
        self.tree = RootedTree(H.graph)
        self.total = H.graph.n
        self._vals = [0.0] * self.total  # g values, rewritten by every count
        self._level = None
        self._widest = self.total + 1

    @functools.cached_property
    def _lanes(self) -> _Lanes:
        """The whole forest as one plan, leaves first, laid out once."""
        whole = [[e for plan in self.tree.plans.values() for e in plan[part]]
                 for part in (0, 1)]
        return _Lanes(whole, self.total)

    def count_below(self, x: float) -> int:
        """#{eigenvalues < x}, with multiplicity: the scalar reference.

        An exact hit follows the left limit: a g value of exactly 0.0 counts
        as not negative, and the pole marker, which only an exact child zero
        produces, counts as negative. At an eigenvalue this gives the count
        strictly below it. The recursion itself has a float floor: at p != 2
        one ulp above an eigenvalue a leaf's value can round to exactly 0.0
        and the count then still reads the one below.
        """
        return _eval_plans(self.operator, x, self.tree.plans.values(), self._vals)

    def counts_below(self, xs) -> list:
        """`count_below` at every threshold of ``xs`` by the slicing rounds'
        rule (`_passes`), so a lane that is not finite is counted again by
        the scalar pass, which raises where `count_below` raises."""
        return [c for _col, c in _passes(self.operator, self._lanes, list(xs))]

    def spectrum(self, bases: bool) -> Spectrum:
        """`tree_eigenpairs` of the counted operator with ``bases``, else
        `tree_spectrum`, sliced on this counter's rooting."""
        return (_eigenpairs if bases else _spectrum)(self.tree, self.operator)

    def level(self, xs: tuple) -> tuple:
        """One level pass over the whole forest at every threshold of
        ``xs``, kept until other thresholds are asked: (which g values are
        negative and each vertex's term to its parent (`_terms`), by dense
        index, shape (n, thresholds); whether a threshold's g values are all
        finite; the count of negative values at each)."""
        if self._level is None or self._level[0] != xs:
            lanes = self._lanes
            g = _level_pass(self.operator, lanes, np.array(xs),
                            lanes.columns[0])[:lanes.n, 0]
            with np.errstate(all="ignore"):
                terms = _terms(self.operator.p - 1.0, g, lanes.columns[3, :, 0])
            neg = g < 0.0
            self._level = (xs, neg[lanes.rows], terms[lanes.rows],
                           np.isfinite(g).all(axis=0), np.count_nonzero(neg, axis=0))
        return self._level[1:]


class PatchedCount:
    """Eigenvalue counters of the forests that each differ from the one
    ``base`` counts by one removal: ``removals`` holds (cut, patch) pairs,
    where ``cut`` is () for no removal, (i, j) for the edge between dense
    indices i and j, or (u,) for the vertex u, and ``patch`` maps dense
    indices to their potentials after it. ``counters`` holds one counter
    per removal, in order; each counts what ``ForestCount`` of that forest
    counts, built as `surgery.remove_edge` or `surgery.remove_node` builds
    it, to the bit.

    A vertex's g value depends on its own subtree alone, so a removal moves
    the g values of few vertices (`_regrown`): the root paths of the
    vertices it patches or cuts below that keep their root, and in each
    component it cuts off, the path from the top down to its smallest
    dense index, where `RootedTree` roots it. The first count asked of any
    counter reads the base forest's level pass at every threshold asked
    (`ForestCount.level`, one per set of thresholds) and runs level passes
    over those vertices alone, with every other g value read from the base
    pass: the removals of one cut share a pass in (patch, threshold) lanes,
    and the removals that each have a cut of their own, a vertex each, are
    stacked in passes whose rows are (removal, vertex) pairs. A count is
    the base pass's, less its negatives among the moved vertices, plus the
    pass's. A pass of one cut's removals holds no more cells a threshold
    than the larger of the base pass (n + 1 rows) and a pass over the root
    paths of its patched vertices in its patches' lanes, and is split over
    its patches where it would; a stacked pass holds no more than the
    widest pass run from the base so far. A lane whose base or patched
    column holds a value that is not finite is counted by `_eval_vertices`
    over the whole forest after the removal, the reference, which raises
    where that forest's count raises; that removal's counter then raises
    the same OverflowError.
    """

    def __init__(self, base: ForestCount, removals: list):
        groups = {}  # one cut and one set of patched vertices: one layout
        for r, (cut, patch) in enumerate(removals):
            groups.setdefault((tuple(cut), *sorted(patch)), []).append(r)
        self._base = base
        self._removals = removals
        self._groups = [(key[0], key[1:], members)
                        for key, members in groups.items()]
        self._xs = self._counts = None
        self.counters = tuple(_PatchCounter(self, r, base.total - (len(cut) == 1))
                              for r, (cut, _patch) in enumerate(removals))

    def counts(self, xs) -> tuple:
        """(the count of every removal's forest at every threshold of
        ``xs``, an integer array of shape (removals, thresholds); the
        OverflowError that counting raised, by removal)."""
        xs = tuple(xs)
        if xs != self._xs:
            self._xs, self._counts = xs, self._lanes(xs)
        return self._counts

    def _lanes(self, xs: tuple) -> tuple:
        """`counts` by the passes of the class docstring."""
        counts = np.empty((len(self._removals), len(xs)), dtype=np.intp)
        errors = {}
        if not xs:
            return counts, errors
        T, n = self._base.tree, self._base.total
        stacked, rows = [], 0
        for gi, (cut, patched, members) in enumerate(self._groups):
            moved, leaves, inner = _regrown(T, cut, patched, (gi + 1) * n)
            part = (gi, np.array(moved, dtype=np.intp), leaves, inner, members)
            size = len(leaves) + len(inner)
            if len(members) == 1:
                if rows + size >= self._base._widest:
                    self._pass(stacked, xs, counts, errors)
                    stacked, rows = [], 0
                stacked.append(part)
                rows += size
                continue
            cells = max(n + 1, (len(_root_paths(T, patched)) + 1) * len(members))
            step = max(1, cells // (size + 1))
            for s in range(0, len(members), step):
                self._pass([(*part[:4], members[s:s + step])], xs, counts, errors)
        if stacked:
            self._pass(stacked, xs, counts, errors)
        counts.flags.writeable = False  # the counters hand out its rows
        return counts, errors

    def _pass(self, parts: list, xs: tuple, counts: np.ndarray, errors: dict):
        """Count the removals of ``parts``, (group, moved, leaves, inner,
        removals) each with as many removals, in one level pass, where the
        children off the parts' entries read the base pass (see the
        class)."""
        base = self._base
        n = base.total
        neg, terms, fine, below = base.level(xs)
        if len(parts) == 1:
            (gi, moved, leaves, inner, members), = parts
            got = (below - np.count_nonzero(neg[moved], axis=0))[None, None]
        else:
            moved = np.concatenate([part[1] for part in parts])
            got = below - _sums(neg[moved], np.repeat(
                np.arange(len(parts)), [len(part[1]) for part in parts]), len(parts))
            got = got[:, None]  # (parts, removals, thresholds)
            leaves = [e for part in parts for e in part[2]]
            inner = [e for part in parts for e in part[3]]
        bad = ~fine
        if leaves or inner:
            lanes = _Lanes((leaves, inner), n)
            kappa = lanes.columns[0].repeat(len(parts[0][4]), axis=1)
            row = dict(zip(lanes.order, itertools.count()))
            at, value = [], []  # a patched row, its potential in every lane
            for gi, _moved, _leaves, _inner, members in parts:
                patches = [self._removals[r][1] for r in members]
                for u in patches[0]:
                    at.append(row[u + (gi + 1) * n])
                    value.append([patch[u] for patch in patches])
            kappa[at, :, 0] = value
            out = _level_pass(base.operator, lanes, np.array(xs), kappa,
                              terms[[v for v, _w in lanes.outside]])[:lanes.n]
            base._widest = max(base._widest, out.shape[1] * (lanes.n + 1))
            part = len(parts) > 1 and np.searchsorted(
                [part[0] for part in parts], np.array(lanes.order) // n - 1)
            got = got + _sums(out < 0.0, part, len(parts))
            if not np.isfinite(out).all():
                bad = bad | (_sums(~np.isfinite(out), part, len(parts)) > 0)
        for s, part in enumerate(parts):
            counts[part[4]] = got[s]
        if bad.any():
            bad = np.broadcast_to(bad, (len(parts), len(parts[0][4]), len(xs)))
            for s, i, j in np.argwhere(bad).tolist():
                r = parts[s][4][i]
                if r not in errors:
                    try:
                        counts[r, j] = self._scalar(r, xs[j])
                    except OverflowError as exc:
                        errors[r] = exc

    def _scalar(self, r: int, x: float) -> int:
        """The count of removal r's forest at x by `_eval_vertices` over
        the whole forest after the removal: T's plan entries of the
        vertices it does not move, then its own (`_regrown`)."""
        base = self._base
        T = base.tree
        cut, patch = self._removals[r]
        moved, leaves, inner = _regrown(T, cut, patch, 0)
        moved = set(moved)
        plan = [[e for plan in T.plans.values() for e in plan[part]
                 if e[0] not in moved]
                + [(e[0], patch[e[0]], *e[2:]) if e[0] in patch else e
                   for e in own]
                for part, own in ((0, leaves), (1, inner))]
        return _eval_vertices(base.operator, x, plan, [0.0] * base.total)


class _PatchCounter:
    """The eigenvalue counter of one removal of a `PatchedCount`: ``total``
    and ``counts_below``, which the Weyl verifiers read in one call."""

    def __init__(self, patched: PatchedCount, r: int, total: int):
        self._patched = patched
        self._r = r
        self.total = total

    def counts_below(self, xs) -> np.ndarray:
        """#{eigenvalues < x} at every threshold of ``xs``, as integers."""
        counts, errors = self._patched.counts(xs)
        if self._r in errors:
            raise errors[self._r]
        return counts[self._r]


def _sums(x: np.ndarray, part, parts: int) -> np.ndarray:
    """The counts of true values over the rows of the boolean ``x`` in each
    of ``parts`` parts, row i in part[i] (not read for one part): shape
    (parts, *x.shape[1:]), zero for a part without rows."""
    if parts == 1:
        return np.count_nonzero(x, axis=0)[None]
    order = np.argsort(part, kind="stable")
    ends = np.searchsorted(part[order], np.arange(parts + 1))
    acc = np.zeros((len(part) + 1, *x.shape[1:]), dtype=np.intp)
    np.cumsum(x[order], axis=0, out=acc[1:])
    return acc[ends[1:]] - acc[ends[:-1]]


def _root_paths(T: RootedTree, starts) -> list:
    """The vertices on the root paths of ``starts`` in T, each once,
    deepest first, so every vertex comes after its children among them."""
    depth = {}
    for v in starts:
        path = []
        while v != -1 and v not in depth:
            path.append(v)
            v = T.parent[v]
        d = -1 if v == -1 else depth[v]
        for u in reversed(path):
            d += 1
            depth[u] = d
    return sorted(depth, key=depth.__getitem__, reverse=True)


def _regrown(T: RootedTree, cut: tuple, patched, off: int) -> tuple:
    """(moved, leaves, inner): what a removal from T's forest moves. ``cut``
    is () for no removal, (i, j) for the edge between dense indices i and
    j or (u,) for the vertex u, and ``patched`` lists the vertices whose
    potentials change with it: with a cut, only the cut edge's ends or the
    removed vertex's neighbours.

    ``moved`` lists the vertices whose g values the removal can change, a
    removed vertex last: the root paths of the patched vertices and of the
    cut's upper end that keep their root, and in every component the cut
    leaves without its root, the path from its top down to its smallest
    dense index (``T.lowest``), the root `RootedTree` gives it. ``leaves``
    and ``inner`` are the `RootedTree.plans` entries of the moved vertices
    that remain, as the forest after the removal is rooted, children
    first, each with T's potential and its children in adjacency order: on
    the paths that turn over, a vertex's parent becomes its child. Each
    moved vertex v is keyed v + off, as a child too; the children that do
    not move keep their dense index."""
    parent, pw = T.parent, T.parent_w
    if len(cut) == 2:
        i, j = cut
        top = j if parent[j] == i else i
        if parent[top] not in cut:
            raise ValueError(f"no edge between dense indices {i} and {j}")
        tops, ups, gone = (top,), (parent[top],), ()
    elif cut:
        (u,) = cut
        tops, gone = T.children[u], cut
        ups = () if parent[u] == -1 else (parent[u],)
    else:
        tops, ups, gone = (), patched, ()
    # (vertex, its parent after the removal, the weight of that edge)
    grown = [(x, parent[x], 1.0 if parent[x] == -1 else pw[x])
             for x in _root_paths(T, ups)]
    for top in tops:
        path = [T.lowest[top]]
        while path[-1] != top:
            path.append(parent[path[-1]])
        path.reverse()  # top first: each vertex's new parent follows it
        grown += [(x, up, pw[up]) for x, up in zip(path, path[1:])]
        grown.append((path[-1], -1, 1.0))
    moved = [x for x, _up, _w in grown]
    inside, lost = set(moved), set(cut)
    if not inside.issuperset(patched):
        raise ValueError("a removal patches only vertices whose g values it moves")
    leaves, inner = [], []
    for x, up, w in grown:
        head = (x + off, T.kappa[x], T.rho[x], up == -1, w)
        kids = tuple((y + off if y in inside else y, wy) for y, wy in T.graph.adj[x]
                     if y != up and y not in gone and not (x in lost and y in lost))
        if kids:
            inner.append((*head, kids))
        else:
            leaves.append(head)
    return moved + list(gone), leaves, inner


def _clusters(T: RootedTree, H: Operator) -> list:
    """`cluster_tagged` over the sliced values of every component, each
    tagged with (component index in T.components, multiplicity): every
    component is sliced once, and values within CLUSTER_REL merge into one
    entry whose multiplicities add."""
    return cluster_tagged([(value, (ci, mult))
                           for ci, comp in enumerate(T.components)
                           for value, mult in _slice(T, H, comp)])


def tree_spectrum(H: Operator) -> Spectrum:
    """Full spectrum of a forest operator, with multiplicities.

    Each component is sliced on its eigenvalue count (`_slice`) and the
    values are merged across components.
    """
    return _spectrum(RootedTree(H.graph), H)


def _spectrum(T: RootedTree, H: Operator) -> Spectrum:
    """`tree_spectrum` on the rooting T of H's forest."""
    return Spectrum(tuple(SpectrumEntry(center, sum(m for _ci, m in tags))
                          for center, _vals, tags in _clusters(T, H)))


def tree_eigenpairs(H: Operator) -> Spectrum:
    """``tree_spectrum`` with every entry's ``basis`` filled in, as
    ``forest_eigenbasis`` would give it. Each component is sliced once for
    all the values, and a value's basis is built only on the components
    whose slicing produced it: the others have no eigenfunction there. The
    windows of all the values of a component are counted together
    (`_windows`)."""
    return _eigenpairs(RootedTree(H.graph), H)


def _eigenpairs(T: RootedTree, H: Operator) -> Spectrum:
    """`tree_eigenpairs` on the rooting T of H's forest."""
    clusters = _clusters(T, H)
    values = {}  # component index -> the centers its slicing produced
    for center, _vals, tags in clusters:
        for ci in sorted({ci for ci, _m in tags}):
            values.setdefault(ci, []).append(center)
    windows = {(ci, lam): window for ci, lams in values.items()
               for lam, window in zip(lams, _windows(T, H, lams,
                                                     T.components[ci]))}
    entries = []
    for center, _vals, tags in clusters:
        cis = sorted({ci for ci, _m in tags})
        entries.append(SpectrumEntry(
            center, sum(m for _ci, m in tags),
            tuple(_basis(H, T, center, [T.components[ci] for ci in cis],
                         [windows[ci, center] for ci in cis]))))
    return Spectrum(tuple(entries))


def eigenbasis(H: Operator, T: RootedTree, lam: float) -> list[VertexFunction]:
    """Eigenfunctions spanning the eigen-set of ``lam`` on a forest, each
    supported on one component, the components in T's order.

    On each component the vanishing set Z holds every vertex u with
    z_u >= 1 across the window W = lam -/+ WINDOW_REL * max(1, |lam|) (see
    `_windows`) whose parent has z = 0; its size k minus the number h of
    distinct parents must equal the component's count jump over W, a hard
    check. Each vertex of Z seeds a generator on its piece of the tree
    minus those parents; values propagate downward by
    f(child) = f(parent) / g_child(lam). The removed parents impose one
    linear constraint each on the transformed weights y_i = phi(alpha_i);
    the nullspace maps back through phi_inv, producing k - h functions that
    all vanish on the removed parents.
    """
    if T.graph is not H.graph:
        raise ValueError("tree and operator must share one graph")
    lam = float(lam)
    return _basis(H, T, lam, T.components,
                  [_windows(T, H, [lam], order)[0] for order in T.components])


def _basis(H: Operator, T: RootedTree, lam: float, orders,
           windows) -> list[VertexFunction]:
    """`eigenbasis` on the components that ``orders`` lists, in that
    order, each with its `_windows` entry at lam in ``windows``."""
    out = [f for order, window in zip(orders, windows)
           for f in _component_basis(H, T, lam, order, window)]
    if not out:
        raise ValueError(f"{lam} is not an eigenvalue of this forest")
    return out


def _component_basis(H: Operator, T: RootedTree, lam: float, order,
                     window) -> list[VertexFunction]:
    """`eigenbasis` on the component that ``order`` spans, from its
    `_windows` entry at lam; empty when lam is not one of its
    eigenvalues."""
    g = T.graph
    p = H.p
    n = g.n
    z, jump, gvals = window
    if jump == 0:
        return []
    Z = {u for u in order
         if z[u] >= 1 and (T.parent[u] == -1 or z[T.parent[u]] == 0)}
    parents = {T.parent[u] for u in Z} - {-1}
    k, h = len(Z), len(parents)
    if k - h != jump:
        raise AssertionError(
            f"{k} vanishing vertices and {h} parents at {lam!r}, but the "
            f"eigenvalue count rises by {jump} across the window")

    # every vertex of Z tops its own piece of the tree minus the removed
    # parents; gen maps each kept vertex to its piece's generator, if any
    seed = {zv: gi for gi, zv in enumerate(sorted(Z))}
    gen = {}
    fgen = np.zeros((k, n))
    for zv, gi in seed.items():
        fgen[gi, zv] = 1.0
    for u in reversed(order):
        if u in parents:
            continue
        pu = T.parent[u]
        if pu == -1 or pu in parents:
            gen[u] = seed.get(u)  # the top of a piece
            continue
        gi = gen[u] = gen[pu]
        if gi is None:
            continue  # zero-free piece: the function stays zero there
        gv = gvals[u]
        if not (math.isfinite(gv) and gv != 0.0):
            raise AssertionError("pole or zero inside a propagation piece")
        fgen[gi, u] = fgen[gi, pu] / gv

    # one constraint per removed parent: its eigen-equation with f(parent) = 0
    plist = sorted(parents)
    C = np.zeros((h, k))
    for j, uj in enumerate(plist):
        for v, w in g.adj[uj]:
            if v in parents:
                continue
            gi = gen[v]
            if gi is not None:
                C[j, gi] += w * phi(float(fgen[gi, v]), p)

    if h == 0:
        null_basis = np.eye(k)
    else:
        _u, s, vt = np.linalg.svd(C)
        rank = int(np.sum(s > max(C.shape) * 1e-12 * s[0])) if s.size else 0
        if rank != h:
            raise AssertionError(f"constraint rank {rank} != parent count {h}")
        null_basis = vt[rank:].T

    out = []
    for col in range(null_basis.shape[1]):
        y = null_basis[:, col]
        f = np.zeros(n)
        for gi in range(k):
            alpha = phi_inv(float(y[gi]), p)
            if alpha != 0.0:
                f += alpha * fgen[gi]
        f = p_normalized(f, p)
        # propagation divides by g values; when lam sits within a few ulp of
        # a pole (possible at p < 2) those carry large relative error, so
        # sharpen such functions with Newton steps on the eigen-equation
        if _defect(H, f, lam) > 1e-10 * max(1.0, abs(lam)):
            f, _lam2, _res = _newton_polish(H, f, lam, 1e-12 * max(1.0, abs(lam)))
            f = p_normalized(f, p)
        out.append(VertexFunction(f))
    if len(out) != k - h:
        raise AssertionError("nullspace dimension disagrees with k - h")
    return out


def forest_eigenbasis(H: Operator, lam: float) -> list[VertexFunction]:
    """Eigenfunctions of ``lam`` on a forest, each supported on one
    component. ``tree_eigenpairs`` gives every eigenvalue's basis from one
    slicing of each component."""
    return eigenbasis(H, RootedTree(H.graph), lam)
