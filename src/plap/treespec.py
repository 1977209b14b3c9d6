"""Exact spectra of the generalized p-Laplacian on trees and forests.

Every vertex u of a rooted tree carries a scalar function of the spectral
parameter, written g_u below. For an eigenpair (lam, f) with f(u) != 0 the
value g_u(lam) equals the ratio f(parent of u) / f(u), which gives the
recursion its meaning. Leaves have the closed form

    g_u(lam) = 1 + phi_inv((kappa_u - rho_u * lam) / omega_{u,parent})

internal vertices add one term omega_{uv} * phi(1 - 1/g_v(lam)) per child v
inside the phi_inv argument, and the root is treated as hanging from a
virtual parent by a unit-weight edge with its potential reduced by one.
Under that convention the zeros of g_u are exactly the eigenvalues of the
subtree operator rooted at u (parent edge weight absorbed into the
potential), the poles of g_u are its children's zeros, and g_u decreases
strictly from +inf to -inf across every open interval between consecutive
poles as well as on the two unbounded tails. Each interval therefore
brackets exactly one zero, found here by bisection.

At a candidate eigenvalue, the multiplicity equals k - h, where k counts the
vertices whose g vanishes there and h counts their distinct parents; the
total over all candidates comes out to the number of vertices, which
`tree_spectrum` asserts.

The same recursion counts eigenvalues without locating them: the number of
vertices with g_u(x) < 0 is the number of eigenvalues below x
(`ForestCount`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (Operator, VertexFunction, WeightedGraph, _defect,
                   _newton_polish, connected_components, induced_subgraph,
                   p_normalized, phi, phi_inv, spectral_bound)

#: Two spectral values are considered equal when they differ by at most
#: CLUSTER_REL * max(1, |value|).
CLUSTER_REL = 1e-9

#: eval_g reports a pole when lam sits within this relative band of one.
POLE_BAND_REL = 1e-11

POLE = math.inf


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


def _refined_groups(T: "RootedTree", vals, verts):
    """Split one zero cluster into self-consistent candidate groups.

    At an exact candidate value no vertex's g vanishes twice and no
    vanishing vertex is the parent of another vanishing vertex (a child's
    zero is the parent's pole). A cluster breaking either rule has merged
    nearby-but-distinct candidates — typical when a subtree eigenvalue hugs
    the full tree's, which p < 2 makes common — so it is split at its widest
    internal value gap until every group is consistent on its own. Returns
    groups of (value, vertex) pairs, ascending by value.
    """
    stack = [sorted(zip(vals, verts))]
    out = []
    while stack:
        grp = stack.pop()
        tags = [t for _, t in grp]
        zset = set(tags)
        if len(zset) == len(tags) and not (zset & {T.parent[t] for t in tags}):
            out.append(grp)
            continue
        gaps = [grp[i + 1][0] - grp[i][0] for i in range(len(grp) - 1)]
        cut = max(range(len(gaps)), key=gaps.__getitem__)
        if gaps[cut] <= 0.0:
            out.append(grp)  # indistinguishable values: leave for the callers' checks
            continue
        stack.append(grp[: cut + 1])
        stack.append(grp[cut + 1:])
    out.sort(key=lambda grp: grp[0][0])
    return out


class RootedTree:
    """Rooted overlay of a connected acyclic graph.

    Exposes parent/children arrays over the graph's dense indices, a
    children-first topological order, and each vertex's parent edge weight.
    The spectral output downstream does not depend on the root.
    """

    def __init__(self, graph: WeightedGraph, root):
        if len(graph.edges) != graph.n - 1 or len(connected_components(graph)) != 1:
            raise ValueError("rooting requires a connected acyclic graph")
        r = graph.index_of(root)
        n = graph.n
        parent = [-2] * n
        parent_w = [math.nan] * n
        children = [[] for _ in range(n)]
        top_down = []
        parent[r] = -1
        queue = [r]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            top_down.append(u)
            for v, w in graph.adj[u]:
                if parent[v] == -2:
                    parent[v] = u
                    parent_w[v] = w
                    children[u].append(v)
                    queue.append(v)
        self.graph = graph
        self.root = r
        self.parent = parent
        self.parent_w = parent_w
        self.children = tuple(tuple(c) for c in children)
        self.order = tuple(reversed(top_down))  # children before parents
        self._rho = graph.rho.tolist()
        self._kappa = graph.kappa.tolist()
        self._subtrees: dict = {}
        self._profiles: list = []

    @property
    def root_id(self):
        return self.graph.ids[self.root]

    def subtree_order(self, u: int) -> tuple:
        """Dense indices of the subtree at u, children-first, ending at u."""
        cached = self._subtrees.get(u)
        if cached is not None:
            return cached
        seen = {u}
        stack = [u]
        while stack:
            w = stack.pop()
            for c in self.children[w]:
                seen.add(c)
                stack.append(c)
        order = tuple(w for w in self.order if w in seen)
        self._subtrees[u] = order
        return order


def _eval_vertices(T: RootedTree, H: Operator, lam: float, order) -> dict:
    """g values for ``order`` (children-first); math.inf marks a pole hit.

    An exact zero at a child turns the parent's value into the pole marker;
    at a grandparent the marker washes out through 1 - 1/inf = 1, matching
    the removable singularity of the underlying rational-like function.
    """
    p = H.p
    pm1 = p - 1.0
    pinv = 1.0 / pm1
    rho = T._rho
    kappa = T._kappa
    children = T.children
    parent_w = T.parent_w
    root = T.root
    out = {}
    for u in order:
        acc = kappa[u] - rho[u] * lam
        if u == root:
            acc -= 1.0
            w_par = 1.0
        else:
            w_par = parent_w[u]
        hit_pole = False
        for v in children[u]:
            gv = out[v]
            if gv == 0.0:
                hit_pole = True
                break
            t = 1.0 - 1.0 / gv
            if t != 0.0:
                acc += parent_w[v] * math.copysign(abs(t) ** pm1, t)
        if hit_pole:
            out[u] = POLE
            continue
        a = acc / w_par
        if a == 0.0:
            out[u] = 1.0
        else:
            out[u] = 1.0 + math.copysign(abs(a) ** pinv, a)
    return out


def _bisect(ev, a, b, va, vb):
    """Root of a function strictly decreasing on [a, b], with va > 0 > vb."""
    # relative to the end nearer zero: an outer bracket reaches out to the
    # spectral bound, which a huge potential can push to 1e12 and more
    target = 1e-13 * max(1.0, min(abs(a), abs(b)))
    while b - a > target:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        v = ev(mid)
        if not math.isfinite(v):
            # interior marker can only come from an exact removable hit; dodge
            mid = a + 0.75 * (b - a)
            v = ev(mid)
            if not math.isfinite(v):
                break
        if v > 0.0:
            a, va = mid, v
        elif v < 0.0:
            b, vb = mid, v
        else:
            return mid
    # a few secant steps sharpen the root beyond the bisection width
    x0, f0, x1, f1 = a, va, b, vb
    best = 0.5 * (a + b)
    for _ in range(3):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (a <= x2 <= b):
            break
        v = ev(x2)
        if not math.isfinite(v):
            break
        x0, f0, x1, f1 = x1, f1, x2, v
        best = x2
        if v == 0.0:
            break
    return best


def _zeros_of(T: RootedTree, H: Operator, u: int, poles) -> list:
    """All zeros of g_u: one per open interval between consecutive poles,
    plus one on each unbounded side, clipped by the subtree spectral bound."""
    sub = subtree_operator(H, T, T.graph.ids[u])
    bound = spectral_bound(sub) + 1.0
    order = T.subtree_order(u)

    def ev(lam):
        return _eval_vertices(T, H, lam, order)[u]

    def left_endpoint(pole, right_lim):
        # just right of a pole the function is +inf; walk in until we see it.
        # When no representable point shows a positive value the interval's
        # zero has coalesced with the pole at float resolution (p < 2 can
        # push the gap below one ulp), signalled by returning None.
        eps = min(0.25 * (right_lim - pole), 1e-6 * max(1.0, abs(pole)))
        for _ in range(90):
            x = pole + eps
            v = ev(x)
            if math.isfinite(v) and v > 0.0:
                return x, v
            eps *= 0.5
        return None

    def right_endpoint(pole, left_lim):
        eps = min(0.25 * (pole - left_lim), 1e-6 * max(1.0, abs(pole)))
        for _ in range(90):
            x = pole - eps
            v = ev(x)
            if math.isfinite(v) and v < 0.0:
                return x, v
            eps *= 0.5
        return None

    zeros = []
    lo, hi = -bound, bound
    if poles and not (lo < poles[0] and poles[-1] < hi):
        raise RuntimeError("poles escaped the spectral bound bracket")
    cuts = [lo] + list(poles) + [hi]
    for i in range(len(cuts) - 1):
        a_pole = i > 0
        b_pole = i < len(cuts) - 2
        if a_pole:
            left = left_endpoint(cuts[i], cuts[i + 1])
            if left is None:
                zeros.append(math.nextafter(cuts[i], math.inf))
                continue
            a, va = left
        else:
            a = cuts[i]
            va = ev(a)
            if not (math.isfinite(va) and va > 0.0):
                raise RuntimeError("outer bracket not positive at the low end")
        if b_pole:
            right = right_endpoint(cuts[i + 1], cuts[i])
            if right is None:
                zeros.append(math.nextafter(cuts[i + 1], -math.inf))
                continue
            b, vb = right
        else:
            b = cuts[i + 1]
            vb = ev(b)
            if not (math.isfinite(vb) and vb < 0.0):
                raise RuntimeError("outer bracket not negative at the high end")
        zeros.append(_bisect(ev, a, b, va, vb))
    return zeros


class GeneratingProfile:
    """Per-vertex zeros and poles of the g functions of one rooted tree.

    Built bottom-up: the poles at u are the clustered union of the
    children's zeros, then each inter-pole interval is bisected for its
    unique zero. The zero count at u always equals pole count + 1.
    """

    def __init__(self, T: RootedTree, H: Operator):
        if T.graph is not H.graph:
            raise ValueError("tree and operator must share one graph")
        self.tree = T
        self.operator = H
        n = T.graph.n
        self.zeros: list[list[float]] = [[] for _ in range(n)]
        self.poles: list[list[float]] = [[] for _ in range(n)]
        for u in T.order:
            child_zeros = [(z, None) for v in T.children[u] for z in self.zeros[v]]
            self.poles[u] = [c for c, _, _ in cluster_tagged(child_zeros)]
            self.zeros[u] = _zeros_of(T, H, u, self.poles[u])

    @cached_property
    def candidates(self) -> list:
        """The tree's eigenvalue candidates: (value, k - h, vanishing
        vertices) for every self-consistent zero group with k - h > 0,
        ascending. The multiplicities must sum to the vertex count — a hard
        structural check."""
        T = self.tree
        n = T.graph.n
        out = []
        for _center, vals, verts in cluster_tagged(
                [(z, u) for u in range(n) for z in self.zeros[u]]):
            for grp in _refined_groups(T, vals, verts):
                zset = {t for _, t in grp}
                mult = len(zset) - len({T.parent[v] for v in zset} - {-1})
                if mult > 0:
                    out.append((sum(v for v, _ in grp) / len(grp), mult, zset))
        total = sum(mult for _, mult, _ in out)
        if total != n:
            raise AssertionError(
                f"multiplicity total {total} != {n} on a tree component")
        return out

    def eval(self, u: int, lam: float) -> float:
        """g_u(lam); returns math.inf when lam falls in a pole band."""
        for q in self.poles[u]:
            if abs(lam - q) <= POLE_BAND_REL * max(1.0, abs(q)):
                return POLE
        return _eval_vertices(self.tree, self.operator, lam,
                              self.tree.subtree_order(u))[u]


def _profile_for(T: RootedTree, H: Operator) -> GeneratingProfile:
    for Hc, prof in T._profiles:
        if Hc is H:
            return prof
    prof = GeneratingProfile(T, H)
    T._profiles.append((H, prof))
    return prof


def eval_g(T: RootedTree, H: Operator, u, lam: float) -> float:
    """Value of g at vertex ``u``; math.inf marks a pole."""
    return _profile_for(T, H).eval(T.graph.index_of(u), lam)


def node_zeros(T: RootedTree, H: Operator, u) -> list[float]:
    """All zeros of g at vertex ``u``, ascending; they are exactly the
    eigenvalues of ``subtree_operator(H, T, u)``."""
    return list(_profile_for(T, H).zeros[T.graph.index_of(u)])


def subtree_operator(H: Operator, T: RootedTree, u, drop_root: bool = False) -> Operator:
    """Operator on the subtree at ``u``: the severed parent edge weight is
    absorbed into u's potential; with ``drop_root`` the subtree root itself
    is removed too and its children absorb their edge weights."""
    if T.graph is not H.graph:
        raise ValueError("tree and operator must share one graph")
    iu = T.graph.index_of(u)
    order = T.subtree_order(iu)
    if not drop_root:
        delta = {}
        if iu != T.root:
            delta[iu] = T.parent_w[iu]
        return Operator(induced_subgraph(T.graph, order, delta), H.p)
    keep = [w for w in order if w != iu]
    if not keep:
        raise ValueError("dropping the root of a single-vertex subtree leaves nothing")
    delta = {v: T.parent_w[v] for v in T.children[iu]}
    return Operator(induced_subgraph(T.graph, keep, delta), H.p)


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

    @property
    def total(self) -> int:
        return sum(e.mult for e in self.entries)

    def values(self) -> list[float]:
        return [e.value for e in self.entries]

    def flat(self) -> list[float]:
        """Eigenvalues with repetition, ascending."""
        return [e.value for e in self.entries for _ in range(e.mult)]

    def count_below(self, x: float) -> int:
        """Number of eigenvalues strictly below ``x``, with multiplicity."""
        return sum(e.mult for e in self.entries if e.value < x)

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


def _forest_parts(H: Operator) -> list:
    """(component indices, component operator, rooted component) for every
    connected component of a forest operator, each rooted at its first
    vertex. The indices are dense indices of ``H.graph`` in the component's
    own vertex order."""
    g = H.graph
    comps = connected_components(g)
    if len(g.edges) != g.n - len(comps):
        raise ValueError("the tree route requires a forest")
    parts = []
    for comp in comps:
        sub = induced_subgraph(g, comp)
        parts.append((comp, Operator(sub, H.p), RootedTree(sub, sub.ids[0])))
    return parts


class ForestCount:
    """Eigenvalue counter of a forest operator, with no generating profile.

    Under the virtual-parent rooting, the number of vertices whose g is
    negative at x equals the number of eigenvalues below x. At p = 2 this
    is Sylvester inertia (Jacobs & Trevisan, "Locating the eigenvalues of
    trees", Linear Algebra Appl. 434, 2011); at other p the tests check it
    against ``tree_spectrum``. One count is one bottom-up pass per component.
    """

    def __init__(self, H: Operator):
        self._parts = _forest_parts(H)
        self.total = H.graph.n

    def count_below(self, x: float) -> int:
        """#{eigenvalues < x}, with multiplicity.

        An exact hit follows the left limit: a g value of exactly 0.0 counts
        as not negative, and the pole marker, which only an exact child zero
        produces, counts as negative. At an eigenvalue this gives the count
        strictly below it. The recursion itself has a float floor: at p != 2
        one ulp above an eigenvalue a leaf's value can round to exactly 0.0
        and the count then still reads the one below.
        """
        count = 0
        for _comp, Hs, T in self._parts:
            for v in _eval_vertices(T, Hs, x, T.order).values():
                if v < 0.0 or v == POLE:
                    count += 1
        return count


def _merged(candidates) -> Spectrum:
    """Spectrum of (value, mult, ...) candidates: values within CLUSTER_REL
    merge into one entry and their multiplicities add."""
    return Spectrum(tuple(
        SpectrumEntry(center, sum(mults))
        for center, _vals, mults in cluster_tagged([c[:2] for c in candidates])))


def _spectrum_of(H: Operator, parts) -> Spectrum:
    """Merged spectrum of a forest's parts; the counts must sum to n."""
    spec = _merged([c for _comp, Hs, T in parts
                    for c in _profile_for(T, Hs).candidates])
    if spec.total != H.graph.n:
        raise AssertionError(f"forest multiplicity total {spec.total} != {H.graph.n}")
    return spec


def _basis_on(H: Operator, parts, lam: float) -> list[VertexFunction]:
    """Eigenfunctions of ``lam`` on a forest: the reconstruction on every
    component whose spectrum holds lam, embedded by zero elsewhere."""
    out = []
    for comp, Hs, T in parts:
        try:
            _merged(_profile_for(T, Hs).candidates).find(lam)
        except ValueError:
            continue
        for fsub in eigenbasis(Hs, T, lam):
            values = np.zeros(H.graph.n)
            values[comp] = fsub.values
            out.append(VertexFunction(values))
    if not out:
        raise ValueError(f"{lam} is not an eigenvalue of this forest")
    return out


def tree_spectrum(H: Operator) -> Spectrum:
    """Full spectrum of a forest operator, with multiplicities.

    Components are processed independently and merged; within a component
    the candidates are the clustered zeros of all vertex g functions and the
    multiplicity at a candidate is k - h (vanishing vertices minus their
    distinct parents). The per-component counts must sum to the component
    sizes — a hard structural check.
    """
    return _spectrum_of(H, _forest_parts(H))


def tree_eigenpairs(H: Operator) -> Spectrum:
    """``tree_spectrum`` with every entry's ``basis`` filled in, as
    ``forest_eigenbasis`` would give it. One generating profile per
    component serves the values and every eigenvalue's basis."""
    parts = _forest_parts(H)
    return Spectrum(tuple(
        SpectrumEntry(e.value, e.mult, tuple(_basis_on(H, parts, e.value)))
        for e in _spectrum_of(H, parts).entries))


def eigenbasis(H: Operator, T: RootedTree, lam: float) -> list[VertexFunction]:
    """Eigenfunctions spanning the eigen-set of ``lam`` on one tree.

    Each vertex whose g vanishes at lam seeds a generator on its component
    of the tree minus the vanishing vertices' parents; values propagate
    downward by f(child) = f(parent) / g_child(lam). The removed parents
    impose one linear constraint each on the transformed weights
    y_i = phi(alpha_i); the nullspace maps back through phi_inv, producing
    k - h functions that all vanish on the removed parents.
    """
    g = T.graph
    if g is not H.graph:
        raise ValueError("tree and operator must share one graph")
    p = H.p
    n = g.n
    lam = float(lam)

    # vertices whose g vanishes at lam: lam is matched to the nearest
    # candidate group (groups of propagating zeros carry no eigenvalue)
    Z: set = set()
    gap = math.inf
    for center, _mult, zset in _profile_for(T, H).candidates:
        if abs(center - lam) < gap:
            gap = abs(center - lam)
            Z = zset
    if not Z or gap > 1e-8 * max(1.0, abs(lam)):
        raise ValueError(f"{lam} is not an eigenvalue of this tree")
    parents = {T.parent[u] for u in Z} - {-1}
    k, h = len(Z), len(parents)
    if Z & parents:
        raise AssertionError("a vanishing vertex doubles as a removed parent")

    gvals = _eval_vertices(T, H, lam, T.order)
    top_down = tuple(reversed(T.order))

    # components of the tree minus the removed parents
    comp = [-1] * n
    ncomp = 0
    for u in top_down:
        if u in parents:
            continue
        pu = T.parent[u]
        if pu != -1 and pu not in parents:
            comp[u] = comp[pu]
        else:
            comp[u] = ncomp
            ncomp += 1

    zlist = sorted(Z)
    gen_of_comp = {}
    for gi, z in enumerate(zlist):
        if comp[z] in gen_of_comp:
            raise AssertionError("two vanishing vertices in one component")
        gen_of_comp[comp[z]] = gi

    fgen = np.zeros((k, n))
    for gi, z in enumerate(zlist):
        fgen[gi, z] = 1.0
    for u in top_down:
        if u in parents:
            continue
        gi = gen_of_comp.get(comp[u])
        if gi is None:
            continue  # zero-free component: the function stays zero there
        pu = T.parent[u]
        if pu == -1 or pu in parents:
            continue  # the component's top is the seeded vertex
        gv = gvals[u]
        if not (math.isfinite(gv) and gv != 0.0):
            raise AssertionError("pole or zero inside a propagation component")
        fgen[gi, u] = fgen[gi, pu] / gv

    # one constraint per removed parent: its eigen-equation with f(parent) = 0
    plist = sorted(parents)
    C = np.zeros((h, k))
    for j, uj in enumerate(plist):
        for v, w in g.adj[uj]:
            if v in parents:
                continue
            gi = gen_of_comp.get(comp[v])
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
    """Eigenfunctions of ``lam`` on a forest: per-component reconstructions
    embedded by zero on the other components. Each call builds one
    generating profile per component; ``tree_eigenpairs`` gives every
    eigenvalue's basis from a single set of profiles."""
    return _basis_on(H, _forest_parts(H), lam)
