"""Eigenpair-preserving graph surgery and interlacing verification.

Removing an edge whose endpoints carry nonzero values of an eigenfunction,
while compensating both endpoint potentials with the terms the edge used to
contribute, keeps that eigenpair intact; removing a vertex where the
eigenfunction vanishes, while moving its edge weights into the neighbors'
potentials, does the same. Each removal shifts the rest of the spectrum in
a controlled way, and the verify_* functions check those interlacing
patterns by counting after-values around each before-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from ._unionfind import UnionFind
from .core import (EigenpairCertificate, Operator, VertexFunction,
                   WeightedGraph, connected_components, induced_subgraph,
                   is_forest, phi, residual)
from .nodal import Thresholds, _slack, analyze, sign_pattern
from .oracle import SymmetricMatrix, ValueCount, p2_diagonal, p2_spectrum
from .treespec import ForestCount, PatchedCount


#: Defect tolerance of the per-domain first eigenvalues that
#: ``reduce_to_nodal_union`` compares with the eigenvalue.
FIRST_TOL = 1e-7


@dataclass(frozen=True)
class SurgeryStep:
    """Record of one removal: what went, the ratio used, and the potential
    compensation applied per vertex id."""

    kind: str  # "edge" | "node"
    target: tuple
    alpha: float | None
    kappa_deltas: dict


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    checked: int
    failures: tuple


def remove_edge(H: Operator, f: VertexFunction, e0) -> tuple[Operator, SurgeryStep]:
    """Remove edge ``e0`` = (u0, v0), compensating both potentials so an
    eigenpair with eigenfunction ``f`` survives on the smaller graph.

    With alpha = f(v0)/f(u0), u0's potential grows by
    omega * phi(1 - alpha) and v0's by omega * phi(1 - 1/alpha). Both
    endpoint values must sit outside the zero band.
    """
    g = H.graph
    iu, iv, alpha, d_u, d_v = _compensation(H, f, e0)
    kappa = g.kappa.copy()
    kappa[iu] += d_u
    kappa[iv] += d_v
    H2 = Operator(_without_edge(g, iu, iv, kappa), H.p)
    u0, v0 = e0
    step = SurgeryStep(kind="edge", target=(u0, v0), alpha=alpha,
                       kappa_deltas={u0: d_u, v0: d_v})
    return H2, step


def _compensation(H: Operator, f: VertexFunction, e0, signs=None) -> tuple:
    """(iu, iv, alpha, d_u, d_v) of removing edge ``e0`` = (u0, v0) under
    ``f``: the endpoints' dense indices, alpha = f(v0)/f(u0) and the
    potential compensations omega * phi(1 - alpha) of u0 and
    omega * phi(1 - 1/alpha) of v0. Both endpoint values must sit outside
    the zero band, and both compensated potentials must be finite.
    ``signs`` is f's `sign_pattern`, computed here when not given."""
    iu, iv, w = _edge(H.graph, e0)
    return (iu, iv, *_compensated(H, f, iu, iv, w, signs))


def _edge(g: WeightedGraph, e0) -> tuple:
    """(iu, iv, omega) of the edge ``e0`` = (u0, v0) of g, by dense index."""
    u0, v0 = e0
    iu = g.index_of(u0)
    iv = g.index_of(v0)
    for j, w in g.adj[iu]:
        if j == iv:
            return iu, iv, w
    raise ValueError(f"no edge between {u0!r} and {v0!r}")


def _compensated(H: Operator, f: VertexFunction, iu: int, iv: int, w: float,
                 signs) -> tuple:
    """(alpha, d_u, d_v) of `_compensation` on the edge of weight w between
    dense indices iu and iv."""
    g = H.graph
    x = f.values
    if len(x) != g.n:
        raise ValueError("function does not match the graph")
    s = sign_pattern(g, f)[0] if signs is None else signs
    if s[iu] == 0 or s[iv] == 0:
        raise ValueError("edge removal needs nonzero values at both endpoints")
    alpha = float(x[iv]) / float(x[iu])
    d_u = w * phi(1.0 - alpha, H.p)
    d_v = w * phi(1.0 - 1.0 / alpha, H.p)
    for i, d in ((iu, d_u), (iv, d_v)) if iu < iv else ((iv, d_v), (iu, d_u)):
        if not math.isfinite(float(g.kappa[i]) + d):
            raise ValueError(f"kappa must be finite at {g.ids[i]!r}")
    return alpha, d_u, d_v


def _without_edge(g: WeightedGraph, iu: int, iv: int, kappa) -> WeightedGraph:
    """``g`` minus the edge between dense indices iu and iv, with the
    potentials ``kappa``, its vertices and remaining edges in g's order."""
    vertices = [(g.ids[i], float(g.rho[i]), float(kappa[i])) for i in range(g.n)]
    edges = [(g.ids[i], g.ids[j], wj) for i, j, wj in g.edges
             if {i, j} != {iu, iv}]
    return WeightedGraph(vertices, edges)


class EdgeCut:
    """The compensated removals of one forest edge ``e0`` under any number
    of eigenfunctions, counted from ``base``, the `treespec.ForestCount` of
    the forest before the removal; `DenseEdgeCut` is its counterpart on the
    dense p = 2 route.

    No forest is built: a removal only adds to the two endpoint potentials,
    so the removals under all the eigenfunctions are removals of one edge
    with patches of those two potentials (`treespec.PatchedCount`), counted
    in one level pass over the vertices whose g values the cut moves, and
    each counts what ``ForestCount(remove_edge(H, f, e0)[0])`` counts, to
    the bit.
    """

    def __init__(self, base: ForestCount, e0):
        self._base = base
        self._e0 = e0

    def afters(self, functions, signs=None) -> list:
        """Per eigenfunction of ``functions``, (alpha, eigenvalue counter of
        the operator after the removal) as `remove_edge` gives them, or the
        ValueError that removal raises; ``signs`` holds each function's
        `sign_pattern`, computed where not given. Every counter is one of
        a single `treespec.PatchedCount`, so the first count asked of any
        of them counts all the removals at once."""
        H = self._base.operator
        out, removals = [], []
        try:
            iu, iv, w = _edge(H.graph, self._e0)
        except ValueError as exc:
            return [exc] * len(functions)
        k_u, k_v = float(H.graph.kappa[iu]), float(H.graph.kappa[iv])
        for f, s in zip(functions, signs or [None] * len(functions)):
            try:
                alpha, d_u, d_v = _compensated(H, f, iu, iv, w, s)
            except ValueError as exc:
                out.append(exc)
                continue
            out.append(alpha)
            removals.append(((iu, iv), {iu: k_u + d_u, iv: k_v + d_v}))
        counters = iter(PatchedCount(self._base, removals).counters)
        return [got if isinstance(got, ValueError) else (got, next(counters))
                for got in out]


class DenseEdgeCut:
    """The compensated removals of one edge ``e0`` under any number of
    eigenfunctions, on patched copies of the operator's `assemble_p2`
    matrix ``m``: `EdgeCut`'s counterpart on the dense p = 2 route.

    A removal changes ``m`` only in the two endpoint diagonal entries and
    the pair between the endpoints, so each removal copies ``m``, zeroes
    the pair and rewrites those two entries (`oracle.p2_diagonal`). The
    copy is ``assemble_p2(remove_edge(H, f, e0)[0])``, to the bit, and its
    counter (`oracle.ValueCount`) counts that matrix's ``eigvalsh``
    values, all the copies' from one call (`oracle.ValueCount.each`).
    """

    def __init__(self, H: Operator, m: SymmetricMatrix, e0):
        self._H = H
        self._m = m
        self._e0 = e0

    def matrix(self, f: VertexFunction, signs=None) -> tuple:
        """(alpha, the matrix of the operator after the removal) under the
        eigenfunction ``f``; ``signs`` is f's `sign_pattern`, computed when
        not given."""
        iu, iv, alpha, d_u, d_v = _compensation(self._H, f, self._e0, signs)
        g = self._H.graph
        a = self._m.data.copy()
        a[iu, iv] = a[iv, iu] = 0.0
        a[iu, iu] = p2_diagonal(g, iu, float(g.kappa[iu]) + d_u, iv)
        a[iv, iv] = p2_diagonal(g, iv, float(g.kappa[iv]) + d_v, iu)
        return alpha, a

    def afters(self, functions, signs=None) -> list:
        """Per eigenfunction of ``functions``, (alpha, eigenvalue counter of
        the operator after the removal) as `remove_edge` gives them, or the
        ValueError or ArithmeticError that removal raises, as
        `EdgeCut.afters` gives them. Every matrix is built before one
        stacked ``eigvalsh`` counts them all."""
        alphas, arrays = [], []
        for f, s in zip(functions, signs or [None] * len(functions)):
            try:
                alpha, a = self.matrix(f, s)
            except (ValueError, ArithmeticError) as exc:
                alpha = a = exc
            alphas.append(alpha)
            arrays.append(a)
        return [got if isinstance(got, Exception) else (alpha, got)
                for alpha, got in zip(alphas, ValueCount.each(arrays))]


def dense_without_vertex(H: Operator, m: SymmetricMatrix, u0) -> np.ndarray:
    """``assemble_p2(remove_node(H, u0)[0])`` from the operator's
    `assemble_p2` matrix ``m``: a copy of ``m`` without u0's row and
    column, with each neighbour's diagonal entry rewritten
    (`oracle.p2_diagonal`), and the rebuild's ArithmeticError where one
    leaves the float range. The bits differ only where a vertex without
    edges has the potential -0.0: the rebuild adds 0.0 to it."""
    g = H.graph
    iu = g.index_of(u0)
    if g.n == 1:
        raise ValueError("cannot remove the last vertex")
    a = np.delete(np.delete(m.data, iu, 0), iu, 1)
    for j, w in g.adj[iu]:
        jj = j - (j > iu)
        a[jj, jj] = p2_diagonal(g, j, float(g.kappa[j]) + w, iu)
    return a


def dense_vertex_removals(H: Operator, m: SymmetricMatrix) -> list:
    """Per vertex of the graph, in its order, the eigenvalue counter
    (`oracle.ValueCount`) of `dense_without_vertex`, or the ValueError or
    ArithmeticError that removal raises. Every matrix is built before one
    stacked ``eigvalsh`` counts them all."""
    arrays = []
    for u in H.graph.ids:
        try:
            arrays.append(dense_without_vertex(H, m, u))
        except (ValueError, ArithmeticError) as exc:
            arrays.append(exc)
    return ValueCount.each(arrays)


def vertex_removals(base: ForestCount) -> list:
    """Per vertex of the forest that ``base`` counts, in its order, the
    eigenvalue counter after `remove_node` removes it, or the ValueError
    that removal raises: `dense_vertex_removals`' counterpart on the tree
    route. No forest is built: every counter is one of a single
    `treespec.PatchedCount` of ``base``, so the first count asked of any
    of them counts all the removals, in level passes over the vertices
    whose g values they move."""
    g = base.operator.graph
    if g.n == 1:
        return [ValueError("cannot remove the last vertex")]
    out, removals = [], []
    for iu in range(g.n):
        patch = {}
        for j, w in sorted(g.adj[iu]):  # the rebuilt graph checks in this order
            patch[j] = float(g.kappa[j]) + w
            if not math.isfinite(patch[j]):
                out.append(ValueError(f"kappa must be finite at {g.ids[j]!r}"))
                break
        else:
            out.append(None)
            removals.append(((iu,), patch))
    counters = iter(PatchedCount(base, removals).counters)
    return [next(counters) if got is None else got for got in out]


def remove_node(H: Operator, u0) -> tuple[Operator, SurgeryStep]:
    """Remove vertex ``u0``, folding each incident edge weight into the
    neighbor's potential.

    Eigenpairs whose function vanishes at u0 survive by restriction; the
    caller is trusted on that point since no function is involved here.
    """
    g = H.graph
    iu = g.index_of(u0)
    if g.n == 1:
        raise ValueError("cannot remove the last vertex")
    delta = {j: wj for j, wj in g.adj[iu]}
    keep = [i for i in range(g.n) if i != iu]
    H2 = Operator(induced_subgraph(g, keep, delta), H.p)
    step = SurgeryStep(kind="node", target=(u0,), alpha=None,
                       kappa_deltas={g.ids[j]: wj for j, wj in delta.items()})
    return H2, step


def verify_weyl_edge(th: Thresholds, after, alpha_sign: float) -> CheckReport:
    """Check the one-sided shift pattern of a compensated edge removal.

    With eta the after-values and lambda the before-values, a negative
    ratio alpha forces eta_{k-1} <= lambda_k <= eta_k, a positive one
    eta_k <= lambda_k <= eta_{k+1}, for every k (missing neighbors count as
    -inf / +inf), each side within the slack s of lambda_k. ``th`` holds
    the thresholds of the before-spectrum (`nodal.Thresholds`).

    ``after`` is anything with ``total`` and ``counts_below`` (a
    ``Spectrum``, ``ForestCount`` or ``PatchedCount`` counter of `treespec`,
    an ``oracle.ValueCount``). Only two counts per distinct lambda_k are
    read, all in one ``counts_below(th.xs)`` call:
    c- = #{eta < lambda_k - s} and c+ = #{eta <= lambda_k + s}. The
    pattern is c+ >= k - 1 and c- <= k - 1 for alpha < 0, c+ >= k and
    c- <= k for alpha > 0. Every k is decided by array comparisons, first
    one over the distinct values (`nodal.Thresholds.edge_bounds`), and only
    the k that fail are written out.
    """
    lam = th.flat
    if after.total != len(lam):
        raise ValueError("edge removal must preserve the vertex count")
    if alpha_sign == 0 or not math.isfinite(alpha_sign):
        raise ValueError("alpha must have a definite sign")
    c = np.asarray(after.counts_below(th.xs))
    shift = 1 if alpha_sign > 0 else 0
    if (c * th.signs <= th.edge_bounds[shift]).all():
        return CheckReport(ok=True, checked=len(lam), failures=())
    need = th.ranks[shift:shift + len(lam)]  # k - 1 + shift for k = 1, 2, ...
    c_below, c_upto = c[th.at_below], c[th.at_upto]
    failures = []
    for k in np.flatnonzero((c_upto < need) | (c_below > need)).tolist():
        lk, i = lam[k], th.pos[k]
        failures.append(
            f"value {k + 1}: {lk} misplaced after edge removal: "
            f"#{{eta < {th.below[i]}}} = {c_below[k]} and "
            f"#{{eta <= {lk + _slack(lk)}}} = {c_upto[k]}, but the first must be "
            f"<= {need[k]} and the second >= {need[k]}")
    return CheckReport(ok=not failures, checked=len(lam),
                       failures=tuple(failures))


def verify_weyl_nodes(th: Thresholds, after, n: int) -> CheckReport:
    """Check the two-sided squeeze of removing ``n`` vertices:
    lambda_k <= eta_k <= lambda_{k+n} for every k on the smaller graph,
    with ``th`` the `nodal.Thresholds` of the before-spectrum.

    ``after`` is a counter as for `verify_weyl_edge`. The two sides are
    read as counts at before-values, all in one ``counts_below(th.xs)``
    call: lambda_k <= eta_k as #{eta < lambda_k - s} <= k - 1, and
    eta_k <= lambda_{k+n} as #{eta <= lambda_{k+n} + s} >= k, with s the
    slack of that before-value. Taking the slack at the before-value
    rather than at eta_k changes the verdict only inside a window about
    1e-16 wide. Every k is decided by one array comparison, and only the
    k that fail are written out.
    """
    lam = th.flat
    m = after.total
    if m != len(lam) - n:
        raise ValueError(f"after-spectrum should be {n} values shorter")
    failures = []
    if m:
        c = np.asarray(after.counts_below(th.xs))
        c_below, c_upto = c[th.at_below[:m]], c[th.at_upto[n:]]
        bad = (c_below > th.ranks[:m]) | (c_upto < th.ranks[1:m + 1])
        for k in np.flatnonzero(bad).tolist() if bad.any() else ():
            lo, hi = lam[k], lam[k + n]
            failures.append(
                f"value {k + 1} outside [{lo}, {hi}] after removing {n} vertices: "
                f"#{{eta < {lo - _slack(lo)}}} = {c_below[k]} and "
                f"#{{eta <= {hi + _slack(hi)}}} = {c_upto[k]}, but the first "
                f"must be <= {k} and the second >= {k + 1}")
    return CheckReport(ok=not failures, checked=m, failures=tuple(failures))


def _strip_zeros(H: Operator, cert: EigenpairCertificate,
                 s) -> tuple[Operator, EigenpairCertificate, list[SurgeryStep]]:
    """Remove every vertex whose sign in ``s`` is 0, one step each, and
    certify the restricted function on what is left."""
    g = H.graph
    steps = []
    H1 = H
    for i in range(g.n):
        if s[i] == 0:
            H1, step = remove_node(H1, g.ids[i])
            steps.append(step)
    f1 = VertexFunction.from_mapping(H1.graph, cert.function.as_mapping(g))
    lam = cert.eigenvalue
    cert1 = EigenpairCertificate(lam, f1, residual(H1, f1, lam), cert.tol)
    return H1, cert1, steps


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of cutting a graph into the nodal domains of an eigenpair."""

    eigenvalue: float
    nu: int
    components: tuple
    residual_after: float
    component_minima: tuple
    multiplicity_after: int | None
    steps: tuple


def reduce_to_nodal_union(H: Operator,
                          cert: EigenpairCertificate) -> tuple[Operator, ReductionReport]:
    """Split the graph into the nodal domains of a certified eigenpair.

    Zero vertices are removed first (weights folded into neighbors), then
    every strict sign-change edge is cut with potential compensation. The
    components of the result are exactly the nodal domains; on each, the
    restricted function must be a first eigenfunction, and at p = 2 the
    eigenvalue's multiplicity on the union must equal the domain count.
    Violations raise AssertionError.
    """
    if not cert.valid:
        raise ValueError("certificate residual exceeds its tolerance")
    g = H.graph
    lam = cert.eigenvalue
    rep = analyze(g, cert.function)
    if rep.nu == 0:
        raise ValueError("the certified function vanishes identically")
    s, _band = sign_pattern(g, cert.function)
    H1, cert1, steps = _strip_zeros(H, cert, s)

    cut = [(g.ids[i], g.ids[j]) for i, j, _w in g.edges
           if s[i] != 0 and s[j] != 0 and s[i] != s[j]]
    H2 = H1
    for e in cut:
        H2, step = remove_edge(H2, cert1.function, e)
        steps.append(step)
    res_after = residual(H2, cert1.function, lam)

    comps = connected_components(H2.graph)
    if len(comps) != rep.nu:
        raise AssertionError(
            f"{len(comps)} components after the cuts, expected {rep.nu} domains")
    smap = {g.ids[i]: int(s[i]) for i in range(g.n)}
    minima = []
    comp_ids = []
    for comp in comps:
        ids = [H2.graph.ids[i] for i in comp]
        comp_ids.append(tuple(ids))
        signs_here = {smap[vid] for vid in ids}
        if len(signs_here) != 1 or 0 in signs_here:
            raise AssertionError("a component mixes signs after the cuts")
        sub = Operator(induced_subgraph(H2.graph, comp), H.p)
        lam1 = _first_value(sub)
        minima.append(lam1)
        if abs(lam1 - lam) > _slack(lam):
            raise AssertionError(
                f"component minimum {lam1} != eigenvalue {lam}")
    mult_after = None
    if H.p == 2.0:
        entry = p2_spectrum(H2, bases=False).find(lam)
        mult_after = entry.mult
        if mult_after != rep.nu:
            raise AssertionError(
                f"multiplicity {mult_after} after the cuts, expected {rep.nu}")
    report = ReductionReport(eigenvalue=lam, nu=rep.nu,
                             components=tuple(comp_ids),
                             residual_after=res_after,
                             component_minima=tuple(minima),
                             multiplicity_after=mult_after,
                             steps=tuple(steps))
    return H2, report


def _first_value(H: Operator) -> float:
    """Smallest eigenvalue of a connected operator: dense route at p = 2,
    descent route (to FIRST_TOL) otherwise — deliberately independent of
    the tree machinery so the reduction acts as a cross-check."""
    if H.p == 2.0:
        return p2_spectrum(H, bases=False).entries[0].value
    from .core import first_eigenpair
    return first_eigenpair(H, tol=FIRST_TOL).eigenvalue


def reduce_to_forest(H: Operator, cert: EigenpairCertificate,
                     seed: int = 0) -> tuple[Operator, list[SurgeryStep]]:
    """Cut a certified eigenpair's graph down to a forest.

    Zero vertices go first; the surviving function is nowhere zero, so any
    non-spanning-tree edge can be cut with compensation. The chosen forest
    depends on ``seed`` only.
    """
    if not cert.valid:
        raise ValueError("certificate residual exceeds its tolerance")
    s, _band = sign_pattern(H.graph, cert.function)
    H1, cert1, steps = _strip_zeros(H, cert, s)
    g1 = H1.graph
    order = list(range(len(g1.edges)))
    Random(seed).shuffle(order)
    uf = UnionFind(g1.n)
    extra = []
    for idx in order:
        i, j, _w = g1.edges[idx]
        if not uf.union(i, j):
            extra.append((g1.ids[i], g1.ids[j]))
    H2 = H1
    for e in extra:
        H2, step = remove_edge(H2, cert1.function, e)
        steps.append(step)
    if not is_forest(H2.graph):
        raise AssertionError("cutting the extra edges did not yield a forest")
    return H2, steps
