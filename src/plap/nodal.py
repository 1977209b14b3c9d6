"""Nodal-domain combinatorics and eigenvalue-position bound checks.

A vertex function splits the graph into nodal domains: maximal connected
sets on which it keeps one strict sign. The module counts them, counts
sign-change edges, and verifies the exact combinatorial identity tying the
two together; on top of that it checks where an eigenvalue may sit in the
ordered spectrum given the domain count, in both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._unionfind import UnionFind
from .core import (ZERO_BAND_REL, EigenpairCertificate, Operator,
                   VertexFunction, WeightedGraph, _id_key, connected_components)
from .treespec import Spectrum


def sign_pattern(g: WeightedGraph, f: VertexFunction) -> tuple[np.ndarray, float]:
    """Per-vertex signs in {-1, 0, +1} under the relative zero band."""
    x = f.values
    if len(x) != g.n:
        raise ValueError("function length does not match the graph")
    band = ZERO_BAND_REL * float(np.max(np.abs(x))) if g.n else 0.0
    s = np.zeros(g.n, dtype=int)
    s[x > band] = 1
    s[x < -band] = -1
    return s, band


def nodal_domains(g: WeightedGraph, f: VertexFunction) -> list[tuple[int, list]]:
    """Maximal connected same-strict-sign vertex sets.

    Returns (sign, vertex ids) pairs; zero vertices belong to no domain.
    """
    s, _ = sign_pattern(g, f)
    return _domains(g, s)


def _domains(g: WeightedGraph, s: np.ndarray) -> list[tuple[int, list]]:
    uf = UnionFind(g.n)
    for i, j, _w in g.edges:
        if s[i] != 0 and s[i] == s[j]:
            uf.union(i, j)
    out = []
    seen = {}
    for i in range(g.n):
        if s[i] == 0:
            continue
        r = uf.find(i)
        if r not in seen:
            seen[r] = len(out)
            out.append((int(s[i]), []))
        out[seen[r]][1].append(g.ids[i])
    return [(sg, sorted(vs, key=_id_key)) for sg, vs in out]


@dataclass(frozen=True)
class NodalReport:
    """Counts attached to one function on one graph.

    nu: nodal domains; zeta: strict sign-change edges; z: zero vertices;
    ez: edges touching a zero vertex; l: independent cycles inside single
    domains; beta: independent cycles of the whole graph; c: components of
    the graph minus the zero vertices; beta_prime: independent cycles of
    that support subgraph.
    """

    nu: int
    zeta: int
    z: int
    ez: int
    l: int
    beta: int
    c: int
    beta_prime: int
    domains: tuple
    zero_band: float


def analyze(g: WeightedGraph, f: VertexFunction,
            components: int | None = None) -> NodalReport:
    """Full nodal bookkeeping for ``f`` on ``g``; ``components`` is the
    number of connected components of ``g``, counted here when not given.

    Asserts the exact identity

        zeta = |E| - ez + z - |V| + nu - l

    which holds for every vertex function whatsoever; a failure means the
    sign bookkeeping itself is broken, so it raises AssertionError rather
    than reporting.
    """
    s, band = sign_pattern(g, f)
    domains = _domains(g, s)
    nu = len(domains)
    z = int(np.sum(s == 0))
    zeta = 0
    ez = 0
    for i, j, _w in g.edges:
        if s[i] == 0 or s[j] == 0:
            ez += 1
        elif s[i] != s[j]:
            zeta += 1
    # cycles confined to single domains
    index_of = g._index
    l = 0
    for _sg, vids in domains:
        dom = {index_of[v] for v in vids}
        e_in = sum(1 for i, j, _w in g.edges if i in dom and j in dom)
        l += e_in - len(dom) + 1
    if components is None:
        components = len(connected_components(g))
    beta = len(g.edges) - g.n + components
    # support subgraph: strict-sign vertices and the edges among them
    uf = UnionFind(g.n)
    for i, j, _w in g.edges:
        if s[i] != 0 and s[j] != 0:
            uf.union(i, j)
    c = len({uf.find(i) for i in range(g.n) if s[i] != 0})
    e_support = len(g.edges) - ez
    beta_prime = e_support - (g.n - z) + c
    rhs = len(g.edges) - ez + z - g.n + nu - l
    if zeta != rhs:
        raise AssertionError(
            f"sign-change identity violated: zeta={zeta} but rhs={rhs}")
    return NodalReport(nu=nu, zeta=zeta, z=z, ez=ez, l=l, beta=beta, c=c,
                       beta_prime=beta_prime, domains=tuple(domains),
                       zero_band=band)


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: ``kind`` names it, ``bound`` is the proven
    side, ``observed`` the measured side."""

    kind: str
    bound: float
    observed: float
    satisfied: bool
    k: int | None = None
    m: int | None = None


def _slack(lam: float) -> float:
    return 1e-8 * max(1.0, abs(lam))


def _below(t: float) -> float:
    """The threshold t - ``_slack(t)`` at which the checks count the
    values below t."""
    return t - _slack(t)


def _upto(t: float) -> float:
    """The threshold nextafter(t + ``_slack(t)``, inf) at which the checks
    count the values up to t, a value at t + s included."""
    return math.nextafter(t + _slack(t), math.inf)


class Thresholds:
    """Where the removal checks count the after-values of a removal from an
    operator with spectrum ``spec``, built once for all its removals: at
    its i-th distinct value t, below[i] = `_below`(t) and
    upto[i] = `_upto`(t); ``flat`` is the spectrum with repetition and
    pos[k] the distinct index of flat[k]."""

    def __init__(self, spec: Spectrum):
        values = spec.values()
        self.flat = spec.flat()
        self.pos = [i for i, e in enumerate(spec.entries) for _ in range(e.mult)]
        self.below = [_below(t) for t in values]
        self.upto = [_upto(t) for t in values]


def counts_below(counter, xs) -> list:
    """``counter.count_below`` at every threshold of the list ``xs``: in one
    call where the counter has ``counts_below`` (the sorted values of
    `oracle.ValueCount`), else one count per threshold."""
    many = getattr(counter, "counts_below", None)
    if many is not None:
        return many(xs)
    return [counter.count_below(x) for x in xs]


def _position_report(H: Operator, cert: EigenpairCertificate,
                     varspec: Spectrum, rep: NodalReport | None) -> NodalReport:
    """The nodal report the position checks read, ``rep`` when given, after
    their input guards: a connected graph, a function that does not vanish
    identically and a complete spectrum."""
    g = H.graph
    if rep is None:
        rep = analyze(g, cert.function)
    if rep.beta != len(g.edges) - g.n + 1:  # beta = |E| - |V| + components
        raise ValueError("bound checks require a connected graph")
    if rep.nu == 0:
        raise ValueError("the certified function vanishes identically")
    if varspec.total != g.n:
        raise ValueError("spectrum is incomplete")
    return rep


def check_upper(H: Operator, cert: EigenpairCertificate,
                varspec: Spectrum, rep: NodalReport | None = None) -> list[BoundReport]:
    """Ceiling checks for the domain count of an eigenfunction.

    Returns two reports: the domain count against the position k of the
    first spectrum value strictly above the eigenvalue (nu <= k - 1), and
    the equivalent floor reading lambda >= lambda_nu. ``rep`` is
    ``analyze(H.graph, cert.function)`` when the caller has it.
    """
    lam = cert.eigenvalue
    rep = _position_report(H, cert, varspec, rep)
    k = varspec.count_below(_upto(lam)) + 1
    upper = BoundReport(kind="nodal-upper", bound=float(k - 1),
                        observed=float(rep.nu), satisfied=rep.nu <= k - 1,
                        k=k)
    floor_val = varspec.flat()[rep.nu - 1]
    floor = BoundReport(kind="eigenvalue-floor", bound=floor_val,
                        observed=lam, satisfied=lam >= floor_val - _slack(lam),
                        k=rep.nu)
    return [upper, floor]


def check_lower(H: Operator, cert: EigenpairCertificate,
                varspec: Spectrum, rep: NodalReport | None = None) -> list[BoundReport]:
    """Floor checks for the domain count of an eigenfunction.

    The generic floor k1 - beta' + l - z + c uses the number k1 of spectrum
    values strictly below the eigenvalue; when the eigenvalue is itself in
    the spectrum a sharper floor k + m - 1 - beta' + l - z applies, with
    k the 1-based index of the first value of its entry (`Spectrum.find`)
    and m that entry's multiplicity. Reports carry whichever forms apply,
    plus their combined maximum. ``rep`` is ``analyze(H.graph,
    cert.function)`` when the caller has it.
    """
    lam = cert.eigenvalue
    rep = _position_report(H, cert, varspec, rep)
    out = []
    bounds = []
    k1 = varspec.count_below(_below(lam))
    if k1 >= 1:
        b = k1 - rep.beta_prime + rep.l - rep.z + rep.c
        out.append(BoundReport(kind="nodal-lower-simple", bound=float(b),
                               observed=float(rep.nu),
                               satisfied=rep.nu >= b, k=k1))
        bounds.append(b)
    try:
        e = varspec.find(lam)
        k, m = 1 + varspec.count_below(e.value), e.mult
    except ValueError:  # lam is not in the spectrum
        k = m = None
    if k is not None and k1 >= k - 1:
        b = k + m - 1 - rep.beta_prime + rep.l - rep.z
        out.append(BoundReport(kind="nodal-lower-variational", bound=float(b),
                               observed=float(rep.nu),
                               satisfied=rep.nu >= b, k=k, m=m))
        bounds.append(b)
    if bounds:
        b = max(bounds)
        out.append(BoundReport(kind="nodal-lower-combined", bound=float(b),
                               observed=float(rep.nu),
                               satisfied=rep.nu >= b))
    return out


def is_bipartite(g: WeightedGraph):
    """Two-color the graph.

    Returns (True, (side, side)) with the color classes as sorted id lists,
    or (False, cycle) with the vertex ids of an odd cycle as witness.
    """
    color = [-1] * g.n
    par = [-1] * g.n
    for seed in range(g.n):
        if color[seed] != -1:
            continue
        color[seed] = 0
        queue = [seed]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for v, _w in g.adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    par[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    return False, _odd_cycle(g, par, u, v)
    side0 = sorted((g.ids[i] for i in range(g.n) if color[i] == 0), key=_id_key)
    side1 = sorted((g.ids[i] for i in range(g.n) if color[i] == 1), key=_id_key)
    return True, (side0, side1)


def _odd_cycle(g: WeightedGraph, par: list, u: int, v: int) -> list:
    """Cycle through edge (u, v) using the search-tree parent chains."""
    anc_u = [u]
    while par[anc_u[-1]] != -1:
        anc_u.append(par[anc_u[-1]])
    pos = {w: i for i, w in enumerate(anc_u)}
    path_v = [v]
    while path_v[-1] not in pos:
        path_v.append(par[path_v[-1]])
    lca = path_v[-1]
    cycle = anc_u[:pos[lca] + 1] + path_v[-2::-1]
    return [g.ids[w] for w in cycle]
