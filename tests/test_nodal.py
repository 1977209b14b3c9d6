"""Nodal bookkeeping: sign patterns, domain counting, the exact
sign-change identity, position bounds and bipartiteness."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import certify, diamond_graph, random_connected_graph
from plap.core import EigenpairCertificate, Operator, VertexFunction, WeightedGraph
from plap.nodal import (
    BoundReport,
    _slack,
    analyze,
    check_lower,
    check_upper,
    is_bipartite,
    nodal_domains,
    sign_pattern,
)
from plap.oracle import p2_spectrum
from plap.treespec import Spectrum, SpectrumEntry


def test_sign_pattern_band():
    g = WeightedGraph.unit(3, [(0, 1), (1, 2)])
    s, band = sign_pattern(g, VertexFunction([1.0, 1e-13, -0.5]))
    assert list(s) == [1, 0, -1]
    assert 0.0 < band < 1e-11
    s2, _ = sign_pattern(g, VertexFunction([1.0, 1e-11, -0.5]))
    assert list(s2) == [1, 1, -1]


def test_nodal_domains_hand_cases():
    p4 = WeightedGraph.unit(4, [(0, 1), (1, 2), (2, 3)])
    doms = nodal_domains(p4, VertexFunction([1.0, 1.0, -1.0, -1.0]))
    assert sorted(doms) == [(-1, [2, 3]), (1, [0, 1])]

    doms = nodal_domains(diamond_graph(), VertexFunction([1.0, 0.0, -1.0, 0.0]))
    assert sorted(doms) == [(-1, [3]), (1, [1])]


def test_analyze_frozen_diamond_counts():
    rep = analyze(diamond_graph(), VertexFunction([1.0, 0.0, -1.0, 0.0]))
    assert rep.nu == 2
    assert rep.z == 2
    assert rep.ez == 5
    assert rep.zeta == 0
    assert rep.l == 0
    assert rep.beta == 2
    assert rep.c == 2
    assert rep.beta_prime == 0


def test_analyze_counts_domain_cycles():
    """A cycle kept entirely inside one domain shows up in l."""
    g = WeightedGraph.unit(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    rep = analyze(g, VertexFunction([1.0, 1.0, 1.0, -1.0]))
    assert rep.nu == 2
    assert rep.l == 1
    assert rep.beta == 1
    assert rep.zeta == 1


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_sign_change_identity_recomputed(seed):
    """zeta = |E| - ez + z - |V| + nu - l, with every term recomputed here
    from scratch."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, n=rng.randint(2, 12))
    vals = [0.0 if rng.random() < 0.3 else rng.uniform(-1.0, 1.0)
            for _ in range(g.n)]
    f = VertexFunction(vals)
    rep = analyze(g, f)

    s = [0 if v == 0.0 else (1 if v > 0 else -1) for v in vals]
    zeta = sum(1 for i, j, _w in g.edges if s[i] * s[j] < 0)
    z = s.count(0)
    ez = sum(1 for i, j, _w in g.edges if s[i] == 0 or s[j] == 0)
    # same-sign components by label propagation
    labels = {}
    for start in range(g.n):
        if s[start] == 0 or start in labels:
            continue
        labels[start] = start
        stack = [start]
        while stack:
            u = stack.pop()
            for v, _w in g.adj[u]:
                if s[v] == s[u] and v not in labels:
                    labels[v] = start
                    stack.append(v)
    nu = len(set(labels.values()))
    l = 0
    for root in set(labels.values()):
        dom = {u for u, r in labels.items() if r == root}
        e_in = sum(1 for i, j, _w in g.edges if i in dom and j in dom)
        l += e_in - len(dom) + 1

    assert (rep.zeta, rep.z, rep.ez, rep.nu, rep.l) == (zeta, z, ez, nu, l)
    assert zeta == len(g.edges) - ez + z - g.n + nu - l


def test_bound_checks_on_diamond():
    H = Operator(diamond_graph(), 2.0)
    spec = p2_spectrum(H)
    cert = certify(H, 2.0, VertexFunction([1.0, 0.0, -1.0, 0.0]))
    ups = check_upper(H, cert, spec)
    assert [r.kind for r in ups] == ["nodal-upper", "eigenvalue-floor"]
    assert all(r.satisfied for r in ups)
    assert ups[0].bound == 2.0 and ups[0].observed == 2.0
    lows = check_lower(H, cert, spec)
    assert lows and all(r.satisfied for r in lows)
    kinds = {r.kind for r in lows}
    assert "nodal-lower-simple" in kinds
    assert "nodal-lower-combined" in kinds


def test_bound_checks_on_random_dense_eigenpairs():
    rng = random.Random(8)
    for _ in range(10):
        g = random_connected_graph(rng, n=rng.randint(3, 10))
        H = Operator(g, 2.0)
        spec = p2_spectrum(H)
        for e in spec.entries:
            for f in e.basis:
                cert = certify(H, e.value, f)
                assert all(r.satisfied for r in check_upper(H, cert, spec))
                assert all(r.satisfied for r in check_lower(H, cert, spec))


def _flat_upper(rep, flat, lam, sl):
    """check_upper's two reports read off the flat value list: k is the
    first 1-based position whose value exceeds lam + s."""
    k = next((i + 1 for i, v in enumerate(flat) if v > lam + sl), len(flat) + 1)
    floor_val = flat[rep.nu - 1]
    return [BoundReport("nodal-upper", float(k - 1), float(rep.nu),
                        rep.nu <= k - 1, k=k),
            BoundReport("eigenvalue-floor", floor_val, lam,
                        lam >= floor_val - sl, k=rep.nu)]


def _flat_lower(rep, flat, lam, sl):
    """check_lower's reports read off the flat value list: (k, m) are the
    first 1-based position and the count of the value nearest lam (the
    lowest of equally near ones), when that lies within s."""
    out, bounds = [], []
    k1 = sum(1 for v in flat if v < lam - sl)
    if k1 >= 1:
        b = k1 - rep.beta_prime + rep.l - rep.z + rep.c
        out.append(BoundReport("nodal-lower-simple", float(b), float(rep.nu),
                               rep.nu >= b, k=k1))
        bounds.append(b)
    near = min(flat, key=lambda v: abs(v - lam))
    k = m = None
    if abs(near - lam) <= sl:
        k, m = flat.index(near) + 1, flat.count(near)
    if k is not None and (k == 1 or flat[k - 2] < lam - sl):
        b = k + m - 1 - rep.beta_prime + rep.l - rep.z
        out.append(BoundReport("nodal-lower-variational", float(b),
                               float(rep.nu), rep.nu >= b, k=k, m=m))
        bounds.append(b)
    if bounds:
        out.append(BoundReport("nodal-lower-combined", float(max(bounds)),
                               float(rep.nu), rep.nu >= max(bounds)))
    return out


def test_bound_checks_match_the_flat_list_definitions():
    """Counted positions equal scanned positions when values sit exactly at
    lambda - s and lambda + s, one ulp either side, or carry multiplicity."""
    rng = random.Random(5)
    g = random_connected_graph(rng, n=8)
    H = Operator(g, 2.0)
    f = VertexFunction([1.0, -1.0, 0.0, 2.0, -0.5, 1.0, 0.0, -3.0])
    rep = analyze(g, f)
    checked = 0
    for lam in (-2.0, 0.25, 1.0, 3.0, 1e6):
        sl = _slack(lam)
        lo, hi = lam - sl, lam + sl
        cands = [lam - 1.0 - abs(lam), lo, math.nextafter(lo, -math.inf),
                 math.nextafter(lo, math.inf), lam, hi,
                 math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf),
                 lam + 1.0 + abs(lam)]
        for _ in range(60):
            vals = sorted(set(rng.sample(cands, rng.randint(1, 6))))
            cuts = sorted(rng.sample(range(1, g.n), len(vals) - 1))
            mults = [b - a for a, b in zip([0, *cuts], [*cuts, g.n])]
            spec = Spectrum(tuple(SpectrumEntry(v, m)
                                  for v, m in zip(vals, mults)))
            flat = spec.flat()
            cert = EigenpairCertificate(lam, f, 0.0, 1e-8)
            assert check_upper(H, cert, spec) == _flat_upper(rep, flat, lam, sl)
            assert check_lower(H, cert, spec) == _flat_lower(rep, flat, lam, sl)
            checked += max(mults) > 1
    assert checked > 100


def test_variational_rows_on_star():
    """The variational row gives lam's position k and multiplicity m in the
    star's spectrum 0, 1, 1, 4, and is absent where lam is no eigenvalue."""
    star = WeightedGraph.unit(4, [(0, 1), (0, 2), (0, 3)])
    H = Operator(star, 2.0)
    spec = p2_spectrum(H)
    f = VertexFunction([1.0, 1.0, 1.0, 1.0])

    def position(lam):
        cert = EigenpairCertificate(lam, f, 0.0, 1e-8)
        rows = [r for r in check_lower(H, cert, spec)
                if r.kind == "nodal-lower-variational"]
        return (rows[0].k, rows[0].m) if rows else None

    assert position(0.0) == (1, 1)
    assert position(1.0) == (2, 2)
    assert position(4.0) == (4, 1)
    assert position(2.5) is None


def test_bound_checks_input_guards():
    two = WeightedGraph.unit(4, [(0, 1), (2, 3)])
    H = Operator(two, 2.0)
    spec = p2_spectrum(H)
    cert = certify(H, 0.0, VertexFunction([1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        check_upper(H, cert, spec)

    g = WeightedGraph.unit(2, [(0, 1)])
    Hg = Operator(g, 2.0)
    sp = p2_spectrum(Hg)
    zero = EigenpairCertificate(0.0, VertexFunction([0.0, 0.0]), 0.0, 1e-8)
    with pytest.raises(ValueError):
        check_upper(Hg, zero, sp)


def test_is_bipartite_witnesses():
    ok, sides = is_bipartite(WeightedGraph.unit(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert ok
    assert sorted(sides[0] + sides[1]) == [0, 1, 2, 3]
    for u, v, _w in WeightedGraph.unit(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).edges:
        assert (u in sides[0]) != (v in sides[0])

    g = WeightedGraph.unit(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    ok, cycle = is_bipartite(g)
    assert not ok
    assert len(cycle) % 2 == 1
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert g.has_edge(a, b)


def test_trees_are_bipartite():
    rng = random.Random(14)
    for _ in range(5):
        n = rng.randint(2, 10)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        ok, sides = is_bipartite(WeightedGraph.unit(n, edges))
        assert ok
        assert len(sides[0]) + len(sides[1]) == n
