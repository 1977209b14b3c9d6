"""Core behavior: the odd power map, graph validation, operator
application, Rayleigh quotients, residuals, the sign gadget and the
smallest eigenpair."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (certify, diamond_graph, diamond_pairs, disjoint_union,
                      random_connected_graph)
from plap import core
from plap.cli import gen_graph
from plap.core import (
    MAX_DESCENT_STEPS,
    P_MIN,
    _apply_values,
    _defect,
    _newton_polish,
    _phi_arr,
    _vertex_bounds,
    EigenpairCertificate,
    Operator,
    VertexFunction,
    WeightedGraph,
    apply,
    connected_components,
    first_eigenpair,
    induced_subgraph,
    is_forest,
    p_normalized,
    p_normalized_rows,
    phi,
    phi_inv,
    rayleigh,
    residual,
    residuals,
    spectral_bound,
    technical_R,
)
from plap.oracle import p2_spectrum
from plap.treespec import tree_eigenpairs


def test_phi_known_values():
    assert phi(0.0, 3.0) == 0.0
    assert phi(1.0, 7.0) == 1.0
    assert phi(-1.0, 7.0) == -1.0
    assert phi(2.0, 3.0) == 4.0
    assert phi(-2.0, 3.0) == -4.0
    assert phi(4.0, 1.5) == 2.0
    for x in (-3.25, -1e-8, 0.0, 0.7, 12.0):
        assert phi(x, 2.0) == x  # p = 2 is the identity


def test_phi_is_odd():
    for p in (1.2, 2.0, 3.7):
        for x in (0.5, 1.0, 2.0, 17.3):
            assert phi(-x, p) == -phi(x, p)
            assert phi_inv(-x, p) == -phi_inv(x, p)


def test_phi_rejects_bad_exponents():
    for bad in (1.0, 0.5, -2.0, math.nan, math.inf, P_MIN - 1e-6):
        with pytest.raises(ValueError):
            phi(1.0, bad)
        with pytest.raises(ValueError):
            phi_inv(1.0, bad)


@given(x=st.floats(min_value=1e-6, max_value=1e6),
       sign=st.sampled_from([-1.0, 1.0]),
       p=st.sampled_from([1.1, 1.5, 2.0, 3.0, 7.0]))
def test_phi_roundtrip(x, sign, p):
    """phi_inv undoes phi to high relative accuracy on a wide range."""
    v = sign * x
    assert math.isclose(phi_inv(phi(v, p), p), v, rel_tol=1e-12)


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph([], [])
    with pytest.raises(ValueError):
        WeightedGraph([(0, 1.0, 0.0), (0, 1.0, 0.0)], [])
    with pytest.raises(ValueError):
        WeightedGraph([(True, 1.0, 0.0)], [])
    with pytest.raises(ValueError):
        WeightedGraph([(0, 0.0, 0.0)], [])
    with pytest.raises(ValueError):
        WeightedGraph([(0, -1.0, 0.0)], [])
    with pytest.raises(ValueError):
        WeightedGraph([(0, 1.0, math.inf)], [])
    with pytest.raises(ValueError):
        WeightedGraph([(0, 1.0, 0.0)], [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph([(0, 1.0, 0.0), (1, 1.0, 0.0)],
                      [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        WeightedGraph([(0, 1.0, 0.0), (1, 1.0, 0.0)], [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph([(0, 1.0, 0.0), (1, 1.0, 0.0)], [(0, 1, -1.0)])


def test_operator_rejects_small_p():
    g = WeightedGraph.unit(2, [(0, 1)])
    with pytest.raises(ValueError):
        Operator(g, 1.0005)
    with pytest.raises(ValueError):
        Operator(g, math.nan)


def test_unit_graph_and_components():
    g = WeightedGraph.unit(5, [(0, 1), (1, 2), (3, 4)])
    assert g.n == 5
    assert list(g.rho) == [1.0] * 5
    assert list(g.kappa) == [0.0] * 5
    comps = sorted(sorted(c) for c in connected_components(g))
    assert comps == [[0, 1, 2], [3, 4]]
    assert is_forest(g)
    assert not is_forest(WeightedGraph.unit(3, [(0, 1), (1, 2), (2, 0)]))


def test_induced_subgraph_applies_kappa_delta():
    g = WeightedGraph([(i, 1.0, 0.5) for i in range(4)],
                      [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0)])
    sub = induced_subgraph(g, [1, 2], kappa_delta={1: 2.0})
    assert sub.ids == (1, 2)
    assert sub.kappa[0] == 2.5
    assert sub.kappa[1] == 0.5
    assert sub.edge_triples() == [(1, 2, 3.0)]


def test_vertex_function_mapping_roundtrip():
    g = WeightedGraph.unit(3, [(0, 1), (1, 2)])
    f = VertexFunction.from_mapping(g, {0: 1.0, 1: -2.0, 2: 0.25})
    assert f.as_mapping(g) == {0: 1.0, 1: -2.0, 2: 0.25}
    with pytest.raises(ValueError):
        VertexFunction.from_mapping(g, {0: 1.0, 1: 2.0})
    with pytest.raises(ValueError):
        VertexFunction([1.0, math.nan, 0.0])
    with pytest.raises(ValueError):
        VertexFunction([[1.0, 2.0]])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_apply_single_edge(p):
    g = WeightedGraph.unit(2, [(0, 1)])
    out = apply(Operator(g, p), VertexFunction([1.0, -1.0])).values
    assert math.isclose(out[0], 2.0 ** (p - 1.0), rel_tol=1e-14)
    assert out[1] == -out[0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([1.2, 2.0, 3.7]))
def test_apply_edge_terms_cancel_in_total(seed, p):
    """Each edge contributes opposite terms to its endpoints, so the sum
    of (H f) over all vertices is exactly the potential part."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, n=rng.randint(2, 10))
    H = Operator(g, p)
    x = np.array([rng.uniform(-2.0, 2.0) for _ in range(g.n)])
    out = apply(H, VertexFunction(x)).values
    pot = sum(g.kappa[i] * phi(float(x[i]), p) for i in range(g.n))
    scale = float(np.sum(np.abs(out))) + 1.0
    assert abs(float(np.sum(out)) - pot) <= 1e-12 * scale


# The operator kernel and the descent as first written, with np.add.at and
# the np.sum / np.max wrappers, and the descent's Newton probes. The lean
# kernel in plap.core does the same float operations in the same order, so
# it must agree bit for bit.

def _ref_phi(x, p):
    return np.sign(x) * np.abs(x) ** (p - 1.0)


def _ref_apply_values(H, x, *_reuse):
    """(H x): kappa phi(x), then the edge heads, then the edge tails; it
    recomputes what a caller passes for reuse, and takes a block of
    functions row by row."""
    if x.ndim == 2:
        return np.array([_ref_apply_values(H, row) for row in x])
    g = H.graph
    d = _ref_phi(x[g._eu] - x[g._ev], H.p)
    out = g.kappa * _ref_phi(x, H.p)
    np.add.at(out, g._eu, g._ew * d)
    np.add.at(out, g._ev, -(g._ew * d))
    return out


def _ref_rayleigh_raw(g, p, x, *_reuse):
    absxp = np.abs(x) ** p
    num = float(np.sum(g._ew * np.abs(x[g._eu] - x[g._ev]) ** p)
                + np.sum(g.kappa * absxp))
    den = float(np.sum(g.rho * absxp))
    return num / den


def _ref_descend(H, x, lam, tol, budget):
    g = H.graph
    p = H.p
    step = 1.0
    res = math.inf
    best_res = math.inf
    since_improved = 0
    used = 0
    probe_at = 100
    while used < budget:
        used += 1
        grad = _ref_apply_values(H, x) - lam * g.rho * _ref_phi(x, p)
        res = float(np.max(np.abs(grad)))
        if res <= tol:
            break
        if used == probe_at:
            probe_at *= 2
            xn, ln, rn = _newton_polish(H, x, lam, tol)
            if rn <= tol and np.min(xn) > 0.0:
                return xn, ln, rn, used
        if res < 0.9999 * best_res:
            best_res = res
            since_improved = 0
        else:
            since_improved += 1
            if since_improved > (3000 if res > 1e-6 else 400):
                break
        slack = 1e-14 * max(1.0, abs(lam))
        accepted = False
        s = step
        while s >= 1e-18:
            y = np.abs(x - s * grad)
            ny = float(np.sum(y ** p)) ** (1.0 / p)
            if ny > 0.0:
                y = y / ny
                ly = _ref_rayleigh_raw(g, p, y)
                if ly <= lam + slack:
                    x, lam = y, ly
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            break
        step = min(s * 2.0, 1e6)
    return x, lam, res, used


@pytest.mark.parametrize("p", [1.2, 2.0, 3.0])
def test_apply_values_matches_the_add_at_reference(p):
    """Entrywise equal on 60 seeded graphs with signed potentials and an
    isolated vertex, at vectors with zeros and ties; a stale scratch buffer
    changes nothing. The spectral bound's degrees scatter the same way."""
    rng = random.Random(1200)
    lone = WeightedGraph([(0, 0.7, -0.4)], [])
    for _ in range(60):
        g = disjoint_union(random_connected_graph(rng, n=rng.randint(2, 12)),
                           lone)
        H = Operator(g, p)
        x = np.array([rng.choice([0.0, 0.5, -1.0, rng.uniform(-2.0, 2.0)])
                      for _ in range(g.n)])
        want = _ref_apply_values(H, x)
        stale = np.full(g.n + 2 * len(g.edges), np.nan)
        for got in (_apply_values(H, x), apply(H, VertexFunction(x)).values,
                    _apply_values(H, x, _phi_arr(x, p), stale)):
            assert np.array_equal(got, want)
        deg = np.zeros(g.n)
        np.add.at(deg, g._eu, g._ew)
        np.add.at(deg, g._ev, g._ew)
        bounds = (2.0 ** (p - 1.0)) * deg / g.rho + np.abs(g.kappa) / g.rho
        assert np.array_equal(_vertex_bounds(H), bounds)


def _first_eigenpair_outcome(H):
    try:
        cert = first_eigenpair(H)
    except RuntimeError as exc:
        return str(exc)
    return cert.eigenvalue, cert.function.values.tobytes(), cert.residual


#: (kind, n, seed, p): fast converging graphs and cycles, and one stall
_IDENTITY_CASES = [("graph", 4, 3, 1.2), ("graph", 5, 2, 1.2),
                   ("cycle", 4, 1, 1.2), ("cycle", 6, 0, 1.2),
                   ("graph", 6, 4, 1.2), ("graph", 8, 5, 3.0),
                   ("graph", 6, 2, 3.0), ("cycle", 8, 5, 3.0),
                   ("cycle", 6, 1, 3.0)]


def test_first_eigenpair_matches_the_add_at_descent(monkeypatch):
    """Eigenvalue, function bytes and residual, or the error text, are those
    of the frozen descent and kernel, stall included."""
    stalls = 0
    for kind, n, seed, p in _IDENTITY_CASES:
        H = Operator(gen_graph(kind, n, random.Random(seed), weighted=True), p)
        got = _first_eigenpair_outcome(H)
        with monkeypatch.context() as m:
            m.setattr(core, "_apply_values", _ref_apply_values)
            m.setattr(core, "_rayleigh_raw", _ref_rayleigh_raw)
            m.setattr(core, "_descend", _ref_descend)
            want = _first_eigenpair_outcome(H)
        assert got == want, (kind, n, seed, p)
        stalls += isinstance(got, str)
    assert stalls == 1


def _enclosure_width(H, cert):
    """Half-width of the enclosure of lambda_1 that a positive certified pair
    (lam, f) gives: lambda_1 lies between the least and the greatest ratio
    (H f)(u) / (rho_u phi(f(u))) (Collatz-Wielandt, by Picone's identity
    below and by the Rayleigh quotient of f above), and each ratio lies
    within residual / (rho_u phi(f(u))) of lam."""
    f = cert.function.values
    return cert.residual / float(np.min(H.graph.rho * _phi_arr(f, H.p)))


def test_newton_probes_change_no_verdict(monkeypatch):
    """With and without the descent's Newton probes, a case that raises
    raises the same text, and a case that converges converges to the same
    first eigenvalue, within the enclosures both certificates give."""
    cases = _IDENTITY_CASES + [(kind, 10, 0, p) for kind in ("graph", "cycle")
                               for p in (1.2, 3.0)]
    def outcome(H):
        try:
            return first_eigenpair(H)
        except RuntimeError as exc:
            return str(exc)

    stalls = 0
    for kind, n, seed, p in cases:
        H = Operator(gen_graph(kind, n, random.Random(seed), weighted=True), p)
        got = outcome(H)
        with monkeypatch.context() as m:
            m.setattr(core, "_NEWTON_PROBE_STEP", MAX_DESCENT_STEPS + 1)
            want = outcome(H)
        if isinstance(want, str):
            assert got == want, (kind, n, seed, p)
            stalls += 1
            continue
        gap = abs(got.eigenvalue - want.eigenvalue)
        assert gap <= _enclosure_width(H, got) + _enclosure_width(H, want), (
            kind, n, seed, p)
    assert stalls == 2


def test_newton_probe_ends_a_slow_descent(monkeypatch):
    """A small graph at p = 1.2, on which the descent alone spends all
    MAX_DESCENT_STEPS before its Newton polish converges, converges at a
    probe within 200 steps."""
    steps = []
    descend = core._descend

    def counted(*args):
        out = descend(*args)
        steps.append(out[3])
        return out

    monkeypatch.setattr(core, "_descend", counted)
    g = gen_graph("graph", 5, random.Random(3), weighted=True)
    cert = first_eigenpair(Operator(g, 1.2))
    assert cert.valid and sum(steps) <= 200


def test_rayleigh_known_values():
    g2 = WeightedGraph.unit(2, [(0, 1)])
    for p in (1.5, 2.0, 3.0):
        H = Operator(g2, p)
        assert rayleigh(H, VertexFunction([1.0, 1.0])) == 0.0
        assert math.isclose(rayleigh(H, VertexFunction([1.0, -1.0])),
                            2.0 ** (p - 1.0), rel_tol=1e-14)
    lone = Operator(WeightedGraph([(0, 2.0, 1.3)], []), 3.0)
    assert math.isclose(rayleigh(lone, VertexFunction([5.0])), 0.65,
                        rel_tol=1e-14)
    with pytest.raises(ValueError):
        rayleigh(Operator(g2, 2.0), VertexFunction([0.0, 0.0]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       t=st.floats(min_value=1e-3, max_value=1e3),
       p=st.sampled_from([1.5, 2.0, 3.0]))
def test_rayleigh_scale_invariant(seed, t, p):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n=rng.randint(2, 8))
    H = Operator(g, p)
    x = np.array([rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
                  for _ in range(g.n)])
    a = rayleigh(H, VertexFunction(x))
    b = rayleigh(H, VertexFunction(t * x))
    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def test_p_normalized_contract():
    x = np.array([0.0, -3.0, 1.0])
    for p in (1.5, 2.0, 3.0):
        y = p_normalized(x, p)
        assert math.isclose(float(np.sum(np.abs(y) ** p)), 1.0,
                            rel_tol=1e-12)
        assert y[1] > 0  # first nonzero entry is made positive
    with pytest.raises(ValueError):
        p_normalized(np.zeros(3), 2.0)


def test_p_normalized_outside_the_normal_range():
    """Entries whose p-th powers overflow, underflow or turn subnormal
    normalize like their multiples, without a floating-point warning."""
    cases = [([1e200, -1e200], [1.0, -1.0]), ([1e-120, 1e-120], [1.0, 1.0]),
             ([1e-105, 3e-105], [1.0, 3.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, unit in cases:
            want = p_normalized(np.array(unit), 3.0)
            assert np.allclose(p_normalized(np.array(x), 3.0), want,
                               rtol=1e-15, atol=0.0)


def test_residual_certifies_and_rejects():
    g = diamond_graph()
    t = 2.0 ** 0.5
    f = VertexFunction([1.0, 0.0, 1.0, -t])
    lam = 1.0 + (1.0 + t) ** 2
    assert residual(Operator(g, 3.0), f, lam) < 1e-12
    # the flat function is not an eigenfunction for lambda = 1; after
    # 2-normalization its entries are exactly 1/2, so the defect is too
    one = VertexFunction([1.0, 1.0, 1.0, 1.0])
    assert residual(Operator(g, 2.0), one, 1.0) == 0.5
    with pytest.raises(ValueError):
        residual(Operator(g, 2.0), VertexFunction([1.0, 2.0]), 0.0)


def test_residual_is_scale_free_and_finite():
    """Scaling f changes nothing, also where sum |f|^p under- or overflows;
    a defect that overflows is a numerical failure, not a value."""
    g = diamond_graph()
    t = 2.0 ** 0.5
    base = np.array([1.0, 0.0, 1.0, -t])
    lam = 1.0 + (1.0 + t) ** 2
    H = Operator(g, 3.0)
    want = residual(H, VertexFunction(base), lam + 0.5)
    for c in (1e-120, 1e-300, 1e150, 1e300):
        assert math.isclose(residual(H, VertexFunction(c * base), lam + 0.5),
                            want, rel_tol=1e-12)
    heavy = Operator(WeightedGraph([(0, 1.0, 0.0), (1, 1.0, 0.0)],
                                   [(0, 1, 1e308)]), 3.0)
    with np.errstate(over="ignore"), pytest.raises(ArithmeticError):
        residual(heavy, VertexFunction([1.0, -1.0]), 0.0)


def _unit_by_rule(x: np.ndarray, p: float) -> np.ndarray:
    """The single-function p-normalization written out: scale by max|x|
    only where sum |x|^p leaves the normal float range, then divide by
    that sum to the power 1/p, taken in Python floats."""
    with np.errstate(over="ignore"):
        mass = float(np.sum(np.abs(x) ** p))
    if not np.finfo(float).tiny <= mass < math.inf:
        x = x / float(np.max(np.abs(x)))
        mass = float(np.sum(np.abs(x) ** p))
    return x / mass ** (1.0 / p)


def _basis_blocks():
    """(H, X, lams, far): every eigenfunction of tree-route eigenbases at
    p in {1.2, 1.5, 3} and of dense p = 2 bases as the rows of X, plus the
    first times 1e-300 and the last times 1e300, whose sums |x|^p leave
    the normal float range; ``far`` counts the rows that do."""
    ops = [Operator(gen_graph(kind, n, random.Random(n), weighted=True), p)
           for kind in ("tree", "path") for n in (6, 11) for p in (1.2, 1.5, 3.0)]
    ops += [Operator(gen_graph(kind, n, random.Random(n), weighted=True), 2.0)
            for kind in ("graph", "cycle") for n in (7, 12)]
    for H in ops:
        spec = p2_spectrum(H) if H.p == 2.0 else tree_eigenpairs(H)
        pairs = [(e.value, f.values) for e in spec.entries for f in e.basis]
        pairs += [(pairs[0][0], 1e-300 * pairs[0][1]),
                  (pairs[-1][0], 1e300 * pairs[-1][1])]
        X = np.array([x for _lam, x in pairs])
        with np.errstate(over="ignore"):
            mass = np.sum(np.abs(X) ** H.p, axis=1)
        far = int(np.sum(~((mass >= np.finfo(float).tiny) & (mass < math.inf))))
        yield H, X, [lam for lam, _x in pairs], far


def test_residuals_rows_equal_the_single_function_rule():
    """Every row of ``residuals`` is, to the bit, the ``residual`` of that
    function and the defect of its p-normalization by the written-out rule,
    also on rows scaled by max|x| first."""
    rows = far_rows = 0
    for H, X, lams, far in _basis_blocks():
        got = residuals(H, X, lams)
        for x, lam, r in zip(X, lams, got):
            assert r == residual(H, VertexFunction(x), lam)
            assert r == _defect(H, _unit_by_rule(x, H.p), lam)
        rows += len(X)
        far_rows += far
    assert rows > 150 and far_rows >= 30
    H = Operator(diamond_graph(), 2.0)
    with pytest.raises(ValueError):
        residuals(H, np.array([[1.0, 1.0, 1.0, 1.0], [0.0] * 4]), [0.0, 0.0])


def test_p_normalized_rows_equal_the_single_function_rule():
    """Every row of ``p_normalized_rows`` is, to the bit, ``p_normalized``
    of that row and the written-out rule with its first entry outside the
    zero band made positive."""
    for H, X, _lams, _far in _basis_blocks():
        for x, y in zip(-X, p_normalized_rows(-X, H.p)):
            want = _unit_by_rule(x, H.p)
            band = core.ZERO_BAND_REL * np.max(np.abs(want))
            if want[np.flatnonzero(np.abs(want) > band)[0]] < 0:
                want = -want
            assert y.tobytes() == want.tobytes()
            assert y.tobytes() == p_normalized(x, H.p).tobytes()


def test_newton_polish_keeps_other_components_at_zero():
    """At p > 2 a function that vanishes on a whole component has all-zero
    Newton rows there; the polish still sharpens it on its own component
    and leaves the other one at exactly zero."""
    g = WeightedGraph.unit(5, [(0, 1), (1, 2), (3, 4)])
    H = Operator(g, 3.0)
    # on the unit 3-path, (1, 0, -1) is an eigenfunction at lambda = 1
    f = np.array([1.0 + 1e-6, 0.0, -1.0, 0.0, 0.0])
    x, lam, res = _newton_polish(H, f, 1.0, 1e-14)
    assert res < 1e-12 and math.isclose(lam, 1.0, rel_tol=1e-9)
    assert x[3] == 0.0 and x[4] == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_diamond_closed_forms(p):
    """All five closed-form eigenpairs check out at tight tolerance."""
    H = Operator(diamond_graph(), p)
    for lam, vals in diamond_pairs(p):
        assert residual(H, VertexFunction(vals), lam) < 1e-12


def test_certificate_validity():
    g = WeightedGraph.unit(2, [(0, 1)])
    H = Operator(g, 2.0)
    f = VertexFunction([1.0, -1.0])
    good = certify(H, 2.0, f, tol=1e-10)
    assert good.valid
    bad = certify(H, 2.1, f, tol=1e-10)
    assert not bad.valid


def test_spectral_bound_values():
    assert spectral_bound(Operator(diamond_graph(), 2.0)) == 6.0
    lone = Operator(WeightedGraph([(0, 0.5, -2.0)], []), 3.0)
    assert spectral_bound(lone) == 4.0


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 5.5])
def test_technical_r_frozen_examples(p):
    assert technical_R(1.0, 2.0, 1.0, 2.0, p) == pytest.approx(0.0, abs=1e-15)
    assert math.isclose(technical_R(1.0, -1.0, 1.0, 0.0, p),
                        2.0 ** (p - 1.0) - 1.0, rel_tol=1e-13)
    assert math.isclose(technical_R(1.0, 1.0, 1.0, 3.0, p),
                        -(2.0 ** p), rel_tol=1e-13)
    with pytest.raises(ValueError):
        technical_R(0.0, 1.0, 1.0, 1.0, p)
    with pytest.raises(ValueError):
        technical_R(1.0, 0.0, 1.0, 1.0, p)


@settings(max_examples=300, deadline=None)
@given(a1=st.floats(min_value=0.01, max_value=10.0),
       a2=st.floats(min_value=0.01, max_value=10.0),
       s1=st.sampled_from([-1.0, 1.0]),
       s2=st.sampled_from([-1.0, 1.0]),
       b1=st.floats(min_value=-10.0, max_value=10.0),
       b2=st.floats(min_value=-10.0, max_value=10.0),
       p=st.floats(min_value=1.001, max_value=6.0))
def test_technical_r_sign_contract(a1, a2, s1, s2, b1, b2, p):
    """Opposite-sign alphas force R > 0, same-sign force R < 0, except on
    the proportional line beta parallel alpha where R vanishes."""
    a1, a2 = s1 * a1, s2 * a2
    cross = b1 * a2 - b2 * a1
    scale = max(abs(b1 * a2), abs(b2 * a1), 1e-30)
    if abs(cross) <= 1e-9 * scale:
        return  # too close to the proportional line to trust a strict sign
    r = technical_R(a1, a2, b1, b2, p)
    if a1 * a2 < 0:
        assert r > 0.0
    else:
        assert r < 0.0


def test_first_eigenpair_flat_without_potential():
    g = WeightedGraph.unit(5, [(i, i + 1) for i in range(4)])
    cert = first_eigenpair(Operator(g, 2.6), tol=1e-10)
    assert abs(cert.eigenvalue) <= 1e-10
    v = cert.function.values
    assert np.all(v > 0)
    assert math.isclose(float(v.max()), float(v.min()), rel_tol=1e-5)
    assert cert.valid


def test_first_eigenpair_single_vertex():
    cert = first_eigenpair(Operator(WeightedGraph([(0, 2.0, 1.3)], []), 1.7))
    assert math.isclose(cert.eigenvalue, 0.65, rel_tol=1e-9)
    assert cert.function.values[0] > 0


def test_first_eigenpair_matches_dense_route():
    rng = random.Random(11)
    for _ in range(6):
        g = random_connected_graph(rng, n=rng.randint(3, 9))
        H = Operator(g, 2.0)
        cert = first_eigenpair(H, tol=1e-10)
        lo = p2_spectrum(H).flat()[0]
        assert abs(cert.eigenvalue - lo) <= 1e-8 * max(1.0, abs(lo))


def test_first_eigenpair_stall_names_steps_and_floor():
    """A stall still raises, and says how many descent steps it used and
    how its defect compares with the float64 floor at the final iterate;
    at a defect/floor of 1 or less it says that it reached the floor."""
    g = gen_graph("graph", 6, random.Random(4), weighted=True)
    with pytest.raises(RuntimeError) as exc:
        first_eigenpair(Operator(g, 1.2))
    text = str(exc.value)
    assert text == (
        "first_eigenpair reached the float64 floor at defect 2.337e-07 "
        "(tol 1.000e-09) after "
        f"17246 of {MAX_DESCENT_STEPS} descent steps; float64 floor "
        "4.807e-07 at the final iterate, defect/floor 0.486")


def test_first_eigenpair_input_guards():
    g = WeightedGraph.unit(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        first_eigenpair(Operator(g, 2.0))
    with pytest.raises(ValueError):
        first_eigenpair(Operator(WeightedGraph.unit(2, [(0, 1)]), 2.0),
                        tol=0.0)
