"""Dense p = 2 reference route: matrix assembly, the LAPACK eigensolver
and pullback eigenfunctions."""

import random

import numpy as np
import pytest

from conftest import diamond_graph, random_connected_graph
from plap.cli import gen_graph
from plap.core import Operator, WeightedGraph, p_normalized, residual
from plap.oracle import (
    MAX_DENSE_N,
    SymmetricMatrix,
    assemble_p2,
    eig_sym,
    p2_spectrum,
)


def test_assemble_requires_p2():
    H = Operator(WeightedGraph.unit(2, [(0, 1)]), 3.0)
    with pytest.raises(ValueError):
        assemble_p2(H)


def test_assemble_matrix_entries():
    """The symmetrized matrix is D^(-1/2) (L + K) D^(-1/2) with D = diag(rho)."""
    g = WeightedGraph([(0, 1.0, 0.5), (1, 4.0, 0.0)], [(0, 1, 2.0)])
    m = assemble_p2(Operator(g, 2.0))
    want = np.array([[2.5, -1.0], [-1.0, 0.5]])
    assert np.allclose(m.data, want, atol=1e-15)


def _assemble_by_edges(H):
    """assemble_p2 written as one edge at a time."""
    g = H.graph
    a = np.diag(g.kappa.astype(float).copy())
    for i, j, w in g.edges:
        a[i, i] += w
        a[j, j] += w
        a[i, j] -= w
        a[j, i] -= w
    d = 1.0 / np.sqrt(g.rho)
    return SymmetricMatrix(a * d[:, None] * d[None, :]).data


def test_assemble_matches_the_per_edge_sum_bit_for_bit():
    rng = random.Random(23)
    for _ in range(60):
        kind = rng.choice(["graph", "tree", "cycle", "star", "path"])
        g = gen_graph(kind, rng.randint(3, 40), rng, weighted=True)
        H = Operator(g, 2.0)
        assert assemble_p2(H).data.tobytes() == _assemble_by_edges(H).tobytes()


def test_symmetric_matrix_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymmetricMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eigensolver_reconstructs_random_matrices():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 8, 13):
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2.0
        w, v = eig_sym(SymmetricMatrix(a))
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-12)


def test_dense_spectra_frozen_cases():
    path3 = WeightedGraph.unit(3, [(0, 1), (1, 2)])
    assert np.allclose(p2_spectrum(Operator(path3, 2.0)).flat(),
                       [0.0, 1.0, 3.0], atol=1e-10)

    spec = p2_spectrum(Operator(diamond_graph(), 2.0))
    assert np.allclose(spec.flat(), [0.0, 2.0, 4.0, 4.0], atol=1e-10)
    assert [e.mult for e in spec.entries] == [1, 1, 2]

    star = WeightedGraph.unit(4, [(0, 1), (0, 2), (0, 3)])
    assert np.allclose(p2_spectrum(Operator(star, 2.0)).flat(),
                       [0.0, 1.0, 1.0, 4.0], atol=1e-10)


def test_pullback_functions_are_eigenfunctions():
    rng = random.Random(5)
    for _ in range(15):
        g = random_connected_graph(rng)
        H = Operator(g, 2.0)
        spec = p2_spectrum(H)
        assert spec.total == g.n
        for e in spec.entries:
            assert len(e.basis) == e.mult
            for f in e.basis:
                assert residual(H, f, e.value) < 1e-9


def test_block_normalization_equals_p_normalized_per_column():
    """The eigenbasis of ``p2_spectrum``, normalized as one block, holds
    ``p_normalized`` of every pulled-back eigenvector column, to the bit."""
    for kind, n in (("graph", 12), ("cycle", 9), ("tree", 15), ("graph", 40)):
        H = Operator(gen_graph(kind, n, random.Random(n), weighted=True), 2.0)
        _w, v = eig_sym(assemble_p2(H))
        d = 1.0 / np.sqrt(H.graph.rho)
        funcs = [f for e in p2_spectrum(H).entries for f in e.basis]
        assert len(funcs) == n
        for idx, f in enumerate(funcs):
            assert f.values.tobytes() == p_normalized(d * v[:, idx], 2.0).tobytes()


def test_symmetrization_keeps_entries_above_half_the_range():
    """Halving before adding keeps a potential of 1e308 finite, and below
    half the range the halves give the bits of 0.5 * (a + a^T)."""
    m = SymmetricMatrix(np.array([[1e308, -1.0], [-1.0, 1.0]]))
    assert m.data[0, 0] == 1e308
    a = assemble_p2(Operator(gen_graph("graph", 9, random.Random(2),
                                       weighted=True), 2.0)).data
    assert SymmetricMatrix(a).data.tobytes() == (0.5 * (a + a.T)).tobytes()


def test_dense_size_guard():
    n = MAX_DENSE_N + 1
    big = WeightedGraph.unit(n, [(i, i + 1) for i in range(n - 1)])
    with pytest.raises(ValueError):
        p2_spectrum(Operator(big, 2.0))
