"""Dense reference spectra for the linear (p = 2) case.

At p = 2 the operator is an honest symmetric matrix problem: conjugating
the weighted Laplacian plus potential by the inverse square root of the
vertex measure gives a symmetric matrix whose eigenvalues are the operator's
spectrum and whose eigenvectors pull back to eigenfunctions. The
eigensolver is LAPACK's symmetric solver through numpy, so the reference
path shares no code with the tree machinery it is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (FLOAT_RANGE, Operator, VertexFunction, WeightedGraph,
                   p_normalized_rows)
from .treespec import Spectrum, SpectrumEntry, cluster_tagged

#: Two eigenvalues within ORACLE_CLUSTER_REL * max(1, |value|) of each other
#: are reported as one multiple eigenvalue.
ORACLE_CLUSTER_REL = 1e-8

#: Refuse dense work beyond this many vertices.
MAX_DENSE_N = 512

#: The error of an `assemble_p2` entry outside the float range.
_LEAVES = f"the p = 2 matrix leaves {FLOAT_RANGE}"


@dataclass(frozen=True)
class SymmetricMatrix:
    """A real symmetric matrix, validated on construction."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
        if a.size and float(np.max(np.abs(a - a.T))) > 1e-14 * scale:
            raise ValueError("matrix must be symmetric")
        a = 0.5 * a + 0.5 * a.T  # exact halves: no overflow above half the range
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def n(self) -> int:
        return self.data.shape[0]


def assemble_p2(H: Operator) -> SymmetricMatrix:
    """Symmetrized matrix of a p = 2 operator:
    D_rho^{-1/2} (L_omega + diag(kappa)) D_rho^{-1/2}. An entry outside
    the float range raises ArithmeticError."""
    if H.p != 2.0:
        raise ValueError("the dense route only covers p = 2")
    g = H.graph
    n = g.n
    if n > MAX_DENSE_N:
        raise ValueError(f"dense route capped at {MAX_DENSE_N} vertices")
    a = np.diag(g.kappa.astype(float))
    # endpoints interleaved (u0, v0, u1, v1, ...) so that every diagonal
    # entry sums its edge weights in edge order
    ends = np.column_stack((g._eu, g._ev)).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(a, (ends, ends), np.repeat(g._ew, 2))
        a[g._eu, g._ev] = -g._ew  # a simple graph: each pair appears once
        a[g._ev, g._eu] = -g._ew
        d = 1.0 / np.sqrt(g.rho)
        a = a * d[:, None] * d[None, :]
    if not np.all(np.isfinite(a)):
        raise ArithmeticError(_LEAVES)
    return SymmetricMatrix(a)


def eig_sym(M: SymmetricMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition by LAPACK (``numpy.linalg.eigh``).

    Returns (w, V) with w ascending and V's columns the matching
    orthonormal eigenvectors.
    """
    return np.linalg.eigh(M.data)


def p2_spectrum(H: Operator, bases: bool = True) -> Spectrum:
    """Clustered p = 2 spectrum, with orthogonal-route eigenfunctions when
    ``bases`` is true: `matrix_spectrum` of the operator's `assemble_p2`
    matrix."""
    return matrix_spectrum(assemble_p2(H), H.graph.rho, bases)


def matrix_spectrum(m: SymmetricMatrix, rho, bases: bool) -> Spectrum:
    """Clustered spectrum of a p = 2 operator from its `assemble_p2` matrix
    ``m`` and its vertex measures ``rho``.

    With ``bases``, eigenvectors of ``m`` are pulled back through
    D_rho^{-1/2} and normalized to unit 2-norm with the usual sign
    convention, all as one block (`core.p_normalized_rows`); without it
    the eigenvalues come from ``numpy.linalg.eigvalsh`` and no eigenvector
    is computed.
    Nearby eigenvalues merge per ORACLE_CLUSTER_REL.
    """
    if not bases:
        return _clustered(np.linalg.eigvalsh(m.data))
    w, v = eig_sym(m)
    d = 1.0 / np.sqrt(rho)
    rows = p_normalized_rows(v.T * d, 2.0)
    return _clustered(w, [VertexFunction(x) for x in rows])


class ValueCount:
    """Eigenvalue counter of the symmetric array ``a`` from the ascending
    values of ``numpy.linalg.eigvalsh``, unclustered: no eigenvector, no
    `Spectrum`. It counts as `treespec.ForestCount` does, and answers a
    whole list of thresholds with one ``searchsorted``."""

    def __init__(self, a: np.ndarray):
        self.values = np.linalg.eigvalsh(a)
        self.total = len(self.values)

    @classmethod
    def each(cls, arrays: list) -> list:
        """Per item of ``arrays``, the `ValueCount` of the array, or the
        item itself where it is the exception that building the array
        raised. The arrays, all of one shape, go to one ``eigvalsh`` call
        as a stack, whose values are those of one call per array to the
        bit; where the stack raises LinAlgError, every array is counted
        alone and one that raises has its LinAlgError in its place."""
        built = [a for a in arrays if not isinstance(a, Exception)]
        try:
            rows = iter(np.linalg.eigvalsh(np.stack(built)) if built else ())
        except np.linalg.LinAlgError:
            return [a if isinstance(a, Exception) else _counted(a) for a in arrays]
        counts = []
        for a in arrays:
            if isinstance(a, Exception):
                counts.append(a)
                continue
            count = cls.__new__(cls)
            count.values = next(rows)
            count.total = len(count.values)
            counts.append(count)
        return counts

    def counts_below(self, xs) -> list:
        """#{values < x} at every threshold of ``xs``."""
        return np.searchsorted(self.values, xs).tolist()


def _counted(a: np.ndarray):
    """``ValueCount(a)``, or the LinAlgError that raises."""
    try:
        return ValueCount(a)
    except np.linalg.LinAlgError as exc:
        return exc


def _clustered(w, funcs=None) -> Spectrum:
    """The ascending eigenvalues ``w`` as a Spectrum, values within
    ORACLE_CLUSTER_REL merged into one entry; with ``funcs`` every entry
    carries the functions of its values as its basis."""
    tagged = [(float(w[i]), i) for i in range(len(w))]
    entries = []
    for center, _vals, idxs in cluster_tagged(tagged, ORACLE_CLUSTER_REL):
        basis = tuple(funcs[i] for i in idxs) if funcs is not None else None
        entries.append(SpectrumEntry(center, len(idxs), basis))
    spec = Spectrum(tuple(entries))
    if spec.total != len(w):
        raise AssertionError("dense spectrum lost multiplicity")
    return spec


def p2_diagonal(g: WeightedGraph, i: int, kappa_i: float, skip: int) -> float:
    """Diagonal entry of dense index ``i`` in the `assemble_p2` matrix of
    ``g`` with the potential ``kappa_i`` at i and without i's edge to dense
    index ``skip``, to the bit.

    The sum runs in `assemble_p2`'s order: the potential, then the other
    incident weights in edge order, then times d_i and d_i; the entry is
    then checked as `assemble_p2` checks it, so an entry outside the float
    range raises its ArithmeticError, and symmetrized as `SymmetricMatrix`
    does.
    """
    x = kappa_i
    for j, w in g.adj[i]:
        if j != skip:
            x += w
    d = 1.0 / math.sqrt(g.rho[i])
    x = x * d * d
    if not math.isfinite(x):
        raise ArithmeticError(_LEAVES)
    return 0.5 * x + 0.5 * x

