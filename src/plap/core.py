"""Data model and basic calculus for the generalized graph p-Laplacian.

A weighted graph carries edge weights omega > 0, vertex measures rho > 0 and
vertex potentials kappa of arbitrary sign. For an exponent p > 1 the operator
acts on a vertex function f as

    (H f)(u) = sum_{v ~ u} omega_uv * phi(f(u) - f(v), p) + kappa_u * phi(f(u), p)

where phi(x, p) = |x|^(p-2) x is the odd power map. An eigenpair (lam, f)
satisfies (H f)(u) = lam * rho_u * phi(f(u), p) at every vertex; equivalently,
f is a critical point of the Rayleigh quotient on the unit p-sphere. The
minimum of the quotient is attained at the first eigenpair, which
`first_eigenpair` computes by projected gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ._unionfind import UnionFind

#: Smallest accepted exponent; phi and its inverse degenerate as p -> 1.
P_MIN = 1.0 + 1e-3

#: Values within ZERO_BAND_REL * max|f| of zero count as vanishing.
ZERO_BAND_REL = 1e-12

#: The smallest normal float64.
_TINY = np.finfo(float).tiny

#: How a numerical failure names the range a value left.
FLOAT_RANGE = f"the float64 range (largest float {np.finfo(float).max:.6g})"

#: Gradient steps ``first_eigenpair`` may spend over all its descent rounds.
MAX_DESCENT_STEPS = 100_000

#: The descent step of a round at which ``_descend`` first tries Newton's
#: method on its iterate; it tries again at twice that step, and so on.
_NEWTON_PROBE_STEP = 100

VertexId = int | str


def _check_p(p) -> float:
    p = float(p)
    if not math.isfinite(p) or p < P_MIN:
        raise ValueError(f"exponent p must be finite and >= {P_MIN}, got {p}")
    return p


def phi(x: float, p: float) -> float:
    """Odd power map |x|^(p-2) x; exactly 0 at x = 0 for every p > 1."""
    _check_p(p)
    if x == 0.0:
        return 0.0
    return math.copysign(abs(x) ** (p - 1.0), x)


def phi_inv(y: float, p: float) -> float:
    """Inverse of ``phi``: sign(y) |y|^(1/(p-1))."""
    _check_p(p)
    if y == 0.0:
        return 0.0
    return math.copysign(abs(y) ** (1.0 / (p - 1.0)), y)


def _phi_arr(x: np.ndarray, p: float) -> np.ndarray:
    return np.sign(x) * np.abs(x) ** (p - 1.0)


class WeightedGraph:
    """Undirected simple graph with positive edge weights, positive vertex
    measures and signed vertex potentials.

    ``vertices`` is an iterable of (id, rho, kappa) triples, ``edges`` of
    (u, v, omega) triples referring to vertex ids. Ids may be ints or strings
    and are mapped to dense indices 0..N-1 in input order.
    """

    def __init__(self, vertices: Iterable, edges: Iterable):
        ids = []
        rho = []
        kappa = []
        index = {}
        for entry in vertices:
            vid, r, k = entry
            if not isinstance(vid, (int, str)) or isinstance(vid, bool):
                raise ValueError(f"vertex id must be int or str, got {vid!r}")
            if vid in index:
                raise ValueError(f"duplicate vertex id {vid!r}")
            r = float(r)
            k = float(k)
            if not math.isfinite(r) or r <= 0.0:
                raise ValueError(f"rho must be finite and positive at {vid!r}")
            if not math.isfinite(k):
                raise ValueError(f"kappa must be finite at {vid!r}")
            index[vid] = len(ids)
            ids.append(vid)
            rho.append(r)
            kappa.append(k)
        if not ids:
            raise ValueError("graph needs at least one vertex")

        n = len(ids)
        seen = set()
        dense_edges = []
        adj = [[] for _ in range(n)]
        for entry in edges:
            u, v, w = entry
            if u not in index or v not in index:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown vertex")
            iu, iv = index[u], index[v]
            if iu == iv:
                raise ValueError(f"self-loop at {u!r}")
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                raise ValueError(f"omega must be finite and positive on ({u!r}, {v!r})")
            key = (min(iu, iv), max(iu, iv))
            if key in seen:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            seen.add(key)
            dense_edges.append((key[0], key[1], w))
            adj[iu].append((iv, w))
            adj[iv].append((iu, w))

        self.ids = tuple(ids)
        self.rho = np.asarray(rho, dtype=np.float64)
        self.kappa = np.asarray(kappa, dtype=np.float64)
        self.rho.flags.writeable = False
        self.kappa.flags.writeable = False
        self.edges = tuple(dense_edges)
        self.adj = tuple(tuple(nbrs) for nbrs in adj)
        self._index = index
        # dense edge arrays for vectorized operator application
        self._eu = np.asarray([e[0] for e in dense_edges], dtype=np.intp)
        self._ev = np.asarray([e[1] for e in dense_edges], dtype=np.intp)
        self._ew = np.asarray([e[2] for e in dense_edges], dtype=np.float64)
        # the scatter plan of every per-vertex sum over edges: each vertex
        # once, then the edge heads, then the edge tails, in edge order
        self._plan = np.concatenate((np.arange(n), self._eu, self._ev))

    @classmethod
    def unit(cls, n: int, edges: Iterable) -> "WeightedGraph":
        """Graph on vertices 0..n-1 with rho = 1, kappa = 0 and omega = 1."""
        return cls([(i, 1.0, 0.0) for i in range(n)],
                   [(u, v, 1.0) for u, v in edges])

    @property
    def n(self) -> int:
        return len(self.ids)

    def index_of(self, vid: VertexId) -> int:
        try:
            return self._index[vid]
        except KeyError:
            raise ValueError(f"unknown vertex {vid!r}") from None

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        iu, iv = self.index_of(u), self.index_of(v)
        return any(j == iv for j, _ in self.adj[iu])

    def vertex_triples(self):
        """(id, rho, kappa) triples in internal order."""
        return [(self.ids[i], float(self.rho[i]), float(self.kappa[i]))
                for i in range(self.n)]

    def edge_triples(self):
        """(u_id, v_id, omega) triples in internal order."""
        return [(self.ids[i], self.ids[j], w) for i, j, w in self.edges]

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (sorted(self.vertex_triples(), key=lambda t: _id_key(t[0]))
                == sorted(other.vertex_triples(), key=lambda t: _id_key(t[0]))
                and _canonical_edges(self) == _canonical_edges(other))

    def __hash__(self):
        return object.__hash__(self)

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={len(self.edges)})"


def _id_key(vid):
    # ints sort before strings; mixed-type ids stay comparable
    return (isinstance(vid, str), vid)


def _canonical_edges(g: WeightedGraph):
    out = []
    for u, v, w in g.edge_triples():
        if _id_key(v) < _id_key(u):
            u, v = v, u
        out.append((u, v, w))
    return sorted(out, key=lambda t: (_id_key(t[0]), _id_key(t[1])))


def connected_components(g: WeightedGraph) -> list[list[int]]:
    """Vertex components as lists of dense indices, in first-seen order."""
    uf = UnionFind(g.n)
    for i, j, _ in g.edges:
        uf.union(i, j)
    return uf.groups()


def is_forest(g: WeightedGraph) -> bool:
    return len(g.edges) == g.n - len(connected_components(g))


def induced_subgraph(g: WeightedGraph, keep: Iterable[int],
                     kappa_delta: Mapping[int, float] | None = None) -> WeightedGraph:
    """Subgraph induced by the dense indices ``keep`` (original ids retained).

    ``kappa_delta`` maps dense indices of ``g`` to potential increments,
    applied to the surviving vertices.
    """
    keep = list(keep)
    keep_set = set(keep)
    delta = kappa_delta or {}
    vertices = [(g.ids[i], float(g.rho[i]), float(g.kappa[i]) + delta.get(i, 0.0))
                for i in keep]
    edges = [(g.ids[i], g.ids[j], w) for i, j, w in g.edges
             if i in keep_set and j in keep_set]
    return WeightedGraph(vertices, edges)


@dataclass(frozen=True)
class VertexFunction:
    """A real value per vertex, aligned with the graph's internal order."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("vertex function must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise ValueError("vertex function entries must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_mapping(cls, g: WeightedGraph, mapping: Mapping) -> "VertexFunction":
        missing = [vid for vid in g.ids if vid not in mapping]
        if missing:
            raise ValueError(f"function missing vertices: {missing!r}")
        return cls(np.asarray([float(mapping[vid]) for vid in g.ids]))

    def as_mapping(self, g: WeightedGraph) -> dict:
        if len(self.values) != g.n:
            raise ValueError("function/graph size mismatch")
        return {vid: float(x) for vid, x in zip(g.ids, self.values)}

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class Operator:
    """A weighted graph together with an exponent p > 1."""

    graph: WeightedGraph
    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_p(self.p))


@dataclass(frozen=True)
class EigenpairCertificate:
    """An eigenvalue, its eigenfunction and the achieved defect.

    ``residual`` is the max-norm of H f - lam rho phi(f) on the p-normalized
    function; the certificate counts as valid when residual <= tol.
    """

    eigenvalue: float
    function: VertexFunction
    residual: float
    tol: float

    @property
    def valid(self) -> bool:
        return self.residual <= self.tol


def _values_for(g: WeightedGraph, f: VertexFunction) -> np.ndarray:
    if len(f.values) != g.n:
        raise ValueError(f"function has {len(f.values)} entries, graph has {g.n}")
    return f.values


def _apply_values(H: Operator, x: np.ndarray, phix: np.ndarray | None = None,
                  buf: np.ndarray | None = None,
                  dx: np.ndarray | None = None) -> np.ndarray:
    """(H x)(u) at every vertex, for a float64 array in the graph's order,
    or for every row of a C-contiguous (K, n) block of such arrays.

    One ``bincount`` over the graph's scatter plan sums, at every vertex,
    kappa phi(x) first and then its edge terms in edge order, heads before
    tails; for a block the plan is shifted by n per row, so every row is
    summed as it is alone. ``phix`` is phi(x) and ``dx`` the edge
    differences x[eu] - x[ev] when the caller has them already; ``buf``, of
    length n + 2m, holds the scattered terms of one array when the caller
    reuses one; a block is always scattered afresh.
    """
    g = H.graph
    n = g.n
    mid = n + len(g._ew)
    if phix is None:
        phix = _phi_arr(x, H.p)
    if x.ndim == 2:
        k = len(x)
        buf = np.empty((k, len(g._plan)))
        dx = x[:, g._eu] - x[:, g._ev]
        np.multiply(g.kappa, phix, out=buf[:, :n])
        np.multiply(g._ew, _phi_arr(dx, H.p), out=buf[:, n:mid])
        np.negative(buf[:, n:mid], out=buf[:, mid:])
        plan = (g._plan + n * np.arange(k)[:, None]).ravel()
        return np.bincount(plan, buf.ravel(), k * n).reshape(k, n)
    if buf is None:
        buf = np.empty(len(g._plan))
    if dx is None:
        dx = x[g._eu] - x[g._ev]
    np.multiply(g.kappa, phix, out=buf[:n])
    np.multiply(g._ew, _phi_arr(dx, H.p), out=buf[n:mid])
    np.negative(buf[n:mid], out=buf[mid:])
    return np.bincount(g._plan, buf, n)


def _edge_sums(g: WeightedGraph, t: np.ndarray) -> np.ndarray:
    """sum_{v ~ u} t_uv at every vertex u for a per-edge array t, scattered
    like the edge terms of ``_apply_values``: heads, then tails."""
    return np.bincount(g._plan[g.n:], np.concatenate((t, t)), g.n)


def apply(H: Operator, f: VertexFunction) -> VertexFunction:
    """Evaluate (H f)(u) at every vertex."""
    return VertexFunction(_apply_values(H, _values_for(H.graph, f)))


def rayleigh(H: Operator, f: VertexFunction) -> float:
    """p-energy over p-mass; scale invariant, minimized by the first eigenpair."""
    g = H.graph
    x = _values_for(g, f)
    if not np.any(x):
        raise ValueError("Rayleigh quotient undefined for the zero function")
    return _rayleigh_raw(g, H.p, x, np.abs(x) ** H.p)


def _rayleigh_raw(g: WeightedGraph, p: float, x: np.ndarray,
                  absxp: np.ndarray, dx: np.ndarray | None = None) -> float:
    """The quotient of x, given absxp = |x|^p and, when the caller has
    them, the edge differences dx = x[eu] - x[ev]."""
    if dx is None:
        dx = x[g._eu] - x[g._ev]
    num = float(np.add.reduce(g._ew * np.abs(dx) ** p)
                + np.add.reduce(g.kappa * absxp))
    den = float(np.add.reduce(g.rho * absxp))
    return num / den


def _unit_p_rows(X: np.ndarray, p: float) -> np.ndarray:
    """Every row of the C-contiguous (K, n) block X, all rows nonzero,
    divided by its p-norm, sum |x|^p to the power 1/p (``np.float_power``,
    which rounds as Python's float power does); a row whose sum leaves the
    normal float range is scaled by its max|x| first, and only such a
    row. Reducing each contiguous row sums it as a single row is summed."""
    with np.errstate(over="ignore"):
        mass = np.sum(np.abs(X) ** p, axis=1)
    far = ~((mass >= _TINY) & (mass < math.inf))
    if far.any():
        X = X.copy()
        X[far] = X[far] / np.max(np.abs(X[far]), axis=1)[:, None]
        mass[far] = np.sum(np.abs(X[far]) ** p, axis=1)
    return X / np.float_power(mass, 1.0 / p)[:, None]


def p_normalized(x: np.ndarray, p: float) -> np.ndarray:
    """Scale to unit p-norm by the rule of ``residual`` and make the first
    entry outside the zero band positive: the one-row case of
    `p_normalized_rows`."""
    x = np.asarray(x, dtype=np.float64)
    if not np.any(x):
        raise ValueError("cannot normalize the zero function")
    return p_normalized_rows(x[None, :], p)[0]


def p_normalized_rows(X: np.ndarray, p: float) -> np.ndarray:
    """`p_normalized` of every row of the (K, n) block X, all rows
    nonzero, each to the bit of a single call."""
    Y = _unit_p_rows(np.ascontiguousarray(X, dtype=np.float64), p)
    a = np.abs(Y)
    first = (a > ZERO_BAND_REL * a.max(axis=1)[:, None]).argmax(axis=1)
    Y *= np.copysign(1.0, Y[np.arange(len(Y)), first])[:, None]  # exact
    return Y


def residual(H: Operator, f: VertexFunction, lam: float) -> float:
    """Max-norm defect of the eigenvalue equation on the p-normalized f:
    the one-row case of `residuals`."""
    x = _values_for(H.graph, f)
    return float(residuals(H, x[None, :], [lam])[0])


def residuals(H: Operator, X: np.ndarray, lams) -> np.ndarray:
    """`residual` of every row of the (K, n) block X at its eigenvalue in
    ``lams``, each to the bit of a single call.

    Every row is p-normalized by ``_unit_p_rows``, which scales a row by
    its max|x| only when its sum |x|^p leaves the normal float range: at
    p < 2 the defect moves with the last bit of every entry. One
    ``bincount`` applies H to all rows (`_apply_values`), each summed in
    the order of a single row. A zero row raises ValueError, and a defect
    that is not finite raises ArithmeticError, naming the first such
    row's.
    """
    g = H.graph
    n = g.n
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"functions of shape {X.shape}, graph has {n} vertices")
    if not np.all(np.any(X, axis=1)):
        raise ValueError("residual undefined for the zero function")
    Y = _unit_p_rows(X, H.p)
    phiy = _phi_arr(Y, H.p)
    hy = _apply_values(H, Y, phiy)
    lams = np.asarray(lams, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        r = np.max(np.abs(hy - lams[:, None] * g.rho * phiy), axis=1)
    bad = np.flatnonzero(~np.isfinite(r))
    if len(bad):
        raise ArithmeticError(
            f"eigen-equation defect is not finite: {float(r[bad[0]])}")
    return r


def spectral_bound(H: Operator) -> float:
    """Upper bound on |lam| over all eigenvalues of H.

    Evaluates max_u (2^(p-1) sum_{v~u} omega_uv / rho_u + |kappa_u| / rho_u);
    the eigenvalue equation at a vertex maximizing rho|f| forces every
    eigenvalue inside this range.
    """
    return float(np.max(_vertex_bounds(H)))


def _vertex_bounds(H: Operator) -> np.ndarray:
    """The terms of ``spectral_bound``, one per vertex; their maximum over a
    component, or a subtree with its parent edge absorbed, bounds its
    spectrum. A term past the float range reads inf, without a warning."""
    g = H.graph
    deg = _edge_sums(g, g._ew)
    with np.errstate(over="ignore"):
        return (2.0 ** (H.p - 1.0)) * deg / g.rho + np.abs(g.kappa) / g.rho


def technical_R(alpha1: float, alpha2: float, beta1: float, beta2: float,
                p: float) -> float:
    """Signed comparison form used when two eigen-equations are played against
    each other:

        R = (|b1|^p / phi(a1) - |b2|^p / phi(a2)) * phi(a1 - a2)
            - (b1 - b2) * phi(b1 - b2)

    R is positive when a2/a1 < 0 and negative when a2/a1 > 0, vanishing
    exactly when (b1, b2) is proportional to (a1, a2).
    """
    _check_p(p)
    if alpha1 == 0.0 or alpha2 == 0.0:
        raise ValueError("alpha values must be nonzero")
    lead = (abs(beta1) ** p / phi(alpha1, p)
            - abs(beta2) ** p / phi(alpha2, p)) * phi(alpha1 - alpha2, p)
    diff = beta1 - beta2
    return lead - diff * phi(diff, p)


@np.errstate(over="ignore", invalid="ignore")
def _defect(H: Operator, x: np.ndarray, lam: float) -> float:
    """max |H x - lam rho phi(x)|: inf or NaN, and no warning, where the
    terms leave the float range."""
    phix = _phi_arr(x, H.p)
    return float(np.maximum.reduce(
        np.abs(_apply_values(H, x, phix) - lam * H.graph.rho * phix)))


def _float_floor(H: Operator, x: np.ndarray) -> float:
    """Predicted float64 floor of the eigen-equation defect at x:
    max_u sum_{v ~ u} omega (p - 1) max(|x(u) - x(v)|, ulp)^(p - 2) ulp,
    with ulp the spacing of floats at max|x|. It is what rounding every
    entry of x by one ulp moves the edge terms by; at p < 2 it grows as
    neighbouring values draw together."""
    g = H.graph
    p = H.p
    ulp = float(np.spacing(np.maximum.reduce(np.abs(x))))
    gap = np.maximum(np.abs(x[g._eu] - x[g._ev]), ulp)
    t = g._ew * (p - 1.0) * gap ** (p - 2.0) * ulp
    return float(np.maximum.reduce(_edge_sums(g, t)))


def _descend(H: Operator, x: np.ndarray, lam: float, tol: float,
             budget: int) -> tuple[np.ndarray, float, float, int]:
    """Projected gradient descent on the Rayleigh quotient; entrywise
    absolute values keep the iterate in the positive cone, backtracking
    enforces non-increase. Returns when the defect reaches tol, stops
    improving, or the budget runs out.

    At steps ``_NEWTON_PROBE_STEP``, twice that, four times that, ... it
    also probes: ``_newton_polish`` from the current iterate. A probe that
    reaches tol with a strictly positive function returns that pair, which
    then belongs to the first eigenvalue; any other probe is discarded and
    leaves the descent as it was."""
    g = H.graph
    p = H.p
    inv_p = 1.0 / p
    buf = np.empty(len(g._plan))
    step = 1.0
    res = math.inf
    best_res = math.inf
    since_improved = 0
    used = 0
    probe_at = _NEWTON_PROBE_STEP
    dx = None  # x[eu] - x[ev], kept from the quotient of the accepted trial
    while used < budget:
        used += 1
        phix = _phi_arr(x, p)
        grad = _apply_values(H, x, phix, buf, dx) - lam * g.rho * phix
        res = float(np.maximum.reduce(np.abs(grad)))
        if res <= tol:
            break
        if used == probe_at:
            # Newton converges long before the descent's defect gets to tol:
            # at p < 2 the descent often never does
            probe_at *= 2
            xn, ln, rn = _newton_polish(H, x, lam, tol)
            if rn <= tol and np.min(xn) > 0.0:
                return xn, ln, rn, used
        # the quotient flattens to float resolution long before the defect
        # does, so progress is tracked on the defect itself
        if res < 0.9999 * best_res:
            best_res = res
            since_improved = 0
        else:
            since_improved += 1
            # more patience while far out; near the bottom the polish takes over
            if since_improved > (3000 if res > 1e-6 else 400):
                break
        slack = 1e-14 * max(1.0, abs(lam))
        accepted = False
        s = step
        while s >= 1e-18:
            y = np.abs(x - s * grad)
            ny = float(np.add.reduce(y ** p)) ** inv_p
            if ny > 0.0:
                y = y / ny
                dy = y[g._eu] - y[g._ev]
                ly = _rayleigh_raw(g, p, y, y ** p, dy)  # y >= 0: no abs
                if ly <= lam + slack:  # non-increase; the quotient is scale-free
                    x, lam, dx = y, ly, dy
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            break
        step = min(s * 2.0, 1e6)
    return x, lam, res, used


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _newton_polish(H: Operator, x: np.ndarray, lam: float,
                   tol: float) -> tuple[np.ndarray, float, float]:
    """Quadratic cleanup of an almost-converged eigenpair.

    Newton steps on the square system (eigen-equation, unit p-norm); the
    descent phase bottoms out at a defect around sqrt(machine-eps) because
    quotient differences vanish there, while Newton keeps full resolution.
    Near the ends of the float range the Jacobian and its equilibration
    overflow, silently: the solve then fails or gives a step that is not
    finite, and the polish stops with the best pair it has.
    """
    g = H.graph
    p = H.p
    n = g.n
    # the quotient only decreases toward the first eigenvalue, so any
    # stationary pair sitting noticeably above the entry value is wrong
    lam_cap = lam + 1e-6 * max(1.0, abs(lam))
    best = (x, lam, _defect(H, x, lam))
    # edge endpoints interleaved (u0, v0, u1, v1, ...) so that every
    # diagonal entry of the Jacobian sums its edge terms in edge order
    ends = np.column_stack((g._eu, g._ev)).ravel()
    for _ in range(50):
        absx = np.abs(x)
        wv = np.minimum(absx ** (p - 2.0), 1e18)
        we = np.minimum(np.abs(x[g._eu] - x[g._ev]) ** (p - 2.0), 1e18)
        a = np.zeros((n, n))
        diag = (g.kappa - lam * g.rho) * wv
        a[np.arange(n), np.arange(n)] = diag
        w = g._ew * we
        np.add.at(a, (ends, ends), np.repeat(w, 2))
        a[g._eu, g._ev] -= w  # no duplicate edges: each pair appears once
        a[g._ev, g._eu] -= w
        a *= p - 1.0
        phix = _phi_arr(x, p)
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = a
        jac[:n, n] = -g.rho * phix
        jac[n, :n] = phix
        rhs = np.empty(n + 1)
        rhs[:n] = _apply_values(H, x, phix) - lam * g.rho * phix
        rhs[n] = (float(np.sum(absx ** p)) - 1.0) / p
        # near-tied neighbor values make the system stiff for p < 2;
        # symmetric equilibration plus iterative refinement keeps the
        # step accurate anyway
        # at p > 2 a vertex vanishing with all its neighbours (say, on another
        # component of a forest) has a zero row, column and right-hand side:
        # its equation holds to first order, so a unit pivot keeps it still
        idle = np.flatnonzero(~jac.any(axis=1))
        jac[idle, idle] = 1.0
        dinv = 1.0 / np.sqrt(np.maximum(np.abs(jac).max(axis=1), 1e-30))
        js = jac * dinv[:, None] * dinv[None, :]
        try:
            delta = dinv * np.linalg.solve(js, -rhs * dinv)
            for _ref in range(2):
                corr = -rhs - jac @ delta
                delta = delta + dinv * np.linalg.solve(js, corr * dinv)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        improved = False
        scale = 1.0
        for _damp in range(12):
            xn = x + scale * delta[:n]
            ln = lam + scale * delta[n]
            if np.all(np.isfinite(xn)) and math.isfinite(ln) and ln <= lam_cap:
                rn = _defect(H, xn, ln)
                if rn < best[2]:
                    x, lam = xn, ln
                    best = (xn, ln, rn)
                    improved = True
                    break
            scale *= 0.5
        if not improved:
            break
        if best[2] <= 0.01 * tol:
            break
    return best


def first_eigenpair(H: Operator, tol: float = 1e-9) -> EigenpairCertificate:
    """Smallest eigenpair, by minimizing the Rayleigh quotient over the
    unit p-sphere.

    Projected gradient descent with entrywise absolute-value symmetrization
    (the quotient never increases under f -> |f|) and backtracking carries
    the iterate into the basin; a Newton polish on the eigen-system then
    drives the defect below tol. The descent tries that polish at steps
    100, 200, 400, ... of each round and returns as soon as it gives a
    strictly positive pair within tol, which belongs to the first
    eigenvalue; a probe that misses changes nothing, so every stall and
    its error text are those of the descent alone. Requires a connected
    graph; the returned eigenfunction is strictly positive with unit
    p-norm.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = H.graph
    if len(connected_components(g)) != 1:
        raise ValueError("first_eigenpair requires a connected graph")
    p = H.p
    n = g.n

    x = np.full(n, n ** (-1.0 / p))  # unit p-norm, strictly positive
    lam = _rayleigh_raw(g, p, x, np.abs(x) ** p)
    budget = MAX_DESCENT_STEPS
    res = math.inf
    for _round in range(3):
        x, lam, res, used = _descend(H, x, lam, tol, budget)
        budget -= used
        if res <= tol:
            break
        x, lam, res = _newton_polish(H, x, lam, tol)
        if res <= tol or budget <= 0:
            break
    if res > tol:
        floor = _float_floor(H, x)
        ratio = res / floor if floor > 0.0 else math.inf
        # at or below the floor no float64 iterate is expected to do better
        verb = "stalled" if ratio > 1.0 else "reached the float64 floor"
        raise RuntimeError(
            f"first_eigenpair {verb} at defect {res:.3e} (tol {tol:.3e}) "
            f"after {MAX_DESCENT_STEPS - budget} of {MAX_DESCENT_STEPS} "
            f"descent steps; float64 floor {floor:.3e} at the final iterate, "
            f"defect/floor {ratio:.3g}")

    x = p_normalized(x, p)
    res = residual(H, VertexFunction(x), lam)
    if res > tol:
        raise RuntimeError("defect regressed under final normalization")
    if np.min(x) <= 0.0:
        raise RuntimeError("first eigenfunction failed strict positivity")
    return EigenpairCertificate(eigenvalue=lam, function=VertexFunction(x),
                                residual=res, tol=tol)
