"""Shared builders: the worked 4-vertex example with its closed-form
spectrum, and seeded random graph corpora."""

import decimal

from plap import oracle, treespec
from plap.cli import gen_graph
from plap.core import EigenpairCertificate, WeightedGraph, residual


def diamond_graph() -> WeightedGraph:
    """Unit 4-cycle 1-2-3-4 with a (2, 4) chord.

    Every eigenpair of this graph has a closed form for every p, which
    makes it the workhorse fixture for exactness checks.
    """
    vertices = [(i, 1.0, 0.0) for i in (1, 2, 3, 4)]
    edges = [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0), (2, 4, 1.0)]
    return WeightedGraph(vertices, edges)


def diamond_pairs(p: float):
    """All five (eigenvalue, values on vertices 1..4) pairs of the diamond.

    The list covers the whole spectrum: the flat ground state, the two
    chord-symmetric pairs, the fully alternating top, and the asymmetric
    pair whose value involves 2^(1/(p-1)).
    """
    t = 2.0 ** (1.0 / (p - 1.0))
    return [
        (0.0, [1.0, 1.0, 1.0, 1.0]),
        (2.0, [1.0, 0.0, -1.0, 0.0]),
        (2.0 + 2.0 ** (p - 1.0), [0.0, 1.0, 0.0, -1.0]),
        (2.0 ** p, [1.0, -1.0, 1.0, -1.0]),
        (1.0 + (1.0 + t) ** (p - 1.0), [1.0, 0.0, 1.0, -t]),
    ]


def certify(H, lam, f, tol=1e-8):
    """Certificate carrying the measured residual of (lam, f)."""
    return EigenpairCertificate(lam, f, residual(H, f, lam), tol)


def random_tree(rng, n=None, weighted=True):
    n = n if n is not None else rng.randint(2, 12)
    return gen_graph("tree", n, rng, weighted=weighted)


def random_connected_graph(rng, n=None, weighted=True):
    n = n if n is not None else rng.randint(4, 12)
    return gen_graph("graph", n, rng, weighted=weighted)


def disjoint_union(*graphs):
    """The graphs side by side, their vertices relabeled 0..N-1 in order."""
    verts, edges, base = [], [], 0
    for t in graphs:
        verts += [(base + i, float(t.rho[i]), float(t.kappa[i]))
                  for i in range(t.n)]
        edges += [(base + u, base + v, w) for u, v, w in t.edges]
        base += t.n
    return WeightedGraph(verts, edges)


def random_forest(rng):
    """One random weighted tree (70%) or a forest of 2-3 smaller trees."""
    r = rng.random()
    m = 1 if r < 0.7 else (2 if r < 0.9 else 3)
    trees = []
    for _ in range(m):
        n = rng.randint(2, 12) if m == 1 else rng.randint(2, 6)
        trees.append(gen_graph("tree", n, rng, weighted=True))
    return disjoint_union(*trees)


def copy_forest(rng, copies):
    """``copies`` disjoint copies of one random weighted tree, so every
    eigenvalue is shared by all components."""
    t = gen_graph("tree", rng.randint(2, 5), rng, weighted=True)
    return disjoint_union(*[t] * copies)


def count_slices(monkeypatch):
    """List that grows by the number of vertices sliced (one component) at
    every call of the slicing routine, ``treespec._slice``, while
    ``monkeypatch`` is active."""
    sliced = []
    inner = treespec._slice

    def counted(T, H, order):
        sliced.append(len(order))
        return inner(T, H, order)

    monkeypatch.setattr(treespec, "_slice", counted)
    return sliced


def count_eigh(monkeypatch):
    """List that grows by the matrix size at every call of the dense
    eigendecomposition, ``oracle.eig_sym``, while ``monkeypatch`` is
    active."""
    solved = []
    inner = oracle.eig_sym

    def counted(M):
        solved.append(M.n)
        return inner(M)

    monkeypatch.setattr(oracle, "eig_sym", counted)
    return solved


def decimal_count(g: WeightedGraph, p: float, lam: float, root: int = 0) -> int:
    """#{eigenvalues < lam} of the forest operator of ``g`` at exponent p by
    the g recursion in 50-digit decimal arithmetic, written here from its
    definition and independent of plap's floats: every component hangs
    from a virtual parent by a unit edge, from ``root`` in its own and from
    its smallest vertex in the others, and the count is the number of
    vertices whose g is negative. The inputs are read exactly. A child's
    exact zero makes its parent's g a pole, which counts as negative and
    adds the term of g = infinity, omega, to the grandparent."""
    return _decimal_pass(g, p, lam, root)[0]


def _decimal_pass(g: WeightedGraph, p: float, lam, root: int) -> tuple:
    """(count, g values, parents, breadth-first order) of `decimal_count`'s
    recursion at lam (a float or a Decimal): g[u] is None at a pole, and a
    root's parent is -1."""
    with decimal.localcontext(decimal.Context(prec=50)):
        D = decimal.Decimal
        pm1 = D(p) - 1
        inv = 1 / pm1

        def phi(x, e):  # sign(x) |x| ** e, through sqrt where e = 1/2
            m = abs(x)
            m = m.sqrt() if e == D("0.5") else m ** e if m else m
            return m if x >= 0 else -m

        adj = [[] for _ in range(g.n)]
        for u, v, w in g.edges:
            adj[u].append((v, D(w)))
            adj[v].append((u, D(w)))
        lam = D(lam)
        parent = [None] * g.n
        values, visited = {}, []
        count = 0
        for r in (root, *range(g.n)):
            if parent[r] is not None:
                continue
            parent[r], order, weight = -1, [r], {r: D(1)}
            for u in order:  # grows while it is read: breadth first
                for v, w in adj[u]:
                    if parent[v] is None:
                        parent[v], weight[v] = u, w
                        order.append(v)
            visited += order
            acc = {u: D(float(g.kappa[u])) - D(float(g.rho[u])) * lam
                   - (1 if u == r else 0) for u in order}
            pole = set()
            for u in reversed(order):  # children first
                if u in pole:
                    gu = None
                else:
                    gu = 1 + phi(acc[u] / weight[u], inv)
                values[u] = gu
                if gu is None or gu < 0:
                    count += 1
                if u == r:
                    continue
                if gu == 0:
                    pole.add(parent[u])
                else:  # a pole's term is omega phi(1 - 1/inf) = omega
                    acc[parent[u]] += weight[u] * (1 if gu is None
                                                   else phi(1 - 1 / gu, pm1))
        return count, values, parent, visited


def decimal_eigenfunction(g: WeightedGraph, p: float, lo: float, hi: float,
                          root: int = 0) -> tuple:
    """(eigenvalue, eigenfunction) of the one simple eigenvalue of the tree
    ``g`` in (lo, hi), where `decimal_count` rises by one, in 50-digit
    decimal arithmetic: the eigenvalue by 160 halvings of (lo, hi) on the
    count, the function by f(root) = 1 and f(c) = f(u) / g_c(eigenvalue)
    down every edge u - c, the definition of g, scaled to unit p-norm.
    Both as Decimals; f by dense index."""
    with decimal.localcontext(decimal.Context(prec=50)):
        lo, hi = decimal.Decimal(lo), decimal.Decimal(hi)
        below = decimal_count(g, p, lo, root)
        if decimal_count(g, p, hi, root) != below + 1:
            raise ValueError("the count must rise by one across (lo, hi)")
        for _ in range(160):
            mid = (lo + hi) / 2
            if decimal_count(g, p, mid, root) == below:
                lo = mid
            else:
                hi = mid
        lam = (lo + hi) / 2
        _count, values, parent, order = _decimal_pass(g, p, lam, root)
        f = [None] * g.n
        for u in order:  # parents first
            f[u] = 1 if parent[u] == -1 else f[parent[u]] / values[u]
        norm = sum(abs(x) ** decimal.Decimal(p) for x in f) ** (1 / decimal.Decimal(p))
        return lam, [x / norm for x in f]
