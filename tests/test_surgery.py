"""Eigenpair-preserving surgery: compensated edge and vertex removal, the
interlacing checks, and the two reduction pipelines."""

import dataclasses
import math
import random

import numpy as np
import pytest

from conftest import (certify, diamond_graph, disjoint_union,
                      random_connected_graph, random_tree)
from plap import treespec
from plap.core import (
    EigenpairCertificate,
    Operator,
    VertexFunction,
    WeightedGraph,
    is_forest,
    residual,
)
from plap.cli import gen_graph
from plap.nodal import Thresholds, _slack, sign_pattern
from plap.oracle import ValueCount, assemble_p2, p2_spectrum
from plap.surgery import (
    DenseEdgeCut,
    EdgeCut,
    SurgeryStep,
    dense_vertex_removals,
    dense_without_vertex,
    reduce_to_forest,
    reduce_to_nodal_union,
    remove_edge,
    remove_node,
    verify_weyl_edge,
    verify_weyl_nodes,
    vertex_removals,
)
from plap.treespec import (
    ForestCount,
    PatchedCount,
    Spectrum,
    SpectrumEntry,
    tree_eigenpairs,
    tree_spectrum,
)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_remove_edge_alternating_pair(p):
    """Removing the chord under the fully alternating eigenfunction costs
    nothing: alpha = 1 makes both compensations vanish."""
    H = Operator(diamond_graph(), p)
    lam = 2.0 ** p
    f = VertexFunction([1.0, -1.0, 1.0, -1.0])
    H2, step = remove_edge(H, f, (2, 4))
    assert step.kind == "edge"
    assert step.alpha == 1.0
    assert step.kappa_deltas == {2: 0.0, 4: 0.0}
    assert len(H2.graph.edges) == 4
    assert not H2.graph.has_edge(2, 4)
    assert np.all(H2.graph.kappa == 0.0)
    assert residual(H2, f, lam) < 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_remove_edge_sign_change(p):
    """A sign-change edge turns into equal potentials phi(2) at both ends."""
    g = WeightedGraph.unit(2, [(0, 1)])
    H = Operator(g, p)
    lam = 2.0 ** (p - 1.0)
    f = VertexFunction([1.0, -1.0])
    H2, step = remove_edge(H, f, (0, 1))
    assert step.alpha == -1.0
    want = 2.0 ** (p - 1.0)
    assert math.isclose(step.kappa_deltas[0], want, rel_tol=1e-13)
    assert math.isclose(step.kappa_deltas[1], want, rel_tol=1e-13)
    assert len(H2.graph.edges) == 0
    assert residual(H2, f, lam) < 1e-13


def test_remove_edge_guards():
    H = Operator(diamond_graph(), 2.0)
    f = VertexFunction([1.0, 0.0, -1.0, 0.0])
    with pytest.raises(ValueError):
        remove_edge(H, f, (1, 2))  # endpoint inside the zero band
    good = VertexFunction([1.0, -1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        remove_edge(H, good, (1, 3))  # no such edge


def test_remove_node_folds_weights():
    H = Operator(diamond_graph(), 2.0)
    H1, _step = remove_node(H, 2)
    assert H1.graph.ids == (1, 3, 4)
    km = dict(zip(H1.graph.ids, H1.graph.kappa))
    assert km == {1: 1.0, 3: 1.0, 4: 1.0}
    H2, _step = remove_node(H1, 4)
    km = dict(zip(H2.graph.ids, H2.graph.kappa))
    assert km == {1: 2.0, 3: 2.0}
    assert len(H2.graph.edges) == 0
    # (1, 0, -1, 0) at lambda = 2 survives both removals, at any p
    for p in (1.5, 2.0, 3.0):
        Hp = Operator(H2.graph, p)
        assert residual(Hp, VertexFunction([1.0, -1.0]), 2.0) < 1e-13


def test_remove_node_step_records_the_compensation():
    """A node step names every neighbour, and each neighbour's potential
    after the removal is its potential before plus the recorded delta."""
    rng = random.Random(17)
    for _ in range(20):
        g = random_connected_graph(rng, n=rng.randint(3, 9))
        H = Operator(g, rng.choice([1.5, 2.0, 3.0]))
        u = rng.choice(g.ids)
        H2, step = remove_node(H, u)
        assert (step.kind, step.target, step.alpha) == ("node", (u,), None)
        iu = g.index_of(u)
        assert step.kappa_deltas == {g.ids[j]: w for j, w in g.adj[iu]}
        before = dict(zip(g.ids, g.kappa))
        for vid, k in zip(H2.graph.ids, H2.graph.kappa):
            assert k == before[vid] + step.kappa_deltas.get(vid, 0.0)


def test_surgery_step_holds_no_operator():
    assert {f.name for f in dataclasses.fields(SurgeryStep)} == {
        "kind", "target", "alpha", "kappa_deltas"}


def test_remove_node_guards():
    lone = Operator(WeightedGraph([(0, 1.0, 0.0)], []), 2.0)
    with pytest.raises(ValueError):
        remove_node(lone, 0)
    H = Operator(diamond_graph(), 2.0)
    with pytest.raises(ValueError):
        remove_node(H, 99)


def _plain_spectrum(vals):
    entries = []
    for v in sorted(set(vals)):
        entries.append(SpectrumEntry(v, vals.count(v)))
    return Spectrum(tuple(entries))


def test_verify_weyl_edge_synthetic():
    before = Thresholds(_plain_spectrum([0.0, 1.0, 2.0]))
    good_pos = _plain_spectrum([-0.5, 0.5, 1.5])
    rep = verify_weyl_edge(before, good_pos, +1.0)
    assert rep.ok and rep.checked == 3 and rep.failures == ()
    bad_pos = _plain_spectrum([0.5, 1.5, 2.5])
    rep = verify_weyl_edge(before, bad_pos, +1.0)
    assert not rep.ok and rep.failures
    # the same shifted spectrum is fine for the opposite sign case
    rep = verify_weyl_edge(before, bad_pos, -1.0)
    assert rep.ok
    with pytest.raises(ValueError):
        verify_weyl_edge(before, _plain_spectrum([0.0, 1.0]), +1.0)
    with pytest.raises(ValueError):
        verify_weyl_edge(before, good_pos, 0.0)


def test_verify_weyl_nodes_synthetic():
    before = Thresholds(_plain_spectrum([0.0, 1.0, 2.0, 3.0]))
    rep = verify_weyl_nodes(before, _plain_spectrum([0.5, 1.5, 2.5]), 1)
    assert rep.ok and rep.checked == 3
    rep = verify_weyl_nodes(before, _plain_spectrum([1.5, 2.5, 3.5]), 1)
    assert not rep.ok
    with pytest.raises(ValueError):
        verify_weyl_nodes(before, _plain_spectrum([0.5, 1.5]), 1)


def _per_k_edge(th, c: list, alpha_sign: float) -> tuple:
    """The failures of `verify_weyl_edge` for the counts c at th.xs, written
    one k at a time."""
    shift, d, out = (1 if alpha_sign > 0 else 0), len(th.below), []
    for k, (lk, i) in enumerate(zip(th.flat, th.pos), start=1):
        need = k - 1 + shift
        if c[d + i] < need or c[i] > need:
            out.append(f"value {k}: {lk} misplaced after edge removal: "
                       f"#{{eta < {th.below[i]}}} = {c[i]} and "
                       f"#{{eta <= {lk + _slack(lk)}}} = {c[d + i]}, but the first "
                       f"must be <= {need} and the second >= {need}")
    return tuple(out)


def _per_k_nodes(th, c: list, n: int) -> tuple:
    """The failures of `verify_weyl_nodes` for the counts c at th.xs,
    written one k at a time."""
    lam, d, out = th.flat, len(th.below), []
    for k in range(1, len(lam) - n + 1):
        lo, hi = lam[k - 1], lam[k + n - 1]
        c_below, c_upto = c[th.pos[k - 1]], c[d + th.pos[k + n - 1]]
        if c_below > k - 1 or c_upto < k:
            out.append(f"value {k} outside [{lo}, {hi}] after removing {n} vertices: "
                       f"#{{eta < {lo - _slack(lo)}}} = {c_below} and "
                       f"#{{eta <= {hi + _slack(hi)}}} = {c_upto}, but the first "
                       f"must be <= {k - 1} and the second >= {k}")
    return tuple(out)


def test_weyl_verifiers_write_what_a_per_k_check_writes():
    """`verify_weyl_edge` and `verify_weyl_nodes` decide every k by array
    comparisons and write the failure text of each k that fails, the
    text and order that checking one k at a time gives: on seeded spectra
    with multiplicities, for random counts at every threshold, both signs
    of alpha and one or two removed vertices."""
    rng = random.Random(3)
    failed = 0
    for _ in range(300):
        values = sorted({round(rng.uniform(-3.0, 3.0), 3)
                         for _ in range(rng.randint(1, 8))})
        spec = Spectrum(tuple(SpectrumEntry(v, rng.randint(1, 3)) for v in values))
        th = Thresholds(spec)
        total = len(th.flat)
        c = [rng.randint(0, total) for _ in th.xs]
        for sign in (1.0, -1.0):
            rep = verify_weyl_edge(th, _ReadCounts(dict(zip(th.xs, c)), total), sign)
            assert rep.failures == _per_k_edge(th, c, sign)
            assert (rep.ok, rep.checked) == (not rep.failures, total)
            failed += not rep.ok
        for n in (1, 2):
            if n < total:
                counter = _ReadCounts(dict(zip(th.xs, c)), total - n)
                rep = verify_weyl_nodes(th, counter, n)
                assert rep.failures == _per_k_nodes(th, c, n)
                assert (rep.ok, rep.checked) == (not rep.failures, total - n)
    assert failed > 100


def _outside_band(g, f, i, j) -> bool:
    """Whether f is outside its zero band at both dense indices i and j."""
    s, _band = sign_pattern(g, f)
    return s[i] != 0 and s[j] != 0


def _weyl_verdicts(H):
    """(name, target, verdicts) for every compensated edge removal of every
    eigenpair and every vertex removal: a verdict is (ok, checked), read by
    the counter of the operator after the removal, by its full spectrum
    and by the removal counter of the forest before it (`EdgeCut`,
    `vertex_removals`), which counts all the edge's removals, or all the
    vertex removals, at once."""
    g = H.graph
    spec = tree_eigenpairs(H)
    th = Thresholds(spec)
    base = ForestCount(H)
    out = []
    for i, j, _w in g.edges:
        pairs = [(e, f) for e in spec.entries for f in e.basis
                 if _outside_band(g, f, i, j)]
        afters = EdgeCut(base, (g.ids[i], g.ids[j])).afters([f for _e, f in pairs])
        for (e, f), (alpha, after) in zip(pairs, afters, strict=True):
            H2, step = remove_edge(H, f, (g.ids[i], g.ids[j]))
            assert alpha == step.alpha
            verdicts = [verify_weyl_edge(th, counter, alpha)
                        for counter in (ForestCount(H2), tree_spectrum(H2),
                                        after)]
            out.append(("edge", (e.value, g.ids[i], g.ids[j]),
                        [(rep.ok, rep.checked) for rep in verdicts]))
    for u, after in zip(g.ids, vertex_removals(base), strict=True):
        H2, _step = remove_node(H, u)
        verdicts = [verify_weyl_nodes(th, counter, 1)
                    for counter in (ForestCount(H2), tree_spectrum(H2), after)]
        out.append(("node", (u,), [(rep.ok, rep.checked) for rep in verdicts]))
    return out


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
def test_weyl_counts_agree_with_after_spectra(p):
    """Counting after-values gives the same verdict as the full
    after-spectrum on every removal of a seeded tree corpus, and so does
    the removal counter of the forest before it that ``check --all``
    reads."""
    rng = random.Random(91)
    rows = 0
    for n in range(4, 12):
        H = Operator(random_tree(rng, n=n), p)
        for name, target, verdicts in _weyl_verdicts(H):
            assert verdicts.count(verdicts[0]) == len(verdicts), (n, name, target)
            rows += 1
    assert rows > 400


def _dense_cuts_agree(H) -> int:
    """For every eigenpair and edge, and for every vertex, the patched copy
    of the p = 2 matrix is the rebuilt operator's `assemble_p2` matrix to
    the bit, its counter counts the rebuilt matrix's ``eigvalsh`` values at
    every threshold a weyl row reads, one by one and in one call, and its
    weyl-edge and weyl-node rows are those read from the rebuilt
    ``p2_spectrum``. Returns the number of removals compared."""
    g = H.graph
    m = assemble_p2(H)
    spec = p2_spectrum(H)
    th = Thresholds(spec)
    ts = sorted({t for lam in spec.values()
                 for t in (lam - _slack(lam),
                           math.nextafter(lam + _slack(lam), math.inf))})

    def agree(after, H2):
        a = assemble_p2(H2).data
        values = np.linalg.eigvalsh(a)
        want = [int(np.sum(values < t)) for t in ts]
        assert [after.counts_below([t])[0] for t in ts] == want
        assert after.counts_below(ts) == want
        return a, p2_spectrum(H2, bases=False)

    compared = 0
    for i, j, _w in g.edges:
        e0 = (g.ids[i], g.ids[j])
        cut = DenseEdgeCut(H, m, e0)
        for f in (f for e in spec.entries for f in e.basis):
            s, _band = sign_pattern(g, f)
            if s[i] == 0 or s[j] == 0:
                continue
            H2, step = remove_edge(H, f, e0)
            alpha, a = cut.matrix(f, s)
            ((alpha, after),) = cut.afters([f])
            rebuilt, want = agree(after, H2)
            assert a.tobytes() == rebuilt.tobytes(), e0
            assert alpha == step.alpha
            assert (verify_weyl_edge(th, after, alpha)
                    == verify_weyl_edge(th, want, step.alpha))
            compared += 1
    for u in g.ids:
        H2, _step = remove_node(H, u)
        a = dense_without_vertex(H, m, u)
        after = ValueCount(a)
        rebuilt, want = agree(after, H2)
        assert a.tobytes() == rebuilt.tobytes(), u
        assert verify_weyl_nodes(th, after, 1) == verify_weyl_nodes(th, want, 1)
        compared += 1
    return compared


def test_dense_cuts_agree_with_rebuilt_operators():
    """At p = 2 the patched copies of one assembled matrix that ``check
    --all`` reads are the matrices of the rebuilt operators, on seeded
    weighted graphs, cycles and trees."""
    compared = sum(_dense_cuts_agree(Operator(
        gen_graph(kind, n, random.Random(n), weighted=True), 2.0))
        for kind in ("graph", "cycle", "tree") for n in (6, 11, 16))
    assert compared > 1000


def _counted_eigvalsh(monkeypatch) -> tuple:
    """(a list that gains the shape of every array ``numpy.linalg.eigvalsh``
    is called on from now on, the unpatched function)."""
    shapes, inner = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return shapes, inner


@pytest.mark.parametrize("n", [8, 10, 12])
def test_dense_removals_are_counted_in_one_stacked_eigvalsh(monkeypatch, n):
    """At p = 2 on ``gen graph n`` (n = 8, 10, 12), `DenseEdgeCut.afters`
    counts every removal of a cut edge with one ``eigvalsh`` call, and
    `dense_vertex_removals` every vertex removal with one; each counter's
    values are the bytes of ``eigvalsh`` on the rebuilt operator's matrix
    alone."""
    H = Operator(gen_graph("graph", n, random.Random(n), weighted=True), 2.0)
    g, m = H.graph, assemble_p2(H)
    functions = [f for e in p2_spectrum(H).entries for f in e.basis]
    shapes, eigvalsh = _counted_eigvalsh(monkeypatch)
    for i, j, _w in g.edges:
        e0 = (g.ids[i], g.ids[j])
        kept = [f for f in functions if _outside_band(g, f, i, j)]
        shapes.clear()
        afters = DenseEdgeCut(H, m, e0).afters(kept)
        assert shapes == [(len(kept), n, n)], e0
        for f, (alpha, after) in zip(kept, afters, strict=True):
            H2, step = remove_edge(H, f, e0)
            want = eigvalsh(assemble_p2(H2).data)
            assert alpha == step.alpha
            assert after.values.tobytes() == want.tobytes(), e0
    shapes.clear()
    afters = dense_vertex_removals(H, m)
    assert shapes == [(n, n - 1, n - 1)]
    for u, after in zip(g.ids, afters, strict=True):
        want = eigvalsh(assemble_p2(remove_node(H, u)[0]).data)
        assert after.values.tobytes() == want.tobytes(), u


def test_value_counts_keep_each_error_in_its_place(monkeypatch):
    """`ValueCount.each` passes a build error through in its place, and
    where the stacked ``eigvalsh`` raises LinAlgError, counts each array
    alone: only the array that raises has its LinAlgError."""
    inner = np.linalg.eigvalsh
    bad = np.diag([1.0, 7.0])

    def fails_on_bad(a, *args, **kwargs):
        if np.any(np.all(np.asarray(a) == bad, axis=(-2, -1))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", fails_on_bad)
    built = ArithmeticError("the p = 2 matrix leaves the float range")
    got = ValueCount.each([np.eye(2), built, bad, 2.0 * np.eye(2)])
    assert got[1] is built
    assert isinstance(got[2], np.linalg.LinAlgError)
    assert got[0].values.tolist() == [1.0, 1.0] and got[0].total == 2
    assert got[3].counts_below([2.0, 2.5]) == [0, 2]
    assert ValueCount.each([built]) == [built] and ValueCount.each([]) == []


def _with_kappa(g, kappa: dict):
    """``g`` with the potential kappa[i] at every dense index i in ``kappa``."""
    return WeightedGraph([(g.ids[i], float(g.rho[i]), kappa.get(i, float(g.kappa[i])))
                          for i in range(g.n)],
                         [(g.ids[i], g.ids[j], w) for i, j, w in g.edges])


class _ReadCounts:
    """A counter that only reads counts given in advance: a threshold it was
    not given raises KeyError."""

    def __init__(self, counts: dict, total: int):
        self.counts, self.total = counts, total

    def counts_below(self, xs):
        return [self.counts[x] for x in xs]


def _relabeled(g, rng):
    """``g`` with its vertex ids shuffled and listed by the new id, and its
    edges in a shuffled order: a tree whose subtrees do not hang from
    their smallest index."""
    ids = list(range(g.n))
    rng.shuffle(ids)
    edges = [(ids[i], ids[j], w) for i, j, w in g.edges]
    rng.shuffle(edges)
    return WeightedGraph(sorted((ids[i], float(g.rho[i]), float(g.kappa[i]))
                                for i in range(g.n)), edges)


def _without(g, cut, patch: dict):
    """The forest ``g`` less the edge (i, j) or the vertex (u,) of ``cut``
    (dense indices), with the potential patch[i] at every dense index i
    of ``patch``: the forest `remove_edge` and `remove_node` build."""
    gone = set(cut) if len(cut) == 1 else set()
    return WeightedGraph(
        [(g.ids[i], float(g.rho[i]), patch.get(i, float(g.kappa[i])))
         for i in range(g.n) if i not in gone],
        [(g.ids[i], g.ids[j], w) for i, j, w in g.edges
         if not gone & {i, j} and {i, j} != set(cut)])


def _counts_or_error(counter, xs: list, scalar: bool):
    """``counter``'s counts at xs, one `count_below` each where ``scalar``,
    else its `counts_below`, or the args of the OverflowError it raises."""
    try:
        if scalar:
            return [counter.count_below(x) for x in xs]
        return list(counter.counts_below(xs))
    except OverflowError as exc:
        return exc.args


def _removals_agree(H, every: int = 1, scalar: bool = True) -> dict:
    """Every compensated removal of an edge under an eigenfunction, and
    every vertex removal, counted from the forest before it (`EdgeCut`,
    `vertex_removals`), counts what ``ForestCount`` of the forest
    `remove_edge` or `remove_node` builds counts at every threshold of the
    request's `Thresholds`: one `count_below` per threshold where
    ``scalar``, else its `counts_below`. Each weyl row reads only those
    thresholds (`_ReadCounts`). Edge e takes the eigenfunctions whose index
    is e modulo ``every``. Returns how many removals were compared, how
    many cuts left a component whose smallest index is not the child end,
    and the most components a vertex removal left."""
    g = H.graph
    base = ForestCount(H)
    spec = base.spectrum(True)
    th = Thresholds(spec)
    xs = th.xs
    functions = [f for e in spec.entries for f in e.basis]
    seen = dict(edges=0, vertices=0, turned=0, pieces=0)
    for e, (i, j, _w) in enumerate(g.edges):
        e0 = (g.ids[i], g.ids[j])
        fs = [f for k, f in enumerate(functions)
              if k % every == e % every and _outside_band(g, f, i, j)]
        child = j if base.tree.parent[j] == i else i
        for f, (alpha, after) in zip(fs, EdgeCut(base, e0).afters(fs), strict=True):
            H2, step = remove_edge(H, f, e0)
            want = _counts_or_error(ForestCount(H2), xs, scalar)
            assert list(after.counts_below(xs)) == want, e0
            assert alpha == step.alpha
            assert (verify_weyl_edge(th, after, alpha)
                    == verify_weyl_edge(th, _ReadCounts(dict(zip(xs, want)), g.n),
                                        alpha))
            seen["edges"] += 1
            seen["turned"] += base.tree.lowest[child] != child
    for u, after in zip(g.ids, vertex_removals(base), strict=True):
        H2, _step = remove_node(H, u)
        want = _counts_or_error(ForestCount(H2), xs, scalar)
        assert list(after.counts_below(xs)) == want, u
        assert (verify_weyl_nodes(th, after, 1)
                == verify_weyl_nodes(th, _ReadCounts(dict(zip(xs, want)), g.n - 1), 1))
        seen["vertices"] += 1
        seen["pieces"] = max(seen["pieces"], len(g.adj[g.index_of(u)]))
    return seen


@pytest.mark.parametrize("p", [1.2, 2.0, 3.0])
def test_removal_counts_are_the_rebuilt_forests_counts(p):
    """The removal counters of ``check --all`` count, at every threshold of
    the request, the integers that ``ForestCount`` of each rebuilt forest
    counts: every edge under every eigenfunction and every vertex of
    ``gen tree`` 9 and 12 (seeds 0-2), of those trees relabeled (cuts whose
    cut-off component is rooted below its top) and of a seeded forest of
    four trees, against one scalar count per threshold; on ``gen tree``
    40 and 120 (seed 0), every vertex and every edge under every eighth
    and every 40th eigenfunction, against the rebuilt forest's
    ``counts_below``. Vertex 0 is removed in every document, and some
    removals leave three components or more."""
    seen = []
    for n in (9, 12):
        for seed in range(3):
            g = gen_graph("tree", n, random.Random(seed), weighted=True)
            seen.append(_removals_agree(Operator(g, p)))
            relabeled = _relabeled(g, random.Random(seed))
            seen.append(_removals_agree(Operator(relabeled, p)))
    rng = random.Random(4)
    seen.append(_removals_agree(Operator(disjoint_union(
        *[gen_graph("tree", rng.randint(2, 7), rng, weighted=True)
          for _ in range(4)]), p)))
    for n, every in ((40, 8), (120, 40)):
        seen.append(_removals_agree(Operator(
            gen_graph("tree", n, random.Random(0), weighted=True), p), every, False))
    assert sum(s["edges"] for s in seen) > 1500
    assert sum(s["turned"] for s in seen) > 50
    assert max(s["pieces"] for s in seen) >= 3


def test_patched_counter_counts_a_pole_off_the_patched_paths():
    """A patched counter counts what ``ForestCount`` of the patched forest
    counts where the base pass holds the pole marker away from the patched
    root paths: on the unit tree 0 - {1 - 2, 3 - 4} patched at vertex 2,
    leaf 4's g is exactly 0 at x = 1, so vertex 3, off the path 2 - 1 - 0,
    carries the marker."""
    g = WeightedGraph.unit(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
    xs = [0.5, 1.0, 1.5, 2.0, 3.0]
    patches = [{2: 0.5}, {2: 0.0}, {2: -0.5}]
    for p in (1.2, 2.0, 3.0):
        counter = ForestCount(Operator(g, p))
        counter.count_below(1.0)
        assert counter._vals[4] == 0.0 and counter._vals[3] == math.inf
        assert sorted(treespec._regrown(counter.tree, (), [2], 0)[0]) == [0, 1, 2]
        patched = PatchedCount(counter, [((), patch) for patch in patches])
        for patch, after in zip(patches, patched.counters, strict=True):
            want = ForestCount(Operator(_without(g, (), patch), p))
            assert list(after.counts_below(xs)) == [want.count_below(x) for x in xs]


def test_patched_counter_counts_poles_and_overflows_as_a_full_pass():
    """A patched counter counts what ``ForestCount`` of the patched forest
    counts where the kept pass holds the pole marker on a patched path (the
    unit path 0 - 1 - 2 at x = 1, where leaf 2's g is exactly 0), where a
    patch puts an exact zero on its own path (potential 0 at x = 1, -0.5
    at x = 0.5), which the array pass leaves to a scalar pass of that lane,
    and where the kept pass overflows: a potential of 1e80 overflows
    phi_inv at p = 1.2, and patched back to 0.5 the whole forest is
    counted. The counter of a patch to 1e80 raises the OverflowError of
    its forest's count, on that base and on the finite one, and leaves
    the other counter's counts standing."""
    unit = gen_graph("path", 3, random.Random(0))
    xs = [0.5, 1.0, 1.5, 2.0, 3.0]
    patches = [{2: 0.5}, {2: 0.0}, {2: -0.5}]
    for p in (1.2, 2.0, 3.0):
        counter = ForestCount(Operator(unit, p))
        counter.count_below(1.0)
        assert counter._vals[1] == math.inf  # the pole marker
        patched = PatchedCount(counter, [((), patch) for patch in patches])
        for patch, after in zip(patches, patched.counters, strict=True):
            want = ForestCount(Operator(_without(unit, (), patch), p))
            assert list(after.counts_below(xs)) == [want.count_below(x) for x in xs]
            for x in xs:
                assert list(after.counts_below([x])) == [want.count_below(x)], (p, x)
    g = gen_graph("path", 5, random.Random(0), weighted=True)
    base = ForestCount(Operator(_without(g, (), {2: 1e80}), 1.2))
    xs = [-1.0, 0.3, 1.0, 2.5, 6.0]
    for x in xs:
        with pytest.raises(OverflowError):
            base.count_below(x)
    want = ForestCount(Operator(_without(g, (), {2: 0.5}), 1.2))
    for base in (base, want):  # the second overflows on the path alone
        patched, kept = PatchedCount(base, [((), {2: 0.5}), ((), {2: 1e80})]).counters
        assert list(patched.counts_below(xs)) == [want.count_below(x) for x in xs]
        with pytest.raises(OverflowError):
            kept.counts_below(xs)
        for x in xs:
            assert list(patched.counts_below([x])) == [want.count_below(x)]


def test_removal_counts_keep_poles_and_overflows(monkeypatch):
    """A removal counter counts what ``ForestCount`` of its forest counts
    where a pass holds the pole marker, and raises the OverflowError that
    counting its forest raises, at the thresholds 0.5, 1, 1.5, 2 and 3:

    - on the unit tree 0 - {1 - 2, 3 - 4}, whose leaf 4 has g exactly 0 at
      x = 1, so vertex 3 carries the pole marker off the root path 2 - 1 -
      0 that a patch of vertex 2 moves, and on the unit path 0 - 1 - 2,
      whose vertex 1 carries it;
    - for vertex 2 patched to 0.5, 0 and -0.5 with nothing removed (an
      exact zero on its own root path at x = 1 and at x = 0.5), for every
      edge cut with those potentials at both ends, and for every vertex
      removal, where the lanes that hold a value that is not finite are
      counted again by the scalar pass;
    - at the potential 1e80 of vertex 2 on ``gen path 5 --seed 0
      --weighted`` at p = 1.2, which overflows phi_inv: the forest before
      every removal overflows; removing vertex 2, or patching it back to
      0.5, counts a finite forest, and every other removal raises its
      forest's OverflowError, on that base and on the one patched to 0.5;
    - where a vertex removal's compensated potential leaves the float
      range, `vertex_removals` gives the ValueError that `remove_node`
      raises, in its place.
    """
    recounted, inner = [], PatchedCount._scalar
    monkeypatch.setattr(PatchedCount, "_scalar",
                        lambda *args: recounted.append(1) or inner(*args))
    xs = [0.5, 1.0, 1.5, 2.0, 3.0]
    tree = WeightedGraph.unit(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
    path = gen_graph("path", 3, random.Random(0))
    for p in (1.2, 2.0, 3.0):
        for g in (tree, path):
            base = ForestCount(Operator(g, p))
            base.count_below(1.0)
            assert math.inf in base._vals
            assert treespec._regrown(base.tree, (), [2], 0)[0] == [2, 1, 0]
            removals = [((), {2: k}) for k in (0.5, 0.0, -0.5)]
            removals += [((i, j), {i: k, j: k}) for i, j, _w in g.edges
                         for k in (0.5, 0.0, -0.5)]
            removals += [((u,), {j: float(g.kappa[j]) + w for j, w in g.adj[u]})
                         for u in range(g.n)]
            counters = PatchedCount(base, removals).counters
            for (cut, patch), after in zip(removals, counters, strict=True):
                want = ForestCount(Operator(_without(g, cut, patch), p))
                assert after.total == want.total
                assert list(after.counts_below(xs)) == [want.count_below(x) for x in xs]
                for x in xs:
                    assert list(after.counts_below([x])) == [want.count_below(x)]
    assert recounted
    g = gen_graph("path", 5, random.Random(0), weighted=True)
    huge = _without(g, (), {2: 1e80})
    with pytest.raises(OverflowError) as raised:
        ForestCount(Operator(huge, 1.2)).count_below(1.0)
    finite = _without(g, (), {2: 0.5})
    for doc in (huge, finite):
        base = ForestCount(Operator(doc, 1.2))
        removals = [((), {2: 0.5}), ((), {2: 1e80}),
                    ((1, 2), {1: 0.5, 2: 1e80}), ((2, 3), {2: 0.5, 3: 0.5})]
        removals += [((u,), {j: float(doc.kappa[j]) + w for j, w in doc.adj[u]})
                     for u in range(doc.n)]
        counters = PatchedCount(base, removals).counters
        outcomes = []
        for (cut, patch), after in zip(removals, counters, strict=True):
            rebuilt = ForestCount(Operator(_without(doc, cut, patch), 1.2))
            want = _counts_or_error(rebuilt, xs, True)
            assert _counts_or_error(after, xs, False) == want, (cut, patch)
            outcomes.append(want)
        assert outcomes[0] == _counts_or_error(ForestCount(Operator(finite, 1.2)),
                                               xs, True)
        assert outcomes[1] == raised.value.args
    big = WeightedGraph([(0, 1.0, 0.0), (1, 1.0, 1.7e308), (2, 1.0, 0.0)],
                        [(0, 1, 1e308), (1, 2, 1.0)])
    H = Operator(big, 3.0)
    for u, after in zip(big.ids, vertex_removals(ForestCount(H)), strict=True):
        try:
            want = ForestCount(remove_node(H, u)[0])
        except ValueError as exc:  # the rebuilt potential leaves the float range
            assert u == 0 and isinstance(after, ValueError)
            assert after.args == exc.args == ("kappa must be finite at 1",)
        else:
            assert list(after.counts_below(xs)) == [want.count_below(x) for x in xs]


@pytest.mark.parametrize("batched", [False, True])
def test_forest_counts_below_is_the_scalar_count(monkeypatch, batched):
    """``ForestCount.counts_below`` counts what ``count_below`` counts at
    every threshold, on either side of the lockstep crossover (``batched``
    makes every list of thresholds one `_lockstep` pass): on the two
    pole-marker documents of the patched-counter tests and their patched
    forests, on a seeded forest of five trees, where the list is wide
    enough for a lockstep pass by the cost model too, and at the potential
    1e80 at p = 1.2, where both raise the same OverflowError."""
    if batched:
        monkeypatch.setattr(treespec, "_lockstep_pays", lambda *args: 1)
    lockstep, inner = [], treespec._lockstep
    monkeypatch.setattr(treespec, "_lockstep",
                        lambda *args: lockstep.append(1) or inner(*args))
    tree = WeightedGraph.unit(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
    path = gen_graph("path", 3, random.Random(0))
    docs = [tree, path, *(_with_kappa(g, patch) for g in (tree, path)
                          for patch in ({2: 0.5}, {2: 0.0}, {2: -0.5}))]
    xs = [0.5, 1.0, 1.5, 2.0, 3.0]
    for p in (1.2, 2.0, 3.0):
        for g in docs:
            counter = ForestCount(Operator(g, p))
            want = [counter.count_below(x) for x in xs]
            assert counter.counts_below(xs) == want
    rng = random.Random(5)
    forest = disjoint_union(*[random_tree(rng, n=rng.randint(3, 9))
                              for _ in range(5)])
    for p in (1.2, 3.0):
        counter = ForestCount(Operator(forest, p))
        spec = tree_spectrum(Operator(forest, p))
        xs = [x for v in spec.values()
              for x in (v - _slack(v), v, v + _slack(v))]
        assert len(xs) >= counter._lanes.batch_from
        lockstep.clear()
        assert counter.counts_below(xs) == [counter.count_below(x) for x in xs]
        assert lockstep == [1]
    g = gen_graph("path", 5, random.Random(0), weighted=True)
    counter = ForestCount(Operator(_with_kappa(g, {2: 1e80}), 1.2))
    xs = [-1.0, 0.3, 1.0, 2.5, 6.0]
    with pytest.raises(OverflowError) as scalar:
        counter.count_below(xs[0])
    lockstep.clear()
    with pytest.raises(OverflowError) as lanes:
        counter.counts_below(xs)
    assert lanes.value.args == scalar.value.args
    assert lockstep == ([1] if batched else [])


def test_weyl_counts_keep_a_known_failure():
    """gen tree 12 --seed 3 --weighted at p = 1.2 fails the edge pattern at
    (4, 5), with alpha within 1e-14 of 1, by both readings."""
    H = Operator(gen_graph("tree", 12, random.Random(3), weighted=True), 1.2)
    g = H.graph
    spec = tree_eigenpairs(H)
    th = Thresholds(spec)
    failed = 0
    for e in spec.entries:
        for f in e.basis:
            H2, step = remove_edge(H, f, (4, 5))
            by_count = verify_weyl_edge(th, ForestCount(H2), step.alpha)
            by_spec = verify_weyl_edge(th, tree_spectrum(H2), step.alpha)
            assert (by_count.ok, by_count.checked) == (by_spec.ok, by_spec.checked)
            assert by_count.checked == g.n
            failed += not by_count.ok
    assert failed >= 1


def test_tree_spectrum_after_a_huge_compensation():
    """gen tree 13 --seed 2 --weighted at p = 3.7 with edge (8, 11) removed
    under the eigenpair at lambda ~ 1.3434: alpha ~ -3.8e4 lifts kappa(8)
    by about 4.6e12, and with it the spectral bound of the bisection's
    outer bracket. Every after-value must still be an eigenvalue of the
    right multiplicity: the count jumps by exactly its multiplicity."""
    H = Operator(gen_graph("tree", 13, random.Random(2), weighted=True), 3.7)
    spec = tree_eigenpairs(H)
    e = spec.find(1.3434, rel_tol=1e-4)
    H2, step = remove_edge(H, e.basis[0], (8, 11))
    assert step.alpha < -3e4
    after = tree_spectrum(H2)
    counter = ForestCount(H2)
    for x in after.entries:
        s = _slack(x.value)
        jump = counter.count_below(x.value + s) - counter.count_below(x.value - s)
        assert jump == x.mult, x.value
    assert verify_weyl_edge(Thresholds(spec), after, step.alpha).ok


def test_weyl_on_diamond_surgery():
    H = Operator(diamond_graph(), 2.0)
    before = Thresholds(p2_spectrum(H))
    f = VertexFunction([1.0, -1.0, 1.0, -1.0])
    H2, step = remove_edge(H, f, (2, 4))
    rep = verify_weyl_edge(before, p2_spectrum(H2), step.alpha)
    assert rep.ok
    H3, _step = remove_node(H, 2)
    rep = verify_weyl_nodes(before, p2_spectrum(H3), 1)
    assert rep.ok


def test_reduce_to_nodal_union_diamond():
    H = Operator(diamond_graph(), 2.0)
    cert = certify(H, 2.0, VertexFunction([1.0, 0.0, -1.0, 0.0]))
    H2, rep = reduce_to_nodal_union(H, cert)
    assert rep.nu == 2
    assert sorted(rep.components) == [(1,), (3,)]
    assert rep.multiplicity_after == 2
    assert rep.residual_after < 1e-12
    assert np.allclose(rep.component_minima, [2.0, 2.0], atol=1e-9)
    km = dict(zip(H2.graph.ids, H2.graph.kappa))
    assert km == {1: 2.0, 3: 2.0}
    kinds = [s.kind for s in rep.steps]
    assert kinds.count("node") == 2


def test_reduce_to_nodal_union_records_node_compensations():
    """Removing the zero vertices 2 and then 4 of the diamond moves their
    edge weights onto the surviving neighbours, and the steps say so."""
    H = Operator(diamond_graph(), 2.0)
    cert = certify(H, 2.0, VertexFunction([1.0, 0.0, -1.0, 0.0]))
    _H2, rep = reduce_to_nodal_union(H, cert)
    nodes = [(s.target, s.kappa_deltas) for s in rep.steps if s.kind == "node"]
    assert nodes == [((2,), {1: 1.0, 3: 1.0, 4: 1.0}),
                     ((4,), {1: 1.0, 3: 1.0})]


def test_reduce_to_nodal_union_tree_p3():
    g = WeightedGraph.unit(4, [(0, 1), (1, 2), (2, 3)])
    H = Operator(g, 3.0)
    spec = tree_spectrum(H)
    from plap.treespec import forest_eigenbasis
    lam = spec.entries[1].value
    f = forest_eigenbasis(H, lam)[0]
    H2, rep = reduce_to_nodal_union(H, certify(H, lam, f))
    assert rep.nu >= 2
    assert len(rep.component_minima) == rep.nu
    for m in rep.component_minima:
        assert abs(m - lam) <= 1e-8 * max(1.0, abs(lam))
    assert rep.residual_after < 1e-9


def test_reduce_rejects_invalid_certificates():
    H = Operator(diamond_graph(), 2.0)
    f = VertexFunction([1.0, 0.0, -1.0, 0.0])
    stale = EigenpairCertificate(2.05, f, residual(H, f, 2.05), 1e-8)
    assert not stale.valid
    with pytest.raises(ValueError):
        reduce_to_nodal_union(H, stale)
    with pytest.raises(ValueError):
        reduce_to_forest(H, stale)


def test_reduce_to_forest_cuts_cycles():
    rng = random.Random(17)
    for _ in range(5):
        g = random_connected_graph(rng, n=rng.randint(4, 9))
        H = Operator(g, 2.0)
        spec = p2_spectrum(H)
        e = spec.entries[-1]
        cert = certify(H, e.value, e.basis[0])
        H2, steps = reduce_to_forest(H, cert, seed=3)
        assert is_forest(H2.graph)
        fmap = cert.function.as_mapping(g)
        f2 = VertexFunction.from_mapping(
            H2.graph, {vid: fmap[vid] for vid in H2.graph.ids})
        assert residual(H2, f2, e.value) < 1e-9
        # same seed, same cuts
        H3, _ = reduce_to_forest(H, cert, seed=3)
        assert H3.graph == H2.graph


def test_reduce_to_forest_on_flat_function():
    """The flat ground state of a potential-free graph survives cutting all
    the way down to a spanning tree."""
    g = WeightedGraph.unit(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    H = Operator(g, 2.5)
    f = VertexFunction([1.0] * 5)
    H2, steps = reduce_to_forest(H, certify(H, 0.0, f, tol=1e-10), seed=0)
    assert is_forest(H2.graph)
    assert len(H2.graph.edges) == 4
    assert residual(H2, f, 0.0) < 1e-13
    edge_steps = [s for s in steps if s.kind == "edge"]
    assert len(edge_steps) == 2
    for s in edge_steps:
        assert s.alpha == 1.0  # flat ratio: compensations vanish
