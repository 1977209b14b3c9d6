"""Forest spectra by eigenvalue counting: rooting, the g recursion and its
zeros, slicing, and eigenbasis reconstruction."""

import hashlib
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (copy_forest, count_slices, decimal_count,
                      disjoint_union, random_forest, random_tree)
from plap import core, treespec
from plap.cli import gen_graph
from plap.core import Operator, WeightedGraph, first_eigenpair, residual
from plap.oracle import ORACLE_CLUSTER_REL, p2_spectrum
from plap.surgery import reduce_to_forest
from plap.treespec import (
    ForestCount,
    RootedTree,
    Spectrum,
    SpectrumEntry,
    cluster_tagged,
    eigenbasis,
    forest_eigenbasis,
    tree_eigenpairs,
    tree_spectrum,
)

# A 4-path whose spectrum at p = 1.2 contains two distinct eigenvalues
# only ~4e-10 apart; naive clustering would merge them into an
# inconsistent group.
NEAR_DEGENERATE_PATH = WeightedGraph(
    [(0, 1.8150442642115856, 0.2326921562572941),
     (1, 1.6594760855068769, -0.04046770469005234),
     (2, 0.9549451167586636, 0.5985177562565476),
     (3, 1.74660176229755, 0.12437740739804126)],
    [(0, 1, 0.8117277118068909),
     (1, 2, 1.2678374875329237),
     (2, 3, 1.901231538700668)])

# A 10-vertex tree where, at p = 1.2, one zero of a vertex's g sits less
# than one ulp from its pole near 5.055; the spectrum must still hold all
# ten eigenvalues.
COALESCENT_TREE = WeightedGraph(
    [(0, 0.8958888794557998, 0.1323151636955482),
     (1, 1.2780988190094544, 0.1760027395454007),
     (2, 1.3332285933049195, -0.13540056627898034),
     (3, 1.0807013260246745, -0.20981407046300826),
     (4, 1.9915688549024277, 0.044582697000914884),
     (5, 0.6597320436030973, -0.2126982139992215),
     (6, 1.6490256623085522, 0.3643478688636219),
     (7, 0.621135932334554, -0.17351316807135886),
     (8, 1.1778252603633284, 0.6907066698861075),
     (9, 0.90108102841634, 0.832379758188122)],
    [(0, 1, 1.4092395062943968),
     (0, 2, 0.6245509014532014),
     (2, 3, 0.758753305298982),
     (3, 4, 1.514561331962748),
     (4, 5, 1.5704494680413577),
     (2, 6, 0.9378713907252595),
     (5, 7, 1.94865562361786),
     (6, 8, 0.5498844793924254),
     (3, 9, 1.1360372950672766)])

# An 11-vertex tree whose p = 1.2 eigenfunction at lambda ~ 1.0362 needs
# two adjacent values closer than one ulp; the gap is not representable
# in doubles, so the reconstruction's defect floors around 7e-4 even
# though the eigenvalue and all multiplicities stay exact.
SUB_ULP_TIE_TREE = WeightedGraph(
    [(0, 1.9241212409340909, -0.08760038996419395),
     (1, 0.6205373922613429, 0.8438578246378576),
     (2, 0.958689357187549, 0.7915236781918602),
     (3, 0.8116248221022235, -0.8549551316580732),
     (4, 1.2700392470876847, 0.09735420364114233),
     (5, 1.5108483597203093, 0.2819659317000194),
     (6, 1.0426881233876621, 0.5197350155585163),
     (7, 1.2725049966078463, -0.710599784974723),
     (8, 1.3761599024750857, -0.2956911667512596),
     (9, 1.3180419049104026, -0.6834668476792614),
     (10, 0.8788559874204024, -0.470539984891468)],
    [(0, 1, 1.9340803544978644),
     (1, 2, 0.8812026454144097),
     (0, 3, 1.24255356233042),
     (3, 4, 0.958053388393387),
     (3, 5, 0.9222905643476169),
     (5, 6, 0.6055135519408572),
     (0, 7, 1.6654498007676635),
     (5, 8, 1.4811843986003057),
     (6, 9, 1.7545715465429843),
     (5, 10, 1.2152827621116096)])


def test_cluster_tagged_groups_nearby_values():
    tagged = [(1.0, "a"), (1.0 + 1e-12, "b"), (2.0, "c")]
    groups = list(cluster_tagged(tagged))
    assert len(groups) == 2
    center, vals, verts = groups[0]
    assert set(verts) == {"a", "b"}
    assert math.isclose(center, 1.0, rel_tol=1e-9)
    assert groups[1][2] == ["c"]
    # the dense route clusters the same way at its own, wider tolerance
    pair = [(3.0, "a"), (3.0 + 5e-9, "b")]
    assert len(cluster_tagged(pair)) == 2
    assert len(cluster_tagged(pair, ORACLE_CLUSTER_REL)) == 1


def test_spectrum_count_below_is_the_linear_count():
    """Bisection over the values gives #{eigenvalues < x} with multiplicity
    at every value, both float neighbours of it and every midpoint."""
    rng = random.Random(17)
    spectra = [Spectrum(()), Spectrum((SpectrumEntry(-2.5, 3),))]
    for _ in range(30):
        vals = sorted({rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.0, 5.0)
                       for _ in range(rng.randint(2, 9))})
        spectra.append(Spectrum(tuple(SpectrumEntry(v, rng.randint(1, 4))
                                      for v in vals)))
    assert any(e.mult > 1 for S in spectra for e in S.entries)
    for S in spectra:
        vals = S.values()
        probes = [-math.inf, math.inf]
        probes += [y for v in vals for y in (math.nextafter(v, -math.inf), v,
                                             math.nextafter(v, math.inf))]
        probes += [(a + b) / 2.0 for a, b in zip(vals, vals[1:])]
        for x in probes:
            assert S.count_below(x) == sum(e.mult for e in S.entries
                                           if e.value < x)
        assert S.total == sum(e.mult for e in S.entries)


def test_root_tree_structure():
    g = WeightedGraph.unit(3, [(0, 1), (1, 2)])
    T = RootedTree(g, 0)
    assert T.parent == [-1, 0, 1]
    assert T.children == ((1,), (2,), ())
    assert T.components == ((2, 1, 0),)  # children come before their parent
    T2 = RootedTree(g, 1)
    assert T2.parent[1] == -1
    assert set(T2.children[1]) == {0, 2}


# Three components on interleaved dense indices: 0-3-5, 1-4-{7, 8}, 2-6.
THREE_TREES = WeightedGraph(
    [(i, 1.0 + 0.1 * i, 0.05 * i - 0.2) for i in range(9)],
    [(3, 0, 1.5), (5, 3, 0.7), (1, 4, 1.1), (4, 7, 0.9), (8, 4, 1.3),
     (6, 2, 0.6)])


def test_rooted_forest_components():
    """One rooting covers a forest: each component hangs from its smallest
    vertex, or from the given root in its own component, and the
    components partition the vertices, every child before its parent."""
    for root, roots in ((None, [0, 1, 2]), (7, [0, 2, 7])):
        T = RootedTree(THREE_TREES, root)
        assert [u for u in range(9) if T.parent[u] == -1] == roots
        assert [set(c) for c in T.components] == [{0, 3, 5}, {1, 4, 7, 8},
                                                  {2, 6}]
        assert sorted(u for c in T.components for u in c) == [*range(9)]
        assert [*T.plans] == [*T.components]
        for comp in T.components:
            assert T.parent[comp[-1]] == -1
            for i, u in enumerate(comp):
                assert set(T.children[u]) <= set(comp[:i])
    assert RootedTree(THREE_TREES, 7).components[1][-1] == 7


def test_rooted_tree_rejects_cycles():
    with pytest.raises(ValueError):
        RootedTree(WeightedGraph.unit(3, [(0, 1), (1, 2), (2, 0)]))
    with pytest.raises(ValueError):  # a cycle beside a tree
        RootedTree(WeightedGraph.unit(5, [(0, 1), (2, 3), (3, 4), (4, 2)]))


def test_forest_questions_build_no_subgraph(monkeypatch):
    """Spectra, counts and bases of a forest run on its one rooting: no
    component is cut out as a graph of its own."""
    def cut(*_args, **_kwargs):
        raise AssertionError("induced_subgraph called")

    monkeypatch.setattr(core, "induced_subgraph", cut)
    assert not hasattr(treespec, "induced_subgraph")
    assert not hasattr(treespec, "connected_components")
    for p in (1.5, 2.0, 3.0):
        H = Operator(THREE_TREES, p)
        spec = tree_spectrum(H)
        assert spec.total == 9
        assert tree_eigenpairs(H).values() == spec.values()
        middle = 0.5 * (spec.values()[0] + spec.values()[1])
        assert ForestCount(H).count_below(middle) == spec.entries[0].mult
        assert forest_eigenbasis(H, spec.values()[0])


def test_forest_bases_live_on_one_component():
    """Every eigenfunction of a forest is supported on a single component,
    also where copies of one tree share every value, and each entry has
    one function per unit of multiplicity."""
    twin = copy_forest(random.Random(3), 3)
    for g in (THREE_TREES, twin):
        T = RootedTree(g)
        label = np.empty(g.n, dtype=int)
        for c, comp in enumerate(T.components):
            label[list(comp)] = c
        for p in (1.5, 3.0):
            H = Operator(g, p)
            for e in tree_eigenpairs(H).entries:
                assert len(e.basis) == e.mult
                for f in e.basis:
                    assert len(set(label[f.values != 0.0])) == 1
                    assert residual(H, f, e.value) < 1e-8


def test_eval_vertices_values_and_poles():
    """The g recursion on the unit path 0-1-2 rooted at 0, at p = 2."""
    g = WeightedGraph.unit(3, [(0, 1), (1, 2)])
    H = Operator(g, 2.0)
    T = RootedTree(g, 0)

    def gvals(lam):
        vals = [0.0] * g.n
        treespec._eval_vertices(H, lam, T.plans[T.components[0]], vals)
        return vals

    # a unit leaf at p = 2 has g(lam) = 1 - lam
    assert gvals(0.25)[2] == 0.75
    # the leaf's zero is the parent's pole, which washes out at the root
    at_one = gvals(1.0)
    assert at_one[2] == 0.0
    assert at_one[1] == treespec.POLE
    assert math.isfinite(at_one[0])
    # g decreases between consecutive poles
    assert gvals(0.5)[1] > gvals(0.9)[1]


def test_eval_vertices_leaves_first_poles_and_roots():
    """The unit star K1,3 beside an isolated vertex, at p = 2: the plan
    lists the leaves before the centre, whose children keep their order.
    At lambda = 1 every leaf reads exactly 0.0 and the centre the pole
    marker, and the isolated vertex, a leaf that is also a root, takes the
    root's -1 and unit parent weight."""
    g = WeightedGraph.unit(5, [(0, 1), (0, 2), (0, 3)])
    H = Operator(g, 2.0)
    T = RootedTree(g)
    star, single = T.components
    leaves, inner = T.plans[star]
    assert sorted(u for u, *_ in leaves) == [1, 2, 3]
    assert [(u, root, w, kids) for u, _k, _r, root, w, kids in inner] == [
        (0, True, 1.0, tuple((v, 1.0) for v in T.children[0]))]
    assert T.plans[single] == (((4, 0.0, 1.0, True, 1.0),), ())
    vals = [0.0] * g.n
    assert treespec._eval_vertices(H, 1.0, T.plans[star], vals) == 1
    assert vals[:4] == [treespec.POLE, 0.0, 0.0, 0.0]
    assert treespec._eval_vertices(H, 1.0, T.plans[single], vals) == 1
    assert vals[4] == -1.0  # 1 + (0 - 1 - 1) / 1; a non-root would read 0.0
    spec = tree_spectrum(H)
    assert np.allclose(spec.flat(), [0.0, 0.0, 1.0, 1.0, 4.0], atol=1e-9)
    assert ForestCount(H).count_below(1.0) == spec.count_below(1.0) == 2


def test_eval_vertices_count_is_the_negative_entries():
    """The count a pass returns is the number of entries of its list that
    `_negative` marks, on random forests at random points, at every
    eigenvalue and at both its float neighbours, and at 1, where every
    unit leaf reads exactly 0.0 and the unit star's centre the pole marker:
    one sign rule serves the count and `_windows`."""
    rng = random.Random(2024)
    unit_star = WeightedGraph.unit(4, [(0, 1), (0, 2), (0, 3)])
    poles = 0
    for p in (1.2, 2.0, 3.0):
        graphs = [unit_star] + [random_forest(rng) for _ in range(6)]
        for g in graphs:
            H = Operator(g, p)
            T = RootedTree(g)
            vals = tree_spectrum(H).values()
            probes = [1.0] + [rng.uniform(vals[0] - 1.0, vals[-1] + 1.0)
                              for _ in range(8)]
            probes += [y for v in vals for y in (math.nextafter(v, -math.inf),
                                                 v, math.nextafter(v, math.inf))]
            for plan in T.plans.values():
                for x in probes:
                    out = [0.0] * g.n
                    neg = treespec._eval_vertices(H, x, plan, out)
                    assert neg == sum(map(treespec._negative, out)), (p, x)
                    poles += treespec.POLE in out
    assert poles > 0


def _scalar_passes(H, plan, size, xs):
    """(float.hex of every entry, count) of one `_eval_vertices` pass per
    probe, or the exception the first raising pass raises."""
    out = []
    for x in xs:
        vals = [0.0] * size
        try:
            c = treespec._eval_vertices(H, x, plan, vals)
        except OverflowError as exc:
            return exc
        out.append(([v.hex() for v in vals], c))
    return out


def _hex_passes(got):
    return [([v.hex() for v in vals], c) for vals, c in got]


def _not_finite(want) -> list:
    """Per pass of `_scalar_passes`, whether it wrote a value that is not
    finite."""
    return [not all(math.isfinite(float.fromhex(v)) for v in vals)
            for vals, _c in want]


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
def test_lockstep_pass_is_the_scalar_pass_to_the_bit(monkeypatch, p):
    """One `_lockstep` pass writes every g list and count that one
    `_eval_vertices` pass per probe writes, float for float, on seeded
    trees, paths and stars and on each component of a forest, at -/+hi,
    at random points and exactly at the spectrum's values. Where a
    scalar pass writes a value that is not finite (the pole marker on the
    unit star at lambda = 1, every value at NaN) or raises OverflowError
    (a potential of 1e200 at p < 2), the lockstep pass returns None for
    that probe alone and the lists and counts of the others, and a round
    forced through it still gives the scalar lists, counts and
    exception."""
    rng = random.Random(31)
    graphs = [gen_graph(kind, n, random.Random(seed), weighted=True)
              for kind, n in (("tree", 40), ("path", 12), ("star", 15))
              for seed in (0, 1)]
    graphs.append(disjoint_union(*[random_tree(rng, n=rng.randint(2, 9))
                                   for _ in range(4)]))
    batched = 0
    for g in graphs:
        H = Operator(g, p)
        T = RootedTree(g)
        hi = core.spectral_bound(H) + 1.0
        values = tree_spectrum(H).values()
        xs = [-hi, hi, *values] + [rng.uniform(-hi, hi) for _ in range(20)]
        for order in T.components:
            plan, size = T.plans[order], max(order) + 1
            lanes = treespec._Lanes(plan, size)
            want = _scalar_passes(H, plan, size, xs)
            got = treespec._lockstep(H, lanes, xs)
            assert [col is None for col in got] == _not_finite(want), (g.n, p)
            if not any(_not_finite(want)):
                batched += 1
            # None where an exact hit on a leaf's zero leaves the pole marker
            assert _hex_passes(c for c in got if c is not None) == [
                w for w, bad in zip(want, _not_finite(want)) if not bad]
    assert batched >= len(graphs)

    _every_round_batched(monkeypatch)
    unit_star = gen_graph("star", 9, random.Random(0))
    huge = WeightedGraph([(0, 1.0, 1e200), (1, 1.0, 0.0), (2, 1.0, 0.0)],
                         [(0, 1, 1.0), (1, 2, 1.0)])
    for g, xs in ((unit_star, [0.5, 1.0, 2.0]), (graphs[0], [0.0, math.nan]),
                  (huge, [0.0, 1.0])):
        H = Operator(g, p)
        T = RootedTree(g)
        (order,) = T.components
        plan, size = T.plans[order], max(order) + 1
        lanes = treespec._Lanes(plan, size)
        want = _scalar_passes(H, plan, size, xs)
        if g is huge and p < 2.0:
            assert isinstance(want, OverflowError)
            with pytest.raises(OverflowError, match=re.escape(str(want))):
                treespec._passes(H, lanes, xs)
        else:
            if g is not huge:
                got = treespec._lockstep(H, lanes, xs)
                assert [col is None for col in got] == _not_finite(want)
                assert None in got and any(col is not None for col in got)
            assert _hex_passes(treespec._passes(H, lanes, xs)) == want


def test_tree_spectrum_frozen_cases():
    k2 = WeightedGraph.unit(2, [(0, 1)])
    assert np.allclose(tree_spectrum(Operator(k2, 2.0)).flat(), [0.0, 2.0],
                       atol=1e-9)

    path3 = WeightedGraph.unit(3, [(0, 1), (1, 2)])
    assert np.allclose(tree_spectrum(Operator(path3, 2.0)).flat(),
                       [0.0, 1.0, 3.0], atol=1e-9)

    star = WeightedGraph.unit(4, [(0, 1), (0, 2), (0, 3)])
    spec = tree_spectrum(Operator(star, 2.0))
    assert np.allclose(spec.flat(), [0.0, 1.0, 1.0, 4.0], atol=1e-9)
    assert [e.mult for e in spec.entries] == [1, 2, 1]


# float.hex of every tree_spectrum value of three `plap gen ... --weighted`
# documents at p = 1.2 and 3, each with its multiplicity and the
# ForestCount.count_below reading one ulp below it, at it and one ulp above
# it. Recorded from the dict walk that preceded the flat pass, they guard
# its floats: most changes to the operands or the order of the recursion's
# float operations move some of them, though an ulp that flips no sign the
# bisection reads leaves them as they are.
EXACT_PINS = {
    ("tree", 30, 0, 1.2): """
        -0x1.15fa34446f050p-5 1 0 0 0
        0x1.2451cc7d49e38p-3 1 2 2 2
        0x1.85e4e63799428p-3 1 3 3 3
        0x1.7a1b28e6a2ad1p-2 1 3 3 3
        0x1.87b186be06223p-2 1 5 5 5
        0x1.978df2053062ep-2 1 5 5 5
        0x1.e0ed27301796dp-2 1 7 7 7
        0x1.04e0f1e4d6f04p-1 1 8 8 8
        0x1.3233659ef87e6p-1 1 9 9 9
        0x1.9013836eea584p-1 1 10 10 10
        0x1.a6f0788a59ca0p-1 1 11 11 11
        0x1.ce6b7d4b081f2p-1 1 12 12 12
        0x1.db9421d7b0bf0p-1 1 13 13 13
        0x1.1fd9a1d0c915cp+0 1 14 14 14
        0x1.21e2b898c8871p+0 1 14 14 14
        0x1.452559a7c4fc8p+0 1 15 15 15
        0x1.6fc16c797d806p+0 1 17 17 17
        0x1.a1c29255f35fcp+0 1 18 18 18
        0x1.acf924fd7238ep+0 1 19 19 19
        0x1.c7f500f8cbf38p+0 1 20 20 20
        0x1.0d01db3f8df7ap+1 1 21 21 21
        0x1.172e8940df306p+1 1 22 22 22
        0x1.21139037823a3p+1 1 22 22 22
        0x1.48a32e82fbef6p+1 1 24 24 24
        0x1.57ba9866fe06ap+1 1 25 25 25
        0x1.8e3ce4b49dd8ap+1 1 26 26 26
        0x1.ba4c10516f4eap+1 1 27 27 27
        0x1.2e573a82d936ep+2 1 28 28 28
        0x1.4752576c76284p+2 1 28 28 28
        0x1.8643067658ca0p+2 1 30 30 30
    """,
    ("tree", 30, 0, 3.0): """
        -0x1.98e6ec9089332p-2 1 1 1 1
        -0x1.be38887bbac9ap-3 1 1 1 1
        -0x1.98c6a55354d08p-3 1 2 2 2
        0x1.6fcd04e11733ep-3 1 4 4 4
        0x1.3fe6e60d6e046p-2 1 4 4 4
        0x1.433d31d5a6352p-2 1 6 6 6
        0x1.94bb51413c8a0p-2 1 7 7 7
        0x1.e933251842294p-2 1 8 8 8
        0x1.f098b1aa02d48p-2 1 9 9 9
        0x1.4becf6fac6af4p-1 1 10 10 10
        0x1.4d59faf4f797ep-1 1 10 10 10
        0x1.c21a3e2249006p-1 1 12 12 12
        0x1.e6a85503aca38p-1 1 12 12 12
        0x1.003c0cb2f28f9p+0 1 14 14 14
        0x1.45b596fb19fe1p+0 1 14 14 14
        0x1.8f76b96644ba3p+0 1 16 16 16
        0x1.b4709155b5c13p+0 1 16 16 16
        0x1.ea12d90742c12p+0 1 18 18 18
        0x1.00e3235aa8d2cp+1 1 19 19 19
        0x1.49e051bd1badbp+1 1 19 19 19
        0x1.7b1b69dabf78bp+1 1 20 20 20
        0x1.2c174f4f19ae3p+2 1 21 21 21
        0x1.4a8f65f6505a9p+2 1 22 22 22
        0x1.5e32e55a0fffep+2 1 24 24 24
        0x1.913af80534826p+2 1 24 24 24
        0x1.088219d977c3dp+3 1 25 25 25
        0x1.181b6129b0481p+3 1 26 26 26
        0x1.4c80517c293ffp+3 1 28 28 28
        0x1.5fb1ef91b98dbp+3 1 28 28 28
        0x1.b194303b9d96bp+3 1 29 29 29
    """,
    ("path", 15, 1, 1.2): """
        -0x1.ec697fa8aae7cp-4 1 0 0 0
        -0x1.f8fef3322b346p-7 1 2 2 2
        0x1.3cbfe627003a6p-4 1 3 3 3
        0x1.04040943a1894p-2 1 3 3 3
        0x1.6af7f0974dc6ep-2 1 4 4 4
        0x1.42c05c902a958p-1 1 5 5 5
        0x1.860fe3badbf22p-1 1 6 6 6
        0x1.446977158e11cp+0 1 8 8 8
        0x1.89eb1ace83a8ap+0 1 9 9 9
        0x1.fad24897e8386p+0 1 10 10 10
        0x1.19d617fa516d0p+1 1 11 11 11
        0x1.2222bb6f34414p+1 1 12 12 12
        0x1.69849d92414b8p+1 1 12 12 12
        0x1.1867edaae6d72p+2 1 14 14 14
        0x1.5304d0f4a69fap+2 1 15 15 15
    """,
    ("path", 15, 1, 3.0): """
        -0x1.214d978e00d1cp-1 1 0 0 0
        -0x1.c43b8032fcaffp-2 1 2 2 2
        -0x1.86fba583cb9ecp-3 1 2 2 2
        -0x1.155ae9d64e72cp-4 1 3 3 3
        0x1.0da79eb514cfap-3 1 4 4 4
        0x1.0554d8ff9e8f2p-1 1 6 6 6
        0x1.4ba6d8eba19aap+0 1 7 7 7
        0x1.6f4e5aac153eap+1 1 7 7 7
        0x1.ddb352b8feb70p+1 1 9 9 9
        0x1.1933485ed6a96p+2 1 10 10 10
        0x1.558581f2cd5d0p+2 1 11 11 11
        0x1.aab6bafc042f0p+2 1 12 12 12
        0x1.b8456fc43ee0cp+2 1 12 12 12
        0x1.31948903bc1d0p+3 1 14 14 14
        0x1.6f561e3258f9cp+3 1 15 15 15
    """,
    ("star", 12, 2, 1.2): """
        -0x1.7d7807f9e50dep-4 1 1 1 1
        0x1.004611cf8635ap-3 1 2 2 2
        0x1.207cb59472cd4p-2 1 2 2 2
        0x1.a42fe16a219dap-2 1 3 3 3
        0x1.b3eb8e7f29eabp-2 1 5 5 5
        0x1.3b66616d1301ap-1 1 6 6 6
        0x1.aa65bdd69c25ap-1 1 7 7 7
        0x1.1822e4225c828p+0 1 8 8 8
        0x1.3f68e029175a4p+0 1 9 9 9
        0x1.51253736c22cfp+0 1 9 9 9
        0x1.e68750c2df22ap+0 1 10 10 10
        0x1.d90713a64e382p+2 1 11 11 11
    """,
    ("star", 12, 2, 3.0): """
        -0x1.83ef38a60aabep-1 1 0 0 0
        0x1.8ad938260c08ep-3 1 2 2 2
        0x1.35c09fbe00d4bp-2 1 3 3 3
        0x1.a5e84a3823cc4p-2 1 3 3 3
        0x1.128d1608ff8d7p-1 1 5 5 5
        0x1.489401202d02ap-1 1 6 6 6
        0x1.a87533ddf0281p-1 1 6 6 6
        0x1.0bf38caf9df84p+0 1 8 8 8
        0x1.31772bf0dd070p+0 1 9 9 9
        0x1.453fd3b1cccd5p+0 1 10 10 10
        0x1.7f5c76b9ef0cep+0 1 11 11 11
        0x1.d81789a225136p+3 1 11 11 11
    """,
}


def test_spectra_and_counts_are_pinned_to_the_bit():
    for (kind, n, seed, p), rows in EXACT_PINS.items():
        H = Operator(gen_graph(kind, n, random.Random(seed), weighted=True), p)
        counter = ForestCount(H)
        got = []
        for e in tree_spectrum(H).entries:
            v = e.value
            got.append(" ".join([v.hex(), str(e.mult)] + [
                str(counter.count_below(x))
                for x in (math.nextafter(v, -math.inf), v,
                          math.nextafter(v, math.inf))]))
        assert got == [r.strip() for r in rows.strip().splitlines()], (
            kind, n, seed, p)


# float.hex of the root's g value that one `_eval_vertices` pass writes at
# lambda = -2.45, -0.9 and -0.35 on the EXACT_PINS documents. Regula falsi
# steers on these values; a change that moves one of them by an ulp, such
# as taking the root's -1 before rho * lambda, flips no sign the count
# reads and so leaves EXACT_PINS as they are.
ROOT_G_LAMBDAS = (-2.45, -0.9, -0.35)
ROOT_G_PINS = {
    ("tree", 30, 0, 1.2):
        "0x1.048520c13044fp+14 0x1.4180ee16b0abbp+10 0x1.7dd45603faa56p+7",
    ("tree", 30, 0, 3.0):
        "0x1.a3a33bd670e39p+1 0x1.393cc9d4370dep+1 0x1.eb317d8976dc0p+0",
    ("path", 15, 1, 1.2):
        "0x1.e30ce7c8fae11p+5 0x1.9b6945b29c0dfp+1 0x1.2ae8f005512ffp+0",
    ("path", 15, 1, 3.0):
        "0x1.2c2a2c4f30be0p+1 0x1.c33d9e23b4c0cp+0 0x1.4b22ad446ec77p+0",
    ("star", 12, 2, 1.2):
        "0x1.f4f51525ed123p+19 0x1.9309452904c22p+15 0x1.1b802c81c369cp+7",
    ("star", 12, 2, 3.0):
        "0x1.00e18cfef4a88p+2 0x1.0af830fc5fa15p+1 -0x1.7538c97a2b4a9p+1",
}


def test_root_g_values_are_pinned_to_the_bit():
    assert set(ROOT_G_PINS) == set(EXACT_PINS)
    for (kind, n, seed, p), row in ROOT_G_PINS.items():
        H = Operator(gen_graph(kind, n, random.Random(seed), weighted=True), p)
        T = RootedTree(H.graph)
        (order,) = T.components
        got = []
        for lam in ROOT_G_LAMBDAS:
            vals = [0.0] * n
            treespec._eval_vertices(H, lam, T.plans[order], vals)
            got.append(vals[order[-1]].hex())
        assert " ".join(got) == row, (kind, n, seed, p)


def bisection_spectrum(H):
    """Reference spectrum: every interval across which a component's count
    rises is halved until its width is at most 1e-13 * max(1, min(|a|, |b|))
    or no float lies inside it, and its midpoint is taken; the values are
    then merged across components. ``tree_spectrum`` must return exactly
    these floats."""
    T = RootedTree(H.graph)
    pairs = []
    for order in T.components:
        plan, vals = T.plans[order], [0.0] * H.graph.n
        hi = float(np.max(core._vertex_bounds(H)[list(order)])) + 1.0
        stack = [(-hi, hi, 0, len(order))]
        while stack:
            a, b, ca, cb = stack.pop()
            mid = 0.5 * (a + b)
            if b - a <= 1e-13 * max(1.0, min(abs(a), abs(b))) or not a < mid < b:
                pairs.append((mid, cb - ca))
                continue
            cm = treespec._eval_vertices(H, mid, plan, vals)
            assert ca <= cm <= cb
            if cb > cm:
                stack.append((mid, b, cm, cb))
            if cm > ca:
                stack.append((a, mid, ca, cm))
    return [(center.hex(), sum(mults))
            for center, _vals, mults in cluster_tagged(pairs)]


#: The (kind, n) of the tree-route benchmark workload's spectrum documents,
#: pool members 0-2 each: gen_graph(kind, n, random.Random(j), weighted=True).
TREE_ROUTE_SPECTRA = [("tree", 30), ("tree", 60), ("tree", 90), ("tree", 120),
                      ("path", 15), ("path", 30), ("path", 45), ("star", 60)]


def test_counts_agree_with_a_50_digit_g_recursion():
    """At p = 3, on the tree-route spectrum documents, the g recursion in
    50-digit decimal arithmetic (`decimal_count`) counts what
    ``ForestCount`` and the spectrum count at the midpoint between every
    two consecutive eigenvalues, and it counts the same under every vertex
    as the root, one midpoint per root in turn."""
    for kind, n in TREE_ROUTE_SPECTRA:
        for j in (0, 1, 2):
            g = gen_graph(kind, n, random.Random(j), weighted=True)
            H = Operator(g, 3.0)
            spec, counter = tree_spectrum(H), ForestCount(H)
            values = spec.values()
            mids = [0.5 * (a + b) for a, b in zip(values, values[1:])]
            for x in mids:
                want = spec.count_below(x)
                assert counter.count_below(x) == want, (kind, n, j, x)
                assert decimal_count(g, 3.0, x) == want, (kind, n, j, x)
            for r in range(g.n):
                x = mids[r % len(mids)]
                assert decimal_count(g, 3.0, x, root=r) == spec.count_below(x), (
                    kind, n, j, r)


def _hex_entries(spec):
    return [(e.value.hex(), e.mult) for e in spec.entries]


def _every_round_batched(monkeypatch):
    """Make `_slice` count every round, of any width, by one `_lockstep`
    pass."""
    monkeypatch.setattr(treespec, "_lockstep_pays", lambda *args: 1)


def test_tree_spectrum_is_the_plain_bisection_to_the_bit():
    """Steering inside isolated brackets changes no float: on seeded trees,
    paths and stars, on forests of three and more components and on the
    unweighted star, whose repeated eigenvalue is halved on the stack,
    values and multiplicities equal the reference bisection's. So do the
    benchmark's path 45 (members 0-2) at p = 1.2, tree 120 (member 0) at
    p = 1.2 and 3 and star 60 (member 0) at p = 3, where the division walk
    and the fallback to `_steering` both fire, and path 45, tree 12 and
    tree 60 (member 0) at p = 3: the first two below the crossover of
    every round, the last above it."""
    _assert_bisection_corpus()


def test_tree_spectrum_is_the_plain_bisection_with_every_round_batched(
        monkeypatch):
    """The corpus of `test_tree_spectrum_is_the_plain_bisection_to_the_bit`
    gives the same floats with every round of every component, of any
    width, counted by one lockstep pass."""
    _every_round_batched(monkeypatch)
    _assert_bisection_corpus()


def _assert_bisection_corpus():
    graphs = [gen_graph(kind, n, random.Random(seed), weighted=True)
              for kind, n in (("tree", 24), ("path", 18), ("star", 14))
              for seed in (0, 1, 2)]
    rng = random.Random(73)
    graphs += [THREE_TREES,
               disjoint_union(*[random_tree(rng, n=rng.randint(2, 7))
                                for _ in range(5)])]
    star = gen_graph("star", 9, random.Random(0))
    for p in (1.2, 1.5, 2.0, 3.0):
        for g in graphs + [star]:
            H = Operator(g, p)
            assert _hex_entries(tree_spectrum(H)) == bisection_spectrum(H), (
                g.n, p)
        mults = [e.mult for e in tree_spectrum(Operator(star, p)).entries]
        assert max(mults) == 7
    for kind, n, seed, p in [("path", 45, 0, 1.2), ("path", 45, 1, 1.2),
                             ("path", 45, 2, 1.2), ("tree", 120, 0, 1.2),
                             ("tree", 120, 0, 3.0), ("star", 60, 0, 3.0),
                             ("path", 45, 0, 3.0), ("tree", 12, 0, 3.0),
                             ("tree", 60, 0, 3.0)]:
        H = Operator(gen_graph(kind, n, random.Random(seed), weighted=True), p)
        assert _hex_entries(tree_spectrum(H)) == bisection_spectrum(H), (
            kind, n, seed, p)


def test_rounds_hold_at_most_the_brackets_in_flight(monkeypatch):
    """A round of `_slice` counts at most IN_FLIGHT isolated brackets and
    HALVINGS halvings, and on a tree of 150 vertices more than half as
    many. The values do not depend on those bounds: rounds of at most eight
    isolated brackets and one halving give the same floats, and so do
    rounds of at most two probes, where no round reaches the crossover,
    and the reference bisection."""
    widths = []
    inner = treespec._passes

    def counted(H, lanes, xs):
        widths.append(len(xs))
        return inner(H, lanes, xs)

    monkeypatch.setattr(treespec, "_passes", counted)
    H = Operator(gen_graph("tree", 150, random.Random(4), weighted=True), 1.5)
    want = _hex_entries(tree_spectrum(H))
    assert want == bisection_spectrum(H)
    assert treespec.IN_FLIGHT // 2 < max(widths)
    assert max(widths) <= treespec.IN_FLIGHT + treespec.HALVINGS
    for in_flight in (8, 1):  # the crossover of this tree is 7 probes
        widths.clear()
        monkeypatch.setattr(treespec, "IN_FLIGHT", in_flight)
        monkeypatch.setattr(treespec, "HALVINGS", 1)
        assert _hex_entries(tree_spectrum(H)) == want
        assert max(widths) <= treespec.IN_FLIGHT + treespec.HALVINGS


def test_every_probe_is_pinned(monkeypatch):
    """The probes that `_passes` counts during one ``tree_spectrum`` each of
    path 45 at p = 1.2, tree 120 at p = 1.2 and 3, star 60 at p = 3 (member
    0 each) and a seeded forest of four trees at p = 1.5 are pinned by
    their number and the SHA-256 of their sorted float.hex. A bracket's
    probes depend on its own counts alone, so the pin does not depend on
    which brackets share a round."""
    probes = []
    inner = treespec._passes

    def counted(H, lanes, xs):
        probes.extend(xs)
        return inner(H, lanes, xs)

    monkeypatch.setattr(treespec, "_passes", counted)
    rng = random.Random(5)
    for g, p in [(gen_graph("path", 45, random.Random(0), weighted=True), 1.2),
                 (gen_graph("tree", 120, random.Random(0), weighted=True), 1.2),
                 (gen_graph("tree", 120, random.Random(0), weighted=True), 3.0),
                 (gen_graph("star", 60, random.Random(0), weighted=True), 3.0),
                 (disjoint_union(*[random_tree(rng, n=rng.randint(3, 9))
                                   for _ in range(4)]), 1.5)]:
        tree_spectrum(Operator(g, p))
    digest = hashlib.sha256(
        " ".join(sorted(x.hex() for x in probes)).encode()).hexdigest()
    assert (len(probes), digest) == (
        3868, "50b4f39438392aef7287f18d5b96b918d3adce78bd6988f86cd93ef249484f68")


def test_slicing_keeps_float64_columns(monkeypatch):
    """The `tracemalloc` peak of ``tree_spectrum`` on ``gen tree 400 --seed 0
    --weighted`` at p = 3 is at most 2.5 MiB, half of the 5.0 MiB it took
    while every lockstep pass's g values became lists of Python floats
    (32 bytes a value where a float64 column takes 8); it reads 1.96
    MiB."""
    H = Operator(gen_graph("tree", 400, random.Random(0), weighted=True), 3.0)
    tracemalloc.start()
    try:
        tree_spectrum(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20, peak / 2 ** 20


def _hex_list(vals, order) -> list:
    return [vals[u].hex() for u in order]


def test_isolated_brackets_enter_with_the_passes_at_their_ends(monkeypatch):
    """Every isolated bracket opens (`_Bracket`) with the columns of a
    fresh pass at each of its ends, and they read the same once the
    spectrum is done: no column that neighbouring intervals share is
    written as scratch. On a forest no column reaches past the component's
    largest vertex. With every round batched every column is a read-only
    view of float64 bytes of its own, whose numpy view is not writeable,
    so a write to one raises."""
    inner = treespec._Bracket.__init__
    seen = []

    def checked(self, scope, a, b, ca, cb, at_lo, at_hi):
        T, H, plan = scope
        order = next(c for c in T.components if T.plans[c] is plan)
        assert cb == ca + 1
        for x, kept, count in ((a, at_lo, ca), (b, at_hi, cb)):
            assert len(kept) == max(order) + 1
            fresh = [0.0] * len(kept)
            assert treespec._eval_vertices(H, x, plan, fresh) == count
            assert _hex_list(kept, order) == _hex_list(fresh, order)
            seen.append((kept, order, _hex_list(fresh, order)))
            if batched:  # a float64 buffer of its own
                assert isinstance(kept, memoryview) and kept.format == "d"
                assert isinstance(kept.obj, bytes) and kept.readonly
                assert not np.frombuffer(kept).flags.writeable
                with pytest.raises(TypeError, match="read-only"):
                    kept[order[0]] = 0.0
        inner(self, scope, a, b, ca, cb, at_lo, at_hi)

    monkeypatch.setattr(treespec._Bracket, "__init__", checked)
    rng = random.Random(5)
    cases = [(gen_graph("path", 45, random.Random(0), weighted=True), 1.2),
             (gen_graph("tree", 60, random.Random(1), weighted=True), 3.0),
             (gen_graph("star", 30, random.Random(2), weighted=True), 3.0),
             (disjoint_union(*[random_tree(rng, n=rng.randint(3, 9))
                               for _ in range(4)]), 1.5)]
    for batched in (False, True):
        if batched:
            _every_round_batched(monkeypatch)
        for g, p in cases:
            seen.clear()
            spec = tree_spectrum(Operator(g, p))
            # two ends a bracket, and every value has multiplicity one
            assert len(seen) == 2 * spec.total
            for kept, order, want in seen:
                assert _hex_list(kept, order) == want


@pytest.mark.parametrize("fault", ["no single vertex", "zero g", "overflow"])
def test_isolated_falls_back_to_steering(monkeypatch, fault):
    """Where the count rises at more than one vertex, a g on the division
    walk is exactly 0.0 or the walk's product overflows, a `_Bracket` picks
    u* with `_steering` at once and still returns the bisection's
    floats."""
    H = Operator(gen_graph("tree", 30, random.Random(0), weighted=True), 3.0)
    T = RootedTree(H.graph)
    (order,) = T.components
    root = order[-1]
    vals = [0.0] * H.graph.n
    treespec._eval_vertices(H, -0.5, T.plans[order], vals)
    assert treespec._largest_entry(T, vals, root) >= 0
    zero = vals.copy()
    zero[T.children[root][0]] = 0.0
    assert treespec._largest_entry(T, zero, root) == -1
    for bad in (1e-200, 1e-310, math.nan):  # f overflows, or is NaN
        assert treespec._largest_entry(T, [bad] * H.graph.n, root) == -1
    want = bisection_spectrum(H)

    walk, steer = treespec._largest_entry, treespec._steering
    events = []
    bad = {"zero g": 0.0, "overflow": 1e-310}.get(fault)

    def faulty_walk(T, vals, v):
        star = walk(T, [bad] * len(vals), v)
        events.append("walk" if star >= 0 else "failed walk")
        return star

    def counted_steering(*args):
        events.append("steering")
        return steer(*args)

    monkeypatch.setattr(treespec, "_steering", counted_steering)
    monkeypatch.setattr(treespec, "_largest_entry", faulty_walk)
    if fault == "no single vertex":
        monkeypatch.setattr(treespec, "_flip_vertex",
                            lambda order, lows, highs: [-1] * len(lows))
    assert _hex_entries(tree_spectrum(H)) == want
    if fault == "no single vertex":
        assert events == ["steering"] * H.graph.n
    else:
        failed = [i for i, e in enumerate(events) if e == "failed walk"]
        assert len(failed) >= H.graph.n // 2
        assert all(events[i + 1] == "steering" for i in failed)


def _counted_calls(monkeypatch, name: str) -> list:
    """A list that gains one entry per call of ``treespec.<name>`` from
    now on."""
    calls = []
    inner = getattr(treespec, name)

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(treespec, name, counted)
    return calls


def _counted_passes(monkeypatch) -> list:
    """A list that gains one entry per counting pass from now on: one per
    `_eval_vertices` call and one per probe for which a `_lockstep` pass
    returns a list. A probe it returns None for is left to
    `_eval_vertices`, which counts it there."""
    calls = _counted_calls(monkeypatch, "_eval_vertices")
    inner = treespec._lockstep

    def counted(H, lanes, xs):
        got = inner(H, lanes, xs)
        calls.extend(1 for col in got if col is not None)
        return got

    monkeypatch.setattr(treespec, "_lockstep", counted)
    return calls


def test_isolated_eigenvalues_take_fewer_counting_passes(monkeypatch):
    """On ``gen tree 120 --seed 0 --weighted`` at p = 3 the spectrum takes at
    most 0.25 times the counting passes of the reference bisection (1097 of
    4729), and `_steering` runs for at most 0.33 of the eigenvalues (35 of
    120)."""
    H = Operator(gen_graph("tree", 120, random.Random(0), weighted=True), 3.0)
    passes = _counted_passes(monkeypatch)
    steered = _counted_calls(monkeypatch, "_steering")
    want = bisection_spectrum(H)
    plain = len(passes)
    passes.clear()
    assert _hex_entries(tree_spectrum(H)) == want
    assert len(passes) <= 0.25 * plain, (len(passes), plain)
    assert len(steered) <= 0.33 * 120, len(steered)


@pytest.mark.parametrize("kind, n, p", [("path", 45, 1.2), ("star", 60, 1.2),
                                        ("star", 60, 3.0)])
def test_isolated_eigenvalues_steer_where_the_root_is_small(monkeypatch, kind,
                                                            n, p):
    """Paths and the star, where many eigenfunctions are small at the root,
    take at most 15.1 (path, p = 1.2), 8.8 (star, p = 1.2) and 11.0 (star,
    p = 3) counting passes per eigenvalue, about 10 % above the most a
    member takes (13.87, 8.00 and 9.93; the root's g steered them to
    32-37), call `_steering` for at most 0.6, 0.05 and 0.1 of the
    eigenvalues (members: up to 0.53, 0.017 and 0.083), and still return
    the reference bisection's floats."""
    limit, steer_limit = {("path", 1.2): (15.1, 0.6),
                          ("star", 1.2): (8.8, 0.05),
                          ("star", 3.0): (11.0, 0.1)}[kind, p]
    passes = _counted_passes(monkeypatch)
    steered = _counted_calls(monkeypatch, "_steering")
    for seed in (0, 1, 2):
        H = Operator(gen_graph(kind, n, random.Random(seed), weighted=True), p)
        want = bisection_spectrum(H)
        passes.clear()
        steered.clear()
        spec = tree_spectrum(H)
        assert _hex_entries(spec) == want, seed
        assert len(passes) <= limit * spec.total, (seed, len(passes) / spec.total)
        assert len(steered) <= steer_limit * spec.total, (
            seed, len(steered) / spec.total)


def test_trees_steer_only_where_narrowing_finds_no_flip_vertex(monkeypatch):
    """On ``gen tree 120 --weighted`` at p = 1.2, pool members 0-2,
    a `_Bracket` waits until it is SECANT_REL wide before it
    steers, by when the division walk picks u* for most eigenvalues:
    `_steering` runs for at most 0.12 of them, about 10 % above the most a
    member takes (0.108; 0.35-0.375 with SECANT_REL at 1e-2), and the
    values are still the reference bisection's floats."""
    steered = _counted_calls(monkeypatch, "_steering")
    for seed in (0, 1, 2):
        H = Operator(gen_graph("tree", 120, random.Random(seed), weighted=True),
                     1.2)
        want = bisection_spectrum(H)
        steered.clear()
        spec = tree_spectrum(H)
        assert _hex_entries(spec) == want, seed
        assert len(steered) <= 0.12 * spec.total, (seed, len(steered) / spec.total)


def test_isolated_falls_back_to_regula_falsi_on_gamma(monkeypatch):
    """Where the Moebius zero is NaN, each probe on the re-rooted g is the
    regula falsi point on its values at the bracket's ends, and the values
    are still the reference bisection's floats."""
    calls = []

    def no_zero(pts):
        calls.append(1)
        return math.nan

    monkeypatch.setattr(treespec, "_moebius_zero", no_zero)
    for kind, n, p in (("tree", 30, 1.2), ("path", 15, 3.0), ("star", 20, 3.0)):
        H = Operator(gen_graph(kind, n, random.Random(0), weighted=True), p)
        calls.clear()
        assert _hex_entries(tree_spectrum(H)) == bisection_spectrum(H), (kind, p)
        assert len(calls) >= n  # on average one fallback or more per value


def test_steering_picks_the_eigenfunctions_largest_entry():
    """Just above a simple eigenvalue the re-rooted g is smallest in
    magnitude at the vertex where the eigenfunction is largest; at p = 1.2
    a tie within 1e-9 may go either way."""
    for p in (1.2, 2.0, 3.0):
        for kind, n, seed in (("tree", 30, 0), ("path", 15, 0), ("star", 12, 0)):
            H = Operator(gen_graph(kind, n, random.Random(seed), weighted=True), p)
            T = RootedTree(H.graph)
            (order,) = T.components
            vals = [0.0] * n
            for e in tree_eigenpairs(H).entries:
                if e.mult > 1:
                    continue
                f = np.abs(e.basis[0].values)
                lam = e.value + 1e-4 * max(1.0, abs(e.value))
                treespec._eval_vertices(H, lam, T.plans[order], vals)
                path = treespec._steering(H, T, T.plans[order], vals, lam)
                assert path[0][0] == order[-1]  # the walk starts at the root
                star = path[-1][0]
                assert f[star] >= (1.0 - 1e-9) * f.max(), (kind, p, e.value)
                g = treespec._rerooted_g(H, path, vals, lam)
                assert -1e-2 < g < 0.0  # just past its zero, falling


def test_steering_gives_up_instead_of_raising(monkeypatch):
    """A g list whose 1 - 1/g squares past the float range at p = 3, or
    that holds exact zeros, gives no steering path and a NaN steering
    value, never an OverflowError or ZeroDivisionError; on NaN steering
    values a `_Bracket` halves and returns the same floats."""
    H = Operator(gen_graph("star", 8, random.Random(0), weighted=True), 3.0)
    T = RootedTree(H.graph)
    (order,) = T.components
    plan = T.plans[order]
    lam = 1e-3 + tree_spectrum(H).values()[0]
    vals = [0.0] * 8
    treespec._eval_vertices(H, lam, plan, vals)
    path = treespec._steering(H, T, plan, vals, lam)
    assert len(path) == 2  # from the centre down to a leaf
    for bad in ([1e-300] * 8, [0.0] * 8):
        assert treespec._steering(H, T, plan, bad, lam) == ()
        assert math.isnan(treespec._rerooted_g(H, path, bad, lam))
    monkeypatch.setattr(treespec, "_rerooted_g", lambda *args: math.nan)
    assert _hex_entries(tree_spectrum(H)) == bisection_spectrum(H)


def test_tree_spectrum_weighted_k2_closed_form():
    """For a two-vertex graph the top eigenvalue has the closed form
    omega (rho0^s + rho1^s)^(p-1) / (rho0 rho1) with s = 1/(p-1)."""
    rho0, rho1, omega = 2.0, 0.5, 1.5
    g = WeightedGraph([(0, rho0, 0.0), (1, rho1, 0.0)], [(0, 1, omega)])
    for p in (1.5, 2.0, 3.0):
        s = 1.0 / (p - 1.0)
        want = omega * (rho0 ** s + rho1 ** s) ** (p - 1.0) / (rho0 * rho1)
        vals = tree_spectrum(Operator(g, p)).flat()
        assert abs(vals[0]) < 1e-9
        assert math.isclose(vals[1], want, rel_tol=1e-9)


def test_tree_spectrum_invariant_under_relabeling():
    rng = random.Random(9)
    t = random_tree(rng, n=7)
    perm = list(range(7))
    rng.shuffle(perm)
    relabeled = WeightedGraph(
        [(perm[i], float(t.rho[i]), float(t.kappa[i])) for i in range(7)],
        [(perm[u], perm[v], w) for u, v, w in t.edges])
    for p in (1.6, 3.0):
        a = tree_spectrum(Operator(t, p))
        b = tree_spectrum(Operator(relabeled, p))
        assert [e.mult for e in a.entries] == [e.mult for e in b.entries]
        assert np.allclose(a.values(), b.values(), atol=1e-9)


def test_forest_spectrum_merges_components():
    g = WeightedGraph([(0, 1.0, 0.0), (1, 1.0, 0.0),
                       (2, 1.0, 0.0), (3, 1.0, 0.0)],
                      [(0, 1, 1.0), (2, 3, 2.0)])
    spec = tree_spectrum(Operator(g, 2.0))
    assert np.allclose(spec.flat(), [0.0, 0.0, 2.0, 4.0], atol=1e-9)
    assert spec.entries[0].mult == 2

    rng = random.Random(12)
    twin = copy_forest(rng, 2)
    single = WeightedGraph(
        [(i, float(twin.rho[i]), float(twin.kappa[i]))
         for i in range(twin.n // 2)],
        [(u, v, w) for u, v, w in twin.edges if u < twin.n // 2])
    for p in (1.5, 2.0):
        sd = tree_spectrum(Operator(twin, p))
        ss = tree_spectrum(Operator(single, p))
        assert np.allclose(sd.values(), ss.values(), atol=1e-9)
        assert [e.mult for e in sd.entries] == [2 * e.mult for e in ss.entries]


def test_tree_spectrum_rejects_cycles():
    g = WeightedGraph.unit(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        tree_spectrum(Operator(g, 2.0))


def test_tree_spectrum_matches_dense_route():
    rng = random.Random(21)
    for _ in range(30):
        t = random_tree(rng)
        H = Operator(t, 2.0)
        a = tree_spectrum(H)
        b = p2_spectrum(H)
        assert [e.mult for e in a.entries] == [e.mult for e in b.entries]
        for x, y in zip(a.values(), b.values()):
            assert abs(x - y) <= 1e-7 * max(1.0, abs(y))


def test_tree_spectrum_count_is_exact():
    rng = random.Random(33)
    for _ in range(20):
        t = random_tree(rng)
        for p in (1.5, 3.7):
            assert tree_spectrum(Operator(t, p)).total == t.n


def test_eigenbasis_path3_known_functions():
    g = WeightedGraph.unit(3, [(0, 1), (1, 2)])
    H = Operator(g, 2.0)
    T = RootedTree(g, 0)
    funcs = eigenbasis(H, T, 1.0)
    assert len(funcs) == 1
    v = funcs[0].values
    assert abs(v[1]) < 1e-12
    assert math.isclose(v[0], -v[2], rel_tol=1e-9)
    assert residual(H, funcs[0], 1.0) < 1e-10

    Hp = Operator(g, 3.0)
    for e in tree_spectrum(Hp).entries:
        for f in eigenbasis(Hp, T, e.value):
            assert residual(Hp, f, e.value) < 1e-9


def test_eigenbasis_star_multiplicity():
    star = WeightedGraph.unit(4, [(0, 1), (0, 2), (0, 3)])
    H = Operator(star, 2.0)
    T = RootedTree(star, 0)
    funcs = eigenbasis(H, T, 1.0)
    assert len(funcs) == 2
    mat = np.stack([f.values for f in funcs])
    assert np.linalg.matrix_rank(mat, tol=1e-8) == 2
    for f in funcs:
        assert abs(f.values[0]) < 1e-12  # all vanish at the center
        assert residual(H, f, 1.0) < 1e-10


def test_eigenbasis_rejects_non_eigenvalues():
    g = WeightedGraph.unit(3, [(0, 1), (1, 2)])
    H = Operator(g, 2.0)
    T = RootedTree(g, 0)
    with pytest.raises(ValueError):
        eigenbasis(H, T, 0.5)


def test_forest_eigenbasis_embeds_per_component():
    g = WeightedGraph([(0, 1.0, 0.0), (1, 1.0, 0.0),
                       (2, 1.0, 0.0), (3, 1.0, 0.0)],
                      [(0, 1, 1.0), (2, 3, 2.0)])
    H = Operator(g, 2.0)
    funcs = forest_eigenbasis(H, 4.0)  # only the omega = 2 component
    assert len(funcs) == 1
    v = funcs[0].values
    assert v[0] == 0.0 and v[1] == 0.0
    assert residual(H, funcs[0], 4.0) < 1e-10
    zero_funcs = forest_eigenbasis(H, 0.0)  # both components
    assert len(zero_funcs) == 2
    with pytest.raises(ValueError):
        forest_eigenbasis(H, 1.2345)


def test_near_degenerate_cluster_is_split():
    """Two eigenvalues only ~4e-10 apart must stay distinct: merging them
    would double-count a vertex and break the count rule."""
    H = Operator(NEAR_DEGENERATE_PATH, 1.2)
    spec = tree_spectrum(H)
    assert spec.total == 4
    for e in spec.entries:
        for f in forest_eigenbasis(H, e.value):
            assert residual(H, f, e.value) < 1e-8


def test_zero_pole_coalescence_keeps_count():
    """When a zero of some g collapses onto its pole at float resolution,
    the eigenvalue must still be counted and the basis reconstruction must
    stay accurate."""
    for p in (1.2, 2.0, 3.7):
        H = Operator(COALESCENT_TREE, p)
        assert tree_spectrum(H).total == 10
    H = Operator(COALESCENT_TREE, 1.2)
    for e in tree_spectrum(H).entries:
        for f in forest_eigenbasis(H, e.value):
            assert residual(H, f, e.value) < 1e-8


def test_sub_ulp_tie_keeps_count_and_value():
    """At p = 1.2 the float count of this tree returns a value within 1e-9
    of 1.036229155505207, and its basis has a defect of 7.4e-4. A 60-digit
    count reads 6 on both sides of that value, so it is no eigenvalue: the
    count steps from 5 to 6 at 1.0361066770800493. The pin holds the float
    kernel's answer with its p < 2 error (ROADMAP.md item 1), and the 1e-2
    bound the defect of a basis built at that value (item 4). At p = 2 and
    3.7 every basis of the same tree reaches 1e-8."""
    H = Operator(SUB_ULP_TIE_TREE, 1.2)
    spec = tree_spectrum(H)
    assert spec.total == 11
    lam = min(spec.values(), key=lambda v: abs(v - 1.036229155505207))
    assert math.isclose(lam, 1.036229155505207, rel_tol=1e-9)
    worst = 0.0
    for e in spec.entries:
        for f in forest_eigenbasis(H, e.value):
            worst = max(worst, residual(H, f, e.value))
    assert worst < 1e-2  # the documented representability floor
    # the same tree is unremarkable away from p < 2
    for p in (2.0, 3.7):
        Hp = Operator(SUB_ULP_TIE_TREE, p)
        for e in tree_spectrum(Hp).entries:
            for f in forest_eigenbasis(Hp, e.value):
                assert residual(Hp, f, e.value) < 1e-8


def test_forest_cut_from_a_weighted_cycle_keeps_every_eigenvalue():
    """The forest that ``reduce_to_forest`` cuts from ``gen cycle 40 --seed 5
    --weighted`` at p = 3 under its first eigenpair. Hunting each vertex's
    zeros between its poles lost one eigenvalue here (a multiplicity total
    of 39); the count finds all 40, the first eigenvalue among them."""
    H = Operator(gen_graph("cycle", 40, random.Random(5), weighted=True), 3.0)
    cert = first_eigenpair(H)
    forest, _steps = reduce_to_forest(H, cert, seed=0)
    spec = tree_spectrum(forest)
    assert spec.total == 40
    assert spec.find(cert.eigenvalue).mult >= 1


def test_tree_eigenpairs_equal_spectrum_and_forest_eigenbasis():
    """Every entry carries exactly tree_spectrum's value and multiplicity,
    and a basis equal to forest_eigenbasis at that value, bit for bit."""
    rng = random.Random(44)
    twin = copy_forest(rng, 2)
    forests = [disjoint_union(random_tree(rng, n=5), random_tree(rng, n=3),
                              random_tree(rng, n=4)),
               disjoint_union(random_tree(rng, n=6), random_tree(rng, n=2)),
               twin]
    for g in forests:
        for p in (1.5, 2.0, 3.0):
            H = Operator(g, p)
            pairs = tree_eigenpairs(H)
            spec = tree_spectrum(H)
            assert pairs.values() == spec.values()
            assert [e.mult for e in pairs.entries] == [e.mult for e in spec.entries]
            for e in pairs.entries:
                assert len(e.basis) == e.mult
                want = forest_eigenbasis(H, e.value)
                assert len(want) == len(e.basis)
                assert all(np.array_equal(f.values, w.values)
                           for f, w in zip(e.basis, want))
    # in the copy-forest every eigenvalue's basis spans both components
    half = twin.n // 2
    for e in tree_eigenpairs(Operator(twin, 3.0)).entries:
        support = np.any([f.values != 0.0 for f in e.basis], axis=0)
        assert support[:half].any() and support[half:].any()


def test_tree_eigenpairs_windows_each_value_on_its_own_components(monkeypatch):
    """On a union of 50 weighted 4-vertex trees a basis is built only on the
    components whose slicing produced its value: `_windows` counts one
    window per (value, component) pair, not one per value and component,
    and each component's windows in one call."""
    rng = random.Random(50)
    trees = [gen_graph("tree", 4, rng, weighted=True) for _ in range(50)]
    pairs = sum(len(tree_spectrum(Operator(t, 3.0)).entries) for t in trees)
    windows = []
    calls = []
    inner = treespec._windows

    def counted(T, H, lams, order):
        windows.extend(lams)
        calls.append(order)
        return inner(T, H, lams, order)

    monkeypatch.setattr(treespec, "_windows", counted)
    spec = tree_eigenpairs(Operator(disjoint_union(*trees), 3.0))
    assert len(windows) == pairs
    assert len(calls) == len(set(calls)) == 50
    assert sum(len(e.basis) for e in spec.entries) == spec.total == 200


def test_forest_eigenbasis_slices_nothing(monkeypatch):
    """A basis needs only counts around its eigenvalue, not the spectrum."""
    g = disjoint_union(random_tree(random.Random(5), n=6),
                       random_tree(random.Random(6), n=4))
    H = Operator(g, 3.0)
    lam = tree_spectrum(H).entries[0].value
    sliced = count_slices(monkeypatch)
    assert forest_eigenbasis(H, lam)
    assert sliced == []


def test_forest_count_matches_tree_spectrum():
    """#{eigenvalues < x} read off the signs of the g values equals the
    count taken from the full spectrum, on trees, forests and copy-forests."""
    rng = random.Random(808)
    probes = 0
    for p in (1.2, 1.5, 2.0, 3.0, 3.7):
        graphs = ([random_tree(rng) for _ in range(3)]
                  + [random_forest(rng) for _ in range(3)]
                  + [copy_forest(rng, rng.randint(2, 3))])
        for g in graphs:
            H = Operator(g, p)
            spec = tree_spectrum(H)
            counter = ForestCount(H)
            assert counter.total == spec.total == g.n
            vals = spec.values()
            lo, hi = vals[0] - 1.0, vals[-1] + 1.0
            for x in [lo, hi] + [rng.uniform(lo, hi) for _ in range(12)]:
                assert counter.count_below(x) == spec.count_below(x), (p, x)
                probes += 1
    assert probes == 5 * 7 * 14


def test_forest_count_on_stars_matches_the_closed_form():
    """The unit star with m leaves has the spectrum 0, 1 (m - 1 times) and
    (1 + m^(1/(p-1)))^(p-1) at every p. The count must read it at the
    midpoints between these values and just around each, on the star and
    on forests of 2 and 3 copies of it."""
    for m in (1, 2, 4, 6):
        star = WeightedGraph.unit(m + 1, [(0, i) for i in range(1, m + 1)])
        for p in (1.2, 1.5, 3.0, 3.7):
            top = (1.0 + m ** (1.0 / (p - 1.0))) ** (p - 1.0)
            spectrum = [0.0] + [1.0] * (m - 1) + [top]
            distinct = sorted(set(spectrum))
            probes = [0.5 * (a + b) for a, b in zip(distinct, distinct[1:])]
            for v in distinct:
                s = 1e-9 * max(1.0, abs(v))
                probes += [v - s, v + s]
            for copies in (1, 2, 3):
                counter = ForestCount(Operator(disjoint_union(*[star] * copies), p))
                for x in probes:
                    want = copies * sum(lam < x for lam in spectrum)
                    assert counter.count_below(x) == want, (m, p, copies, x)


def test_forest_count_brackets_the_descent_first_eigenvalue():
    """The first eigenvalue found by descent (core.first_eigenpair, which
    shares no code with the count) has nothing below it and itself just
    above it."""
    rng = random.Random(1717)
    for _ in range(10):
        t = random_tree(rng, n=rng.randint(3, 12))
        for p in (1.5, 3.0):
            H = Operator(t, p)
            lam = first_eigenpair(H).eigenvalue
            s = 1e-7 * max(1.0, abs(lam))
            counter = ForestCount(H)
            assert counter.count_below(lam - s) == 0, (t, p)
            assert counter.count_below(lam + s) >= 1, (t, p)


def test_forest_count_exact_hit_takes_the_left_limit():
    """At an eigenvalue the count is the number strictly below it: a g value
    of exactly zero is not negative, the pole it causes at the parent is.
    (At p = 3 one ulp above 1 the leaf value rounds to exactly 0, so that
    count still reads 1: a float floor of the recursion, not tested here.)"""
    H = Operator(gen_graph("star", 7, random.Random(0)), 2.0)
    counter = ForestCount(H)
    assert counter.count_below(1.0) == 1
    assert counter.count_below(math.nextafter(1.0, 2.0)) == 6
    assert counter.count_below(0.0) == 0
    assert counter.count_below(7.0) == 6
    assert counter.count_below(math.nextafter(7.0, 8.0)) == 7
    spec = tree_spectrum(H)
    assert [spec.count_below(x) for x in (0.5, 2.0, 8.0)] == [1, 6, 7]
    assert [spec.count_below(e.value) for e in spec.entries] == [0, 1, 6]


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
def test_huge_potentials_keep_the_end_counts(p):
    """On 2- and 3-vertex unit paths with one potential up to 1e17 the
    starting bracket of the slicing lies above the top eigenvalue: past
    2^50 the + 1.0 on the spectral bound falls below one ulp of it, and
    hi adds 8 ulps instead. The top value is at least the quotient
    kappa + 1 of the unit function at that vertex, to the slicing's
    precision."""
    for n in (2, 3):
        for at in range(n):
            for kappa in np.geomspace(1e14, 1e17, 13).tolist() + [2e16, 5e16]:
                g = WeightedGraph([(i, 1.0, kappa if i == at else 0.0)
                                   for i in range(n)],
                                  [(i - 1, i, 1.0) for i in range(1, n)])
                spec = tree_spectrum(Operator(g, p))
                assert spec.total == n, (n, at, kappa)
                top = spec.entries[-1].value
                assert top >= (kappa + 1.0) * (1.0 - 1e-13), (n, at, kappa)


def test_ordinary_brackets_start_at_the_bound_plus_one(monkeypatch):
    """Below a bound of 2^50 the first two counts sit at -(bound + 1) and
    bound + 1, so no ordinary spectrum moves."""
    H = Operator(gen_graph("tree", 12, random.Random(3), weighted=True), 1.5)
    bound = core.spectral_bound(H)
    seen = []
    inner = treespec._eval_vertices
    monkeypatch.setattr(treespec, "_eval_vertices",
                        lambda H, lam, plan, vals: seen.append(lam)
                        or inner(H, lam, plan, vals))
    tree_spectrum(H)
    assert seen[:2] == [-(bound + 1.0), bound + 1.0]
