"""Command-line surface: document parsing, the verbs, and exit codes."""

import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_eigh, count_slices, diamond_graph
from plap import cli, oracle, surgery, treespec
from plap.cli import (
    EXIT_CAPABILITY,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_STDOUT_CLOSED,
    EXIT_VIOLATION,
    gen_graph,
    graph_document,
    main,
    parse_document,
)
from plap.core import Operator, WeightedGraph


def diamond_doc(p=2.0, function=None):
    doc = {
        "p": p,
        "vertices": [{"id": i} for i in (1, 2, 3, 4)],
        "edges": [{"u": 1, "v": 2}, {"u": 2, "v": 3}, {"u": 3, "v": 4},
                  {"u": 4, "v": 1}, {"u": 2, "v": 4}],
    }
    if function is not None:
        doc["function"] = function
    return doc


def write_doc(tmp_path, doc, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_document_defaults_and_errors():
    g, p, boundary, func = parse_document(diamond_doc(p=3.0))
    assert g.n == 4 and p == 3.0 and boundary == [] and func is None
    assert list(g.rho) == [1.0] * 4  # rho defaults
    with pytest.raises(ValueError):
        parse_document([1, 2, 3])
    with pytest.raises(ValueError):
        parse_document({"vertices": [{"id": 0}]})  # no edges key
    with pytest.raises(ValueError):
        parse_document({"vertices": [{"rho": 1.0}], "edges": []})  # no id
    with pytest.raises(ValueError):
        parse_document({"vertices": [{"id": 0}], "edges": [],
                        "boundary": [7]})  # unknown boundary id
    with pytest.raises(ValueError):
        parse_document({"vertices": [{"id": 0}], "edges": [],
                        "function": {"9": 1.0}})


def test_parse_document_rejects_malformed_shapes():
    """Non-list vertices, edges or boundary and non-scalar numbers are bad
    input, not a TypeError."""
    base = {"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": 1}]}
    bad = [
        {"vertices": [{"id": 0}], "edges": None},
        {**base, "vertices": {"id": 0}},
        {**base, "boundary": 5},
        {**base, "boundary": None},
        {**base, "p": [3]},
        {**base, "vertices": [{"id": 0, "rho": [1]}, {"id": 1}]},
        {**base, "vertices": [{"id": 0, "kappa": {}}, {"id": 1}]},
        {**base, "edges": [{"u": 0, "v": 1, "omega": None}]},
        {**base, "vertices": [{"id": 0, "rho": 10 ** 400}, {"id": 1}]},
        {**base, "function": {"0": [1.0], "1": 0.0}},
        {**base, "p": True},
        {**base, "p": "3"},
        {**base, "vertices": [{"id": 0, "rho": True}, {"id": 1}]},
        {**base, "vertices": [{"id": 0, "kappa": "5"}, {"id": 1}]},
        {**base, "edges": [{"u": 0, "v": 1, "omega": "2"}]},
        {**base, "function": {"0": False, "1": 0.0}},
        {**base, "function": {"0": "1", "1": 0.0}},
    ]
    for doc in bad:
        with pytest.raises(ValueError):
            parse_document(doc)


def test_malformed_documents_exit_2(tmp_path, capsys):
    for i, doc in enumerate(({"vertices": [{"id": 0}], "edges": None},
                             {"vertices": [{"id": 0}], "edges": [],
                              "boundary": 5},
                             {"p": [3], "vertices": [{"id": 0}], "edges": []})):
        path = write_doc(tmp_path, doc, f"m{i}.json")
        assert main(["spectrum", path]) == EXIT_INPUT
    assert "Traceback" not in capsys.readouterr().err


_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                  st.floats(-3.0, 3.0), st.sampled_from([1e308, -1e-308]),
                  st.text(max_size=2))
_JSON = st.recursive(
    _LEAF, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3), max_leaves=6)


@st.composite
def _documents(draw):
    """A well-formed graph document with up to two fields replaced by
    arbitrary JSON, or now and then arbitrary JSON outright."""
    if draw(st.integers(0, 5)) == 5:
        return draw(_JSON)
    n = draw(st.integers(1, 4))
    pos = st.floats(0.1, 3.0)
    doc = {"p": draw(st.sampled_from([1.2, 2.0, 3.0])),
           "vertices": [{"id": i, "rho": draw(pos),
                         "kappa": draw(st.floats(-3.0, 3.0))} for i in range(n)],
           "edges": [{"u": i, "v": j, "omega": draw(pos)}
                     for i in range(n) for j in range(i + 1, n)
                     if draw(st.booleans())],
           "function": {str(i): draw(st.floats(-3.0, 3.0)) for i in range(n)}}
    holders = [doc, doc["function"], *doc["vertices"], *doc["edges"]]
    for _ in range(draw(st.integers(0, 2))):
        obj = draw(st.sampled_from(holders))
        obj[draw(st.sampled_from(sorted(obj) + ["boundary"]))] = draw(_JSON)
    return doc


_ARGV = [["spectrum", "-"], ["spectrum", "-", "--eigenbasis"],
         ["nodal", "-"], ["check", "-", "--all"], ["check", "-", "--lambda", "1"],
         ["surgery", "-", "--remove-node", "0"],
         ["surgery", "-", "--remove-edge", "0,1", "--lambda", "1"]]


@settings(max_examples=80, deadline=None)
@given(doc=_documents(), argv=st.sampled_from(_ARGV))
def test_every_document_gets_an_exit_code(doc, argv):
    """Small arbitrary documents on every verb that reads one (``gen`` reads
    none) end in a documented exit code with exactly one JSON document on
    stdout; no exception leaves main. An error's document names it."""
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_CAPABILITY, EXIT_VIOLATION)
    report = json.loads(out.getvalue())
    if "error" in report:
        assert report["exit_code"] == code != EXIT_OK
    else:
        assert code in (EXIT_OK, EXIT_VIOLATION)
        assert code == EXIT_OK or report["all_pass"] is False


@st.composite
def _extreme_documents(draw, function: bool = False):
    """A graph document of one to four vertices whose rho, omega and
    |kappa| are log-uniform in 1e-300 ... 1e300, kappa of either sign, at
    an exponent p in [1.001, 10]; with ``function``, it carries a
    ``"function"`` whose entries are log-uniform of either sign too."""
    def scale():
        return 10.0 ** draw(st.floats(-300.0, 300.0))

    def signed():
        return draw(st.sampled_from([-1.0, 1.0])) * scale()

    n = draw(st.integers(1, 4))
    doc = {"p": draw(st.floats(1.001, 10.0)),
           "vertices": [{"id": i, "rho": scale(), "kappa": signed()}
                        for i in range(n)],
           "edges": [{"u": i, "v": j, "omega": scale()}
                     for i in range(n) for j in range(i + 1, n)
                     if draw(st.booleans())]}
    if function:
        doc["function"] = {str(i): signed() for i in range(n)}
    return doc


#: (argv, whether the document carries a function): ``check --all``
#: rejects a document function, and the verbs after it need one.
_EXTREME_VERBS = [
    (["spectrum", "-"], False), (["spectrum", "-", "--eigenbasis"], False),
    (["check", "-", "--all"], False), (["nodal", "-"], True),
    (["check", "-", "--lambda", "1"], True),
    (["surgery", "-", "--remove-node", "0"], True),
    (["surgery", "-", "--remove-edge", "0,1", "--lambda", "1"], True)]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=st.sampled_from(_EXTREME_VERBS).flatmap(
    lambda case: st.tuples(st.just(case[0]), _extreme_documents(case[1]))))
def test_extreme_scales_get_an_exit_code_and_no_warning(case):
    """Documents whose weights span the float range end, on every verb
    that reads one, in a documented exit code with one strict JSON
    document on stdout (no NaN or Infinity), and no numpy warning is
    raised or printed on the way."""
    argv, doc = case
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_CAPABILITY, EXIT_VIOLATION)
    _strict_json(out.getvalue())
    assert not caught, [str(w.message) for w in caught]
    assert "Warning" not in err.getvalue(), err.getvalue()


def test_usage_errors_print_one_json_document(capsys):
    """argparse's usage errors follow the same contract: exit 2, the usage
    message on stderr, and one JSON document on stdout."""
    for argv in ([], ["spectrum"], ["frobnicate", "-"],
                 ["check", "-", "--bounds", "none"], ["gen", "tree", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT, argv
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["exit_code"] == EXIT_INPUT
        assert report["error"] in captured.err


def test_tol_must_be_finite_and_positive(tmp_path, capsys):
    """A NaN or infinite --tol would pass every residual check and a zero
    or negative one fail every one: each is a usage error (exit 2, one
    JSON document) on every verb that takes it, even where the function
    is not an eigenpair (residual 0.545)."""
    g = gen_graph("tree", 6, random.Random(0), weighted=True)
    path = write_doc(tmp_path, graph_document(g, p=3.0))
    f = json.dumps({str(i): i + 1.0 for i in range(6)})
    verbs = (["spectrum", path, "--eigenbasis"], ["check", path, "--all"],
             ["check", path, "--lambda", "0.5", "--function", f])
    for tol in ("nan", "inf", "0", "-1"):
        for argv in verbs:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--tol", tol])
            assert exc.value.code == EXIT_INPUT, (tol, argv)
            captured = capsys.readouterr()
            report = json.loads(captured.out)
            assert report["exit_code"] == EXIT_INPUT
            assert "finite and positive" in report["error"] in captured.err


def test_lambda_must_be_finite(tmp_path, capsys):
    """A NaN or infinite --lambda, or one past the float range, leaves no
    eigen-equation defect to measure: each is a usage error (exit 2, one
    JSON document) on both verbs that take it, where it was a numerical
    failure (exit 4). A finite value of either sign parses."""
    g = gen_graph("path", 3, random.Random(0))
    path = write_doc(tmp_path, graph_document(g))
    f = json.dumps({"0": 1.0, "1": 0.0, "2": -1.0})
    verbs = (["check", path, "--function", f],
             ["surgery", path, "--function", f, "--remove-edge", "0,1"])
    for lam in ("nan", "inf", "1e400", "-inf"):
        for argv in verbs:
            with pytest.raises(SystemExit) as exc:
                main([*argv, f"--lambda={lam}"])
            assert exc.value.code == EXIT_INPUT, (lam, argv)
            captured = capsys.readouterr()
            report = json.loads(captured.out)
            assert report["exit_code"] == EXIT_INPUT
            assert "must be finite" in report["error"] in captured.err
    assert cli.finite("-1e300") == -1e300 and cli.finite("0.5") == 0.5


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    """Two verbs and a usage error in one process build the parser once and
    give the exit codes, stdout and stderr of three fresh calls."""
    path = write_doc(tmp_path, graph_document(
        gen_graph("tree", 6, random.Random(1), weighted=True)))
    calls = (["spectrum", path, "--p", "3"], ["gen", "path", "4", "--seed", "2"],
             ["check", path, "--bounds", "none"])

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    built = []
    inner = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or inner())
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls] == fresh
    cli._parser.cache_clear()  # later tests get a parser from the real builder
    assert [code for code, _out, _err in fresh] == [EXIT_OK, EXIT_OK, EXIT_INPUT]
    assert built == [1]


def test_parse_document_strict_mode():
    doc = diamond_doc()
    doc["comment"] = "hi"
    g, _, _, _ = parse_document(doc)  # tolerated, warning only
    assert g.n == 4
    with pytest.raises(ValueError):
        parse_document(doc, strict=True)


def test_parse_document_rejects_colliding_json_keys():
    doc = {"vertices": [{"id": 1}, {"id": "1"}], "edges": [],
           "function": {"1": 1.0}}
    with pytest.raises(ValueError):
        parse_document(doc)


def test_document_round_trip():
    g = diamond_graph()
    doc = graph_document(g, p=2.5)
    g2, p2, _, _ = parse_document(doc)
    assert p2 == 2.5
    assert g2 == g
    assert graph_document(g2, p=p2) == doc


def test_gen_is_deterministic(capsys):
    assert main(["gen", "tree", "8", "--seed", "3", "--weighted"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["gen", "tree", "8", "--seed", "3", "--weighted"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    g, p, _, _ = parse_document(json.loads(first))
    assert g.n == 8 and p == 2.0
    assert len(g.edges) == 7


def test_spectrum_verb_dense_route(tmp_path, capsys):
    path = write_doc(tmp_path, diamond_doc())
    assert main(["spectrum", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 4
    vals = [e["value"] for e in out["spectrum"]]
    mults = [e["mult"] for e in out["spectrum"]]
    assert mults == [1, 1, 2]
    assert max(abs(v - w) for v, w in zip(vals, [0.0, 2.0, 4.0])) < 1e-9


def test_spectrum_verb_eigenbasis(tmp_path, capsys):
    path = write_doc(tmp_path, diamond_doc())
    assert main(["spectrum", path, "--eigenbasis"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert [len(rows) for rows in out["eigenbasis"]] == [1, 1, 2]
    flat = out["eigenbasis"][0][0]
    assert set(flat) == {"1", "2", "3", "4"}


def test_spectrum_verb_tree_route(tmp_path, capsys):
    doc = {"p": 3.0,
           "vertices": [{"id": i} for i in range(4)],
           "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2}, {"u": 1, "v": 3}]}
    path = write_doc(tmp_path, doc)
    assert main(["spectrum", path, "--eigenbasis"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert sum(e["mult"] for e in out["spectrum"]) == 4


def test_spectrum_capability_exit(tmp_path, capsys):
    doc = {"p": 2.5,
           "vertices": [{"id": i} for i in range(3)],
           "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2}, {"u": 2, "v": 0}]}
    path = write_doc(tmp_path, doc)
    assert main(["spectrum", path]) == EXIT_CAPABILITY
    assert "p = 2" in capsys.readouterr().err


def test_p2_spectrum_is_the_dense_route_and_oracle_no_verb(tmp_path, capsys):
    """``spectrum --p 2`` answers what the dense reference route answers;
    ``oracle`` is not a verb, so it is a usage error with one JSON
    document."""
    path = write_doc(tmp_path, diamond_doc(p=3.0))
    assert main(["spectrum", path, "--p", "2"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert [(round(e["value"], 9), e["mult"]) for e in out["spectrum"]] == [
        (0, 1), (2, 1), (4, 2)]  # the Laplacian of K4 minus an edge
    with pytest.raises(SystemExit) as exc:
        main(["oracle", path])
    assert exc.value.code == EXIT_INPUT
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == EXIT_INPUT


def test_nodal_verb(tmp_path, capsys):
    f = {"1": 1.0, "2": 0.0, "3": -1.0, "4": 0.0}
    path = write_doc(tmp_path, diamond_doc(function=f))
    assert main(["nodal", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["nu"] == 2
    assert out["z"] == 2
    assert out["bipartite"] is False
    # inline function overrides the document's
    assert main(["nodal", path, "--function",
                 json.dumps({"1": 1.0, "2": 1.0, "3": 1.0, "4": 1.0})]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["nu"] == 1


def test_nodal_needs_function(tmp_path, capsys):
    path = write_doc(tmp_path, diamond_doc())
    assert main(["nodal", path]) == EXIT_INPUT


def test_check_single_eigenpair(tmp_path, capsys):
    f = {"1": 1.0, "2": 0.0, "3": -1.0, "4": 0.0}
    path = write_doc(tmp_path, diamond_doc(function=f))
    assert main(["check", path, "--lambda", "2"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] is True
    assert out["checks"]


def test_check_rejects_non_eigenpairs(tmp_path, capsys):
    f = {"1": 1.0, "2": 0.0, "3": -1.0, "4": 0.0}
    path = write_doc(tmp_path, diamond_doc(function=f))
    assert main(["check", path, "--lambda", "2.1"]) == EXIT_INPUT
    assert "not an eigenpair" in capsys.readouterr().err


def test_check_of_a_tiny_function_reads_like_its_multiples(tmp_path, capsys):
    """A finite function whose p-th powers underflow is still checked: the
    residual scales it first, so it answers like {1, 1}, warning-free."""
    doc = {"p": 3.0, "vertices": [{"id": 0}, {"id": 1}],
           "edges": [{"u": 0, "v": 1}]}
    path = write_doc(tmp_path, doc)
    answers = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in ("1e-120", "1"):
            for lam in ("0", "5"):
                code = main(["check", path, "--lambda", lam, "--function",
                             f'{{"0": {value}, "1": {value}}}'])
                answers[value, lam] = (code, capsys.readouterr())
    for lam, want in (("0", EXIT_OK), ("5", EXIT_INPUT)):
        tiny, unit = answers["1e-120", lam], answers["1", lam]
        assert tiny[0] == unit[0] == want
        assert tiny[1].out == unit[1].out
    assert "not an eigenpair: residual 3.150e+00" in answers["1e-120", "5"][1].err


def test_check_all_rejects_lambda_and_function(tmp_path, capsys,
                                              monkeypatch):
    """``check --all`` checks the eigenpairs it computes, so an eigenpair
    given by --lambda or --function is rejected as bad input, with one
    error document, before any spectrum is computed."""
    path = write_doc(tmp_path, graph_document(
        gen_graph("graph", 6, random.Random(0), weighted=True), p=2.0))
    solved = count_eigh(monkeypatch)
    sliced = count_slices(monkeypatch)
    for extra in (["--lambda", "123"], ["--function", '{"0": 1}'],
                  ["--lambda", "123", "--function", '{"0": 1}']):
        for p in ("2", "3"):
            assert main(["check", path, "--all", "--p", p, *extra]) == EXIT_INPUT
            out = capsys.readouterr().out
            assert out.count("\n") == 1
            report = json.loads(out)
            assert report["exit_code"] == EXIT_INPUT
            assert "--lambda" in report["error"]
    assert solved == [] and sliced == []


def test_check_all_runs_clean(tmp_path, capsys):
    """Untampered inputs never trip the violation exit."""
    assert main(["gen", "tree", "7", "--seed", "5", "--weighted"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    path = write_doc(tmp_path, doc)
    assert main(["check", path, "--all"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] is True


def test_check_all_passes_on_a_weighted_path_at_p_1_2(tmp_path, capsys):
    """gen path 9 --seed 1 --weighted at p = 1.2, which once failed
    nodal-upper at lambda ~ 3.559. A path is the deepest case of the
    eigenvalue count, and every check on it passes. Two of its p = 1.2
    eigenfunctions have residuals of 8.5e-4 and 1.2e-3 (the float count at
    p < 2, ROADMAP item 1), so at the default --tol the certificates fail
    first, and the checks are read at --tol 1e-2."""
    doc = graph_document(gen_graph("path", 9, random.Random(1), weighted=True))
    path = write_doc(tmp_path, doc)
    assert main(["check", path, "--all", "--p", "1.2"]) == EXIT_VIOLATION
    assert capsys.readouterr().err == (
        "violated invariant: reconstructed eigenfunction at 2.454247866921251 "
        "has residual 0.0008473898563048916\n")
    assert main(["check", path, "--all", "--p", "1.2", "--tol", "1e-2"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] is True
    assert {row["name"] for row in out["checks"]} >= {
        "nodal-upper", "eigenvalue-floor", "weyl-edge"}


def test_surgery_verb_chord_removal(tmp_path, capsys):
    f = {"1": 1.0, "2": -1.0, "3": 1.0, "4": -1.0}
    path = write_doc(tmp_path, diamond_doc(function=f))
    assert main(["surgery", path, "--remove-edge", "2,4",
                 "--lambda", "4"]) == EXIT_OK
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert len(out["edges"]) == 4
    assert all(v.get("kappa", 0.0) == 0.0 for v in out["vertices"])
    assert "residual after surgery" in captured.err


def test_surgery_verb_node_removal(tmp_path, capsys):
    f = {"1": 1.0, "2": 0.0, "3": -1.0, "4": 0.0}
    path = write_doc(tmp_path, diamond_doc(function=f))
    assert main(["surgery", path, "--remove-node", "2",
                 "--remove-node", "4", "--lambda", "2"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert len(out["vertices"]) == 2
    assert {v["kappa"] for v in out["vertices"]} == {2.0}


def test_surgery_verb_stderr_is_pinned(tmp_path, capsys):
    """Each removal prints its compensations: an edge's in the (u, v) order
    given, a vertex's sorted by neighbour id, not in adjacency order."""
    doc = {
        "p": 3.0,
        "vertices": [{"id": "a", "rho": 1.0, "kappa": 0.5},
                     {"id": "b", "rho": 2.0}, {"id": "c"},
                     {"id": "d", "kappa": -0.25}, {"id": "e"},
                     {"id": "f", "rho": 0.5}],
        "edges": [{"u": "a", "v": "b", "omega": 2.0},
                  {"u": "c", "v": "d", "omega": 1.5},
                  {"u": "b", "v": "c", "omega": 0.5}, {"u": "d", "v": "e"},
                  {"u": "e", "v": "f", "omega": 3.0}, {"u": "f", "v": "a"},
                  {"u": "b", "v": "e", "omega": 0.75}],
        "function": {"a": 1.0, "b": -2.0, "c": 0.0, "d": 0.5, "e": 4.0,
                     "f": 0.0},
    }
    path = write_doc(tmp_path, doc)
    assert main(["surgery", path, "--remove-edge", "a,b",
                 "--remove-edge", "e,d", "--remove-node", "c",
                 "--remove-node", "f", "--lambda", "2"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == (
        "removed edge ('a', 'b'): alpha=-2, kappa['a'] += 18, "
        "kappa['b'] += 4.5\n"
        "removed edge ('e', 'd'): alpha=0.125, kappa['e'] += 0.765625, "
        "kappa['d'] += -49\n"
        "removed vertex 'c': kappa['b'] += 0.5, kappa['d'] += 1.5\n"
        "removed vertex 'f': kappa['a'] += 1, kappa['e'] += 3\n"
        "residual after surgery: 3.160e+00\n")
    out = json.loads(captured.out)
    assert [v["id"] for v in out["vertices"]] == ["a", "b", "d", "e"]
    assert out["function"] == {"a": 1.0, "b": -2.0, "d": 0.5, "e": 4.0}


def test_surgery_verb_guards(tmp_path, capsys):
    f = {"1": 1.0, "2": 0.0, "3": -1.0, "4": 0.0}
    path = write_doc(tmp_path, diamond_doc(function=f))
    # removing a vertex where f is nonzero would break the eigenpair
    assert main(["surgery", path, "--remove-node", "1"]) == EXIT_INPUT
    assert main(["surgery", path]) == EXIT_INPUT  # nothing to do
    assert main(["surgery", path, "--remove-edge", "1-2"]) == EXIT_INPUT
    # --lambda reports a residual, so it needs a function to report on
    bare = write_doc(tmp_path, diamond_doc(), "bare.json")
    capsys.readouterr()
    assert main(["surgery", bare, "--remove-node", "2",
                 "--lambda", "2"]) == EXIT_INPUT
    out = json.loads(capsys.readouterr().out)
    assert out["exit_code"] == EXIT_INPUT and "--lambda" in out["error"]
    with pytest.raises(SystemExit) as exc:  # no tolerance to set
        main(["surgery", path, "--remove-node", "2", "--tol", "1e-6"])
    assert exc.value.code == EXIT_INPUT
    # the zero band is sign_pattern's: 1e-12 * max|f|
    for value, code in ((1e-13, EXIT_OK), (1e-11, EXIT_INPUT)):
        f = {"1": 2.0, "2": 2.0 * value, "3": -1.0, "4": 0.0}
        path = write_doc(tmp_path, diamond_doc(function=f), "band.json")
        assert main(["surgery", path, "--remove-node", "2"]) == code
    capsys.readouterr()


def test_bad_documents_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spectrum", str(bad)]) == EXIT_INPUT

    dup = {"vertices": [{"id": 0}, {"id": 0}], "edges": []}
    assert main(["spectrum", write_doc(tmp_path, dup, "dup.json")]) == EXIT_INPUT

    missing = tmp_path / "none.json"
    assert main(["spectrum", str(missing)]) == EXIT_INPUT
    capsys.readouterr()


def test_strict_flag_rejects_unknown_fields(tmp_path, capsys):
    doc = diamond_doc()
    doc["note"] = "x"
    path = write_doc(tmp_path, doc)
    assert main(["spectrum", path]) == EXIT_OK
    assert "unknown document fields" in capsys.readouterr().err
    assert main(["spectrum", path, "--strict"]) == EXIT_INPUT


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_INPUT, EXIT_CAPABILITY, EXIT_VIOLATION) == (0, 2, 3, 4)


def test_spectrum_eigenbasis_slices_each_component_once(
        tmp_path, capsys, monkeypatch):
    doc = {"p": 3.0, "vertices": [{"id": i} for i in range(7)],
           "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2}, {"u": 1, "v": 3},
                     {"u": 4, "v": 5, "omega": 2.0}, {"u": 5, "v": 6}]}
    path = write_doc(tmp_path, doc)
    sliced = count_slices(monkeypatch)
    assert main(["spectrum", path, "--eigenbasis"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert [len(rows) for rows in out["eigenbasis"]] == [
        e["mult"] for e in out["spectrum"]]
    assert sorted(sliced) == [3, 4]


def test_p2_forest_above_dense_cap_takes_tree_route(tmp_path, capsys):
    star = graph_document(gen_graph("star", 513, random.Random(0)), p=2.0)
    path = write_doc(tmp_path, star)
    assert main(["spectrum", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    mults = {round(e["value"], 6): e["mult"] for e in out["spectrum"]}
    assert mults == {0: 1, 1: 511, 513: 1}

    cycle = graph_document(gen_graph("cycle", 513, random.Random(0)), p=2.0)
    assert main(["spectrum", write_doc(tmp_path, cycle, "c.json")]) == EXIT_CAPABILITY
    assert "512" in capsys.readouterr().err


def test_runtime_error_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    def fail(H):
        raise RuntimeError("outer bracket not positive at the low end")

    monkeypatch.setattr(treespec, "tree_spectrum", fail)
    doc = {"p": 3.0, "vertices": [{"id": i} for i in range(3)],
           "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2}]}
    assert main(["spectrum", write_doc(tmp_path, doc)]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "error": "outer bracket not positive at the low end",
        "exit_code": EXIT_VIOLATION}
    assert captured.err.count("\n") == 1
    assert "outer bracket" in captured.err and "Traceback" not in captured.err


def test_overflow_exits_4_without_traceback(tmp_path, capsys):
    """A finite document whose g recursion leaves the float range is a
    numerical failure, not a crash."""
    doc = {"p": 1.2, "vertices": [{"id": 0}, {"id": 1, "kappa": 1e308},
                                  {"id": 2}],
           "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2}]}
    assert main(["spectrum", write_doc(tmp_path, doc)]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert json.loads(captured.out)["exit_code"] == EXIT_VIOLATION
    assert "numerical failure" in captured.err


@pytest.mark.parametrize("p", ["1.2", "3"])
def test_overflowing_spectral_bound_says_so(tmp_path, capsys, p):
    """A spectral bound past the float range (4 * 1e300 / 1e-300) leaves no
    finite bracket for the count: exit 4 with one JSON document whose
    message names the float64 range, and no numpy warning."""
    path = write_doc(tmp_path, {
        "vertices": [{"id": 0, "rho": 1e-300}, {"id": 1}],
        "edges": [{"u": 0, "v": 1, "omega": 1e300}]})
    for argv in (["spectrum", path, "--p", p], ["check", path, "--all", "--p", p]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_VIOLATION, argv
        assert not [w for w in caught if w.category is RuntimeWarning], argv
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1
        report = json.loads(captured.out)
        assert "float64 range" in report["error"], report
        assert captured.err.startswith("numerical failure:"), captured.err


#: Valid documents whose arithmetic leaves the float range: the g recursion
#: overflows in the end pass at -hi (p = 5.04), the p = 2 matrix entry
#: omega / rho overflows, and a float power overflows inside a count
#: (p = 1.4202).
_FLOAT_RANGE_DOCS = {
    "end pass": ({"p": 5.043237421143029, "vertices": [
        {"id": 0, "rho": 4.6125967262017454e+29, "kappa": -3.6974533342023734e+191},
        {"id": 1, "rho": 2.4585657040803394e+218, "kappa": 6.886930462108767e+123}],
        "edges": [{"u": 0, "v": 1, "omega": 7.590119275661598e+291}]}, []),
    "p2 matrix": ({"vertices": [{"id": 0, "rho": 1e-300}, {"id": 1}],
                   "edges": [{"u": 0, "v": 1, "omega": 1e300}]}, ["--p", "2"]),
    "float power": ({"p": 1.4202, "vertices": [
        {"id": 0, "rho": 1.2e215, "kappa": 3.0e-49},
        {"id": 1, "rho": 2.6e24, "kappa": 1.4e36}],
        "edges": [{"u": 0, "v": 1, "omega": 1.6e109}]}, []),
}


@pytest.mark.parametrize("name", sorted(_FLOAT_RANGE_DOCS))
def test_leaving_the_float_range_is_a_numerical_failure(tmp_path, capsys, name):
    """Each document of _FLOAT_RANGE_DOCS exits 4 on ``spectrum`` and
    ``check --all`` with one JSON document whose message names the float64
    range, one stderr line, no traceback and no numpy warning."""
    doc, extra = _FLOAT_RANGE_DOCS[name]
    path = write_doc(tmp_path, doc)
    for argv in (["spectrum", path, *extra], ["check", path, "--all", *extra]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_VIOLATION, argv
        assert not [w for w in caught if w.category is RuntimeWarning], argv
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1
        report = json.loads(captured.out)
        assert report["exit_code"] == EXIT_VIOLATION
        assert "the float64 range (largest float 1.79769e+308)" in report["error"]
        assert captured.err.startswith("numerical failure:"), captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def _strict_json(text: str):
    """The JSON document ``text``, refusing NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("n", [1, 2])
def test_an_eigenvalue_at_the_float_range_edge_is_finite(tmp_path, capsys, n):
    """A lone vertex with kappa / rho = 1e308 has the one eigenvalue 1e308,
    and two such joined by a unit edge have it twice, to 1e-300: the
    bracket (-hi, hi) is wider than the largest float and the last
    halvings' sums of ends leave the float range, in an isolated bracket
    and in a halved one, yet ``spectrum`` prints the value, finite, to
    1e-8."""
    path = write_doc(tmp_path, {"p": 3, "vertices": [
        {"id": i, "kappa": 1e300, "rho": 1e-8} for i in range(n)],
        "edges": [{"u": 0, "v": 1, "omega": 1.0}][:n - 1]})
    assert main(["spectrum", path]) == EXIT_OK
    (entry,) = _strict_json(capsys.readouterr().out)["spectrum"]
    assert entry["mult"] == n
    assert abs(entry["value"] - 1e308) <= 1e-8 * 1e308, entry


def test_an_overflowing_residual_prints_no_warning(tmp_path, capsys):
    """Where the eigen-equation defect of a reconstructed eigenfunction
    leaves the float range, ``spectrum --eigenbasis`` and ``check --all``
    exit 4 with the residual failure, and stderr holds that one line and
    no numpy warning."""
    path = write_doc(tmp_path, {"p": 2.5, "vertices": [
        {"id": 0, "rho": 8.533259224287432e+170, "kappa": -2.8337562362318377e+242},
        {"id": 1, "rho": 1.010671056369484e+175, "kappa": -5.105370838541263e+65}],
        "edges": [{"u": 0, "v": 1, "omega": 6.541013967081399e+112}]})
    for argv in (["spectrum", path, "--eigenbasis"], ["check", path, "--all"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_VIOLATION, argv
        assert not caught, [str(w.message) for w in caught]
        captured = capsys.readouterr()
        assert "Warning" not in captured.err, captured.err
        assert captured.err.startswith(
            "violated invariant: reconstructed eigenfunction at"), captured.err
        assert captured.err.count("\n") == 1
        assert _strict_json(captured.out)["exit_code"] == EXIT_VIOLATION


def test_an_overflowing_newton_polish_prints_no_warning(tmp_path, capsys):
    """Where the Newton polish of a reconstructed eigenfunction assembles a
    Jacobian outside the float range, ``spectrum --eigenbasis`` and
    ``check --all`` exit 4 with one JSON document on stdout, and no numpy
    warning is raised or printed."""
    path = write_doc(tmp_path, {"p": 1.9813, "vertices": [
        {"id": 0, "rho": 3.5131768087927935e+172, "kappa": 8.478042158964898e+64},
        {"id": 1, "rho": 2.6030398888722223e+198, "kappa": 1.803926226060218e-234},
        {"id": 2, "rho": 6.43924842023688e-86, "kappa": -2.1145319369811585e+22}],
        "edges": [{"u": 1, "v": 0, "omega": 4.5902347272794584e+100},
                  {"u": 2, "v": 1, "omega": 5.253050818483572e-149}]})
    for argv in (["spectrum", path, "--eigenbasis"], ["check", path, "--all"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_VIOLATION, argv
        assert not caught, [str(w.message) for w in caught]
        captured = capsys.readouterr()
        assert "Warning" not in captured.err, captured.err
        assert _strict_json(captured.out)["exit_code"] == EXIT_VIOLATION


def test_a_report_holding_infinity_is_a_numerical_failure(tmp_path, capsys,
                                                          monkeypatch):
    """JSON has no Infinity: a report that would hold one is not printed.
    The request exits 4 with one JSON document naming the float64 range
    and one stderr line."""
    monkeypatch.setattr(cli, "full_spectrum", lambda H, bases=False:
                        treespec.Spectrum((treespec.SpectrumEntry(math.inf, 4),)))
    assert main(["spectrum", write_doc(tmp_path, diamond_doc(p=3.0))]) == (
        EXIT_VIOLATION)
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    report = _strict_json(captured.out)
    assert report["exit_code"] == EXIT_VIOLATION
    assert "the float64 range (largest float 1.79769e+308)" in report["error"]
    assert captured.err.startswith("numerical failure:"), captured.err
    assert captured.err.count("\n") == 1


def test_boundary_is_a_capability_limit(tmp_path, capsys):
    """A Dirichlet boundary is never dropped silently: every verb that reads
    a document refuses a non-empty one."""
    doc = {"p": 2.0, "vertices": [{"id": i} for i in range(3)],
           "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2}],
           "function": {"0": 1.0, "1": 0.0, "2": -1.0}, "boundary": []}
    free = write_doc(tmp_path, doc, "free.json")
    assert main(["spectrum", free]) == EXIT_OK
    doc["boundary"] = [0]
    fixed = write_doc(tmp_path, doc, "fixed.json")
    for argv in (["spectrum", fixed], ["nodal", fixed],
                 ["check", fixed, "--lambda", "1"],
                 ["surgery", fixed, "--remove-node", "1"]):
        assert main(argv) == EXIT_CAPABILITY, argv
    assert "boundar" in capsys.readouterr().err
    doc["boundary"] = [7]  # an unknown id stays bad input
    assert main(["spectrum", write_doc(tmp_path, doc, "bad.json")]) == EXIT_INPUT
    capsys.readouterr()


def test_check_all_slices_once(tmp_path, capsys, monkeypatch):
    """The Weyl rows count eigenvalues of every after-operator, so the only
    slicing is the one behind the before-spectrum."""
    doc = graph_document(gen_graph("tree", 10, random.Random(4), weighted=True))
    path = write_doc(tmp_path, doc)
    sliced = count_slices(monkeypatch)
    assert main(["check", path, "--all", "--p", "3"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert {row["name"] for row in out["checks"]} >= {"weyl-edge", "weyl-node"}
    assert sliced == [10]


def test_check_all_keeps_the_near_tie_verdict(tmp_path, capsys, monkeypatch):
    """``check --all`` on ``gen tree 12 --seed 3 --weighted`` at p = 1.2
    exits 4 on one weyl-edge row, edge (4, 5) with alpha = 1 - 8e-15, and
    prints the bytes it prints when every removal is rebuilt by
    ``remove_edge`` and counted by a fresh ``ForestCount``. Its worst
    p = 1.2 residual is 4.3e-3 (ROADMAP item 1), so the rows are read at
    --tol 1e-2; at the default --tol the certificates fail first."""
    path = write_doc(tmp_path, graph_document(
        gen_graph("tree", 12, random.Random(3), weighted=True)))
    assert main(["check", path, "--all", "--p", "1.2"]) == EXIT_VIOLATION
    assert "has residual" in capsys.readouterr().err
    argv = ["check", path, "--all", "--p", "1.2", "--tol", "1e-2"]
    assert main(argv) == EXIT_VIOLATION
    out = capsys.readouterr().out
    failed = [row for row in json.loads(out)["checks"] if not row["pass"]]
    assert [(row["name"], row["edge"]) for row in failed] == [("weyl-edge", [4, 5])]
    assert 0.0 < 1.0 - failed[0]["alpha"] < 1e-14

    class Rebuilt:
        def __init__(self, H, e0):
            self.H, self.e0 = H, e0

        def afters(self, functions, signs):
            out = []
            for f in functions:
                H2, step = surgery.remove_edge(self.H, f, self.e0)
                out.append((step.alpha, treespec.ForestCount(H2)))
            return out

    monkeypatch.setattr(surgery, "EdgeCut", Rebuilt)
    assert main(argv) == EXIT_VIOLATION
    assert capsys.readouterr().out == out


def test_check_all_reads_each_sign_pattern_once(tmp_path, capsys,
                                                monkeypatch):
    """On the tree route ``check --all`` computes each eigenfunction's sign
    pattern once and hands it to every edge removal under it: the removals
    compute none, and the report is the one they give when they compute
    their own."""
    path = write_doc(tmp_path, graph_document(
        gen_graph("tree", 9, random.Random(2), weighted=True)))
    argv = ["check", path, "--all", "--p", "3"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    own = []
    inner = surgery.sign_pattern
    monkeypatch.setattr(surgery, "sign_pattern",
                        lambda *args: own.append(1) or inner(*args))
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == out
    assert own == []
    afters = surgery.EdgeCut.afters
    monkeypatch.setattr(surgery.EdgeCut, "afters",
                        lambda self, functions, signs: afters(self, functions))
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == out
    assert len(own) > 9


def test_check_all_counts_each_cut_edge_in_one_array_pass(tmp_path, capsys,
                                                         monkeypatch):
    """On the tree route ``check --all`` counts every removal of one edge
    in one array pass of `PatchedCount`: one patched counter per cut edge,
    one patch per weyl-edge row, and per cut edge with removals two level
    passes (the base forest, then the patched root paths), no
    `_eval_vertices` pass while they count and no scalar recount."""
    g = gen_graph("tree", 12, random.Random(0), weighted=True)
    path = write_doc(tmp_path, graph_document(g))
    lanes, patches, scalar = [], [], []
    inner_lanes, inner_init = treespec.PatchedCount._lanes, treespec.PatchedCount.__init__
    level_pass, eval_vertices = treespec._level_pass, treespec._eval_vertices
    counting = []  # the open `_lanes` call, if any

    def counted_lanes(self, xs):
        lanes.append([len(xs), 0, 0])  # thresholds, level and scalar passes
        counting.append(lanes[-1])
        try:
            return inner_lanes(self, xs)
        finally:
            counting.pop()

    def counted(inner, k):
        def call(*args):
            for open_call in counting:
                open_call[k] += 1
            return inner(*args)
        return call

    def counted_init(self, base, batch):
        patches.append(len(batch))
        inner_init(self, base, batch)

    monkeypatch.setattr(treespec.PatchedCount, "_lanes", counted_lanes)
    monkeypatch.setattr(treespec.PatchedCount, "__init__", counted_init)
    monkeypatch.setattr(treespec.PatchedCount, "_scalar",
                        lambda *args: scalar.append(1))
    monkeypatch.setattr(treespec, "_level_pass", counted(level_pass, 1))
    monkeypatch.setattr(treespec, "_eval_vertices", counted(eval_vertices, 2))
    for p in ("1.2", "3"):
        lanes.clear()
        patches.clear()
        assert main(["check", path, "--all", "--p", p, "--tol", "1e-2"]) in (
            EXIT_OK, EXIT_VIOLATION)
        rows = [row for row in json.loads(capsys.readouterr().out)["checks"]
                if row["name"] == "weyl-edge"]
        assert len(patches) == len(g.edges)
        assert len(lanes) == sum(1 for k in patches if k)
        assert sum(patches) == len(rows) > 100
        assert {xs for xs, _level, _scalar in lanes} == {
            2 * len({row["lambda"] for row in rows})}
        assert all(call[1:] == [2, 0] for call in lanes)
    assert scalar == []


def test_check_all_counts_each_vertex_removal_in_one_call(tmp_path, capsys,
                                                          monkeypatch):
    """On the tree route ``check --all`` counts each vertex removal of
    ``gen tree 40 --seed 0 --weighted`` at p = 3 with one
    ``ForestCount.counts_below`` call at every threshold of the request,
    and never calls the scalar ``ForestCount.count_below``. It prints the
    bytes it prints when those counts are taken one threshold at a time by
    ``count_below``. The request exits 4 on its nodal-lower rows at
    lambda ~ 0.6745 (16 domains against the bound 17), which every Weyl row
    passes."""
    g = gen_graph("tree", 40, random.Random(0), weighted=True)
    path = write_doc(tmp_path, graph_document(g))
    argv = ["check", path, "--all", "--p", "3"]
    counts_below, count_below = (treespec.ForestCount.counts_below,
                                 treespec.ForestCount.count_below)
    calls, scalar = [], []

    def counted(self, xs):
        calls.append((self.total, len(xs)))
        return counts_below(self, xs)

    monkeypatch.setattr(treespec.ForestCount, "counts_below", counted)
    monkeypatch.setattr(
        treespec.ForestCount, "count_below",
        lambda self, x: scalar.append(x) or count_below(self, x))
    assert main(argv) == EXIT_VIOLATION
    out = capsys.readouterr().out
    rows = json.loads(out)["checks"]
    assert {row["name"] for row in rows if not row["pass"]} == {
        "nodal-lower-simple", "nodal-lower-variational",
        "nodal-lower-combined"}
    assert sum(row["name"] == "weyl-node" for row in rows) == g.n
    assert scalar == []
    distinct = len(treespec.tree_spectrum(Operator(g, 3.0)).entries)
    assert calls == [(g.n - 1, 2 * distinct)] * g.n
    monkeypatch.setattr(treespec.ForestCount, "counts_below",
                        lambda self, xs: [self.count_below(x) for x in xs])
    assert main(argv) == EXIT_VIOLATION
    assert capsys.readouterr().out == out
    assert len(scalar) == 2 * distinct * g.n


def test_check_all_dense_route_decomposes_once(tmp_path, capsys, monkeypatch):
    """At p = 2 the Weyl rows count eigenvalues of every after-operator, so
    the only eigendecomposition is the one behind the before-eigenbasis.
    One matrix is assembled per request and every removal patches a copy
    of it: no graph is built but the document's."""
    doc = graph_document(gen_graph("graph", 10, random.Random(4), weighted=True),
                         p=2.0)
    path = write_doc(tmp_path, doc)
    solved = count_eigh(monkeypatch)
    graphs, assembled = [], []
    init, assemble = WeightedGraph.__init__, oracle.assemble_p2
    monkeypatch.setattr(WeightedGraph, "__init__",
                        lambda self, *args: graphs.append(1) or init(self, *args))
    monkeypatch.setattr(oracle, "assemble_p2",
                        lambda H: assembled.append(H.graph.n) or assemble(H))
    assert main(["check", path, "--all"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    names = [row["name"] for row in out["checks"]]
    assert names.count("weyl-edge") > 50 and names.count("weyl-node") == 10
    assert solved == [10]
    assert graphs == [1]
    assert assembled == [10]


def test_check_all_dense_route_clusters_only_the_before_spectrum(
        tmp_path, capsys, monkeypatch):
    """At p = 2 every after-operator is counted from its sorted
    ``eigvalsh`` values: ``check --all`` builds one `Spectrum`, the
    before-spectrum, and clusters once, however many removals it counts."""
    doc = graph_document(gen_graph("graph", 10, random.Random(4), weighted=True),
                         p=2.0)
    path = write_doc(tmp_path, doc)
    spectra, clustered = [], []
    post_init, cluster = treespec.Spectrum.__post_init__, oracle.cluster_tagged
    monkeypatch.setattr(treespec.Spectrum, "__post_init__",
                        lambda self: spectra.append(1) or post_init(self))
    monkeypatch.setattr(oracle, "cluster_tagged",
                        lambda *args: clustered.append(1) or cluster(*args))
    assert main(["check", path, "--all"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    names = [row["name"] for row in out["checks"]]
    assert names.count("weyl-edge") > 50 and names.count("weyl-node") == 10
    assert spectra == [1]
    assert clustered == [1]


def test_check_all_rejects_a_document_function(tmp_path, capsys, monkeypatch):
    """``check --all`` checks the eigenpairs it computes, so a document
    that carries a function is bad input too, rejected with one error
    document before any spectrum is computed; without it the same graph
    passes."""
    doc = {"p": 2.0, "vertices": [{"id": 0}, {"id": 1}],
           "edges": [{"u": 0, "v": 1}], "function": {"0": 5, "1": 7}}
    path = write_doc(tmp_path, doc)
    solved = count_eigh(monkeypatch)
    sliced = count_slices(monkeypatch)
    for p in ("2", "3"):
        assert main(["check", path, "--all", "--p", p]) == EXIT_INPUT
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        report = json.loads(out)
        assert report["exit_code"] == EXIT_INPUT
        assert "'function'" in report["error"]
    assert solved == [] and sliced == []
    del doc["function"]
    assert main(["check", write_doc(tmp_path, doc, "plain.json"), "--all"]) == EXIT_OK
    capsys.readouterr()


def test_every_verb_prints_strict_json_at_a_huge_potential(tmp_path, capsys):
    """A potential of 1e308 at p = 2 stays finite through the dense
    route's symmetrization, so every verb prints one document without NaN
    or Infinity, and the spectrum holds 1e308."""
    path = write_doc(tmp_path, {
        "vertices": [{"id": 0, "kappa": 1e308}, {"id": 1}],
        "edges": [{"u": 0, "v": 1}]})
    pair = '{"0": 0, "1": 1}'
    for argv in (["spectrum", path, "--p", "2"],
                 ["spectrum", path, "--p", "2", "--eigenbasis"],
                 ["check", path, "--p", "2", "--all"],
                 ["check", path, "--p", "2", "--lambda", "1", "--function", pair],
                 ["nodal", path, "--function", pair],
                 ["surgery", path, "--p", "2", "--remove-node", "1"]):
        code = main(argv)
        out = capsys.readouterr().out
        assert out.count("\n") == 1, argv
        report = _strict_json(out)
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_VIOLATION), argv
        if argv[0] == "spectrum" and code == EXIT_OK:
            assert [e["value"] for e in report["spectrum"]] == [1.0, 1e308]


def _verb(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_all_compares_each_residual_with_tol(tmp_path, capsys):
    """``check --all`` certifies no eigenpair whose residual exceeds --tol:
    it exits 4 with the error document and stderr line of ``spectrum
    --eigenbasis``, and prints no report. On the p = 2 document with a
    potential of 1e308 the eigenvector at 1.0 reads exactly 0 at vertex 0,
    so its residual is 1.0. That lies within the float64 floor of an
    operator whose spectral bound is 1e308, and the message says so."""
    path = write_doc(tmp_path, {
        "vertices": [{"id": 0, "kappa": 1e308}, {"id": 1}],
        "edges": [{"u": 0, "v": 1}]})
    basis = _verb(["spectrum", path, "--p", "2", "--eigenbasis"], capsys)
    check = _verb(["check", path, "--p", "2", "--all"], capsys)
    assert basis == check
    code, out, err = check
    assert code == EXIT_VIOLATION
    assert json.loads(out)["exit_code"] == EXIT_VIOLATION
    assert err == ("violated invariant: reconstructed eigenfunction at 1.0 "
                   "has residual 1.0, within the float64 floor 4.44e+292 = "
                   "n * eps * spectral bound 1e+308, above --tol 1e-08\n")


def test_residual_failures_name_the_floor_only_above_tol(tmp_path, capsys):
    """A residual above --tol keeps the plain message where the float64
    floor n * eps * spectral_bound lies below --tol: ``gen tree 15 --seed 0
    --weighted`` at p = 1.2 fails by 3.4e-8 on both verbs. The same
    document's dense p = 2 basis, checked at --tol 1e-300, fails within
    the floor, and the message names it; the exit code stays 4."""
    path = write_doc(tmp_path, graph_document(
        gen_graph("tree", 15, random.Random(0), weighted=True)))
    for verb in (["spectrum", path, "--eigenbasis"], ["check", path, "--all"]):
        code, out, err = _verb([*verb, "--p", "1.2"], capsys)
        assert code == EXIT_VIOLATION
        assert err == ("violated invariant: reconstructed eigenfunction at "
                       "1.2314771267546447 has residual "
                       "3.402582826605993e-08\n")
        code, out, err = _verb([*verb, "--p", "2", "--tol", "1e-300"], capsys)
        assert code == EXIT_VIOLATION
        assert "float64 floor" in err and "above --tol 1e-300" in err
        assert _verb([*verb, "--p", "2"], capsys)[0] == EXIT_OK


def test_check_all_dense_guard_matches_the_rebuild(tmp_path, capsys,
                                                   monkeypatch):
    """A removal whose patched diagonal entry leaves the float range (the
    compensated potential of vertex 1 is finite, times 1/rho_1 it is not)
    gives the error, exit code and stdout of rebuilding that operator with
    ``remove_edge`` and assembling it with ``p2_spectrum``: a numerical
    failure that names the float64 range, with no numpy warning. The
    residuals of this operator reach 2.4e286, within its float64 floor, so
    the removals are reached at --tol 1e300 only."""
    doc = {"p": 2.0,
           "vertices": [{"id": 0, "kappa": 1e292}, {"id": 1, "rho": 1e-3},
                        {"id": 2}],
           "edges": [{"u": 0, "v": 1, "omega": 1e299},
                     {"u": 1, "v": 2, "omega": 1e299}]}
    path = write_doc(tmp_path, doc)
    oracle.assemble_p2(Operator(parse_document(doc)[0], 2.0))  # finite
    assert main(["check", path, "--all"]) == EXIT_VIOLATION
    assert "float64 floor" in capsys.readouterr().err
    argv = ["check", path, "--all", "--tol", "1e300"]
    rebuilt = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert json.loads(out)["error"] == (
            "the p = 2 matrix leaves the float64 range "
            "(largest float 1.79769e+308)")

        class Rebuilt:
            def __init__(self, H, m, e0):
                self.H, self.e0 = H, e0

            def afters(self, functions, signs):
                out = []
                for f in functions:
                    rebuilt.append(self.e0)
                    H2, step = surgery.remove_edge(self.H, f, self.e0)
                    try:
                        out.append((step.alpha,
                                    oracle.p2_spectrum(H2, bases=False)))
                    except ArithmeticError as exc:
                        out.append(exc)
                return out

        monkeypatch.setattr(surgery, "DenseEdgeCut", Rebuilt)
        assert main(argv) == EXIT_VIOLATION
    assert capsys.readouterr().out == out
    assert rebuilt


def test_dense_spectrum_without_basis_decomposes_nothing(tmp_path, capsys,
                                                         monkeypatch):
    """``spectrum`` at p = 2 computes eigenvectors only for
    ``--eigenbasis``, and prints the same spectrum either way."""
    doc = graph_document(gen_graph("graph", 10, random.Random(4), weighted=True),
                         p=2.0)
    path = write_doc(tmp_path, doc)
    solved = count_eigh(monkeypatch)
    assert main(["spectrum", path]) == EXIT_OK
    plain = json.loads(capsys.readouterr().out)
    assert solved == [] and "eigenbasis" not in plain
    assert main(["spectrum", path, "--eigenbasis"]) == EXIT_OK
    full = json.loads(capsys.readouterr().out)
    assert solved == [10]
    for a, b in zip(plain["spectrum"], full["spectrum"], strict=True):
        assert a["mult"] == b["mult"]
        assert abs(a["value"] - b["value"]) <= 1e-13 * max(1.0, abs(b["value"]))


def test_python_m_plap_runs_the_cli():
    """``python -m plap`` is the CLI, with only ``src`` on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "plap", "gen", "path", "3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    doc = json.loads(done.stdout)
    assert len(doc["vertices"]) == 3 and len(doc["edges"]) == 2


def test_closed_stdout_ends_without_a_traceback(tmp_path):
    """A reader that closes stdout early (``plap ... | head``) costs the
    report and nothing else: one line on stderr and no traceback. An error
    keeps its own stderr line and exit code."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    doc = graph_document(gen_graph("tree", 40, random.Random(1), True), p=3.0)
    path = write_doc(tmp_path, doc)
    runs = [(["spectrum", str(path), "--eigenbasis"], EXIT_STDOUT_CLOSED,
             "error: stdout was closed before the report was written"),
            (["spectrum", str(tmp_path / "missing.json")], EXIT_INPUT,
             "error: [Errno 2] No such file or directory")]
    for argv, code, line in runs:
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the first write
        try:
            done = subprocess.run([sys.executable, "-m", "plap", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == code, done.stderr
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert done.stderr.startswith(line), done.stderr
