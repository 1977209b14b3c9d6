"""Command-line interface: JSON graph documents in, one JSON report out.

Verbs:
  spectrum   eigenvalues (optionally eigenbases) of the document's operator
  nodal      nodal-domain report for the document's function
  check      nodal bounds and removal interlacing for certified eigenpairs
  surgery    eigenpair-preserving edge/vertex removal
  gen        seeded example documents (tree | graph | path | star | cycle)

Exit codes: 0 success, 2 bad input, 3 outside the implemented routes,
4 violated invariant. stdout carries exactly one JSON document on one line,
for an error {"error": <message>, "exit_code": <code>}; everything else
goes to stderr. Exit code 1 means stdout was closed before the document was
written (``plap ... | head``); then one line on stderr says so.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

import numpy as np

from . import nodal as nodal_mod
from . import oracle as oracle_mod
from . import surgery as surgery_mod
from . import treespec
from .core import (FLOAT_RANGE, EigenpairCertificate, Operator,
                   VertexFunction, WeightedGraph, _canonical_edges, _id_key,
                   connected_components, is_forest, residual, residuals,
                   spectral_bound)

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_VIOLATION = 4


class CapabilityError(Exception):
    """Valid request, but outside what any implemented route covers."""


DOC_KEYS = {"p", "vertices", "edges", "boundary", "function"}
VERTEX_KEYS = {"id", "rho", "kappa"}
EDGE_KEYS = {"u", "v", "omega"}


def _load_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    return json.loads(text)


def _check_id(raw):
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValueError(f"vertex id must be an integer or string, got {raw!r}")
    return raw


def _number(raw, what: str) -> float:
    if isinstance(raw, (list, dict, bool, str)) or raw is None:
        raise ValueError(f"{what} must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise ValueError(f"{what} is out of range: {raw!r}") from None


def _list(doc: dict, key: str) -> list:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise ValueError(f"'{key}' must be a list, got {raw!r}")
    return raw


def _warn_unknown(obj: dict, known: set, what: str, strict: bool):
    unknown = sorted(set(obj) - known)
    if unknown:
        msg = f"unknown {what} fields: {', '.join(unknown)}"
        if strict:
            raise ValueError(msg)
        print(f"warning: {msg}", file=sys.stderr)


def parse_document(doc, strict: bool = False):
    """Graph document -> (graph, p or None, boundary ids, function or None)."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    _warn_unknown(doc, DOC_KEYS, "document", strict)
    if "vertices" not in doc or "edges" not in doc:
        raise ValueError("document needs 'vertices' and 'edges'")
    vertices = []
    for obj in _list(doc, "vertices"):
        if not isinstance(obj, dict):
            raise ValueError("vertex entries must be objects")
        _warn_unknown(obj, VERTEX_KEYS, "vertex", strict)
        if "id" not in obj:
            raise ValueError("every vertex needs an 'id'")
        vertices.append((_check_id(obj["id"]),
                         _number(obj.get("rho", 1.0), "rho"),
                         _number(obj.get("kappa", 0.0), "kappa")))
    edges = []
    for obj in _list(doc, "edges"):
        if not isinstance(obj, dict):
            raise ValueError("edge entries must be objects")
        _warn_unknown(obj, EDGE_KEYS, "edge", strict)
        if "u" not in obj or "v" not in obj:
            raise ValueError("every edge needs 'u' and 'v'")
        edges.append((_check_id(obj["u"]), _check_id(obj["v"]),
                      _number(obj.get("omega", 1.0), "omega")))
    g = WeightedGraph(vertices, edges)
    p = _number(doc["p"], "p") if doc.get("p") is not None else None
    boundary = [_check_id(b) for b in _list(doc, "boundary")]
    for b in boundary:
        g.index_of(b)
    func = _function_from_json(g, doc["function"]) if "function" in doc else None
    return g, p, boundary, func


def _function_from_json(g: WeightedGraph, obj) -> VertexFunction:
    if not isinstance(obj, dict):
        raise ValueError("'function' must map vertex ids to numbers")
    bykey = {}
    for vid in g.ids:
        key = str(vid)
        if key in bykey:
            raise ValueError(f"ids {bykey[key]!r} and {vid!r} collide as JSON keys")
        bykey[key] = vid
    mapping = {}
    for key, val in obj.items():
        if key not in bykey:
            raise ValueError(f"function key {key!r} matches no vertex")
        mapping[bykey[key]] = _number(val, f"function value at {key!r}")
    return VertexFunction.from_mapping(g, mapping)


def _json_keys(g: WeightedGraph) -> list:
    """(dense index, JSON key) of every vertex in sorted id order, the order
    of every vertex map the CLI prints."""
    order = sorted(range(g.n), key=lambda i: _id_key(g.ids[i]))
    return [(i, str(g.ids[i])) for i in order]


def _function_json(keys: list, f: VertexFunction) -> dict:
    """A function as a vertex map, with ``keys`` from ``_json_keys``."""
    x = f.values.tolist()
    if len(x) != len(keys):
        raise ValueError("function/graph size mismatch")
    return {key: x[i] for i, key in keys}


def graph_document(g: WeightedGraph, p=None, function=None) -> dict:
    """Canonical document for a graph: vertices and edges in sorted id order."""
    doc = {}
    if p is not None:
        doc["p"] = float(p)
    keys = _json_keys(g)
    doc["vertices"] = [{"id": g.ids[i], "rho": float(g.rho[i]),
                        "kappa": float(g.kappa[i])} for i, _key in keys]
    doc["edges"] = [{"u": a, "v": b, "omega": float(w)}
                    for a, b, w in _canonical_edges(g)]
    if function is not None:
        doc["function"] = _function_json(keys, function)
    return doc


def _emit(obj):
    """The report as one compact JSON line, flushed so that a closed stdout
    shows up here and not at interpreter exit. JSON has no NaN or Infinity:
    a report holding one is an ArithmeticError, and nothing is written."""
    try:
        text = json.dumps(obj, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"the report holds a value outside {FLOAT_RANGE}"
                              f" ({exc})") from None
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def _resolve_p(doc_p, arg_p) -> float:
    if arg_p is not None:
        return float(arg_p)
    if doc_p is not None:
        return float(doc_p)
    raise ValueError("no p: the document has none and --p was not given")


def _read_document(args):
    """The verb's document as (graph, p or None, function or None).

    A non-empty Dirichlet boundary is a capability limit: no verb applies
    it, and answering for the boundary-free graph would be wrong.
    """
    g, p, boundary, func = parse_document(_load_json(args.file), args.strict)
    if boundary:
        raise CapabilityError("Dirichlet boundaries are not supported; "
                              "give the document an empty 'boundary'")
    return g, p, func


def _tree_route(H: Operator) -> bool:
    """Which route answers the operator: False for the dense route (p = 2 up
    to its size cap), True for the tree route (forests, any p)."""
    if H.p == 2.0 and H.graph.n <= oracle_mod.MAX_DENSE_N:
        return False
    if is_forest(H.graph):
        return True
    raise CapabilityError(
        f"exact spectra are available for p = 2 (any graph up to "
        f"{oracle_mod.MAX_DENSE_N} vertices) or forests (any p)")


def full_spectrum(H: Operator, bases: bool = False) -> treespec.Spectrum:
    """Complete spectrum by whichever route covers the operator; with
    ``bases`` every entry carries its eigenbasis, without it no route
    computes an eigenfunction."""
    if not _tree_route(H):
        return oracle_mod.p2_spectrum(H, bases=bases)
    return treespec.tree_eigenpairs(H) if bases else treespec.tree_spectrum(H)


def _check_route(H: Operator, bases: bool) -> tuple:
    """What ``check`` reads of the operator, by the routes of
    ``full_spectrum``: (its spectrum, with every eigenbasis when ``bases``;
    the cut of an edge e0, whose ``afters(functions, signs)`` gives, per
    function f, alpha and the eigenvalue counter after the compensated
    removal of e0 under f; a function that gives, vertex by vertex in the
    graph's order, the eigenvalue counter after removing that vertex, or
    the error that removal raises).

    The tree route cuts with `surgery.EdgeCut` and counts a vertex removal
    with a `treespec.ForestCount` of the smaller forest. The dense route
    assembles one matrix, reads the spectrum from it, and counts every
    removal by the sorted ``eigvalsh`` values of a patched copy of it
    (`surgery.DenseEdgeCut`, `surgery.dense_vertex_removals`,
    `oracle.ValueCount`). Neither route clusters an after-spectrum.
    """
    if _tree_route(H):
        return (full_spectrum(H, bases), lambda e0: surgery_mod.EdgeCut(H, e0),
                lambda: (treespec.ForestCount(surgery_mod.remove_node(H, u)[0])
                         for u in H.graph.ids))
    m = oracle_mod.assemble_p2(H)
    return (oracle_mod.matrix_spectrum(m, H.graph.rho, bases),
            lambda e0: surgery_mod.DenseEdgeCut(H, m, e0),
            lambda: surgery_mod.dense_vertex_removals(H, m))


def _eigenpairs_of(spec: treespec.Spectrum):
    """(value, function) for every function of the entries' eigenbases."""
    pairs = []
    for e in spec.entries:
        if len(e.basis) != e.mult:
            raise AssertionError(
                f"{len(e.basis)} eigenfunctions for multiplicity {e.mult}")
        pairs.extend((e.value, f) for f in e.basis)
    return pairs


def _residuals(H: Operator, pairs: list) -> list:
    """`core.residuals` of (value, function) pairs, in one block."""
    return residuals(H, np.array([f.values for _value, f in pairs]),
                     [value for value, _f in pairs]).tolist()


def _assert_residuals(H: Operator, pairs: list, res: list, tol: float):
    """Raise AssertionError (exit 4) at the first computed eigenpair whose
    residual exceeds tol. Where that residual lies within the float64 floor
    n * eps * spectral_bound(H), which the operator's scale then puts above
    tol, the message names the bound and the floor."""
    for (value, _f), r in zip(pairs, res):
        if r > tol:
            msg = f"reconstructed eigenfunction at {value} has residual {r}"
            bound = spectral_bound(H)
            floor = H.graph.n * np.finfo(float).eps * bound
            if r <= floor:
                msg += (f", within the float64 floor {floor:.3g} = n * eps * "
                        f"spectral bound {bound:.3g}, above --tol {tol:.3g}")
            raise AssertionError(msg)


def _spectrum_report(g: WeightedGraph, p: float, spec: treespec.Spectrum,
                     bases: bool) -> dict:
    """The ``spectrum`` output: values with multiplicities, and with
    ``bases`` every entry's eigenfunctions."""
    out = {"p": p, "n": g.n,
           "spectrum": [{"value": e.value, "mult": e.mult} for e in spec.entries]}
    if bases:
        keys = _json_keys(g)
        out["eigenbasis"] = [[_function_json(keys, f) for f in e.basis]
                             for e in spec.entries]
    return out


def cmd_spectrum(args) -> int:
    g, p, _func = _read_document(args)
    p = _resolve_p(p, args.p)
    H = Operator(g, p)
    spec = full_spectrum(H, bases=args.eigenbasis)
    if args.eigenbasis:
        pairs = _eigenpairs_of(spec)
        _assert_residuals(H, pairs, _residuals(H, pairs), args.tol)
    _emit(_spectrum_report(g, p, spec, args.eigenbasis))
    return EXIT_OK


def cmd_nodal(args) -> int:
    g, _p, func = _read_document(args)
    if args.function is not None:
        func = _function_from_json(g, json.loads(args.function))
    if func is None:
        raise ValueError("nodal analysis needs a document 'function' or --function")
    rep = nodal_mod.analyze(g, func)
    bip, info = nodal_mod.is_bipartite(g)
    out = {
        "nu": rep.nu, "zeta": rep.zeta, "z": rep.z, "ez": rep.ez, "l": rep.l,
        "beta": rep.beta, "c": rep.c, "beta_prime": rep.beta_prime,
        "zero_band": rep.zero_band,
        "domains": [{"sign": sg, "vertices": list(vs)} for sg, vs in rep.domains],
        "sign_change_identity": {
            "lhs": rep.zeta,
            "rhs": len(g.edges) - rep.ez + rep.z - g.n + rep.nu - rep.l,
            "holds": True,
        },
        "bipartite": bip,
    }
    if bip:
        out["sides"] = [list(info[0]), list(info[1])]
    else:
        out["odd_cycle"] = list(info)
    _emit(out)
    return EXIT_OK


def _bound_row(lam: float, rep: nodal_mod.BoundReport) -> dict:
    row = {"name": rep.kind, "lambda": lam, "bound": rep.bound,
           "observed": rep.observed, "pass": rep.satisfied}
    if rep.k is not None:
        row["k"] = rep.k
    if rep.m is not None:
        row["m"] = rep.m
    return row


def cmd_check(args) -> int:
    if args.all and (args.lam is not None or args.function is not None):
        raise ValueError("check --all certifies every computed eigenpair; "
                         "it takes no --lambda or --function")
    g, p, func = _read_document(args)
    if args.all and func is not None:
        raise ValueError("check --all certifies every computed eigenpair; "
                         "the document's 'function' would go unused")
    p = _resolve_p(p, args.p)
    H = Operator(g, p)
    tol = args.tol
    which = args.bounds
    spec, edge_cut, without_vertices = _check_route(H, args.all)

    if args.all:
        pairs = _eigenpairs_of(spec)
    else:
        if args.lam is None:
            raise ValueError("check needs --lambda (or --all)")
        if args.function is not None:
            func = _function_from_json(g, json.loads(args.function))
        if func is None:
            raise ValueError("check needs a function (--function or document)")
        pairs = [(args.lam, func)]
        res = _residuals(H, pairs)
        if res[0] > tol:
            raise ValueError(
                f"not an eigenpair: residual {res[0]:.3e} exceeds tol {tol:.3e}")

    components = len(connected_components(g))
    position_bounds = which in ("upper", "lower", "all")
    if position_bounds and components != 1:
        raise ValueError(
            "position bounds need a connected graph; use --bounds weyl")

    if args.all:
        res = _residuals(H, pairs)
        _assert_residuals(H, pairs, res, tol)
    certs = [EigenpairCertificate(lam, f, r, tol)
             for (lam, f), r in zip(pairs, res)]
    weyl = which in ("weyl", "all")
    thresholds = nodal_mod.Thresholds(spec) if weyl else None
    edge_rows = (_weyl_edge_rows(g, certs, edge_cut, thresholds) if weyl
                 else [[] for _ in certs])
    rows = []
    ok_all = True
    for cert, weyl_rows in zip(certs, edge_rows):
        lam = cert.eigenvalue
        domains = (nodal_mod.analyze(g, cert.function, components)
                   if position_bounds else None)
        if which in ("upper", "all"):
            for rep in nodal_mod.check_upper(H, cert, spec, domains):
                rows.append(_bound_row(lam, rep))
                ok_all = ok_all and rep.satisfied
        if which in ("lower", "all"):
            for rep in nodal_mod.check_lower(H, cert, spec, domains):
                rows.append(_bound_row(lam, rep))
                ok_all = ok_all and rep.satisfied
        for row in weyl_rows:
            if isinstance(row, Exception):
                raise row
            rows.append(row)
            ok_all = ok_all and row["pass"]
    if weyl and g.n > 1:
        for vid, after in zip(g.ids, without_vertices()):
            if isinstance(after, Exception):
                raise after
            rep = surgery_mod.verify_weyl_nodes(thresholds, after, 1)
            rows.append({"name": "weyl-node", "vertex": vid, "pass": rep.ok,
                         "checked": rep.checked, "failures": list(rep.failures)})
            ok_all = ok_all and rep.ok
    _emit({"p": p, "checks": rows, "all_pass": ok_all})
    return EXIT_OK if ok_all else EXIT_VIOLATION


def _weyl_edge_rows(g: WeightedGraph, certs: list, edge_cut,
                    thresholds: nodal_mod.Thresholds) -> list:
    """Per certificate, its weyl-edge rows in edge order: one per edge whose
    endpoints both lie outside the function's zero band.

    The rows are computed edge by edge: one cut per edge (``edge_cut`` of
    `_check_route`) takes the removals under every eigenfunction before
    any of them is verified. On the tree route that cut keeps one
    after-forest and counts all its removals in one array pass, and only
    that edge's g lists are kept at a time; on the dense route each removal
    patches a copy of the request's one matrix. Each eigenfunction's sign
    pattern is computed once and serves all of its removals, and every
    removal is counted at the ``thresholds`` of the spectrum, built once
    per request. An error that `main` reports takes the place of the row
    it stopped, and `cmd_check` raises the first one in its pair-major
    order, so the report or error is the one a pass pair by pair would
    give.
    """
    signs = [nodal_mod.sign_pattern(g, cert.function)[0] for cert in certs]
    table = [[] for _ in certs]
    for i, j, _w in g.edges:
        u, v = g.ids[i], g.ids[j]
        todo = [(rows, cert, s) for rows, cert, s in zip(table, certs, signs)
                if s[i] != 0 and s[j] != 0]
        afters = edge_cut((u, v)).afters([cert.function for _r, cert, _s in todo],
                                         [s for _r, _c, s in todo])
        for (rows, cert, _s), got in zip(todo, afters):
            if isinstance(got, Exception):
                rows.append(got)
                continue
            alpha, after = got
            try:
                rep = surgery_mod.verify_weyl_edge(thresholds, after, alpha)
            except (ValueError, AssertionError, RuntimeError,
                    ArithmeticError) as exc:  # what `main` reports
                rows.append(exc)
                continue
            rows.append({"name": "weyl-edge", "edge": [u, v],
                         "lambda": cert.eigenvalue, "alpha": alpha,
                         "pass": rep.ok, "checked": rep.checked,
                         "failures": list(rep.failures)})
    return table


def _parse_vertex_id(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return text


def _moved(step: surgery_mod.SurgeryStep) -> str:
    """A step's potential compensations: an edge's in (u, v) order, a
    vertex's in sorted neighbour id order."""
    deltas = step.kappa_deltas.items()
    if step.kind == "node":
        deltas = sorted(deltas, key=lambda kv: _id_key(kv[0]))
    return ", ".join(f"kappa[{vid!r}] += {d:.12g}" for vid, d in deltas)


def cmd_surgery(args) -> int:
    g, p, func = _read_document(args)
    p = _resolve_p(p, args.p)
    H = Operator(g, p)
    if args.function is not None:
        func = _function_from_json(g, json.loads(args.function))
    edges = []
    for spec_str in args.remove_edge or []:
        parts = [s for s in spec_str.split(",") if s.strip()]
        if len(parts) != 2:
            raise ValueError(f"--remove-edge wants 'u,v', got {spec_str!r}")
        edges.append((_parse_vertex_id(parts[0]), _parse_vertex_id(parts[1])))
    nodes = [_parse_vertex_id(s) for s in args.remove_node or []]
    if not edges and not nodes:
        raise ValueError("nothing to do: give --remove-edge and/or --remove-node")
    if edges and func is None:
        raise ValueError("edge removal needs a function (--function or document)")
    if args.lam is not None and func is None:
        raise ValueError("--lambda needs a function (--function or document)")

    for u, v in edges:
        H, step = surgery_mod.remove_edge(H, func, (u, v))
        print(f"removed edge ({u!r}, {v!r}): alpha={step.alpha:.12g}, "
              f"{_moved(step)}", file=sys.stderr)
    for u in nodes:
        g = H.graph
        if func is not None:
            s, _band = nodal_mod.sign_pattern(g, func)
            if s[g.index_of(u)] != 0:
                raise ValueError(
                    f"the function does not vanish at {u!r}; removal would "
                    f"break the eigenpair")
        H, step = surgery_mod.remove_node(H, u)
        if func is not None:
            func = VertexFunction.from_mapping(H.graph, func.as_mapping(g))
        print(f"removed vertex {u!r}: {_moved(step)}", file=sys.stderr)

    if args.lam is not None:
        res = residual(H, func, args.lam)
        print(f"residual after surgery: {res:.3e}", file=sys.stderr)
    _emit(graph_document(H.graph, p=p, function=func))
    return EXIT_OK


def gen_graph(kind: str, n: int, rng: random.Random,
              weighted: bool = False) -> WeightedGraph:
    """Deterministic example graphs; all randomness comes from ``rng``."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if weighted:
        vertices = [(i, rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
                    for i in range(n)]
    else:
        vertices = [(i, 1.0, 0.0) for i in range(n)]
    if kind == "path":
        eids = [(i - 1, i) for i in range(1, n)]
    elif kind == "star":
        eids = [(0, i) for i in range(1, n)]
    elif kind == "cycle":
        if n < 3:
            raise ValueError("a cycle needs at least three vertices")
        eids = [(i - 1, i) for i in range(1, n)] + [(n - 1, 0)]
    elif kind == "tree":
        eids = [(rng.randrange(i), i) for i in range(1, n)]
    elif kind == "graph":
        eids = [(rng.randrange(i), i) for i in range(1, n)]
        have = {frozenset(e) for e in eids}
        cands = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if frozenset((i, j)) not in have]
        rng.shuffle(cands)
        if cands:
            eids += cands[:rng.randint(1, max(1, n // 2))]
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    edges = [(u, v, rng.uniform(0.5, 2.0) if weighted else 1.0)
             for u, v in eids]
    return WeightedGraph(vertices, edges)


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    g = gen_graph(args.kind, args.n, rng, args.weighted)
    _emit(graph_document(g, p=2.0))
    print(f"seed: {args.seed}", file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors keep argparse's stderr message and exit code 2, and
    print the same JSON document on stdout as every other error. The verb
    parsers inherit this class."""

    def error(self, message):
        _emit_error(message, EXIT_INPUT)
        super().error(message)


def tolerance(text: str) -> float:
    """``--tol``: a finite positive float. NaN or inf would pass every
    residual check, and zero or less would fail every one."""
    tol = float(text)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text!r}")
    return tol


def finite(text: str) -> float:
    """``--lambda``: a finite float of either sign. NaN or inf, and a
    literal past the float range, leave no eigen-equation defect to
    measure."""
    lam = float(text)
    if not math.isfinite(lam):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return lam


def _add_common(sp, with_p: bool = True, with_tol: bool = False):
    sp.add_argument("file", help="graph document: a JSON path, or - for stdin")
    if with_p:
        sp.add_argument("--p", type=float, default=None,
                        help="override the document's p")
    if with_tol:
        sp.add_argument("--tol", type=tolerance, default=1e-8,
                        help="residual tolerance of eigenpairs")
    sp.add_argument("--strict", action="store_true",
                    help="reject unknown document fields")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="plap",
        description="spectral toolkit for the generalized graph p-Laplacian")
    sub = ap.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("spectrum", help="exact spectrum of the document")
    _add_common(sp, with_tol=True)
    sp.add_argument("--eigenbasis", action="store_true",
                    help="also emit a full eigenbasis")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("nodal", help="nodal-domain report for a function")
    _add_common(sp, with_p=False)
    sp.add_argument("--function", default=None,
                    help="inline JSON function, overrides the document's")
    sp.set_defaults(func=cmd_nodal)

    sp = sub.add_parser("check", help="verify bounds for certified eigenpairs")
    _add_common(sp, with_tol=True)
    sp.add_argument("--lambda", dest="lam", type=finite, default=None,
                    help="eigenvalue to certify")
    sp.add_argument("--function", default=None,
                    help="inline JSON eigenfunction")
    sp.add_argument("--all", action="store_true",
                    help="check every eigenpair of a computed eigenbasis")
    sp.add_argument("--bounds", choices=["upper", "lower", "weyl", "all"],
                    default="all")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("surgery", help="remove edges/vertices, compensated")
    _add_common(sp)
    sp.add_argument("--remove-edge", action="append", metavar="U,V",
                    help="edge to remove (repeatable, applied in order)")
    sp.add_argument("--remove-node", action="append", metavar="U",
                    help="vertex to remove (repeatable, applied after edges)")
    sp.add_argument("--function", default=None,
                    help="inline JSON eigenfunction")
    sp.add_argument("--lambda", dest="lam", type=finite, default=None,
                    help="eigenvalue, for the residual report")
    sp.set_defaults(func=cmd_surgery)

    sp = sub.add_parser("gen", help="generate an example document")
    sp.add_argument("kind", choices=["tree", "graph", "path", "star", "cycle"])
    sp.add_argument("n", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--weighted", action="store_true",
                    help="random weights instead of unit data")
    sp.set_defaults(func=cmd_gen)
    return ap


def _failed(code: int, what: str, exc: Exception) -> int:
    """Report an error: one line on stderr, one JSON document on stdout."""
    print(f"{what}: {exc}", file=sys.stderr)
    _emit_error(str(exc), code)
    return code


def _emit_error(message: str, code: int):
    """The error document; a closed stdout loses it and nothing else, since
    the caller's stderr line says what went wrong."""
    try:
        _emit({"error": message, "exit_code": code})
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout():
    """Point stdout at the null device after its reader went away, so that
    no later write, nor the flush at exit, fails again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser`'s parser, built by the first `main` call of a process
    and reused by every later one: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        _drop_stdout()
        print("error: stdout was closed before the report was written",
              file=sys.stderr)
        return EXIT_STDOUT_CLOSED
    except CapabilityError as exc:
        return _failed(EXIT_CAPABILITY, "error", exc)
    except (ValueError, OSError, KeyError) as exc:
        return _failed(EXIT_INPUT, "error", exc)
    except AssertionError as exc:
        return _failed(EXIT_VIOLATION, "violated invariant", exc)
    except OverflowError as exc:  # a float power's bare errno text
        return _failed(EXIT_VIOLATION, "numerical failure",
                       OverflowError(f"a value leaves {FLOAT_RANGE}: {exc}"))
    except (RuntimeError, ArithmeticError) as exc:
        return _failed(EXIT_VIOLATION, "numerical failure", exc)

