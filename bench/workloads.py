"""The benchmark's workloads: which requests run, on which documents, and
how each answer is checked.

A slot names a request type (a CLI verb, or the library pipeline), a graph
kind, a size n and an exponent p. Pool member j of a slot is
``gen_graph(kind, n, random.Random(j), weighted=True)``, the document
``plap gen <kind> <n> --seed <j> --weighted`` prints. A workload is a set
of groups, each a list of slots and the pool members they run. One pass
runs every (slot, member) pair of the workload once, in an order drawn
from the benchmark seed and the pass number. Every p != 2 spectrum has a
reference in ``reference.json`` (``record_reference.py``).
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

#: Relative tolerance of every value comparison: |a - b| <= REL * max(1, |b|).
REL = 1e-8

#: Residual bound of reconstructed eigenfunctions and first eigenpairs
#: (the CLI's default --tol and the bound it asserts itself).
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Slot:
    verb: str   # "spectrum" | "eigenbasis" | "check" | "pipeline"
    kind: str   # gen_graph kind: tree | path | star | cycle | graph
    n: int
    p: float


@dataclass(frozen=True)
class Group:
    slots: tuple
    docs: tuple         # the pool members every slot runs, once per pass


@dataclass(frozen=True)
class Workload:
    groups: tuple
    tail: float         # the latency percentile reported as latency_tail_s

    @property
    def pairs(self) -> list:
        """The (slot, pool member) pairs of one pass."""
        return [(slot, j) for grp in self.groups for slot in grp.slots
                for j in grp.docs]


def _slots(verb, shapes, ps):
    return tuple(Slot(verb, kind, n, p) for p in ps for kind, n in shapes)


# Every run covers whole passes, so every seed runs the same requests and
# only their order differs; README.md gives the measurements behind this
# and behind folding four request mixes into two workloads. ``docs`` keeps
# one pass near 40 s at the commit that defined the benchmark. ``tail``
# is the highest percentile with ten samples beyond it in one pass; it is
# fixed so that a faster commit, which runs more passes and so more
# samples, is compared on the same percentile.
WORKLOADS = {
    # Everything the tree route answers: treespec does nearly all the work.
    "tree-route": Workload((
        # one large spectrum per request; paths are the depth worst case,
        # the star the breadth case
        Group(_slots("spectrum", [
            ("tree", 30), ("tree", 60), ("tree", 90), ("tree", 120),
            ("path", 15), ("path", 30), ("path", 45), ("star", 60)],
            (1.2, 3.0)), docs=(0, 1, 2)),
        # hundreds of small spectra one surgery step apart (check --all) and
        # one spectrum rebuilt per eigenvalue (--eigenbasis); nodal and
        # surgery run on every request
        Group(_slots("check", [("tree", n) for n in range(6, 13)], (1.2, 3.0))
              + _slots("eigenbasis", [("tree", n) for n in range(14, 22)],
                       (1.2, 3.0)), docs=(0,)),
    ), tail=85.0),
    # Everything else: treespec does almost nothing.
    "dense-descent": Workload((
        # p = 2: the pure-Python Jacobi in oracle.eig_sym does most of the work
        Group(_slots("eigenbasis", [("graph", 40), ("graph", 80),
                                    ("graph", 120), ("cycle", 80)], (2.0,))
              + _slots("check", [("graph", n) for n in (8, 10, 12)], (2.0,))
              + _slots("spectrum", [("tree", 100), ("tree", 200)], (2.0,)),
              docs=(0, 1)),
        # the paper's cut-to-a-forest route as a library pipeline; no CLI
        # verb reaches core.first_eigenpair. Pool member 5: on it this
        # pipeline shows every failure kind found on the first 16 pool
        # members, among them the count assert of tree_spectrum on the
        # forest cut from cycle n = 40.
        Group(_slots("pipeline", [
            ("graph", 16), ("graph", 24), ("graph", 32), ("graph", 40),
            ("cycle", 16), ("cycle", 24), ("cycle", 32), ("cycle", 40)],
            (1.2, 3.0)), docs=(5,)),
    ), tail=70.0),
}


@dataclass
class Request:
    index: int
    slot: Slot
    doc_seed: int
    graph: object       # plap.core.WeightedGraph
    text: str           # the JSON document fed to the CLI on stdin


@dataclass
class Outcome:
    latency: float
    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None      # exception escaping the program
    result: object = None         # pipeline result: (certificate, spectrum)
    probe_s: float = float("nan")  # host probe time around the request


def build_pools(plap, workload: str) -> dict:
    """(kind, n) -> {pool member: (graph, document text)} for the workload."""
    pools: dict = {}
    for slot, j in WORKLOADS[workload].pairs:
        members = pools.setdefault((slot.kind, slot.n), {})
        if j not in members:
            g = plap.cli.gen_graph(slot.kind, slot.n, random.Random(j),
                                   weighted=True)
            members[j] = (g, json.dumps(plap.cli.graph_document(g)))
    return pools


class Schedule:
    """The seeded request stream: pass after pass over the workload's
    (slot, member) pairs, each pass in its own seeded order."""

    def __init__(self, workload: str, seed: int, pools: dict):
        self.name = f"{seed}/{workload}"
        self.pairs = WORKLOADS[workload].pairs
        self.pools = pools
        self.pass_length = len(self.pairs)
        self._orders: dict = {}

    def request(self, i: int) -> Request:
        n_pass, k = divmod(i, self.pass_length)
        if n_pass not in self._orders:
            order = list(range(self.pass_length))
            random.Random(f"{self.name}/{n_pass}").shuffle(order)
            self._orders[n_pass] = order
        slot, j = self.pairs[self._orders[n_pass][k]]
        g, text = self.pools[(slot.kind, slot.n)][j]
        return Request(i, slot, j, g, text)


def cli_argv(slot: Slot) -> list:
    argv = ["check" if slot.verb == "check" else "spectrum", "-",
            "--p", repr(slot.p)]
    if slot.verb == "eigenbasis":
        argv.append("--eigenbasis")
    elif slot.verb == "check":
        argv.append("--all")
    return argv


def execute(plap, req: Request, clock) -> Outcome:
    """Run one request in-process and time it; nothing is checked here."""
    if req.slot.verb == "pipeline":
        t0 = clock()
        try:
            result = _pipeline(plap, req.graph, req.slot.p)
        except Exception as exc:  # noqa: BLE001 - every failure is recorded
            return Outcome(clock() - t0, error=_describe(exc))
        return Outcome(clock() - t0, result=result)
    out, err = io.StringIO(), io.StringIO()
    argv = cli_argv(req.slot)
    saved = sys.stdin
    sys.stdin = io.StringIO(req.text)
    t0 = clock()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = plap.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - a traceback is a failure too
        return Outcome(clock() - t0, stdout=out.getvalue(),
                       stderr=err.getvalue(), error=_describe(exc))
    finally:
        sys.stdin = saved
    return Outcome(clock() - t0, exit_code=code, stdout=out.getvalue(),
                   stderr=err.getvalue())


def _pipeline(plap, g, p):
    """first eigenpair -> nodal analysis -> cut to a forest -> forest
    spectrum, looked up at the module attributes so a trace sees each call."""
    H = plap.core.Operator(g, p)
    cert = plap.core.first_eigenpair(H)
    plap.nodal.analyze(g, cert.function)
    forest, _steps = plap.surgery.reduce_to_forest(H, cert, seed=0)
    return cert, plap.treespec.tree_spectrum(forest)


def _describe(exc: BaseException) -> str:
    text = str(exc).splitlines()
    return f"{type(exc).__name__}: {text[0] if text else ''}"


# ---------------------------------------------------------------- checking

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(b))


def _bench_residual(g, p: float, f: np.ndarray, lam: float) -> float:
    """Max-norm defect of H f = lam rho phi(f) on the p-normalized f,
    written here from the operator's definition, independently of
    plap.core."""
    def phi(x):
        return np.sign(x) * np.abs(x) ** (p - 1.0)
    y = f / float(np.sum(np.abs(f) ** p)) ** (1.0 / p)
    hy = np.asarray(g.kappa) * phi(y)
    for u, v, w in g.edges:
        d = w * phi(y[u] - y[v])
        hy[u] += d
        hy[v] -= d
    return float(np.max(np.abs(hy - lam * np.asarray(g.rho) * phi(y))))


def check_spectrum(plap, req: Request, entries, reference) -> str | None:
    """Problem with a reported spectrum, or None when it passes."""
    g, p = req.graph, req.slot.p
    vals = [float(e["value"]) for e in entries]
    mults = [int(e["mult"]) for e in entries]
    if sum(mults) != g.n or min(mults) < 1:
        return f"multiplicities sum to {sum(mults)}, not n = {g.n}"
    if any(b <= a for a, b in zip(vals, vals[1:])):
        return "values not strictly ascending"
    bound = plap.core.spectral_bound(plap.core.Operator(g, p))
    if any(abs(v) > bound * (1.0 + REL) for v in vals):
        return f"a value lies outside the spectral bound {bound:.6g}"
    flat = [v for v, m in zip(vals, mults) for _ in range(m)]
    if p == 2.0:
        matrix = plap.oracle.assemble_p2(plap.core.Operator(g, 2.0)).data
        expect = [float(x) for x in np.linalg.eigvalsh(np.array(matrix))]
        what = "numpy eigvalsh"
    else:
        expect = reference.get(reference_key(req))
        what = "the recorded reference"
        if expect is None:
            return None  # no reference exists: the structural checks above
    if len(expect) != len(flat) or not all(map(_close, flat, expect)):
        worst = max(abs(a - b) for a, b in zip(flat, expect))
        return f"values differ from {what} (worst gap {worst:.3e})"
    return None


def check(plap, req: Request, out: Outcome, reference) -> tuple:
    """(failure kind or None, detail) for one finished request.

    Kinds: ``exception`` (the program raised), ``exit`` (nonzero exit code)
    and ``wrong-answer`` (a successful request whose output fails a check).
    """
    if out.error is not None:
        return "exception", out.error
    slot = req.slot
    if slot.verb == "pipeline":
        cert, spec = out.result
        if not cert.residual <= cert.tol:
            return "wrong-answer", (f"certificate residual {cert.residual:.3e}"
                                    f" above tol {cert.tol:.3e}")
        if _bench_residual(req.graph, slot.p, np.asarray(cert.function.values),
                           cert.eigenvalue) > cert.tol:
            return "wrong-answer", "first eigenpair fails the eigen-equation"
        try:
            spec.find(cert.eigenvalue)
        except ValueError:
            return "wrong-answer", "lambda1 not in the forest spectrum"
        flat = spec.flat()
        if len(flat) != req.graph.n:
            return "wrong-answer", "forest spectrum lost multiplicity"
        return None, ""
    if out.exit_code != 0:
        first = out.stderr.strip().splitlines()
        return "exit", first[0] if first else _failed_checks(out.stdout)
    try:
        doc = json.loads(out.stdout)
    except ValueError:
        return "wrong-answer", "stdout is not one JSON document"
    if slot.verb == "check":
        if doc.get("all_pass") is not True:
            return "wrong-answer", "check --all did not report all_pass"
        return None, ""
    problem = check_spectrum(plap, req, doc["spectrum"], reference)
    if problem is None and slot.verb == "eigenbasis":
        problem = _check_eigenbasis(req, doc)
    return (None, "") if problem is None else ("wrong-answer", problem)


def _failed_checks(stdout: str) -> str:
    """Names of the failed rows of a ``check`` report, for the ledger."""
    try:
        rows = json.loads(stdout)["checks"]
    except (ValueError, KeyError, TypeError):
        return ""
    return "failed checks: " + ", ".join(
        sorted({row["name"] for row in rows if not row.get("pass")}))


def _check_eigenbasis(req: Request, doc) -> str | None:
    g = req.graph
    basis = doc.get("eigenbasis", [])
    if len(basis) != len(doc["spectrum"]):
        return "one eigenbasis group per eigenvalue expected"
    for entry, funcs in zip(doc["spectrum"], basis):
        if len(funcs) != entry["mult"]:
            return f"{len(funcs)} functions for multiplicity {entry['mult']}"
        for fmap in funcs:
            f = np.array([float(fmap[str(vid)]) for vid in g.ids])
            r = _bench_residual(g, req.slot.p, f, float(entry["value"]))
            if r > RESIDUAL_TOL:
                return f"eigenfunction at {entry['value']:.6g} has residual {r:.3e}"
    return None


def reference_key(req: Request) -> str:
    return f"{req.slot.kind}:{req.slot.n}:{req.doc_seed}:p={req.slot.p:g}"


def load_reference(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    return {key: values for key, values in data["spectra"].items()
            if values is not None}
