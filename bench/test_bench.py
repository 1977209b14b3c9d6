"""Tests of the benchmark itself: the tracer leaves no trace behind, its
derived metrics mean what they say, and the answer checks catch wrong
answers. They run on a tiny workload and take a few seconds."""

import json
import sys
import time
from collections import Counter

import pytest

import metrics
import run
import tracer as tracer_mod
import workloads as W

plap = run.import_plap()

TINY = W.Workload((
    W.Group((W.Slot("check", "tree", 5, 3.0),
             W.Slot("eigenbasis", "graph", 6, 2.0),
             W.Slot("spectrum", "path", 7, 1.5)), docs=(0, 1)),
    W.Group((W.Slot("pipeline", "graph", 6, 3.0),), docs=(3,)),
), tail=50.0)
PASS = len(TINY.pairs)
PIPELINES = 1


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(W.WORKLOADS, "tiny", TINY)
    return W.Schedule("tiny", 0, W.build_pools(plap, "tiny"))


def _attributes():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if mod is not None and (name == "plap" or name.startswith("plap."))
            for attr, value in vars(mod).items() if callable(value)}


def test_untraced_run_installs_no_wrapper(tiny, monkeypatch):
    before = _attributes()
    seen = []
    execute = W.execute

    def spy(*args):
        seen.append(_attributes() == before)
        return execute(*args)

    monkeypatch.setattr(W, "execute", spy)
    plain, traced, _wall = run.run_requests(plap, tiny, 0)
    assert len(plain) == PASS and traced == []
    assert all(seen) and len(seen) == PASS
    assert _attributes() == before


def test_timings_scale_with_the_host_probe(tiny):
    done, _traced, _wall = run.run_requests(plap, tiny, 0)
    assert all(out.probe_s > 0 for _req, out in done)
    # a request timed while the host ran at half speed counts the same
    assert run.at_reference(2.0, 2 * run.PROBE_REF_S) == pytest.approx(
        run.at_reference(1.0, run.PROBE_REF_S)) == pytest.approx(1.0)


def test_wrappers_are_removed_after_a_traced_run(tiny):
    before = _attributes()
    tr = tracer_mod.Tracer(plap)
    with tr:
        wrapped = {key for key, value in _attributes().items()
                   if value is not before[key]}
    # residual is imported by name into cli, surgery and the package root
    assert {("plap.core", "residual"), ("plap.cli", "residual"),
            ("plap.surgery", "residual"), ("plap", "residual")} <= wrapped
    assert _attributes() == before
    plain, traced, _wall = run.run_requests(plap, tiny, 0, tr)
    assert len(plain) == len(traced) == PASS
    assert _attributes() == before
    values = metrics.per_layer(tr, {}, len(traced), 0.0)
    # each CLI request enters cli.main once; the pipeline request does not
    assert values["cli.self_s"] > 0
    cli_calls = sum(1 for k in tr.name_id if tr.names[k] == "cli.main")
    assert cli_calls == PASS - PIPELINES
    assert values["core.first_eigenpair.calls"] == pytest.approx(PIPELINES / PASS)


def test_an_exception_still_removes_the_wrappers(tiny):
    before = _attributes()
    with pytest.raises(KeyError):
        with tracer_mod.Tracer(plap):
            raise KeyError("boom")
    assert _attributes() == before


def test_repeat_ratio_treats_identical_operators_as_equal():
    def build(p):
        g = plap.cli.gen_graph("tree", 6, __import__("random").Random(4),
                               weighted=True)
        return plap.core.Operator(g, p)

    tr = tracer_mod.Tracer(plap)
    with tr:
        tr.request_id = 0
        plap.treespec.tree_spectrum(build(3.0))
        plap.treespec.tree_spectrum(build(3.0))   # equal, not the same object
        plap.treespec.tree_spectrum(build(2.5))   # different p
        tr.request_id = 1
        plap.treespec.tree_spectrum(build(3.0))   # seen only in request 0
    assert tr.repeat_ratio() == pytest.approx(1 / 4)


def test_tree_exponents_fit_only_spectrum_requests():
    tr = tracer_mod.Tracer(plap)
    nid = tr.names.index("treespec.tree_spectrum")
    # request 0 is a spectrum request whose time grows as n^2; request 1 is
    # a check --all request whose small spectra cost the same at any n
    for rid, n, t in [(0, 10, 1.0), (0, 20, 4.0), (1, 5, 1.0), (1, 40, 1.0)]:
        tr.start.append(0.0)
        tr.end.append(t)
        tr.parent.append(-1)
        tr.request.append(rid)
        tr.name_id.append(nid)
        tr.size.append(n)
    shapes = {0: ("spectrum", "tree"), 1: ("check", "tree")}
    values = metrics.per_layer(tr, shapes, 2, 0.0)
    assert values["treespec.tree_spectrum.n_exponent.tree"] == pytest.approx(2.0)
    assert values["treespec.tree_spectrum.n_exponent.path"] == 0.0


def test_self_times_never_exceed_the_request_wall_time(tiny):
    tr = tracer_mod.Tracer(plap)
    _plain, done, _wall = run.run_requests(plap, tiny, 0, tr)
    self_t = tr.self_times()
    assert (self_t >= 0).all()
    for req, out in done:
        spent = sum(t for t, r in zip(self_t, tr.request) if r == req.index)
        assert 0 < spent <= out.latency


def test_checks_accept_right_and_reject_wrong_answers(tiny):
    done, _traced, _wall = run.run_requests(plap, tiny, 0)
    ledger, correct = run.check_all(plap, done, {})
    assert correct and ledger == []
    req, out = next((r, o) for r, o in done if r.slot.verb == "eigenbasis")
    doc = json.loads(out.stdout)
    doc["spectrum"][-1]["value"] *= 1.0 + 1e-6
    out.stdout = json.dumps(doc)
    kind, detail = W.check(plap, req, out, {})
    assert kind == "wrong-answer" and "eigvalsh" in detail


def test_reference_mismatch_is_a_wrong_answer(tiny):
    req = next(r for r in map(tiny.request, range(PASS))
               if r.slot.verb == "spectrum")
    out = W.execute(plap, req, time.perf_counter)
    flat = [e["value"] for e in json.loads(out.stdout)["spectrum"]]
    assert W.check(plap, req, out, {W.reference_key(req): flat}) == (None, "")
    wrong = {W.reference_key(req): [v + 1e-6 for v in flat]}
    assert W.check(plap, req, out, wrong)[0] == "wrong-answer"


def test_seed_changes_order_not_requests(tiny):
    other = W.Schedule("tiny", 1, tiny.pools)
    first = [tiny.request(i) for i in range(3 * PASS)]
    second = [other.request(i) for i in range(3 * PASS)]
    assert [(r.slot, r.doc_seed) for r in first] != [
        (r.slot, r.doc_seed) for r in second]
    # every pass runs every (slot, document) pair once, whatever the seed
    expect = Counter(TINY.pairs)
    for reqs in (first, second):
        for k in range(3):
            one_pass = reqs[k * PASS:(k + 1) * PASS]
            assert Counter((r.slot, r.doc_seed) for r in one_pass) == expect
    again = W.Schedule("tiny", 0, tiny.pools)
    assert [again.request(i).doc_seed for i in range(len(first))] == [
        r.doc_seed for r in first]


def test_benchmark_json_lists_the_catalogue():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _u, _b in metrics.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [
        row[0] for row in metrics.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)


def test_end_to_end_metrics():
    lat = [float(i) for i in range(1, 41)]
    values = metrics.end_to_end(0.3, lat, 40.0, 75.0)
    assert values["requests_per_s"] == pytest.approx(40 / 820)
    assert values["latency_p50_s"] == pytest.approx(20.5)
    assert 30.0 < values["latency_tail_s"] < 32.0
    assert metrics.hd_percentile([3.0] * 7, 90.0) == pytest.approx(3.0)


def test_every_pass_has_ten_samples_beyond_the_tail():
    for spec in W.WORKLOADS.values():
        assert len(spec.pairs) * (1.0 - spec.tail / 100.0) >= 10.0
