"""Metric catalogue and the arithmetic that turns timings and spans into
metrics. ``BENCHMARK.json`` lists the same names; ``test_bench.py`` keeps
the two in step.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from tracer import Tracer, n_exponent

#: End-to-end metrics of an untraced run: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def hd_percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: a Beta-weighted mean
    of all order statistics, so that the figure moves smoothly instead of
    jumping when the percentile falls between two request sizes.

    Weight i is I_{i/n}(a, b) - I_{(i-1)/n}(a, b) with a = (n+1) q/100 and
    b = (n+1)(1 - q/100); the regularized incomplete beta I is integrated
    numerically from the Beta density.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q / 100.0, (n + 1) * (1.0 - q / 100.0)
    t = np.linspace(0.0, 1.0, 4001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf[np.isfinite(log_pdf)].max())
    pdf[~np.isfinite(log_pdf)] = 0.0
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


# Per-layer metrics of a traced run: (name, unit, span, statistic).
# Statistics: calls and self_s are per traced request; n_exponent fits the
# slope of log self time against log n (for tree_spectrum, only on
# ``spectrum`` requests, whose one large spectrum per document is the tree
# kernel's scaling, separately on random trees and on paths; the small
# spectra of ``check --all`` and ``--eigenbasis`` would mix fixed per-call
# cost into the slope).
PER_LAYER = (
    ("cli.self_s", "s/request", "cli.main", "self_s"),
    ("cli.parse_document.self_s", "s/request", "cli.parse_document", "self_s"),
    ("treespec.tree_spectrum.calls", "calls/request", "treespec.tree_spectrum", "calls"),
    ("treespec.tree_spectrum.self_s", "s/request", "treespec.tree_spectrum", "self_s"),
    ("treespec.tree_spectrum.repeat_ratio", "ratio", "treespec.tree_spectrum", "repeat_ratio"),
    ("treespec.tree_spectrum.n_exponent.tree", "slope", "treespec.tree_spectrum", "n_exponent.tree"),
    ("treespec.tree_spectrum.n_exponent.path", "slope", "treespec.tree_spectrum", "n_exponent.path"),
    ("treespec.forest_eigenbasis.calls", "calls/request", "treespec.forest_eigenbasis", "calls"),
    ("treespec.eigenbasis.self_s", "s/request", "treespec.eigenbasis", "self_s"),
    ("oracle.p2_spectrum.calls", "calls/request", "oracle.p2_spectrum", "calls"),
    ("oracle.eig_sym.calls", "calls/request", "oracle.eig_sym", "calls"),
    ("oracle.eig_sym.self_s", "s/request", "oracle.eig_sym", "self_s"),
    ("oracle.eig_sym.n_exponent", "slope", "oracle.eig_sym", "n_exponent"),
    ("oracle.assemble_p2.self_s", "s/request", "oracle.assemble_p2", "self_s"),
    ("nodal.analyze.calls", "calls/request", "nodal.analyze", "calls"),
    ("nodal.analyze.self_s", "s/request", "nodal.analyze", "self_s"),
    ("nodal.check_upper.self_s", "s/request", "nodal.check_upper", "self_s"),
    ("nodal.check_lower.self_s", "s/request", "nodal.check_lower", "self_s"),
    ("surgery.remove_edge.calls", "calls/request", "surgery.remove_edge", "calls"),
    ("surgery.remove_edge.self_s", "s/request", "surgery.remove_edge", "self_s"),
    ("surgery.remove_node.calls", "calls/request", "surgery.remove_node", "calls"),
    ("surgery.verify_weyl_edge.self_s", "s/request", "surgery.verify_weyl_edge", "self_s"),
    ("surgery.verify_weyl_nodes.self_s", "s/request", "surgery.verify_weyl_nodes", "self_s"),
    ("surgery.reduce_to_forest.self_s", "s/request", "surgery.reduce_to_forest", "self_s"),
    ("core.first_eigenpair.calls", "calls/request", "core.first_eigenpair", "calls"),
    ("core.first_eigenpair.self_s", "s/request", "core.first_eigenpair", "self_s"),
    ("core.first_eigenpair.n_exponent", "slope", "core.first_eigenpair", "n_exponent"),
    ("core.apply.calls", "calls/request", "core.apply", "calls"),
    ("core.apply.self_s", "s/request", "core.apply", "self_s"),
    ("core.residual.calls", "calls/request", "core.residual", "calls"),
    ("trace.overhead_ratio", "ratio", None, "overhead"),
)


def end_to_end(setup_s: float, latencies, rss_mb: float,
               tail: float) -> dict:
    """The untraced run's metrics; ``tail`` is the workload's tail
    percentile. With one closed-loop client, requests per second is the
    number of requests over the time they took."""
    return {
        "setup_s": setup_s,
        "requests_per_s": len(latencies) / math.fsum(latencies),
        "latency_p50_s": hd_percentile(latencies, 50.0),
        "latency_tail_s": hd_percentile(latencies, tail),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer: Tracer, shapes: dict, requests: int,
              overhead: float) -> dict:
    """Per-layer metrics from a traced run of ``requests`` requests;
    ``shapes`` maps request id -> (verb, graph kind of its document)."""
    self_t = tracer.self_times()
    name_id = np.frombuffer(tracer.name_id, dtype=np.int64)
    size = np.frombuffer(tracer.size, dtype=np.int64)
    req = np.frombuffer(tracer.request, dtype=np.int64)
    index = {name: k for k, name in enumerate(tracer.names)}
    out = {}
    for metric, _unit, span, stat in PER_LAYER:
        if stat == "overhead":
            out[metric] = overhead
            continue
        sel = (name_id == index[span]) if span in index else np.zeros(
            len(name_id), dtype=bool)
        if stat == "calls":
            value = int(sel.sum()) / requests
        elif stat == "self_s":
            value = float(self_t[sel].sum()) / requests
        elif stat == "repeat_ratio":
            value = tracer.repeat_ratio(span)
        else:  # n_exponent, optionally on one kind of spectrum request
            _, _, kind = stat.partition(".")
            if kind:
                of_kind = np.array(
                    [shapes.get(int(r)) == ("spectrum", kind) for r in req],
                    dtype=bool)
                sel = sel & of_kind
            value = n_exponent(size[sel], self_t[sel])
        out[metric] = value
    return out


def layer_shares(tracer: Tracer, verbs: dict, walls: dict) -> dict:
    """verb -> {span name: share of that verb's request wall time spent in
    the span's own code}, for the attribution table of the report."""
    self_t = tracer.self_times()
    name_id = np.frombuffer(tracer.name_id, dtype=np.int64)
    req = np.frombuffer(tracer.request, dtype=np.int64)
    shares: dict = {}
    total: dict = {}
    for rid, wall in walls.items():
        total[verbs[rid]] = total.get(verbs[rid], 0.0) + wall
    for t, k, r in zip(self_t, name_id, req):
        verb = verbs[int(r)]
        row = shares.setdefault(verb, {})
        name = tracer.names[int(k)]
        row[name] = row.get(name, 0.0) + float(t)
    return {verb: {name: round(t / total[verb], 4)
                   for name, t in sorted(row.items(), key=lambda kv: -kv[1])
                   if t / total[verb] >= 0.001}
            for verb, row in shares.items()}


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with Python's default quartile method."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
