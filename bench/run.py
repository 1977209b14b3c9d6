#!/usr/bin/env python3
"""plap benchmark: one process, one closed-loop client, every answer checked.

Run from the root of a checkout:

    python3 bench/run.py --workload tree-spectrum --seed 1 --seconds 40 --trace 0

Workloads are defined in ``workloads.py`` and documented in ``README.md``
next to this file. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs every request twice, untraced and under
the span tracer of ``tracer.py``, and reports the per-layer metrics.
End-to-end times are scaled to a reference host speed (``probe_host``); the
report line gives them as measured too. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is a detailed report (environment,
tail percentile, error rate and the failure ledger).

The package is imported from ``src/`` of the checkout this file sits in,
never from anywhere else: without ``src/plap`` the run exits nonzero
before printing a result.
"""

from __future__ import annotations

import os

# numpy links a threaded OpenBLAS; one client on a small machine wants one
# thread, set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters started to measure setup_s; the median is reported.
SETUP_REPS = 9

#: The host-speed probe times PROBE_CHUNKS runs of a PROBE_ITERS loop;
#: PROBE_REF_S is the median of a chunk at the reference speed (about the
#: median on a 2-core x86-64 host, Python 3.11).
PROBE_CHUNKS = 5
PROBE_ITERS = 5_000
PROBE_REF_S = 0.35e-3


def import_plap():
    """Import plap from this checkout's src/, or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import plap
        import plap.cli  # noqa: F401 - the CLI module is part of the package
    except ImportError as exc:
        sys.exit(f"cannot import plap from {SRC}: {exc}")
    if Path(plap.__file__).resolve().parent != SRC / "plap":
        sys.exit(f"plap was imported from {plap.__file__}, not from {SRC}")
    return plap


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import, build the inputs, print 'ready' and exit "
                         "(used to time set-up in a fresh interpreter)")
    return ap.parse_args(argv)


def prepare(plap, workload: str, seed: int):
    """Everything that runs before the first request: the set-up that
    setup_s measures."""
    return workloads.Schedule(workload, seed,
                              workloads.build_pools(plap, workload))


def probe_host() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    The host's speed drifts by a third within minutes (other tenants share
    its cores), and the loop slows with it. Every timing is taken between
    two probes and scaled by PROBE_REF_S over their mean (``at_reference``),
    so that runs made minutes apart compare the program and not the host.
    The median of several short chunks ignores a chunk that was descheduled.
    """
    clock = time.perf_counter
    chunks = []
    for _ in range(PROBE_CHUNKS):
        t0 = clock()
        x = 0.5
        for _ in range(PROBE_ITERS):
            x = x * 1.0000001 + 0.25 / (1.0 + x)
        chunks.append(clock() - t0)
    return statistics.median(chunks)


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, scaled to the
    reference speed."""
    return seconds * PROBE_REF_S / probe_s


def measure_setup(args) -> tuple:
    """Median time from starting a fresh interpreter to the first request,
    at the reference speed and as measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    times, scaled = [], []
    before = probe_host()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            code = proc.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            sys.exit(f"set-up probe failed with exit code {code}")
        after = probe_host()
        times.append(t1 - t0)
        scaled.append(at_reference(t1 - t0, (before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(times)


def run_requests(plap, sched, seconds, tracer=None):
    """Closed loop, one request at a time, until the end of the whole pass
    of the schedule expected to end nearest ``seconds`` (one pass at least).

    With a tracer, every request runs twice back to back, untraced and
    traced, the order alternating, so that drift in the host's speed hits
    both alike. Every outcome carries the mean of the host probes taken
    just before and just after it. Returns the untraced and the traced
    (request, outcome) pairs and the wall time."""
    clock = time.perf_counter
    plain, traced = [], []
    t0 = clock()
    before = probe_host()
    i = 0
    while True:
        if i and i % sched.pass_length == 0:
            spent = clock() - t0
            if spent + 0.5 * spent * sched.pass_length / i >= seconds:
                break
        req = sched.request(i)
        turns = (False,) if tracer is None else (i % 2 == 0, i % 2 == 1)
        for with_trace in turns:
            # garbage left by earlier requests is collected outside the
            # timed part, so a request's time does not depend on the order
            gc.collect()
            if with_trace:
                tracer.request_id = i
                with tracer:
                    out = workloads.execute(plap, req, clock)
                traced.append((req, out))
            else:
                out = workloads.execute(plap, req, clock)
                plain.append((req, out))
            after = probe_host()
            out.probe_s = (before + after) / 2
            before = after
        i += 1
    return plain, traced, clock() - t0


def check_all(plap, done, reference):
    """Failure ledger and whether every successful answer was right."""
    ledger = []
    correct = True
    for req, out in done:
        kind, detail = workloads.check(plap, req, out, reference)
        if kind is None:
            continue
        correct = correct and kind != "wrong-answer"
        ledger.append({
            "kind": kind, "request": req.index, "verb": req.slot.verb,
            "graph": req.slot.kind, "n": req.slot.n, "seed": req.doc_seed,
            "p": req.slot.p, "exit": out.exit_code, "detail": detail,
        })
    return ledger, correct


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    return {
        "commit": _git_commit(), "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
    }


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "plap").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    plap = import_plap()
    if args.setup_probe:
        prepare(plap, args.workload, args.seed)
        print("ready", flush=True)
        return 0

    if not args.trace:
        setup_s, setup_raw_s = measure_setup(args)
    sched = prepare(plap, args.workload, args.seed)

    if args.trace:
        tr = tracer_mod.Tracer(plap)
        plain, traced, wall = run_requests(plap, sched, args.seconds, tr)
        overhead = (sum(out.latency for _, out in traced)
                    / sum(out.latency for _, out in plain) - 1.0)
        shapes = {req.index: (req.slot.verb, req.slot.kind)
                  for req, _ in traced}
        values = metrics.per_layer(tr, shapes, len(traced), overhead)
        units = {name: unit for name, unit, _s, _t in metrics.PER_LAYER}
        walls = {req.index: out.latency for req, out in traced}
        verbs = {req.index: req.slot.verb for req, _ in traced}
        extra = {"spans": len(tr.start), "peak_rss_mb": _rss_mb(),
                 "self_time_share": metrics.layer_shares(tr, verbs, walls)}
        done = plain + traced
    else:
        done, _, wall = run_requests(plap, sched, args.seconds)
        tail = workloads.WORKLOADS[args.workload].tail
        raw = [out.latency for _, out in done]
        rss = _rss_mb()
        values = metrics.end_to_end(
            setup_s, [at_reference(out.latency, out.probe_s) for _, out in done],
            rss, tail)
        units = {name: unit for name, unit, _b in metrics.END_TO_END}
        measured = metrics.end_to_end(setup_raw_s, raw, rss, tail)
        del measured["peak_rss_mb"]
        extra = {"tail_percentile": tail, "samples": len(done),
                 "as_measured": {**measured,
                                 "requests_per_wall_s": len(done) / wall},
                 "probe_s": {"median": statistics.median(
                                 out.probe_s for _, out in done),
                             "min": min(out.probe_s for _, out in done),
                             "max": max(out.probe_s for _, out in done)},
                 "latencies": [round(x, 6) for x in raw]}

    reference = workloads.load_reference(HERE / "reference.json")
    ledger, correct = check_all(plap, done, reference)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": wall, "environment": environment(),
        "error_rate": {"value": len(ledger) / len(done), "unit": "ratio"},
        **extra, "failures": ledger,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": len(done), "failed": len(ledger),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
