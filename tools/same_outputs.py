#!/usr/bin/env python3
"""Same results, faster? One in-process pass of each benchmark workload.

Runs one pass of every workload of ``bench/workloads.py`` (schedule seed 1,
its requests in the benchmark's order) through ``workloads.execute``, three
times. It prints, per workload, one SHA-256 over every request's exit
code, stdout, stderr, escaping error and pipeline result, and per verb the
best of the three passes' summed request times. Two checkouts that print
the same digests answered every request of a pass byte for byte alike.

    python3 tools/same_outputs.py            # this checkout
    python3 tools/same_outputs.py OTHER      # the checkout at OTHER

``workloads.py`` is imported, never changed; the package is imported from
``src/`` of the checkout measured.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as bench/run.py sets it
os.environ["OMP_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import importlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SEED = 1
PASSES = 3


def _result_bytes(result) -> bytes:
    """A pipeline result, (certificate, spectrum), as bytes."""
    if result is None:
        return b""
    cert, spec = result
    values = [(e.value, e.mult) for e in spec.entries]
    return (repr((cert.eigenvalue, cert.residual, values)).encode()
            + cert.function.values.tobytes())


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1])
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    plap = importlib.import_module("plap")
    importlib.import_module("plap.cli")
    workloads = importlib.import_module("workloads")
    print(f"checkout {root}")
    for name in sorted(workloads.WORKLOADS):
        schedule = workloads.Schedule(name, SEED, workloads.build_pools(plap, name))
        digest, best = None, {}
        for _ in range(PASSES):
            h, times = hashlib.sha256(), {}
            for i in range(schedule.pass_length):
                req = schedule.request(i)
                out = workloads.execute(plap, req, time.perf_counter)
                for part in (repr(out.exit_code), out.stdout, out.stderr,
                             repr(out.error)):
                    h.update(part.encode() + b"\0")
                h.update(_result_bytes(out.result) + b"\0")
                times[req.slot.verb] = times.get(req.slot.verb, 0.0) + out.latency
            if digest not in (None, h.hexdigest()):
                raise AssertionError(f"{name}: two passes answered differently")
            digest = h.hexdigest()
            for verb, t in times.items():
                best[verb] = min(best.get(verb, t), t)
        print(f"{name} sha256 {digest}")
        print(f"{name} best of {PASSES} passes, s: "
              + ", ".join(f"{verb} {t:.4f}" for verb, t in sorted(best.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
