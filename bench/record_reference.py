#!/usr/bin/env python3
"""Record the reference spectra that p != 2 answers are checked against.

For every document of every p != 2 slot that reports a spectrum, this
stores ``tree_spectrum``'s eigenvalues, repeated by multiplicity and rounded
to 11 significant digits (far inside the 1e-8 relative tolerance of the
check), or null where ``tree_spectrum`` raises. Run from the root of a
checkout, only at a commit whose spectra are trusted:

    python3 bench/record_reference.py

p = 2 answers need no recording: they are checked against numpy's
``eigvalsh`` of the assembled matrix.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    plap = run.import_plap()
    spectra = {}
    for name, spec in workloads.WORKLOADS.items():
        pools = workloads.build_pools(plap, name)
        for slot, j in spec.pairs:
            if slot.p == 2.0 or slot.verb not in ("spectrum", "eigenbasis"):
                continue
            g, text = pools[(slot.kind, slot.n)][j]
            key = workloads.reference_key(workloads.Request(-1, slot, j, g, text))
            if key in spectra:
                continue
            try:
                spectrum = plap.treespec.tree_spectrum(plap.core.Operator(g, slot.p))
            except (AssertionError, RuntimeError, ValueError) as exc:
                print(f"{key}: {type(exc).__name__}: {exc}", file=sys.stderr)
                spectra[key] = None
                continue
            spectra[key] = [float(f"{v:.11g}") for v in spectrum.flat()]
    out = {"source": run.environment(), "spectra": spectra}
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
