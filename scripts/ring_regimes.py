#!/usr/bin/env python3
"""Export the stationary-ring branches and their criticality data.

Produces a CSV with the inner/outer sonic radii, both depth branches
h(r), the Froude number per branch, and the radii where the upper branch
crosses the critical depth.
"""

import argparse
import pathlib
import sys

import numpy as np

from rswlab.core import FlowParameters, diagnostics
from rswlab.reduction import bisect_bracket, depth_cubic_coeffs, ring_bounds
from rswlab.solutions import stationary_ring


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/ring_branches.csv", type=pathlib.Path)
    parser.add_argument("--c1", default=1.0, type=float)
    parser.add_argument("--c2", default=1.0, type=float)
    parser.add_argument("--c3", default=1.0, type=float)
    parser.add_argument("--f", default=0.1, type=float)
    parser.add_argument("--g", default=1.0, type=float)
    parser.add_argument("--n", default=400, type=int)
    args = parser.parse_args()
    params = FlowParameters(args.f, args.g)
    C = (args.c1, args.c2, args.c3)
    bounds = ring_bounds(*C, params)
    lower = stationary_ring(*C, params, branch="lower")
    upper = stationary_ring(*C, params, branch="upper")
    h_s = (2 * args.c1 - args.c2 * args.f) / (3 * args.g)

    def gap(r):
        phi1, phi2 = depth_cubic_coeffs(r, *C, params)
        return h_s ** 3 + phi1 * h_s ** 2 + phi2

    def root(lo, hi):  # a sign change of gap in [lo, hi], to 1e-12 relative
        below = gap(lo) < 0.0
        lo, hi = bisect_bracket(lambda r: (gap(r) < 0.0) == below, lo, hi, 1e-12)
        return 0.5 * (lo + hi)

    r_lo = root(bounds.r_inner, 0.3 * bounds.r_outer)
    r_hi = root(0.3 * bounds.r_outer, bounds.r_outer)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    rows = ["r,h_lower,h_upper,froude_lower,froude_upper"]
    span = bounds.r_outer - bounds.r_inner
    for r in np.linspace(bounds.r_inner + 1e-6 * span, bounds.r_outer - 1e-6 * span, args.n):
        hl = lower.values_unchecked(0.0, r, 0.0)[2]
        hu = upper.values_unchecked(0.0, r, 0.0)[2]
        fl = diagnostics(lower, 0.0, r, 0.0).froude
        fu = diagnostics(upper, 0.0, r, 0.0).froude
        rows.append(f"{r:.17g},{hl:.17g},{hu:.17g},{fl:.17g},{fu:.17g}")
    args.out.write_text("\n".join(rows) + "\n")
    print(f"sonic radii: inner {bounds.r_inner:.6f}, outer {bounds.r_outer:.6f}")
    print(f"critical depth h_s = {h_s:.6f}; upper branch subcritical on "
          f"({r_lo:.4f}, {r_hi:.4f})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
