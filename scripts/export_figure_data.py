#!/usr/bin/env python3
"""Export the plotting data for the pulsating-drop experiments.

Writes three CSV bundles into --outdir:

* depth profiles h(t, r) of the drop at quarter-period instants;
* the two closed particle paths (winding ratios 1/6 and 1/3) plus one
  quasi-closed path for contrast;
* the evolution of an off-center material curve over two periods.

Plot with any CSV-aware tool; columns are labelled.
"""

import argparse
import math
import pathlib
import sys

import numpy as np

from rswlab.cli import main as cli_main
from rswlab.core import FlowParameters
from rswlab.solutions import pulsating_drop
from rswlab.verify import evolve_material_curve


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", type=pathlib.Path)
    parser.add_argument("--alpha", default=2.0, type=float)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    params = FlowParameters(1.0, 1.0)
    drop = pulsating_drop(args.alpha, params)
    boundary = drop.meta["boundary_radius"]

    r_max = max(boundary(t) for t in np.linspace(0, 2 * math.pi, 33))
    times = ",".join(f"{k * math.pi / 2:.17g}" for k in range(3))
    codes = [cli_main([
        "field", "--family", "drop", "--alpha", f"{args.alpha:g}",
        "--t", times, "--r", f"0:{r_max:.4f}:121",
        "--out", str(args.outdir / "drop_depth_profiles.csv"),
    ])]

    for tag, r0 in (("sixth", math.sqrt(3) / 6), ("third", 1 / math.sqrt(3)),
                    ("quasi", math.sqrt(3) / math.pi)):
        codes.append(cli_main([
            "trajectory", "--family", "drop", "--alpha", f"{args.alpha:g}",
            "--r0", f"{r0:.17g}", "--t1", f"{12 * math.pi:.17g}",
            "--samples", "601",
            "--out", str(args.outdir / f"drop_path_{tag}.csv"),
        ]))
    if any(codes):
        print(f"rsw exit codes {codes}", file=sys.stderr)
        return 1

    curve = evolve_material_curve(
        drop, (0.4, 0.5), 0.3, 96, [k * math.pi / 2 for k in range(9)]
    )
    rows = ["time_index,marker,x,y"]
    for i, t in enumerate(curve.times):
        for m in range(curve.positions.shape[1]):
            x, y = curve.positions[i, m]
            rows.append(f"{i},{m},{x:.17g},{y:.17g}")
    (args.outdir / "drop_material_curve.csv").write_text("\n".join(rows) + "\n")
    lengths = ",".join(f"{v:.17g}" for v in curve.curve_length)
    print(f"material curve lengths per instant: {lengths}")
    print(f"wrote data to {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
