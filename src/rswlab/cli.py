"""Command-line front end.

Subcommands export fields, trajectories, residual reports, commutator
tables, and transformed solutions as CSV or JSON for plotting and CI.

Conventions:

* grids are ``lo:hi:count`` (inclusive of both ends), time lists are
  comma-separated;
* CSV numbers carry 17 significant digits (round-trip exact for doubles);
* output is written to a temporary file and atomically renamed, so no
  partial files survive a crash;
* exit codes: 0 ok, 1 verification failure, 2 bad arguments,
  3 domain/window violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .core import FlowParameters, FlowField, as_cartesian, scale_depth
from .errors import (
    InvalidParams,
    LeftDomain,
    NoRingExists,
    OriginSingular,
    RswError,
    SingularTime,
    UnsupportedFamily,
    WindowViolation,
)
from .liealg import structure_constants, verify_isomorphism
from .solutions import (
    canonical_family_name,
    closure_condition,
    make_family,
    trajectory_formula,
)
from .transforms import map_field_rsw_to_sw, map_field_sw_to_rsw, transport_solution
from .verify import integrate_trajectory, residual_report

SCHEMA_VERSION = 1

_HEADERS = {"polar": ["t", "r", "theta", "U", "V", "h"], "cartesian": ["t", "x", "y", "u", "v", "h"]}
_BAD_ARGS = (InvalidParams, UnsupportedFamily, NoRingExists)
_DOMAIN = (WindowViolation, SingularTime, OriginSingular, LeftDomain)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rsw-tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows) -> str:
    if isinstance(rows, np.ndarray):  # all-float rows: one format operation per row
        line = ",".join(["%.17g"] * len(header)) + "\n"
        return ",".join(header) + "\n" + "".join(line % row for row in map(tuple, rows.tolist()))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    payload = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise InvalidParams(f"grid spec must be lo:hi:count, got {spec!r}") from exc
    if n < 2:
        raise InvalidParams(f"grid count must be >= 2, got {n}")
    return np.linspace(lo, hi, n)

def _parse_list(spec: str) -> list[float]:
    try:
        return [float(tok) for tok in spec.split(",") if tok != ""]
    except ValueError as exc:
        raise InvalidParams(f"bad number list {spec!r}") from exc


def _family_kwargs(args) -> dict:
    kw = {}
    for name in ("h0", "u0", "v0", "alpha", "c1", "c2", "c3",
                 "phi0", "eta0", "lam0"):
        val = getattr(args, name, None)
        if val is not None:
            kw[name] = val
    for name in ("branch", "profile", "psi", "frame"):
        val = getattr(args, name, None)
        if val is not None:
            kw[name] = val
    return kw


def _build_field(args) -> FlowField:
    params = FlowParameters(args.f, args.g)
    field_ = make_family(args.family, params, **_family_kwargs(args))
    if getattr(args, "mode", "analytic") == "fd":
        field_ = field_.with_derivative_mode("fd", getattr(args, "fd_step", None))
    if getattr(args, "corrupt_depth", None):
        field_ = scale_depth(field_, args.corrupt_depth)
    return field_


def _field_points(field_: FlowField, args) -> np.ndarray:
    """The grid as one block of (t, a, b) rows per time: shape (nt, m, 3)."""
    times = np.array(_parse_list(args.t), dtype=float)
    if field_.frame == "polar":
        axes = (_parse_grid(args.r) if args.r else np.linspace(0.1, 2.0, 11),
                _parse_grid(args.theta) if args.theta else np.array([0.0]))
    else:
        axes = (_parse_grid(args.x) if args.x else np.linspace(-2.0, 2.0, 11),
                _parse_grid(args.y) if args.y else np.linspace(-2.0, 2.0, 11))
    grid = np.stack(np.meshgrid(times, *axes, indexing="ij"), axis=-1)
    return grid.reshape(len(times), axes[0].size * axes[1].size, 3)


def _eval_rows(field_: FlowField, blocks: np.ndarray) -> np.ndarray:
    """Rows (t, a, b, state) of the grid, one checked ``eval`` call per time."""
    values = [field_.eval(float(block[0, 0]), block[:, 1], block[:, 2]).T for block in blocks]
    return np.concatenate([blocks, np.reshape(values, blocks.shape)], axis=2).reshape(-1, 6)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_field(args) -> int:
    field_ = _build_field(args)
    rows = _eval_rows(field_, _field_points(field_, args))
    header = _HEADERS[field_.frame]
    if args.format == "json":
        text = _json_text(
            {
                "command": "field",
                "family": canonical_family_name(args.family),
                "label": field_.label,
                "columns": header,
                "rows": rows.tolist(),
            }
        )
    else:
        text = _csv_text(header, rows)
    _write_atomic(args.out, text)
    return 0


def cmd_trajectory(args) -> int:
    if args.samples < 1:
        raise InvalidParams(f"--samples must be a positive integer, got {args.samples}")
    if not (math.isfinite(args.t0) and math.isfinite(args.t1)):
        raise InvalidParams("trajectory times must be finite")
    field_ = _build_field(args)
    times = np.linspace(args.t0, args.t1, args.samples)
    header = ["particle", "t", "r", "theta", "x", "y", "circle_residual"]
    rows = []
    summaries = []
    for idx, r0 in enumerate(_parse_list(args.r0)):
        theta0 = args.theta0
        if r0 == 0.0:
            rows.append([idx, args.t0, 0.0, theta0, 0.0, 0.0, ""])
            summaries.append({"particle": idx, "kind": "fixed-point"})
            continue
        traj = integrate_trajectory(
            field_, r0, theta0, args.t0, args.t1, tol=args.tol, record=times
        )
        circle = None
        try:
            formula = trajectory_formula(field_, r0, theta0)
            circle = formula.circle
        except (UnsupportedFamily, InvalidParams):
            formula = None
        xy = []
        for t, pos in zip(traj.times, traj.positions):
            if field_.frame == "polar":
                r, th = float(pos[0]), float(pos[1])
                x, y = r * math.cos(th), r * math.sin(th)
            else:
                x, y = float(pos[0]), float(pos[1])
                r, th = math.hypot(x, y), math.atan2(y, x)
            fit = abs(math.hypot(x - circle[0], y - circle[1]) - circle[2]) if circle else ""
            xy.append((x, y))
            rows.append([idx, float(t), r, th, x, y, fit])
        summary: dict = {"particle": idx, "r0": r0, "theta0": theta0}
        meta = field_.meta
        if meta.get("family") == "pulsating-drop":
            cl = closure_condition(meta["alpha"], r0, field_.params)
            if cl.closed:
                summary.update(kind="closed", m=cl.m, M=cl.M)
            else:
                summary.update(kind="quasi-closed", winding_ratio=cl.winding_ratio)
        elif circle is not None:
            A, B, R = circle
            worst = max(abs(math.hypot(x - A, y - B) - R) for x, y in xy)
            summary.update(kind="circle", center=[A, B], radius=R,
                           circle_fit_residual=worst)
        else:
            summary.update(kind="generic")
        summaries.append(summary)
    if args.format == "json":
        text = _json_text(
            {"command": "trajectory", "label": field_.label, "columns": header,
             "rows": rows, "summaries": summaries}
        )
    else:
        text = _csv_text(header, rows)
        text += "".join(
            "# " + json.dumps(s, sort_keys=True) + "\n" for s in summaries
        )
    _write_atomic(args.out, text)
    return 0


def cmd_residual(args) -> int:
    field_ = _build_field(args)
    shape = tuple(int(n) for n in args.shape.split(","))
    if len(shape) != 3 or any(n < 2 for n in shape):
        raise InvalidParams(f"shape must be three counts >= 2, got {args.shape!r}")
    report = residual_report(field_, shape=shape)
    threshold = args.threshold
    if threshold is None:
        threshold = 1e-6 if field_.derivative_mode == "analytic" else 1e-4
    payload = {
        "command": "residual",
        "family": canonical_family_name(args.family),
        "label": field_.label,
        "threshold": threshold,
        "passed": report.max_residual < threshold,
        "report": report.as_dict(),
    }
    _write_atomic(args.out, _json_text(payload))
    return 0 if report.max_residual < threshold else 1


def cmd_commutators(args) -> int:
    params = FlowParameters(args.f, args.g)
    table = structure_constants(args.family, params, n_points=args.points, seed=args.seed)
    iso = verify_isomorphism(params, n_points=args.points, seed=args.seed)
    entries = []
    for i in range(9):
        for j in range(9):
            nz = {
                str(k + 1): float(table.coeffs[i, j, k])
                for k in range(9)
                if table.coeffs[i, j, k] != 0.0
            }
            if nz:
                entries.append({"i": i + 1, "j": j + 1, "coeffs": nz})
    payload = {
        "command": "commutators",
        "family": args.family,
        "f": args.f,
        "g": args.g,
        "fit_residual": table.fit_residual,
        "matches_reference_table": table.matches_canonical(),
        "bases_agree": iso.ok,
        "entries": entries,
    }
    if args.format == "csv":
        rows = [
            [e["i"], e["j"], int(k), v]
            for e in entries
            for k, v in sorted(e["coeffs"].items())
        ]
        text = _csv_text(["i", "j", "k", "coeff"], rows)
    else:
        text = _json_text(payload)
    _write_atomic(args.out, text)
    return 0


def cmd_map(args) -> int:
    params = FlowParameters(args.f, args.g)
    source = make_family(args.family, params, **_family_kwargs(args))
    if args.transport:
        if args.alpha is None or args.alpha <= 0.0:
            raise InvalidParams("--transport requires --alpha > 0")
        mapped = transport_solution(source, args.alpha, params)
    elif args.direction == "rsw2sw":
        mapped = map_field_rsw_to_sw(as_cartesian(source), params)
    elif args.direction == "sw2rsw":
        mapped = map_field_sw_to_rsw(as_cartesian(source), params)
    else:
        raise InvalidParams("map needs either --transport or --direction")
    rows = _eval_rows(mapped, _field_points(mapped, args))
    header = _HEADERS[mapped.frame]
    checked = rows[:, :3]
    if mapped.frame == "polar":
        # every row is exported, but the polar equations divide by r
        checked = checked[checked[:, 1] > 0.0]
        if not len(checked):
            raise OriginSingular("the map's polar residual needs a point with r > 0")
    report = residual_report(mapped, points=checked)
    payload = {
        "command": "map",
        "source": source.label,
        "result": mapped.label,
        "system": mapped.system,
        "columns": header,
        "rows": rows.tolist(),
        "residual": report.as_dict(),
    }
    if args.format == "csv":
        text = _csv_text(header, rows)
        text += "# " + json.dumps(
            {"residual_max": report.max_residual, "system": mapped.system},
            sort_keys=True,
        ) + "\n"
    else:
        text = _json_text(payload)
    _write_atomic(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_family_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, help="solution family name")
    p.add_argument("--f", type=float, default=1.0, help="Coriolis parameter")
    p.add_argument("--g", type=float, default=1.0, help="gravity")
    p.add_argument("--h0", type=float, default=None)
    p.add_argument("--u0", type=float, default=None)
    p.add_argument("--v0", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--c3", type=float, default=None)
    p.add_argument("--phi0", type=float, default=None)
    p.add_argument("--eta0", type=float, default=None)
    p.add_argument("--lam0", type=float, default=None)
    p.add_argument("--branch", choices=("lower", "upper"), default=None)
    p.add_argument("--profile", default=None, help="swirl profile, e.g. gauss:0.5,2")
    p.add_argument("--psi", default=None, help="swirl invariant, e.g. sine:1")
    p.add_argument("--frame", choices=("polar", "cartesian"), default=None)


def _add_grid_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", default="0.5,1.0,1.5", help="comma-separated times")
    p.add_argument("--r", default=None, help="radial grid lo:hi:count")
    p.add_argument("--theta", default=None, help="angle grid lo:hi:count")
    p.add_argument("--x", default=None, help="x grid lo:hi:count")
    p.add_argument("--y", default=None, help="y grid lo:hi:count")


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``rsw`` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rsw",
        description="Exact-solution laboratory for rotating shallow water flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="sample a solution family on a grid")
    _add_family_options(p)
    _add_grid_options(p)
    _add_output_options(p)
    p.add_argument("--mode", choices=("analytic", "fd"), default="analytic")
    p.add_argument("--fd-step", dest="fd_step", type=float, default=None)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("trajectory", help="integrate particle paths")
    _add_family_options(p)
    _add_output_options(p)
    p.add_argument("--r0", default="1.0", help="comma-separated start radii")
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=2.0 * math.pi)
    p.add_argument("--samples", type=int, default=65)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("residual", help="evaluate governing-equation residuals")
    _add_family_options(p)
    _add_output_options(p)
    p.add_argument("--shape", default="10,10,10", help="nt,na,nb sample counts")
    p.add_argument("--mode", choices=("analytic", "fd"), default="analytic")
    p.add_argument("--fd-step", dest="fd_step", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument(
        "--corrupt-depth", dest="corrupt_depth", type=float, default=None,
        help="scale depth by this factor (negative control fixture)",
    )
    p.set_defaults(func=cmd_residual, format="json")

    p = sub.add_parser("commutators", help="export the structure-constant table")
    p.add_argument("--family", choices=("Y", "Z"), default="Y")
    p.add_argument("--f", type=float, default=1.0)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=12)
    _add_output_options(p)
    p.set_defaults(func=cmd_commutators, format="json")

    p = sub.add_parser("map", help="apply the equivalence map or transport")
    _add_family_options(p)
    _add_grid_options(p)
    _add_output_options(p)
    p.add_argument("--direction", choices=("rsw2sw", "sw2rsw"), default=None)
    p.add_argument("--transport", action="store_true")
    p.set_defaults(func=cmd_map)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _BAD_ARGS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RswError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
