"""Command-line front end.

Subcommands export fields, trajectories, residual reports, commutator
tables, and transformed solutions as CSV or JSON for plotting and CI.

Conventions:

* grids are ``lo:hi:count`` (inclusive of both ends), time lists are
  comma-separated;
* CSV numbers are printf ``%.17g`` (round-trip exact for doubles);
* output is written to a temporary file and atomically renamed, so no
  partial files survive a crash;
* exit codes: 0 ok, 1 verification failure, 2 bad arguments,
  3 domain/window violation, including floating-point overflow.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .core import FlowParameters, FlowField, as_cartesian, scale_depth
from .errors import InvalidParams, NoRingExists, OriginSingular, RswError, UnsupportedFamily
from .liealg import structure_constants, verify_isomorphism
from .solutions import (
    canonical_family_name,
    closure_condition,
    family_keywords,
    make_family,
)
from .transforms import map_field_rsw_to_sw, map_field_sw_to_rsw, transport_solution
from .verify import integrate_trajectory, residual_report

SCHEMA_VERSION = 1

_HEADERS = {"polar": ["t", "r", "theta", "U", "V", "h"], "cartesian": ["t", "x", "y", "u", "v", "h"]}
# a count too large to allocate (numpy's MemoryError) is a bad argument too
_BAD_ARGS = (InvalidParams, UnsupportedFamily, NoRingExists, MemoryError)


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
    """CSV text: the header line, then one comma-separated line per row, each ending in "\\n".

    Float rows (an ``(n, len(header))`` float64 array) print every value as
    printf ``%.17g``; each distinct float64 bit pattern is formatted once and
    its text reused wherever it repeats (a grid's coordinates, or the states
    of a rotationally symmetric field across theta), and -0.0 keeps its own
    text.  List rows (trajectories, commutators) hold ints, floats and "",
    none of which needs quoting: floats print as ``%.17g``, the rest by ``str``.
    """
    if isinstance(rows, np.ndarray):
        bits, inverse = np.unique(rows.view(np.int64), return_inverse=True)
        texts = np.array(["%.17g" % x for x in bits.view(np.float64).tolist()], dtype=object)
        cells = texts[inverse.reshape(rows.shape)].tolist()  # numpy versions differ in inverse's shape
    else:
        cells = [["%.17g" % v if isinstance(v, float) else str(v) for v in row] for row in rows]
    return "\n".join([",".join(header), *map(",".join, cells)]) + "\n"


def _json_text(payload: dict) -> str:
    payload = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise InvalidParams(f"grid spec must be lo:hi:count, got {spec!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParams(f"grid bounds must be finite, got {spec!r}")
    if n < 2:
        raise InvalidParams(f"grid count must be >= 2, got {n}")
    return np.linspace(lo, hi, n)

def _parse_list(spec: str) -> list[float]:
    try:
        values = [float(tok) for tok in spec.split(",") if tok != ""]
    except ValueError as exc:
        raise InvalidParams(f"bad number list {spec!r}") from exc
    if not values:
        raise InvalidParams(f"number list {spec!r} has no number")
    if not all(map(math.isfinite, values)):
        raise InvalidParams(f"number list {spec!r} has a non-finite number")
    return values


#: The family flags, each with its ``add_argument`` keywords; a flag that is
#: given goes to :func:`make_family` under its name.
_FAMILY_FLAGS = {
    **{name: {"type": float} for name in ("h0", "u0", "v0", "alpha", "c1", "c2", "c3",
                                          "phi0", "eta0", "lam0")},
    "branch": {"choices": ("lower", "upper")},
    "profile": {"help": "swirl profile, e.g. gauss:0.5,2"},
    "psi": {"help": "swirl invariant, e.g. sine:1"},
    "frame": {"choices": ("polar", "cartesian")},
}


def _family_kwargs(args) -> dict:
    given = vars(args)
    kw = {name: given[name] for name in _FAMILY_FLAGS if given[name] is not None}
    # under map --transport, --alpha is the transport's, passed on if the family takes it
    takes = family_keywords(args.family) | ({"alpha"} if given.get("transport") else set())
    for name in kw:
        if name not in takes:
            raise InvalidParams(f"--{name} does not apply: family {args.family!r} does not take it")
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
    for name in ("x", "y") if field_.frame == "polar" else ("r", "theta"):
        if getattr(args, name) is not None:
            raise InvalidParams(
                f"--{name} does not apply: {field_.label!r} is sampled on a {field_.frame} grid")
    if field_.frame == "polar":
        axes = (_parse_grid(args.r) if args.r else np.linspace(0.1, 2.0, 11),
                _parse_grid(args.theta) if args.theta else np.array([0.0]))
    else:
        axes = (_parse_grid(args.x) if args.x else np.linspace(-2.0, 2.0, 11),
                _parse_grid(args.y) if args.y else np.linspace(-2.0, 2.0, 11))
    grid = np.stack(np.meshgrid(times, *axes, indexing="ij"), axis=-1)
    return grid.reshape(len(times), axes[0].size * axes[1].size, 3)


def _eval_grid(field_: FlowField, blocks: np.ndarray) -> np.ndarray:
    """Rows (t, a, b, state) of the grid, one checked ``eval`` call per time."""
    values = [field_.eval(float(block[0, 0]), block[:, 1], block[:, 2]).T for block in blocks]
    return np.concatenate([blocks, np.reshape(values, blocks.shape)], axis=2).reshape(-1, 6)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_field(args) -> int:
    field_ = _build_field(args)
    rows = _eval_grid(field_, _field_points(field_, args))
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
        traj = integrate_trajectory(
            field_, r0, theta0, args.t0, args.t1, tol=args.tol, record=times
        )
        if traj.stats.get("fixed_point"):
            rows.append([idx, args.t0, 0.0, theta0, 0.0, 0.0, ""])
            summaries.append({"particle": idx, "kind": "fixed-point"})
            continue
        path = field_.meta.get("path")
        formula = path(r0, theta0) if path else None
        # a closed form starts from (r0, theta0) at its anchor time, so its
        # circle and closure describe this path only when t0 is that time
        anchored = formula is not None and formula.anchor_time == args.t0
        circle = formula.circle if anchored else None
        fits = []
        for t, pos in zip(traj.times, traj.positions):
            if field_.frame == "polar":
                r, th = float(pos[0]), float(pos[1])
                x, y = r * math.cos(th), r * math.sin(th)
            else:
                x, y = float(pos[0]), float(pos[1])
                r, th = math.hypot(x, y), math.atan2(y, x)
            fit = abs(math.hypot(x - circle[0], y - circle[1]) - circle[2]) if circle else ""
            fits.append(fit)
            rows.append([idx, float(t), r, th, x, y, fit])
        summary: dict = {"particle": idx, "r0": r0, "theta0": theta0}
        if anchored and field_.meta.get("family") == "pulsating-drop":
            cl = closure_condition(field_.meta["alpha"], r0, field_.params)
            if cl.closed:
                summary.update(kind="closed", m=cl.m, M=cl.M)
            else:
                summary.update(kind="quasi-closed", winding_ratio=cl.winding_ratio)
        elif circle is not None:
            A, B, R = circle
            summary.update(kind="circle", center=[A, B], radius=R,
                           circle_fit_residual=max(fits))
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
    try:
        shape = tuple(int(n) for n in args.shape.split(","))
    except ValueError:
        shape = ()  # rejected below with the other malformed shapes
    if len(shape) != 3 or any(n < 2 for n in shape):
        raise InvalidParams(f"shape must be three counts >= 2, got {args.shape!r}")
    threshold = args.threshold
    if threshold is None:
        threshold = 1e-6 if field_.derivative_mode == "analytic" else 1e-4
    elif not (math.isfinite(threshold) and threshold > 0.0):
        raise InvalidParams(f"--threshold must be finite and > 0, got {threshold!r}")
    report = residual_report(field_, shape=shape)
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
    source = _build_field(args)
    params = source.params
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
    rows = _eval_grid(mapped, _field_points(mapped, args))
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
    for name, options in _FAMILY_FLAGS.items():
        p.add_argument(f"--{name}", default=None, **options)


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
    """Run one ``rsw`` command and return its exit code.

    A command runs with numpy's floating-point overflow, invalid and
    divide errors raised, so that parameters beyond the range of doubles
    exit 3 like any other domain violation instead of computing on inf/NaN.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except _BAD_ARGS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RswError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # overflow, also from Python float arithmetic
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
