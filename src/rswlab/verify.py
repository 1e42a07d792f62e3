"""Independent verification tools.

* PDE residuals of a field in Cartesian or polar form, normalized per
  equation by the local term scale so that tolerances mean the same thing
  whether the depth is order one or spans decades;
* particle trajectory integration with the package's one adaptive ODE
  integrator, an embedded Dormand-Prince 5(4) pair whose ``tol`` bounds the
  local error per step relative to max(1, |y|); steps land only on the
  requested record times;
* material-curve evolution (a ring of markers advected together);
* a deliberately simple first-order finite-volume solver used as a
  cross-check oracle: against a smooth exact solution its error must
  shrink at first order under mesh refinement.  It reads the exact field
  in array calls (the grid in bands of rows, and the ghost ring once per
  step) under the broadcast contract of :class:`~rswlab.core.FlowField`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field
from itertools import repeat
from operator import add, mul
from typing import Callable, Sequence

import numpy as np

from .core import FlowField, _check_finite, _check_radius, as_cartesian, potential_vorticity
from .errors import (
    BlowUp,
    InvalidParams,
    LeftDomain,
    NegativeDepth,
    OriginSingular,
    WindowViolation,
)

# ---------------------------------------------------------------------------
# Sample grids
# ---------------------------------------------------------------------------


#: Fraction of each sampled range left out at both ends by :func:`sample_grid`.
GRID_MARGIN = 0.02


def sample_grid(field_: FlowField, shape: tuple[int, int, int] = (10, 10, 10)) -> np.ndarray:
    """Deterministic (N, 3) sample of the field's preferred window.

    A view, with ``meta["source"] = (src, to_view)`` and ``to_view`` its
    point map on (N, 3) rows, samples ``to_view(sample_grid(src, shape))``.
    Otherwise rows are time-major (t, then a, then b), built as whole
    arrays, from the family's ``sample_box`` metadata when present; spatial
    axes shrink by :data:`GRID_MARGIN` so that finite-difference probes stay
    inside the validity window.  For families whose natural domain is a
    moving level set the box carries a ``lam`` range and the radius is
    derived from it per time sample.
    """
    if "source" in field_.meta:
        src, to_view = field_.meta["source"]
        return to_view(sample_grid(src, shape))
    box = field_.meta.get("sample_box", {})
    nt, na, nb = shape
    t_lo, t_hi = box.get("t", (0.0, field_.params.period))
    w_lo = field_.window.t_lo + field_.window.t_guard
    w_hi = field_.window.t_hi - field_.window.t_guard
    t_lo = max(t_lo, w_lo + 1e-6 * (1.0 if not math.isfinite(w_hi - w_lo) else (w_hi - w_lo)))
    t_hi = min(t_hi, w_hi - 1e-6 * (1.0 if not math.isfinite(w_hi - w_lo) else (w_hi - w_lo)))
    span_t = t_hi - t_lo
    ts = np.linspace(t_lo + GRID_MARGIN * span_t, t_hi - GRID_MARGIN * span_t, nt)

    if field_.frame == "cartesian":
        x_lo, x_hi = box.get("x", (-2.0, 2.0))
        y_lo, y_hi = box.get("y", box.get("x", (-2.0, 2.0)))
        grid = np.meshgrid(ts, np.linspace(x_lo, x_hi, na), np.linspace(y_lo, y_hi, nb), indexing="ij")
        return np.stack(grid, axis=-1).reshape(-1, 3)

    thetas = np.linspace(0.0, 2.0 * math.pi, nb, endpoint=False)
    if "lam" in box:
        lam_lo, lam_hi = box["lam"]
        lam_span = lam_hi - lam_lo
        lams = np.linspace(lam_lo + GRID_MARGIN * lam_span, lam_hi - GRID_MARGIN * lam_span, na)
        w = np.array([1.0 - math.cos(field_.params.f * t) for t in ts.tolist()])
        rs = np.sqrt(w[:, None] / lams)
    else:
        r_lo, r_hi = box.get("r", (0.05, 2.0))
        bounds = np.array([field_.window.radial_bounds(t) for t in ts.tolist()])
        lo = np.maximum(r_lo, bounds[:, 0])
        hi = np.minimum(r_hi, bounds[:, 1])
        span = hi - lo
        rs = np.linspace(lo + GRID_MARGIN * span, hi - GRID_MARGIN * span, na, axis=1)
    grid = np.broadcast_arrays(ts[:, None, None], rs[:, :, None], thetas)
    return np.stack(grid, axis=-1).reshape(-1, 3)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Normalized residual norms of the governing equations on a sample.

    ``max_abs[i]`` and ``rms[i]`` refer to equation i (two momentum
    components, then mass).  Each pointwise residual is |sum of terms|
    divided by max(1, largest |term|), a scale-free measure of how well the
    terms cancel.
    """

    equation_names: tuple[str, str, str]
    max_abs: tuple[float, float, float]
    rms: tuple[float, float, float]
    worst_point: tuple[float, float, float]
    worst_equation: str
    derivative_mode: str
    fd_step: float
    n_points: int
    coriolis: float

    @property
    def max_residual(self) -> float:
        return float(np.max(self.max_abs))  # NaN if any equation is NaN

    def as_dict(self) -> dict:
        return {
            "equations": list(self.equation_names),
            "max_abs": list(self.max_abs),
            "rms": list(self.rms),
            "worst_point": list(self.worst_point),
            "worst_equation": self.worst_equation,
            "derivative_mode": self.derivative_mode,
            "fd_step": self.fd_step,
            "n_points": self.n_points,
            "coriolis": self.coriolis,
            "max_residual": self.max_residual,
        }


def _normalized(terms: Sequence[np.ndarray]) -> np.ndarray:
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return np.abs(total) / np.maximum(1.0, np.max(np.abs(terms), axis=0))


def _cartesian_equations(values, g_, x, grav, f_eff) -> np.ndarray:
    u, v, h = values
    u_t, u_x, u_y = g_[0]
    v_t, v_x, v_y = g_[1]
    h_t, h_x, h_y = g_[2]
    e1 = _normalized([u_t, u * u_x, v * u_y, -f_eff * v, grav * h_x])
    e2 = _normalized([v_t, u * v_x, v * v_y, f_eff * u, grav * h_y])
    e3 = _normalized([h_t, u * h_x, h * u_x, v * h_y, h * v_y])
    return np.array([e1, e2, e3])


def _polar_equations(values, g_, r, grav, f_eff) -> np.ndarray:
    U, V, h = values
    U_t, U_r, U_th = g_[0]
    V_t, V_r, V_th = g_[1]
    h_t, h_r, h_th = g_[2]
    e1 = _normalized([U_t, U * U_r, V * U_th / r, -V * V / r, -f_eff * V, grav * h_r])
    e2 = _normalized([V_t, U * V_r, V * V_th / r, U * V / r, f_eff * U, grav * h_th / r])
    e3 = _normalized([h_t, U * h_r, h * U_r, U * h / r, V * h_th / r, h * V_th / r])
    return np.array([e1, e2, e3])


def _sample_jets(field_: FlowField, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values (3, N) and gradients (3, 3, N) of the field's jets at the rows of ``points``.

    When every point has its own time, as along a particle path, each
    point is one float jet and the arrays are filled once from them;
    otherwise each time is one block jet, a lone point as floats, written
    into the arrays as it comes, so that one block's jet is alive at a
    time.  An arithmetic error outside the kernel, as in FD differences
    under ``np.errstate``, is the field's non-finite :class:`WindowViolation`.
    """
    n = len(points)
    times, block_of, counts = np.unique(points[:, 0], return_inverse=True, return_counts=True)
    try:
        if len(times) == n:
            rows = points.tolist()
            jets = []
            for t, a, b in rows:
                jets.append(field_.jet(t, a, b))
        else:
            values, grad = np.empty((3, n)), np.empty((3, 3, n))
            blocks = np.split(np.argsort(block_of, kind="stable"), np.cumsum(counts)[:-1])
            for t, idx in zip(times.tolist(), blocks):  # one block jet per time
                a, b = points[idx, 1], points[idx, 2]
                if len(idx) == 1:  # a lone point costs less as floats than as a block
                    a, b = float(a[0]), float(b[0])
                block_values, block_grad = field_.jet(t, a, b)
                values[:, idx], grad[..., idx] = block_values.reshape(3, -1), block_grad.reshape(3, 3, -1)
            return values, grad
    except ArithmeticError:
        raise field_._nonfinite(t, a, b) from None
    values, grad = (np.array(part) for part in zip(*jets))
    if not (np.isfinite(values).all() and np.isfinite(grad).all()):
        # float arithmetic overflows without a signal, as eval sees it
        ok = np.isfinite(values).all(axis=1) & np.isfinite(grad).all(axis=(1, 2))
        raise field_._nonfinite(*rows[int(np.argmin(ok))])
    return values.T, np.moveaxis(grad, 0, -1)


def residual_report(
    field_: FlowField,
    points: np.ndarray | None = None,
    shape: tuple[int, int, int] = (10, 10, 10),
) -> ResidualReport:
    """Residuals of the equations a field solves, on ``points`` or a :func:`sample_grid`.

    The field's frame picks the Cartesian or the polar form, and
    ``field_.coriolis`` the Coriolis term: zero for a solution of the
    non-rotating system, so images under the equivalence map are checked
    against the equations they claim to solve.  A polar sample must keep
    r > 0 (:class:`OriginSingular`).  Jets, analytic or FD, are grouped by
    time, one block call of :meth:`FlowField.jet` each; when every point has
    its own time, as the recorded points of a particle path do, each point
    is one float jet and the arrays are filled once, with the same bits.
    The equations are evaluated on arrays.

    Jets and equations run with numpy's overflow, invalid and divide
    errors raised, whatever the caller's ``np.errstate``, so the report
    never warns: a jet or an equation term that fails in arithmetic raises
    the field's :class:`WindowViolation` for non-finite values, naming the
    point (the first of its block, or the first point whose terms fail),
    as the CLI reports it.  A float jet cannot signal, so a point jet with
    a non-finite entry is reported the same way, as :meth:`FlowField.eval`
    reports a non-finite value.  In a block, a NaN the kernel returns fails
    the report instead: its ``max_residual`` is NaN and ``worst_point``
    names the first such point.  ``points`` must be a non-empty (N, 3)
    array of finite (t, a, b) rows and ``shape`` three positive counts, or
    :class:`InvalidParams` is raised.
    """
    if points is None:
        if not (len(shape) == 3 and all(isinstance(c, numbers.Integral) and c >= 1 for c in shape)):
            raise InvalidParams(f"shape must be three positive counts, got {shape!r}")
        points = sample_grid(field_, shape)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1:] != (3,) or not len(points):
        raise InvalidParams(f"points must be a non-empty (N, 3) array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InvalidParams("points must be finite")
    if field_.frame == "polar":
        if np.any(points[:, 1] <= 0.0):
            raise OriginSingular("polar residual grid must keep r > 0")
        eq_fn, names = _polar_equations, ("radial momentum", "circular momentum", "mass")
    else:
        eq_fn, names = _cartesian_equations, ("x-momentum", "y-momentum", "mass")
    n = len(points)
    terms = (points[:, 1], field_.params.g, field_.coriolis)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        values, grad = _sample_jets(field_, points)
        try:
            res = eq_fn(values, grad, *terms).T
        except FloatingPointError:
            for i in range(n):  # name the first point whose terms fail
                try:
                    eq_fn(values[:, i:i + 1], grad[..., i:i + 1], points[i:i + 1, 1], *terms[1:])
                except FloatingPointError:
                    break
            raise field_._nonfinite(*points[i].tolist()) from None
    # worst point: the first NaN, else where the largest residual first
    # appears in the last equation to reach it (the order of a running max)
    flat = res.ravel()
    worst_pt, worst_eq = (math.nan,) * 3, names[0]
    hits = np.flatnonzero(np.isnan(flat))[:1]
    if not len(hits) and flat.size and flat.max() > 0.0:
        hits = np.flatnonzero(flat == flat.max())
        hits = hits[np.unique(hits % 3, return_index=True)[1]].max(keepdims=True)
    if len(hits):
        worst_pt = tuple(points[hits[0] // 3].tolist())
        worst_eq = names[hits[0] % 3]
    return ResidualReport(
        equation_names=names,
        max_abs=tuple(np.max(res, axis=0, initial=0.0).tolist()),
        rms=tuple(np.sqrt(np.sum(np.square(res), axis=0) / n).tolist()),
        worst_point=worst_pt,
        worst_equation=worst_eq,
        derivative_mode=field_.derivative_mode,
        fd_step=field_.fd_step,
        n_points=n,
        coriolis=field_.coriolis,
    )


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

#: Radial floor below which trajectory integration refuses to continue;
#: the angular rate V/r degenerates there.
R_FLOOR = 1e-8


@dataclass(frozen=True)
class Trajectory:
    """Particle path samples with integrator statistics."""

    times: np.ndarray
    positions: np.ndarray  # (n, 2): (r, theta) or (x, y)
    stats: dict = dc_field(default_factory=dict)


# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# Table II.5.2).  The last row of _DP_A holds the fifth-order weights, so
# the seventh stage is evaluated at the propagated solution and is the
# first stage of the next step (FSAL); _DP_E is fifth- minus fourth-order.
# Stages six and seven (c = 1) are evaluated at the step's end time itself,
# so that a landing step evaluates exactly at its record time.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9)
_DP_A = [np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)]
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


#: Most steps one integration may take: :func:`integrate_ode` counts its
#: accepted plus rejected steps, :func:`fv_oracle` its steps taken plus
#: those its current step implies until the end time.
STEP_BUDGET = 2_000_000


def _check_span(t0: float, t1: float) -> None:
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise InvalidParams("t1 must exceed t0, both finite")


def _check_count(name: str, n) -> None:
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise InvalidParams(f"{name} must be a positive integer, got {n!r}")


def integrate_ode(
    fn: Callable[[float, tuple[float, ...]], Sequence[float]],
    y0: np.ndarray,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    record: Sequence[float] | None = None,
):
    """Adaptive Dormand-Prince 5(4) integration landing on the record times.

    Steps propagate the fifth-order solution.  ``tol`` (finite, > 0) bounds
    the local error per step, estimated by the embedded fourth-order pair as
    max_i |err_i| / max(1, |y_i|); steps with a larger or non-finite error
    are rejected, and h scales by clamp(0.9 (tol/err)^(1/5), 0.2, 5).  With
    FSAL a step costs six evaluations of ``fn``, which gets the state as a
    tuple of floats and may return any sequence of floats (it is stored
    into a row of the stage array).  Each stage sum, and the error
    estimate's, is one BLAS ``dot`` of a tableau row with the stage array:
    a sequential float sum rounds differently in a third to a half of them,
    so the ``dot`` is what fixes every bit of a path.  Around it a stage
    costs one float pass building its state and the call of ``fn``, and the
    error norm one loop over the components, all with the bits of the numpy
    expressions; a stage state or error that is not finite is recomputed by
    those expressions, so that ``np.errstate`` signals as it does on
    arrays.  A NaN error counts as an infinite one.  The integrator lands
    exactly on every time in ``record`` and returns the recorded states
    with ``{"steps", "rejected", "rhs_evals"}`` counts.  A trial stage for
    which ``fn`` raises :class:`LeftDomain` rejects its step like a NaN
    error.  On step underflow the :class:`LeftDomain` of the last rejected
    step is raised again, or :class:`BlowUp` if it had none; :class:`BlowUp`
    is also raised after :data:`STEP_BUDGET` accepted plus rejected steps.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParams(f"tol must be finite and > 0, got {tol!r}")
    _check_span(t0, t1)
    recorded = [] if record is None else [float(t) for t in record]
    checkpoints = sorted({float(t) for t in (*recorded, t1) if t0 < t <= t1})
    record_set = set(recorded) or {t1}
    t, y = t0, tuple(y0.astype(float).tolist())
    ts_out = [t0] if (record is None or t0 in record_set) else []
    ys_out = [y] if ts_out else []
    k = np.empty((7, len(y)))
    k[0] = fn(t, y)
    # per stage: its tableau row's dot, the stage rows it reads, its index
    # and c (None for the last two, evaluated at the step's end time)
    stages = [(_DP_A[i].dot, k[:i], i, _DP_C[i] if i < 5 else None) for i in range(1, 7)]
    error_dot = _DP_E.dot
    isfinite = math.isfinite
    h = (t1 - t0) / 64.0
    steps = rejects = 0
    left = None  # why the last rejected step left the domain, if it did
    for target in checkpoints:
        while t < target - 1e-14 * max(1.0, abs(target)):
            lands = h >= target - t
            if lands:
                h = target - t
            if h < 1e-14 * max(1.0, abs(t)):
                if left is not None:
                    raise left
                raise BlowUp(f"step size underflow at t={t!r}")
            if steps + rejects >= STEP_BUDGET:
                raise BlowUp(f"step budget exhausted at t={t!r}")
            t_new = target if lands else t + h
            try:
                hs = repeat(h)
                for dot, rows, i, c in stages:
                    y_new = tuple(map(add, y, map(mul, hs, dot(rows).tolist())))
                    if not all(map(isfinite, y_new)):
                        # numpy's own expression, to signal under np.errstate
                        y_new = tuple((np.array(y) + h * (_DP_A[i] @ rows)).tolist())
                    k[i] = fn(t_new if c is None else t + c * h, y_new)
            except LeftDomain as exc:
                left, err = exc, math.inf
            else:
                # max(|y_i|, 1.0) keeps a NaN y_i, which max(1.0, |y_i|) would drop;
                # a NaN error is rejected and shrunk like an infinite one
                left = None
                row = error_dot(k).tolist()
                err = 0.0
                for e, yi in zip(row, y_new):
                    ratio = abs(h * e) / max(abs(yi), 1.0)
                    if ratio > err:
                        err = ratio
                    elif ratio != ratio:
                        err = math.inf
                        break
                if err == math.inf and not all(isfinite(h * e) for e in row):
                    h * (_DP_E @ k)  # numpy's own expression, to signal under np.errstate
            factor = 0.9 * (tol / err) ** 0.2 if err > 0.0 else 5.0
            h *= min(5.0, max(0.2, factor))
            if err > tol:
                rejects += 1
                continue
            t, y = t_new, y_new
            k[0] = k[6]
            steps += 1
        t = target
        if target in record_set or (record is None):
            ts_out.append(t)
            ys_out.append(y)
    stats = {"steps": steps, "rejected": rejects, "rhs_evals": 1 + 6 * (steps + rejects)}
    return np.array(ts_out), np.array(ys_out), stats


def integrate_trajectory(
    field_: FlowField,
    r0: float,
    theta0: float,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    record: Sequence[float] | None = None,
) -> Trajectory:
    """Integrate dr/dt = U, dtheta/dt = V/r (or dx/dt = u, dy/dt = v).

    The start is given in polar form in every frame, and a negative ``r0``
    is an :class:`InvalidParams` error (exit 2 in the CLI).  One
    :func:`integrate_ode` call covers [t0, t1]; it lands on the ``record``
    times and nowhere else, since every field is smooth in t.  The
    right-hand side calls the field's checked scalar kernel on the float
    state and returns a tuple; the bits are those of :meth:`~rswlab.core.FlowField.eval`.
    Integration refuses to cross ``r <`` :data:`R_FLOOR`.  A polar start at
    ``r0 = 0`` is checked by one :meth:`~rswlab.core.FlowField.eval` and
    returned as a single fixed sample, with ``stats["fixed_point"]`` set.
    Otherwise ``t0`` and ``t1`` must lie in the window's open time interval,
    guard included, or :class:`WindowViolation` names the window.
    """
    _check_finite(r0=r0, theta0=theta0)
    _check_radius(r0)
    if field_.frame == "polar":
        def rhs(t, y):
            r, th = y
            if r < R_FLOOR:
                raise LeftDomain(f"trajectory reached r={r!r} below the floor")
            try:
                U, V, _ = field_._eval_point(t, r, th)
            except WindowViolation as exc:
                raise LeftDomain(str(exc)) from exc
            return U, V / r

        y0 = np.array([r0, theta0])
    else:
        def rhs(t, y):
            try:
                u, v, _ = field_._eval_point(t, *y)
            except WindowViolation as exc:
                raise LeftDomain(str(exc)) from exc
            return u, v

        y0 = np.array([r0 * math.cos(theta0), r0 * math.sin(theta0)])

    if r0 == 0.0 and field_.frame == "polar":
        # the origin is a stagnation point of every rotationally symmetric
        # member inside whose window it lies; report a single fixed sample
        field_.eval(t0, 0.0, theta0)
        return Trajectory(np.array([t0]), np.array([[0.0, theta0]]),
                          {"steps": 0, "rejected": 0, "rhs_evals": 0, "fixed_point": True})

    # past the window's end the steps would shrink to underflow, or meet
    # non-finite values, before a stage reached the guard band
    field_.window.check_time(t0)
    field_.window.check_time(t1)
    ts, ys, stats = integrate_ode(rhs, y0, t0, t1, tol=tol, record=record)
    return Trajectory(ts, ys, stats)


@dataclass(frozen=True)
class MaterialCurve:
    """A closed curve of marked particles sharing sample times."""

    times: np.ndarray
    positions: np.ndarray  # (n_times, n_markers, 2), cartesian
    curve_length: np.ndarray
    return_distance: np.ndarray


def evolve_material_curve(
    field_: FlowField,
    center: tuple[float, float],
    radius: float,
    n_markers: int,
    times: Sequence[float],
) -> MaterialCurve:
    """Advect a circle of markers and report shape diagnostics per time.

    ``curve_length`` is the closed polyline length through the markers;
    ``return_distance`` the largest marker displacement from its initial
    position (zero when the curve returns to itself).  ``n_markers`` must be
    a positive integer and ``times`` non-empty.
    """
    _check_count("n_markers", n_markers)
    times = sorted(float(t) for t in times)
    if not times:
        raise InvalidParams("times must not be empty")
    t0 = times[0]
    cx, cy = center
    xy0 = np.array(
        [
            (cx + radius * math.cos(a), cy + radius * math.sin(a))
            for a in np.linspace(0.0, 2.0 * math.pi, n_markers, endpoint=False)
        ]
    )
    all_pos = np.empty((len(times), len(xy0), 2))
    for m, (x, y) in enumerate(xy0):
        r0 = math.hypot(x, y)
        th0 = math.atan2(y, x)
        traj = integrate_trajectory(field_, r0, th0, t0, times[-1], record=times)
        if field_.frame == "polar":
            if traj.positions.shape[0] == 1:  # fixed point at the origin
                pos = np.repeat(traj.positions, len(times), axis=0)
            else:
                pos = traj.positions
            xs = pos[:, 0] * np.cos(pos[:, 1])
            ys = pos[:, 0] * np.sin(pos[:, 1])
            all_pos[:, m, 0] = xs
            all_pos[:, m, 1] = ys
        else:
            all_pos[:, m, :] = traj.positions
    closed = np.concatenate([all_pos, all_pos[:, :1, :]], axis=1)
    seg = np.diff(closed, axis=1)
    lengths = np.sqrt((seg ** 2).sum(axis=2)).sum(axis=1)
    disp = np.sqrt(((all_pos - all_pos[0]) ** 2).sum(axis=2)).max(axis=1)
    return MaterialCurve(
        times=np.array(times), positions=all_pos, curve_length=lengths,
        return_distance=disp,
    )


def pv_along_trajectory(field_: FlowField, traj: Trajectory) -> np.ndarray:
    """Potential vorticity sampled along a trajectory's recorded points."""
    return np.array([
        potential_vorticity(field_, t, a, b)
        for t, (a, b) in zip(traj.times.tolist(), traj.positions.tolist())
    ])


# ---------------------------------------------------------------------------
# Finite-volume oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FVRun:
    """One finite-volume run compared against the exact field."""

    n: int
    l1_error_h: float
    l1_error_all: float
    steps: int


def _conserved(shape, u, v, h):
    """Conservative variables (h, hu, hv) from exact values, depth clamped at 0."""
    h = np.maximum(np.broadcast_to(h, shape), 0.0)
    return h, h * u, h * v


def _sample_conserved(field_: FlowField, t: float, X: np.ndarray, Y: np.ndarray):
    """Exact conservative variables on cell centers, in one array call."""
    u, v, h = field_.values_unchecked(t, X, Y)
    return _conserved(X.shape, u, v, h)


def _sample_bands(field_: FlowField, t: float, centers: np.ndarray, out: np.ndarray) -> None:
    """Exact conservative variables on the cell centers, written into ``out``.

    ``out`` is (3, n, n) over the grid ``centers`` x ``centers``.  Bands of
    rows about the size of the ghost ring, 4 (n + 2) cells, take one
    :func:`_sample_conserved` call each, so the sample's temporaries are O(n).
    """
    n = len(centers)
    rows = 4 * (n + 2) // n
    for i in range(0, n, rows):
        X, Y = np.meshgrid(centers[i:i + rows], centers, indexing="ij")
        out[:, i:i + rows] = _sample_conserved(field_, t, X, Y)


def _fv_steps(cart: FlowField, q: np.ndarray, t0: float, t1: float, gx: np.ndarray,
              dx: float, dry_floor: bool) -> int:
    """Advance the padded state ``q`` from ``t0`` to ``t1``; returns the steps.

    ``gx`` holds the cell centers of a padded row, ghosts included, ``dx``
    their spacing.  The step buffers live in this call only, so they are
    freed on return.
    """
    g, f_eff = cart.params.g, cart.coriolis
    w = len(gx)
    m = w * w
    ring = np.ones((w, w), dtype=bool)
    ring[1:-1, 1:-1] = False
    ring_i, ring_j = np.nonzero(ring)
    ring_x, ring_y = gx[ring_i], gx[ring_j]

    flat, band, b = q.reshape(3, m), slice(w, m - w), m - 2 * w  # band: rows 1..n
    inner_depth = q[0, 1:-1, 1:-1]
    vel, speed, a, twice_f = (np.empty((2, m)) for _ in range(4))
    pressure, coriolis = np.empty(m), np.empty(b)
    flux, tmp = speed  # free once the interface speeds are taken
    inner_speed = speed.reshape(2, w, w)[:, 1:-1, 1:-1]
    t = t0
    steps = 0
    while t < t1 - 1e-14:
        q[:, ring] = _conserved(ring_x.shape, *cart.values_unchecked(t, ring_x, ring_y))

        h = flat[0]
        np.divide(flat[1:], np.maximum(h, 1e-12, out=pressure), out=vel)
        if h.min() <= 1e-12:  # dry cells stand still
            vel[:, ~(h > 1e-12)] = 0.0
        np.multiply(np.maximum(h, 0.0, out=pressure), g, out=pressure)
        np.add(np.abs(vel, out=speed), np.sqrt(pressure, out=pressure), out=speed)
        rate = inner_speed[0].max() / dx + inner_speed[1].max() / dx
        step_dt = min(0.45 / rate, t1 - t) if rate > 0.0 else t1 - t
        if t1 - t > (STEP_BUDGET - steps) * step_dt:
            raise BlowUp(f"step budget exhausted at t={float(t)!r}: "
                         f"steps of {float(step_dt)!r} would pass {STEP_BUDGET} before t1")
        np.maximum(speed[0, :-w], speed[0, w:], out=a[0, :-w])
        np.maximum(speed[1, :-1], speed[1, 1:], out=a[1, :-1])
        np.multiply(h, 0.5 * g, out=pressure)
        pressure *= h
        # the Coriolis terms, from the old hu and hv: -s hu is kept before hu
        # is updated (adding it subtracts s hu), s hv is formed when hu is
        # updated, before hv is
        s = step_dt * f_eff
        np.multiply(flat[1, band], -s, out=coriolis)

        for i in range(3):  # h, hu, hv
            for d, off in enumerate((w, 1)):  # x, then y
                f = flat[1 + d] if i == 0 else np.multiply(flat[i], vel[d], out=flux)
                if i == 1 + d:
                    f += pressure
                # twice the Rusanov flux at the interfaces of cells j and j + off
                jump = np.subtract(flat[i, off:], flat[i, :-off], out=tmp[:-off])
                jump *= a[d, :-off]
                twice = np.add(f[:-off], f[off:], out=twice_f[d, :-off])
                twice -= jump
            div = np.subtract(twice_f[0, w:m - w], twice_f[0, :b], out=tmp[:b])
            div /= dx
            div_y = np.subtract(twice_f[1, w:m - w], twice_f[1, w - 1:m - w - 1], out=flux[:b])
            div_y /= dx
            div += div_y
            div *= 0.5 * step_dt
            new = np.subtract(flat[i, band], div, out=flat[i, band])
            if i == 1:  # flux[:b] is free again
                new += np.multiply(flat[2, band], s, out=flux[:b])
            elif i == 2:
                new += coriolis
        if dry_floor:
            np.maximum(flat[0, band], 0.0, out=flat[0, band])
        elif (depth := float(inner_depth.min())) < -1e-10:
            raise NegativeDepth(f"depth reached {depth!r} at t={float(t + step_dt)!r}")
        t += step_dt
        steps += 1
    return steps


def fv_oracle(
    field_: FlowField,
    t0: float,
    t1: float,
    n: int,
    box: tuple[float, float] = (-3.0, 3.0),
    bc: str = "exact",
    mask_fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None,
    dry_floor: bool = False,
) -> FVRun:
    """First-order Lax-Friedrichs/Rusanov cross-check of the equations.

    The exact field provides the initial data and, each step, the ghost
    cells (``bc="exact"``, the one boundary treatment: an exact solution on
    a finite box is neither periodic nor outflowing).  Each step is the
    stable one, Courant number 0.45, cut to land on ``t1``.  The Coriolis
    source is added explicitly, from the state before the step.  Returns
    the L1 depth error against the exact field at ``t1``, optionally
    restricted by ``mask_fn(t1, X, Y) -> bool array``.

    The state (h, hu, hv) is one padded (3, n + 2, n + 2) array read flat:
    the x and y interfaces pair it with itself offset by n + 2 and by 1,
    and a step updates rows 1..n whole; the interfaces that wrap across a
    row and the ghost columns so updated are discarded.  Each interface
    takes twice its Rusanov flux, (F_L + F_R) - max(s_L, s_R) (q_R - q_L),
    and the half goes into the step, an exact power-of-two scaling.  The
    elementwise work of a step writes into buffers made once per run.  The
    exact data come from array calls of the field: the grid at each end in
    bands of rows about the size of the ghost ring, 4 (n + 2) cells each,
    and the ring of ghost cells once per step.

    Memory: at most the state and the step buffers are alive at once, 13
    arrays of (n + 2)^2 floats plus O(n).  The buffers are freed before the
    exact sample at ``t1``, which goes into one (3, n, n) array; the full
    coordinate grids are built only for ``mask_fn``.

    Raises :class:`BlowUp` when the steps taken plus those the current step
    implies until ``t1`` would pass :data:`STEP_BUDGET`,
    :class:`NegativeDepth` when the update makes an interior depth
    significantly negative (set ``dry_floor`` to clamp instead, for fields
    with dry regions), :class:`WindowViolation` unless ``t0`` and ``t1`` lie
    in the field's time window, and :class:`InvalidParams` unless ``n`` is a
    positive integer, ``t0 < t1`` and the box ``lo < hi``, all finite.
    """
    if bc != "exact":
        raise InvalidParams(f"unknown boundary treatment {bc!r}")
    _check_count("n", n)
    _check_span(t0, t1)
    lo, hi = box
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParams(f"box must be a finite interval with lo < hi, got {box!r}")
    field_.window.check_time(t0)
    field_.window.check_time(t1)
    cart = as_cartesian(field_)
    dx = (hi - lo) / n
    centers = lo + dx * (np.arange(n) + 0.5)

    # one ghost cell on each side, the corners included
    q = np.zeros((3, n + 2, n + 2))
    inner = q[:, 1:-1, 1:-1]
    _sample_bands(cart, t0, centers, inner)
    gx = np.concatenate([[lo - dx / 2.0], centers, [hi + dx / 2.0]])
    steps = _fv_steps(cart, q, t0, t1, gx, dx, dry_floor)

    h, hu, hv = inner
    exact = np.empty((3, n, n))
    _sample_bands(cart, t1, centers, exact)
    h_ex, hu_ex, hv_ex = exact
    mask = np.ones_like(h, dtype=bool)
    if mask_fn is not None:
        mask = mask_fn(t1, *np.meshgrid(centers, centers, indexing="ij"))
    cell = dx * dx
    l1_h = float(np.abs(h - h_ex)[mask].sum() * cell)
    l1_all = float(
        (np.abs(h - h_ex) + np.abs(hu - hu_ex) + np.abs(hv - hv_ex))[mask].sum() * cell
    )
    return FVRun(n=n, l1_error_h=l1_h, l1_error_all=l1_all, steps=steps)


@dataclass(frozen=True)
class ConvergenceResult:
    runs: tuple[FVRun, ...]
    rate_h: float

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(r.l1_error_h for r in self.runs)


def fv_convergence(
    field_: FlowField,
    t0: float,
    t1: float,
    ns: Sequence[int] = (100, 200),
    **kw,
) -> ConvergenceResult:
    """Empirical convergence rate of the finite-volume oracle.

    Rate = log2(error(n) / error(2n)) for the last refinement pair; a
    first-order scheme on a smooth solution should give about one.  ``ns``
    needs at least two resolutions, the last larger than the one before.
    """
    if len(ns) < 2 or not ns[-1] > ns[-2]:
        raise InvalidParams(f"ns needs two or more resolutions ending in a refinement, got {tuple(ns)}")
    runs = tuple(fv_oracle(field_, t0, t1, n, **kw) for n in ns)
    e_coarse, e_fine = runs[-2].l1_error_h, runs[-1].l1_error_h
    exact = [r.n for r in runs[-2:] if r.l1_error_h == 0.0]
    if exact:
        raise InvalidParams(
            f"L1 depth error is 0 at n={', '.join(map(str, exact))}: "
            "the scheme keeps this field exactly, so it has no convergence rate"
        )
    ratio = ns[-1] / ns[-2]
    rate = math.log(e_coarse / e_fine) / math.log(ratio)
    return ConvergenceResult(runs=runs, rate_h=rate)
