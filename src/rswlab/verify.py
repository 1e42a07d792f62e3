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
  in array calls (the grid, and the ghost ring once per step) under the
  broadcast contract of :class:`~rswlab.core.FlowField`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .core import FlowField, as_cartesian
from .errors import (
    BlowUp,
    CFLViolation,
    InvalidParams,
    LeftDomain,
    NegativeDepth,
    OriginSingular,
    WindowViolation,
)

# ---------------------------------------------------------------------------
# Sample grids
# ---------------------------------------------------------------------------


def sample_grid(
    field_: FlowField,
    shape: tuple[int, int, int] = (10, 10, 10),
    margin: float = 0.02,
) -> np.ndarray:
    """Deterministic (N, 3) sample of the field's preferred window.

    Rows are time-major (t, then a, then b), built as whole arrays.  Uses
    the family's ``sample_box`` metadata when present; spatial axes
    shrink by ``margin`` so that finite-difference probes stay inside the
    validity window.  For families whose natural domain is a moving level
    set the box carries a ``lam`` range and the radius is derived from it
    per time sample.
    """
    box = field_.meta.get("sample_box", {})
    nt, na, nb = shape
    t_lo, t_hi = box.get("t", (0.0, field_.params.period))
    w_lo = field_.window.t_lo + field_.window.t_guard
    w_hi = field_.window.t_hi - field_.window.t_guard
    t_lo = max(t_lo, w_lo + 1e-6 * (1.0 if not math.isfinite(w_hi - w_lo) else (w_hi - w_lo)))
    t_hi = min(t_hi, w_hi - 1e-6 * (1.0 if not math.isfinite(w_hi - w_lo) else (w_hi - w_lo)))
    span_t = t_hi - t_lo
    ts = np.linspace(t_lo + margin * span_t, t_hi - margin * span_t, nt)

    if field_.frame == "cartesian":
        x_lo, x_hi = box.get("x", (-2.0, 2.0))
        y_lo, y_hi = box.get("y", box.get("x", (-2.0, 2.0)))
        grid = np.meshgrid(ts, np.linspace(x_lo, x_hi, na), np.linspace(y_lo, y_hi, nb), indexing="ij")
        return np.stack(grid, axis=-1).reshape(-1, 3)

    thetas = np.linspace(0.0, 2.0 * math.pi, nb, endpoint=False)
    if "lam" in box:
        lam_lo, lam_hi = box["lam"]
        lams = np.linspace(lam_lo + margin * (lam_hi - lam_lo), lam_hi - margin * (lam_hi - lam_lo), na)
        w = np.array([1.0 - math.cos(field_.params.f * t) for t in ts.tolist()])
        rs = np.sqrt(w[:, None] / lams)
    else:
        r_lo, r_hi = box.get("r", (0.05, 2.0))
        bounds = np.array([field_.window.radial_bounds(t) for t in ts.tolist()])
        lo = np.maximum(r_lo, bounds[:, 0])
        hi = np.minimum(r_hi, bounds[:, 1])
        span = hi - lo
        rs = np.linspace(lo + margin * span, hi - margin * span, na, axis=1)
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


def _residual_report(
    field_: FlowField,
    points: np.ndarray,
    eq_fn,
    names: tuple[str, str, str],
    coriolis: float,
) -> ResidualReport:
    n = len(points)
    values, grad = np.empty((3, n)), np.empty((3, 3, n))
    times, block_of, counts = np.unique(points[:, 0], return_inverse=True, return_counts=True)
    blocks = np.split(np.argsort(block_of, kind="stable"), np.cumsum(counts)[:-1])
    for t, rows in zip(times.tolist(), blocks):  # one block jet per time
        a, b = points[rows, 1], points[rows, 2]
        if len(rows) == 1:  # a lone point costs less as floats than as a block
            a, b = float(a[0]), float(b[0])
        block_values, block_grad = field_.jet(t, a, b)
        values[:, rows], grad[..., rows] = block_values.reshape(3, -1), block_grad.reshape(3, 3, -1)
    res = eq_fn(values, grad, points[:, 1], field_.params.g, coriolis).T
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
        coriolis=coriolis,
    )


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
    e3 = _normalized(
        [h_t, U * h_r, h * U_r, U * h / r, V * h_th / r, h * V_th / r]
    )
    return np.array([e1, e2, e3])


def residual_cartesian(
    field_: FlowField,
    points: np.ndarray | None = None,
    shape: tuple[int, int, int] = (10, 10, 10),
    coriolis: float | None = None,
) -> ResidualReport:
    """Residuals of the Cartesian-form governing equations on a sample.

    ``coriolis`` defaults to the field's own system (zero for non-rotating
    solutions), so images under the equivalence map are checked against the
    equations they claim to solve.
    """
    if field_.frame != "cartesian":
        raise InvalidParams("residual_cartesian expects a cartesian-frame field")
    pts = points if points is not None else sample_grid(field_, shape)
    f_eff = field_.coriolis if coriolis is None else coriolis
    return _residual_report(
        field_, np.asarray(pts, dtype=float), _cartesian_equations,
        ("x-momentum", "y-momentum", "mass"), f_eff,
    )


def residual_polar(
    field_: FlowField,
    points: np.ndarray | None = None,
    shape: tuple[int, int, int] = (10, 10, 10),
    coriolis: float | None = None,
) -> ResidualReport:
    """Residuals of the polar-form governing equations on a sample."""
    if field_.frame != "polar":
        raise InvalidParams("residual_polar expects a polar-frame field")
    pts = points if points is not None else sample_grid(field_, shape)
    pts = np.asarray(pts, dtype=float)
    if np.any(pts[:, 1] <= 0.0):
        raise OriginSingular("polar residual grid must keep r > 0")
    f_eff = field_.coriolis if coriolis is None else coriolis
    return _residual_report(
        field_, pts, _polar_equations,
        ("radial momentum", "circular momentum", "mass"), f_eff,
    )


def residual_report(field_: FlowField, **kw) -> ResidualReport:
    """Frame-dispatching convenience wrapper.

    Jets, analytic or FD, are grouped by time, one block call of
    :meth:`FlowField.jet` each.  The equations are evaluated on arrays.  A
    NaN pointwise residual fails the report: its ``max_residual`` is NaN
    and ``worst_point`` names the first such point.
    """
    if field_.frame == "polar":
        return residual_polar(field_, **kw)
    return residual_cartesian(field_, **kw)


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
    frame: str
    start: tuple[float, float]
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


def integrate_ode(
    fn: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    record: Sequence[float] | None = None,
    max_steps: int = 2_000_000,
):
    """Adaptive Dormand-Prince 5(4) integration landing on the record times.

    Steps propagate the fifth-order solution.  ``tol`` (finite, > 0) bounds
    the local error per step, estimated by the embedded fourth-order pair as
    max_i |err_i| / max(1, |y_i|); steps with a larger or non-finite error
    are rejected, and h scales by clamp(0.9 (tol/err)^(1/5), 0.2, 5).  With
    FSAL a step costs six evaluations of ``fn``.  The integrator lands
    exactly on every time in ``record`` and returns the recorded states
    with ``{"steps", "rejected", "rhs_evals"}`` counts.
    :class:`BlowUp` is raised on step underflow or after ``max_steps``
    accepted plus rejected steps.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParams(f"tol must be finite and > 0, got {tol!r}")
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise InvalidParams("t1 must exceed t0, both finite")
    recorded = [] if record is None else [float(t) for t in record]
    checkpoints = sorted({float(t) for t in (*recorded, t1) if t0 < t <= t1})
    record_set = set(recorded) or {t1}
    ts_out = [t0] if (record is None or t0 in record_set) else []
    ys_out = [y0.copy()] if ts_out else []
    t, y = t0, y0.astype(float).copy()
    k = np.empty((7, y.size))
    k[0] = fn(t, y)
    h = (t1 - t0) / 64.0
    steps = rejects = 0
    for target in checkpoints:
        while t < target - 1e-14 * max(1.0, abs(target)):
            lands = h >= target - t
            if lands:
                h = target - t
            if h < 1e-14 * max(1.0, abs(t)):
                raise BlowUp(f"step size underflow at t={t!r}")
            if steps + rejects >= max_steps:
                raise BlowUp(f"step budget exhausted at t={t!r}")
            t_new = target if lands else t + h
            for i in range(1, 7):
                y_new = y + h * (_DP_A[i] @ k[:i])
                k[i] = fn(t + _DP_C[i] * h if i < 5 else t_new, y_new)
            err = float(np.max(np.abs(h * (_DP_E @ k)) / np.maximum(1.0, np.abs(y_new))))
            if math.isnan(err):
                err = math.inf  # rejected and shrunk like an infinite error
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
            ys_out.append(y.copy())
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
    r_floor: float = R_FLOOR,
) -> Trajectory:
    """Integrate dr/dt = U, dtheta/dt = V/r (or dx/dt = u, dy/dt = v).

    The start is given in polar form in every frame.  One
    :func:`integrate_ode` call covers [t0, t1]; it lands on the ``record``
    times and nowhere else, since every field is smooth in t.  Integration
    refuses to cross ``r < r_floor``.
    """
    if not (math.isfinite(r0) and math.isfinite(theta0)):
        raise InvalidParams(
            f"trajectory start must be finite, got r0={r0!r}, theta0={theta0!r}"
        )
    if field_.frame == "polar":
        def rhs(t, y):
            r, th = y
            if r < r_floor:
                raise LeftDomain(f"trajectory reached r={r!r} below the floor")
            try:
                U, V, _ = field_.eval(t, r, th)
            except WindowViolation as exc:
                raise LeftDomain(str(exc)) from exc
            return np.array([U, V / r])

        y0 = np.array([r0, theta0])
    else:
        def rhs(t, y):
            try:
                u, v, _ = field_.eval(t, y[0], y[1])
            except WindowViolation as exc:
                raise LeftDomain(str(exc)) from exc
            return np.array([u, v])

        y0 = np.array([r0 * math.cos(theta0), r0 * math.sin(theta0)])

    if r0 == 0.0 and field_.frame == "polar":
        # the origin is a stagnation point of every rotationally symmetric
        # member; report a single fixed sample
        times = np.array([t0])
        return Trajectory(times, np.array([[0.0, theta0]]), field_.frame, (r0, theta0),
                          {"steps": 0, "rejected": 0, "rhs_evals": 0,
                           "fixed_point": True})

    ts, ys, stats = integrate_ode(rhs, y0, t0, t1, tol=tol, record=record)
    return Trajectory(ts, ys, field_.frame, (r0, theta0), stats)


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
    tol: float = 1e-10,
) -> MaterialCurve:
    """Advect a circle of markers and report shape diagnostics per time.

    ``curve_length`` is the closed polyline length through the markers;
    ``return_distance`` the largest marker displacement from its initial
    position (zero when the curve returns to itself).
    """
    times = sorted(float(t) for t in times)
    t0 = times[0]
    cx, cy = center
    xy0 = np.array(
        [
            (cx + radius * math.cos(a), cy + radius * math.sin(a))
            for a in np.linspace(0.0, 2.0 * math.pi, max(n_markers, 1), endpoint=False)
        ]
    )
    all_pos = np.empty((len(times), len(xy0), 2))
    for m, (x, y) in enumerate(xy0):
        r0 = math.hypot(x, y)
        th0 = math.atan2(y, x)
        traj = integrate_trajectory(field_, r0, th0, t0, times[-1], tol=tol, record=times)
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
    from .core import CartesianPoint, PolarPoint, potential_vorticity

    out = np.empty(len(traj.times))
    for i, (t, pos) in enumerate(zip(traj.times, traj.positions)):
        if field_.frame == "polar":
            point = PolarPoint(float(t), float(pos[0]), float(pos[1]))
        else:
            point = CartesianPoint(float(t), float(pos[0]), float(pos[1]))
        out[i] = potential_vorticity(field_, point)
    return out


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
    dt_min: float
    masked_fraction: float


def _conserved(shape, u, v, h):
    """Conservative variables (h, hu, hv) from exact values, depth clamped at 0."""
    h = np.maximum(np.broadcast_to(h, shape), 0.0)
    return h, h * u, h * v


def _sample_conserved(field_: FlowField, t: float, X: np.ndarray, Y: np.ndarray):
    """Exact conservative variables on cell centers, in one array call."""
    u, v, h = field_.values_unchecked(t, X, Y)
    return _conserved(X.shape, u, v, h)


def _rusanov(q, flux, half_a, left, right):
    """Rusanov flux at the interfaces between the ``left`` and ``right`` cells.

    ``half_a`` is half the larger of the two cells' wave speeds.
    """
    return 0.5 * (flux[left] + flux[right]) - half_a * (q[right] - q[left])


def fv_oracle(
    field_: FlowField,
    t0: float,
    t1: float,
    n: int,
    box: tuple[float, float] = (-3.0, 3.0),
    bc: str = "exact",
    cfl: float = 0.45,
    dt: float | None = None,
    mask_fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None,
    dry_floor: bool = False,
) -> FVRun:
    """First-order Lax-Friedrichs/Rusanov cross-check of the equations.

    The exact field provides initial data (and ghost data for ``bc="exact"``,
    the configuration used in convergence benchmarking; ``periodic`` and
    ``outflow`` are also available).  The Coriolis source is added
    explicitly.  Returns the L1 depth error against the exact field at
    ``t1``, optionally restricted by ``mask_fn(t1, X, Y) -> bool array``.

    The state lives on one padded (n + 2)^2 array per conservative
    variable.  The exact data come from array calls of the field: the grid
    once at each end, the ring of ghost cells once per step.  Velocity,
    wave speed and physical flux are formed once per cell, and each
    interface flux from its two neighbours.

    Raises :class:`CFLViolation` when an explicit ``dt`` exceeds the stable
    step, and :class:`NegativeDepth` when the update makes depth
    significantly negative (set ``dry_floor`` to clamp instead, for fields
    with dry regions).
    """
    if bc not in ("exact", "periodic", "outflow"):
        raise InvalidParams(f"unknown boundary treatment {bc!r}")
    cart = as_cartesian(field_)
    g = field_.params.g
    f_eff = cart.coriolis
    lo, hi = box
    dx = (hi - lo) / n
    centers = lo + dx * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(centers, centers, indexing="ij")

    # one ghost cell on each side; the corners enter no flux
    inner = np.s_[1:-1, 1:-1]
    hp, hup, hvp = padded = [np.zeros((n + 2, n + 2)) for _ in range(3)]
    hp[inner], hup[inner], hvp[inner] = _sample_conserved(cart, t0, X, Y)
    if bc == "exact":
        ring = np.ones((n + 2, n + 2), dtype=bool)
        ring[inner] = False
        gx = np.concatenate([[lo - dx / 2.0], centers, [hi + dx / 2.0]])
        ring_x, ring_y = (c[ring] for c in np.meshgrid(gx, gx, indexing="ij"))
    else:
        # the interior row or column each ghost copies: wrapped or repeated
        first, last = (-2, 1) if bc == "periodic" else (1, -2)

    # interfaces between neighbouring cells along x (rows) and y (columns)
    x_left, x_right = np.s_[:-1, 1:-1], np.s_[1:, 1:-1]
    y_left, y_right = np.s_[1:-1, :-1], np.s_[1:-1, 1:]

    def div(fx, fy):
        return (fx[1:] - fx[:-1]) / dx + (fy[:, 1:] - fy[:, :-1]) / dx

    t = t0
    steps = 0
    dt_min = math.inf
    while t < t1 - 1e-14:
        if bc == "exact":
            u_g, v_g, h_g = cart.values_unchecked(t, ring_x, ring_y)
            hp[ring], hup[ring], hvp[ring] = _conserved(ring_x.shape, u_g, v_g, h_g)
        else:
            for q in padded:
                q[0, 1:-1], q[-1, 1:-1] = q[first, 1:-1], q[last, 1:-1]
                q[1:-1, 0], q[1:-1, -1] = q[1:-1, first], q[1:-1, last]

        wet = hp > 1e-12
        h_safe = np.maximum(hp, 1e-12)
        vel_u = np.where(wet, hup / h_safe, 0.0)
        vel_v = np.where(wet, hvp / h_safe, 0.0)
        c = np.sqrt(g * np.maximum(hp, 0.0))
        speed_x = np.abs(vel_u) + c
        speed_y = np.abs(vel_v) + c
        rate = speed_x[inner].max() / dx + speed_y[inner].max() / dx
        dt_stable = cfl / rate if rate > 0.0 else (t1 - t)
        step_dt = min(dt if dt is not None else dt_stable, t1 - t)
        if dt is not None and dt > dt_stable * (1.0 + 1e-12):
            raise CFLViolation(
                f"requested dt={dt!r} exceeds stable step {dt_stable!r}"
            )
        dt_min = min(dt_min, step_dt)

        pressure = 0.5 * g * hp * hp
        half_a = 0.5 * np.maximum(speed_x[x_left], speed_x[x_right])
        fx_h = _rusanov(hp, hup, half_a, x_left, x_right)
        fx_hu = _rusanov(hup, hup * vel_u + pressure, half_a, x_left, x_right)
        fx_hv = _rusanov(hvp, hvp * vel_u, half_a, x_left, x_right)
        half_a = 0.5 * np.maximum(speed_y[y_left], speed_y[y_right])
        fy_h = _rusanov(hp, hvp, half_a, y_left, y_right)
        fy_hv = _rusanov(hvp, hvp * vel_v + pressure, half_a, y_left, y_right)
        fy_hu = _rusanov(hup, hup * vel_v, half_a, y_left, y_right)

        h, hu, hv = hp[inner], hup[inner], hvp[inner]
        h_new = h - step_dt * div(fx_h, fy_h)
        hu_new = hu - step_dt * div(fx_hu, fy_hu) + step_dt * f_eff * hv
        hv_new = hv - step_dt * div(fx_hv, fy_hv) - step_dt * f_eff * hu

        if h_new.min() < -1e-10 and not dry_floor:
            raise NegativeDepth(f"depth reached {h_new.min()!r} at t={t + step_dt!r}")
        if dry_floor:
            h_new = np.maximum(h_new, 0.0)
        hp[inner], hup[inner], hvp[inner] = h_new, hu_new, hv_new
        t += step_dt
        steps += 1

    h, hu, hv = hp[inner], hup[inner], hvp[inner]
    h_ex, hu_ex, hv_ex = _sample_conserved(cart, t1, X, Y)
    mask = np.ones_like(h, dtype=bool)
    if mask_fn is not None:
        mask = mask_fn(t1, X, Y)
    cell = dx * dx
    l1_h = float(np.abs(h - h_ex)[mask].sum() * cell)
    l1_all = float(
        (np.abs(h - h_ex) + np.abs(hu - hu_ex) + np.abs(hv - hv_ex))[mask].sum() * cell
    )
    return FVRun(
        n=n, l1_error_h=l1_h, l1_error_all=l1_all, steps=steps, dt_min=dt_min,
        masked_fraction=float(1.0 - mask.mean()),
    )


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
    first-order scheme on a smooth solution should give about one.
    """
    runs = tuple(fv_oracle(field_, t0, t1, n, **kw) for n in ns)
    e_coarse, e_fine = runs[-2].l1_error_h, runs[-1].l1_error_h
    ratio = ns[-1] / ns[-2]
    rate = math.log(e_coarse / e_fine) / math.log(ratio)
    return ConvergenceResult(runs=runs, rate_h=rate)
