"""Fundamental types: flow parameters, states, evaluable fields, diagnostics.

Everything in this module is an immutable value; all operations are pure
functions of their inputs, so unrestricted parallel evaluation is safe.

Conventions used throughout the package:

* Cartesian coordinates are ``(t, x, y)`` with velocity ``(u, v)`` and depth
  ``h``.
* Polar coordinates are ``(t, r, theta)`` with radial velocity ``U``,
  circular velocity ``V`` and depth ``h``.  ``theta`` is never normalized
  modulo ``2*pi``: trajectory bookkeeping needs accumulated angle.
* A :class:`FlowField` evaluates a solution of either the rotating system
  (``system="rsw"``) or the classical, non-rotating one (``system="sw"``,
  i.e. the same equations with the Coriolis term dropped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Literal

import numpy as np

from .errors import InvalidParams, OriginSingular, WindowViolation, ZeroDepth

Frame = Literal["cartesian", "polar"]
System = Literal["rsw", "sw"]

#: Depths at or below this floor raise :class:`ZeroDepth` instead of
#: producing infinite diagnostics.  The pulsating drop legitimately reaches
#: h = 0 at its boundary, so callers must handle the condition explicitly.
DEPTH_FLOOR = 1e-12

#: Relative step used by finite-difference jets: delta = FD_STEP * max(1, |coord|).
FD_STEP = 1e-5


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidParams(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class FlowParameters:
    """Coriolis parameter ``f`` and gravity ``g`` shared by every operation.

    The package works with dimensional parameters; the nontrivial group
    structure requires ``f > 0``.
    """

    f: float
    g: float

    def __post_init__(self) -> None:
        _check_finite(f=self.f, g=self.g)
        if self.f <= 0.0:
            raise InvalidParams(f"Coriolis parameter f must be positive, got {self.f}")
        if self.g <= 0.0:
            raise InvalidParams(f"gravity g must be positive, got {self.g}")

    @property
    def period(self) -> float:
        """Inertial period 2*pi/f, the natural time scale of the rotation."""
        return 2.0 * math.pi / self.f


@dataclass(frozen=True)
class CartesianPoint:
    t: float
    x: float
    y: float

    def __post_init__(self) -> None:
        _check_finite(t=self.t, x=self.x, y=self.y)


@dataclass(frozen=True)
class PolarPoint:
    """A spacetime point in polar coordinates; ``theta`` is unnormalized."""

    t: float
    r: float
    theta: float

    def __post_init__(self) -> None:
        _check_finite(t=self.t, r=self.r, theta=self.theta)
        if self.r < 0.0:
            raise InvalidParams(f"radius must be nonnegative, got {self.r}")


@dataclass(frozen=True)
class CartesianState:
    u: float
    v: float
    h: float

    def __post_init__(self) -> None:
        _check_finite(u=self.u, v=self.v, h=self.h)
        if self.h < 0.0:
            raise InvalidParams(f"depth must be nonnegative, got {self.h}")


@dataclass(frozen=True)
class PolarState:
    U: float
    V: float
    h: float

    def __post_init__(self) -> None:
        _check_finite(U=self.U, V=self.V, h=self.h)
        if self.h < 0.0:
            raise InvalidParams(f"depth must be nonnegative, got {self.h}")


def polar_to_cartesian(
    p: PolarPoint, s: PolarState
) -> tuple[CartesianPoint, CartesianState]:
    """Convert a polar point/state pair to Cartesian coordinates.

    x = r cos(theta), y = r sin(theta); the velocity rotates with the local
    frame: u = U cos(theta) - V sin(theta), v = U sin(theta) + V cos(theta).
    Depth is frame independent.
    """
    ct, st = math.cos(p.theta), math.sin(p.theta)
    point = CartesianPoint(p.t, p.r * ct, p.r * st)
    state = CartesianState(s.U * ct - s.V * st, s.U * st + s.V * ct, s.h)
    return point, state


def cartesian_to_polar(
    p: CartesianPoint, s: CartesianState
) -> tuple[PolarPoint, PolarState]:
    """Inverse of :func:`polar_to_cartesian`; ``theta`` is chosen in (-pi, pi].

    Raises :class:`OriginSingular` at x = y = 0 where the radial/circular
    velocity decomposition is undefined.
    """
    r = math.hypot(p.x, p.y)
    if r == 0.0:
        raise OriginSingular("velocity decomposition undefined at x = y = 0")
    theta = math.atan2(p.y, p.x)
    if theta == -math.pi:
        theta = math.pi
    ct, st = math.cos(theta), math.sin(theta)
    U = s.u * ct + s.v * st
    V = -s.u * st + s.v * ct
    return PolarPoint(p.t, r, theta), PolarState(U, V, s.h)


@dataclass(frozen=True)
class Window:
    """Validity window of a field: a time interval plus radial bounds.

    Time endpoints are open with a guard band ``t_guard``; evaluation inside
    the band raises :class:`WindowViolation` rather than returning NaN.
    Radial bounds may depend on time (moving boundaries), in which case they
    are callables ``t -> r``.  For Cartesian fields the radial bound applies
    to ``hypot(x, y)``.
    """

    t_lo: float = -math.inf
    t_hi: float = math.inf
    t_guard: float = 0.0
    r_lo: float | Callable[[float], float] = 0.0
    r_hi: float | Callable[[float], float] = math.inf

    def radial_bounds(self, t: float) -> tuple[float, float]:
        lo = self.r_lo(t) if callable(self.r_lo) else self.r_lo
        hi = self.r_hi(t) if callable(self.r_hi) else self.r_hi
        return lo, hi

    def check(self, t: float, radius) -> None:
        """Raise WindowViolation outside; an array of radii names its first offender."""
        if not (self.t_lo + self.t_guard < t < self.t_hi - self.t_guard):
            raise WindowViolation(
                f"t={t!r} outside validity window "
                f"({self.t_lo!r}, {self.t_hi!r}) with guard {self.t_guard!r}"
            )
        lo, hi = self.radial_bounds(t)
        if isinstance(radius, np.ndarray):
            outside = ~((lo <= radius) & (radius <= hi))
            if not outside.any():
                return
            radius = float(radius[outside][0])
        if not (lo <= radius <= hi):
            raise WindowViolation(
                f"radius {radius!r} outside [{lo!r}, {hi!r}] at t={t!r}"
            )


ValueFn = Callable[[float, float, float], tuple[float, float, float]]
JetFn = Callable[[float, float, float], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class FlowField:
    """A solution as an evaluable map (t, position) -> state.

    ``value_fn(t, a, b)`` returns the three state components; ``(a, b)`` is
    ``(x, y)`` or ``(r, theta)`` according to ``frame``.  It takes a float
    ``t`` and float-or-array positions ``a``, ``b`` of one shape, and each
    component it returns broadcasts to that shape (a component that does not
    depend on position may come back as a scalar).  Every family's kernel
    is written on arrays, and a float position gives the same bits as that
    position in an array.  :meth:`eval` and the FD mode of :meth:`jet` take
    such a block of positions at one time too, checked as a whole; scalar
    calls stay the fast path for one point.
    ``jet_fn`` when present returns ``(values, grad)`` with ``grad[i, j]``
    the derivative of component ``i`` with respect to coordinate ``j`` in
    the order ``(t, a, b)``; it backs the analytic derivative mode.  Without it, or
    when ``derivative_mode="fd"``, jets fall back to central differences
    with relative step ``fd_step``.

    Fields capture their defining closures immutably and are safe to share
    across threads.
    """

    frame: Frame
    params: FlowParameters
    value_fn: ValueFn
    jet_fn: JetFn | None = None
    window: Window = Window()
    system: System = "rsw"
    derivative_mode: Literal["analytic", "fd"] = "analytic"
    fd_step: float = FD_STEP
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.derivative_mode == "analytic" and self.jet_fn is None:
            object.__setattr__(self, "derivative_mode", "fd")

    # -- evaluation ------------------------------------------------------

    def _radius(self, a: float, b: float) -> float:
        return math.hypot(a, b) if self.frame == "cartesian" else a

    def eval(self, t: float, a, b) -> np.ndarray:
        """State components at (t, a, b); raises WindowViolation outside.

        Array positions ``a``, ``b`` of one shape are one block at the float
        time ``t``: one ``value_fn`` call, with the window and finiteness
        checked on the whole block.  The errors are the scalar call's and
        name an offending point; the result has shape ``(3,) + shape``.
        """
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            a, b = self._check_block(t, a, b)
            out = np.array(np.broadcast_arrays(*self.value_fn(t, a, b), a)[:3], dtype=float)
            bad = ~np.isfinite(out).all(axis=0)
            if not bad.any():
                return out
            a, b = float(a[bad][0]), float(b[bad][0])
        else:
            self.window.check(t, self._radius(a, b))
            out = np.asarray(self.value_fn(t, a, b), dtype=float)
            if np.all(np.isfinite(out)):
                return out
        raise WindowViolation(
            f"field {self.label!r} produced non-finite values at "
            f"(t={t!r}, {a!r}, {b!r})"
        )

    def _check_block(self, t: float, a, b) -> tuple[np.ndarray, np.ndarray]:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        self.window.check(t, np.hypot(a, b) if self.frame == "cartesian" else a)
        return a, b

    def values_unchecked(self, t, a, b):
        """``value_fn(t, a, b)`` without the window or finiteness check.

        For callers that verified the window themselves; array positions are
        evaluated in one call under the broadcast contract of the class.
        """
        return self.value_fn(t, a, b)

    def jet(self, t: float, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Values plus first derivatives with respect to (t, a, b).

        In the FD mode, array positions are one block as in :meth:`eval`:
        the seven evaluations are block calls of :meth:`eval`, giving values
        of shape ``(3,) + shape`` and ``grad`` of shape ``(3, 3) + shape``.
        ``jet_fn`` takes one point at a time.
        """
        if self.derivative_mode == "fd" and (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
            a, b = self._check_block(t, a, b)
            values = self.eval(t, a, b)
            grad = np.empty((3, 3) + a.shape)
            dt = self.fd_step * max(1.0, abs(t))
            grad[:, 0] = (self.eval(t + dt, a, b) - self.eval(t - dt, a, b)) / (2.0 * dt)
            da = self.fd_step * np.maximum(1.0, np.abs(a))
            grad[:, 1] = (self.eval(t, a + da, b) - self.eval(t, a - da, b)) / (2.0 * da)
            db = self.fd_step * np.maximum(1.0, np.abs(b))
            grad[:, 2] = (self.eval(t, a, b + db) - self.eval(t, a, b - db)) / (2.0 * db)
            return values, grad
        self.window.check(t, self._radius(a, b))
        if self.derivative_mode == "analytic":
            values, grad = self.jet_fn(t, a, b)
            return np.asarray(values, dtype=float), np.asarray(grad, dtype=float)
        coords = (t, a, b)
        values = self.eval(t, a, b)
        grad = np.empty((3, 3))
        for j, c in enumerate(coords):
            delta = self.fd_step * max(1.0, abs(c))
            lo = list(coords)
            hi = list(coords)
            lo[j] = c - delta
            hi[j] = c + delta
            grad[:, j] = (self.eval(*hi) - self.eval(*lo)) / (2.0 * delta)
        return values, grad

    def state_at(self, t: float, a: float, b: float):
        vals = self.eval(t, a, b)
        if self.frame == "polar":
            return PolarState(float(vals[0]), float(vals[1]), float(vals[2]))
        return CartesianState(float(vals[0]), float(vals[1]), float(vals[2]))

    # -- derived fields --------------------------------------------------

    def with_derivative_mode(
        self, mode: Literal["analytic", "fd"], fd_step: float | None = None
    ) -> "FlowField":
        """Copy of this field evaluating derivatives in the given mode."""
        if mode == "analytic" and self.jet_fn is None:
            raise InvalidParams(f"field {self.label!r} has no analytic jet")
        kwargs = {"derivative_mode": mode}
        if fd_step is not None:
            kwargs["fd_step"] = fd_step
        return replace(self, **kwargs)

    @property
    def coriolis(self) -> float:
        """Coriolis parameter entering the equations this field solves."""
        return 0.0 if self.system == "sw" else self.params.f


def scale_depth(field_: FlowField, factor: float, label: str | None = None) -> FlowField:
    """Corrupted copy of a field with depth scaled by ``factor``.

    Used as a negative control: scaling h breaks the momentum balance, so
    residual checks must flag the result.
    """
    base_value = field_.value_fn

    def value_fn(t, a, b):
        c1, c2, h = base_value(t, a, b)
        return c1, c2, factor * h

    base_jet = field_.jet_fn
    jet_fn = None
    if base_jet is not None:
        def jet_fn(t, a, b):
            values, grad = base_jet(t, a, b)
            values = np.array(values, dtype=float)
            grad = np.array(grad, dtype=float)
            values[2] *= factor
            grad[2, :] *= factor
            return values, grad

    return replace(
        field_,
        value_fn=value_fn,
        jet_fn=jet_fn,
        label=label or f"{field_.label}*corrupt({factor})",
    )


@dataclass(frozen=True)
class Diagnostics:
    """Pointwise flow diagnostics.

    ``omega`` is the potential vorticity (curl of velocity plus Coriolis
    parameter, divided by depth), ``froude`` the local Froude number
    q / sqrt(g h), and ``speed`` the velocity magnitude q.
    """

    omega: float
    froude: float
    speed: float


def _components(field_: FlowField, point) -> tuple[float, float, float]:
    if field_.frame == "polar":
        if not isinstance(point, PolarPoint):
            raise InvalidParams("polar field expects a PolarPoint")
        return point.t, point.r, point.theta
    if not isinstance(point, CartesianPoint):
        raise InvalidParams("cartesian field expects a CartesianPoint")
    return point.t, point.x, point.y


def curl_plus_coriolis(field_: FlowField, point) -> float:
    """Absolute vorticity v_x - u_y + f at a point, f per the field's system."""
    t, a, b = _components(field_, point)
    values, grad = field_.jet(t, a, b)
    f_eff = field_.coriolis
    if field_.frame == "cartesian":
        return grad[1, 1] - grad[0, 2] + f_eff
    r = a
    if r <= 0.0:
        raise OriginSingular("vorticity in polar form requires r > 0")
    U, V = values[0], values[1]
    U_theta = grad[0, 2]
    V_r = grad[1, 1]
    return V_r + V / r - U_theta / r + f_eff


def potential_vorticity(field_: FlowField, point) -> float:
    """Potential vorticity (v_x - u_y + f) / h; materially conserved.

    Raises :class:`ZeroDepth` when the depth is at or below the depth floor.
    """
    t, a, b = _components(field_, point)
    h = float(field_.eval(t, a, b)[2])
    if h <= DEPTH_FLOOR:
        raise ZeroDepth(f"depth {h!r} at or below floor {DEPTH_FLOOR!r}")
    return curl_plus_coriolis(field_, point) / h


def diagnostics(field_: FlowField, point) -> Diagnostics:
    """Speed, Froude number, and potential vorticity at a point.

    The flow is supercritical where the Froude number exceeds one and
    subcritical where it is below one.
    """
    t, a, b = _components(field_, point)
    values = field_.eval(t, a, b)
    h = float(values[2])
    if h <= DEPTH_FLOOR:
        raise ZeroDepth(f"depth {h!r} at or below floor {DEPTH_FLOOR!r}")
    speed = math.hypot(float(values[0]), float(values[1]))
    froude = speed / math.sqrt(field_.params.g * h)
    return Diagnostics(
        omega=potential_vorticity(field_, point), froude=froude, speed=speed
    )


def as_cartesian(field_: FlowField, label: str | None = None) -> FlowField:
    """Cartesian view of a polar field, with exact chain-rule jets.

    Valid away from the origin; the radial window carries over through
    r = hypot(x, y).  Its values broadcast over array positions as the
    source's do.
    """
    if field_.frame == "cartesian":
        return field_

    src = field_

    def value_fn(t, x, y):
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        U, V, h = src.value_fn(t, r, theta)
        ct, st = np.cos(theta), np.sin(theta)
        return U * ct - V * st, U * st + V * ct, h

    jet_fn = None
    if src.jet_fn is not None:
        def jet_fn(t, x, y):
            r = math.hypot(x, y)
            if r <= 0.0:
                raise OriginSingular("cartesian view of a polar field needs r > 0")
            theta = math.atan2(y, x)
            (U, V, h), g = src.jet_fn(t, r, theta)
            ct, st = math.cos(theta), math.sin(theta)
            U_t, U_r, U_th = g[0]
            V_t, V_r, V_th = g[1]
            h_t, h_r, h_th = g[2]
            u = U * ct - V * st
            v = U * st + V * ct
            # Derivatives of the polar chart: r_x = ct, r_y = st,
            # theta_x = -st / r, theta_y = ct / r.
            du_dr = U_r * ct - V_r * st
            dv_dr = U_r * st + V_r * ct
            du_dth = U_th * ct - V_th * st - U * st - V * ct
            dv_dth = V_th * ct + U_th * st + U * ct - V * st
            out = np.array([u, v, h])
            grad = np.array(
                [
                    [U_t * ct - V_t * st, du_dr * ct - du_dth * st / r, du_dr * st + du_dth * ct / r],
                    [U_t * st + V_t * ct, dv_dr * ct - dv_dth * st / r, dv_dr * st + dv_dth * ct / r],
                    [h_t, h_r * ct - h_th * st / r, h_r * st + h_th * ct / r],
                ]
            )
            return out, grad

    meta = dict(src.meta)
    meta["polar_source"] = src.label
    return replace(
        src,
        frame="cartesian",
        value_fn=value_fn,
        jet_fn=jet_fn,
        label=label or f"{src.label}(cartesian)",
        meta=meta,
    )
