"""Point transformations connecting solutions.

Three pieces of machinery live here:

* the equivalence transformation, an explicit change of variables mapping
  any solution of the rotating system to a solution of the non-rotating
  one and back (the rotating-frame solution lives on one inertial period
  ``0 < t < 2*pi/f``);
* finite transformations of the three non-obvious canonical generators,
  the sl(2) part of the algebra: the two parabolic flows (Y7, Y8) and the
  dilation (Y9), obtained by integrating their flow equations in polar
  variables.  Each is a closed form in the sine and cosine of f t (Y9) or
  f t/2 (Y7, Y8), smooth for all t, and each returns the same tuple
  ``(tbar, angle, rho, cu, cv)``, which :func:`finite_transform` applies
  with one formula;
* the solution-transport operator built from the dilation: given any polar
  solution and a positive parameter ``alpha`` it produces another exact
  solution, which is how the time-periodic pulsating solutions are
  generated from stationary ones.

The Y9 dilation is defined once, by :func:`y9_factors` and
:func:`y9_dilation`; the finite transformation, the transport operator, the
pulsating cylinder and drop, and their trajectory formulas all use it.  It
takes a :class:`~rswlab.core.Jet` time, so the mapped and transported
fields get their analytic jets by composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .core import FlowField, FlowParameters, Window, _check_radius, _checked_point, source_params
from .core import arctan2, atan, cos, hypot, sin, sqrt, value_of  # jet-aware math
from .errors import InvalidParams, SingularTime

Direction = Literal["rsw2sw", "sw2rsw"]

#: |sin(f t / 2)| below this marks the singular times of the equivalence map.
SINGULAR_GUARD = 1e-9


# ---------------------------------------------------------------------------
# Equivalence transformation
# ---------------------------------------------------------------------------


def _forward_arrays(arr, f: float) -> tuple:
    """Rotating -> non-rotating map of (t, x, y, u, v, h); float t, the rest may be arrays.

    Any of them may be jets.
    """
    t, x, y, u, v, h = arr
    half = f * t / 2.0
    s2 = sin(half)
    if abs(value_of(s2)) < SINGULAR_GUARD:
        raise SingularTime(
            f"equivalence map singular at t={value_of(t)!r} (sin(f t/2)={value_of(s2)!r})"
        )
    c = cos(half) / s2
    s = sin(f * t)
    w = 1.0 - cos(f * t)
    return (
        -c / f,
        -(x * c - y) / 2.0,
        -(x + y * c) / 2.0,
        -(u * s - v * w - f * x) / 2.0,
        -(u * w + v * s - f * y) / 2.0,
        h * w / 2.0,
    )


def _inverse_arrays(arr, f: float) -> tuple:
    """Non-rotating -> rotating map, landing in the principal period; float t' or jets."""
    tp, xp, yp, up, vp, hp = arr
    t = (2.0 / f) * (math.pi / 2.0 + atan(f * tp))
    c = -f * tp
    one_c2 = 1.0 + c * c
    x = -2.0 * (c * xp + yp) / one_c2
    y = 2.0 * (xp - c * yp) / one_c2
    u = (f * x / 2.0 - up) * c + f * y / 2.0 - vp
    v = -f * x / 2.0 + up + (f * y / 2.0 - vp) * c
    h = hp * one_c2
    return t, x, y, u, v, h


def equiv_jet_array(point, params: FlowParameters, direction: Direction = "rsw2sw") -> np.ndarray:
    """The equivalence map of a point (t, x, y, u, v, h), a length-6 array.

    The ``rsw2sw`` direction maps the rotating system to the non-rotating
    one and is defined for times with sin(f t / 2) != 0; ``sw2rsw`` is its
    closed-form inverse and always lands in the principal period
    (0, 2*pi/f).  The entries must be finite and the depth nonnegative.
    """
    if direction not in ("rsw2sw", "sw2rsw"):
        raise InvalidParams(f"direction must be 'rsw2sw' or 'sw2rsw', got {direction!r}")
    to = _forward_arrays if direction == "rsw2sw" else _inverse_arrays
    return np.array(to(_checked_point(point), params.f))


def map_field_rsw_to_sw(field_: FlowField, params: FlowParameters | None = None) -> FlowField:
    """Non-rotating image of a rotating Cartesian-frame solution.

    The image field at (t', x', y') pulls the point back through the
    inverse map, evaluates the source, and pushes the state forward.  The
    source is restricted to its principal period; the image time window is
    the monotone image of that interval.  The source time depends on t'
    alone, so array positions read the source's ``value_fn`` in one call,
    its window checked at the pulled-back points (the values of jets, which
    compose through the map and the source's own).  ``params``, when given,
    must equal the source's.  Its ``meta`` holds only its ``source``: no path.
    """
    params = source_params(field_.params, params)
    if field_.frame != "cartesian":
        raise InvalidParams("rsw2sw field map expects a cartesian-frame field")
    if field_.system != "rsw":
        raise InvalidParams("source field must solve the rotating system")
    f = params.f
    guard = 1e-7 * params.period
    t_lo = max(field_.window.t_lo + field_.window.t_guard, 0.0) + guard
    t_hi = min(field_.window.t_hi - field_.window.t_guard, params.period) - guard
    if not t_lo < t_hi:
        raise InvalidParams("source window does not intersect the principal period")

    def t_image(t: float) -> float:
        return -1.0 / (f * math.tan(f * t / 2.0))

    window = Window(t_lo=t_image(t_lo), t_hi=t_image(t_hi))
    return _equivalence_image(field_, params, "rsw2sw", window)


def map_field_sw_to_rsw(field_: FlowField, params: FlowParameters | None = None) -> FlowField:
    """Rotating image of a non-rotating Cartesian-frame solution.

    Defined on the principal period (0, 2*pi/f) minus a guard band.  The
    source is read, its window checked, jets composed, ``params`` checked
    and ``meta`` stated as in :func:`map_field_rsw_to_sw`.
    """
    params = source_params(field_.params, params)
    if field_.frame != "cartesian":
        raise InvalidParams("sw2rsw field map expects a cartesian-frame field")
    if field_.system != "sw":
        raise InvalidParams("source field must solve the non-rotating system")
    window = Window(t_lo=0.0, t_hi=params.period, t_guard=1e-9 * params.period)
    return _equivalence_image(field_, params, "sw2rsw", window)


def _equivalence_image(src: FlowField, params: FlowParameters, direction: Direction,
                       window: Window) -> FlowField:
    """The image of ``src`` under ``direction`` on ``window``: pull back, check the
    source's window there, read its ``value_fn``, push forward."""
    f = params.f
    pull, push = _inverse_arrays, _forward_arrays
    if direction == "sw2rsw":
        pull, push = push, pull

    def value_fn(t, a, b):
        ts, xs, ys, _, _, _ = pull((t, a, b, 0.0, 0.0, 0.0), f)
        src.window.check(value_of(ts), hypot(value_of(xs), value_of(ys)))
        return push((ts, xs, ys, *src.value_fn(ts, xs, ys)), f)[3:]

    def to_view(rows):
        return np.array([push((t, a, b, 0.0, 0.0, 0.0), f)[:3] for t, a, b in rows.tolist()])

    system = "sw" if direction == "rsw2sw" else "rsw"
    return FlowField(
        frame="cartesian",
        params=params,
        value_fn=value_fn,
        window=window,
        system=system,
        label=f"{system}_image({src.label})",
        meta={"source": (src, to_view)},
    )


# ---------------------------------------------------------------------------
# Finite transformations of the canonical generators
# ---------------------------------------------------------------------------


def check_dilation(alpha: float) -> None:
    """Raise :class:`InvalidParams` unless ``alpha`` is a usable Y9 dilation parameter.

    The dilation needs D of :func:`y9_factors` positive at every time.  D
    ranges over [min(1, alpha^2), max(1, alpha^2)], but it is formed as a
    difference that rounds to zero at the half-period times (small alpha)
    or the full-period times (large alpha) unless alpha^2 is resolved
    against 1: 2^-27 < alpha < 2^26.5 (about 7.45e-9 < alpha < 9.49e7).
    Inside that range D, and with it rho, cu and cv, carry a relative error
    of about eps max(alpha^2, 1 / alpha^2) near those times (eps = 2.2e-16),
    which reaches O(1) at the bounds; away from them they are accurate.
    """
    if not 2.0 ** -27 < alpha < 2.0 ** 26.5:
        raise InvalidParams(
            f"dilation parameter alpha must lie in (2^-27, 2^26.5), about 7.45e-9 < alpha < 9.49e7, "
            f"where alpha^2 is resolved against 1 (near the half and full periods the dilation "
            f"loses about 2.2e-16 max(alpha^2, 1/alpha^2) relative), got {alpha!r}"
        )


@dataclass(frozen=True)
class GroupAction:
    """One-parameter group element for one of the three nontrivial flows.

    The dilation ("Y9") is parametrized by ``alpha > 0``; the two
    parabolic flows ("Y7", "Y8") by an arbitrary real ``a``.
    """

    generator: Literal["Y7", "Y8", "Y9"]
    parameter: float

    def __post_init__(self) -> None:
        if self.generator not in ("Y7", "Y8", "Y9"):
            raise InvalidParams(f"unsupported generator {self.generator!r}")
        if not math.isfinite(self.parameter):
            raise InvalidParams("group parameter must be finite")
        if self.generator == "Y9":
            check_dilation(self.parameter)


def finite_transform(action: GroupAction, point, params: FlowParameters) -> np.ndarray:
    """Apply a finite transformation to a polar point (t, r, theta, U, V, h).

    Each generator's action at the point's time is ``(tbar, angle, rho, cu,
    cv)``, smooth for all t; the point maps to (tbar, r rho, theta - angle,
    (U - cu r) / rho, (V - cv r) / rho, h / rho^2), returned as a length-6
    array.  The entries must be finite, and r and h nonnegative.
    """
    t, r, theta, U, V, h = _checked_point(point)
    _check_radius(r)
    a, f = action.parameter, params.f
    if action.generator == "Y9":
        tbar, angle, rho, cu, cv = y9_dilation(t, a, f)
    else:
        tbar, angle, rho, cu, cv = _parabolic(t, a, f, y7=action.generator == "Y7")
    return np.array(
        [tbar, r * rho, theta - angle, (U - cu * r) / rho, (V - cv * r) / rho, h / (rho * rho)]
    )


# ---------------------------------------------------------------------------
# The sl(2) actions: Y7, Y8 and the Y9 dilation
# ---------------------------------------------------------------------------


def _parabolic(t, a, f: float, y7: bool) -> tuple:
    """The Y8 flow by a at time t (Y7 with ``y7``): (tbar, angle, rho, cu, cv).

    With sn, cs = sin(f t/2), cos(f t/2) and p = sn + a cs, the flow has
    1 / rho^2 = p^2 + cs^2 and the angle is the continuous form of
    atan(tan(f t/2) + a) - atan(tan(f t/2)): the tangent form multiplied
    through by cs^2.  As a sum of squares 1 / rho^2 does not cancel, so the
    form is smooth for every a and t and loses no more than the rounding of
    sn and cs entails: near tan(f t/2) = -a, where 1 / rho^2 is O(1 / a^2),
    that is about eps |a| relative, and eps a^2 in cu.  Y7 is Y8 at t - pi/f
    moved forward by pi/f, which replaces (sn, cs) with (-cs, sn).
    """
    half = f * t / 2.0
    sn, cs = sin(half), cos(half)
    if y7:
        sn, cs = -cs, sn
    p = sn + a * cs
    n = p * p + cs * cs
    angle = arctan2(a * cs * cs, cs * cs + sn * p)
    k = f * a / (2.0 * n)
    return t + 2.0 * angle / f, angle, 1.0 / sqrt(n), k * (cs * cs - sn * p), -k * cs * (sn + p)


def y9_factors(t: float, alpha: float, f: float) -> tuple[float, float, float, float, float]:
    """Time factors (c, s, D, cu, cv) of the Y9 dilation with parameter alpha.

    With c, s = cos f t, sin f t:

    * D = ((1 + alpha^2) + c (1 - alpha^2)) / 2 = cos^2(f t/2) + alpha^2 sin^2(f t/2),
      so the radial stretch is rho = sqrt(alpha / D);
    * cu = f (alpha^2 - 1) s / (4 D) and
      cv = -f (alpha - 1) ((alpha - 1) - c (alpha + 1)) / (4 D) are the rigid
      velocity shifts per unit radius.

    All of them are smooth for all t; this is the whole cost of the pulsating
    cylinder, so the angle is left to :func:`y9_dilation`.  A jet t gives
    jets, and with them the factors' rates.
    """
    ft = f * t
    c, s = cos(ft), sin(ft)
    D = 0.5 * ((1.0 + alpha * alpha) + c * (1.0 - alpha * alpha))
    cu = f * (alpha * alpha - 1.0) * s / (4.0 * D)
    cv = -f * (alpha - 1.0) * ((alpha - 1.0) - c * (alpha + 1.0)) / (4.0 * D)
    return c, s, D, cu, cv


def y9_dilation(t: float, alpha: float, f: float) -> tuple[float, float, float, float, float]:
    """The Y9 dilation at time t: (tbar, angle, rho, cu, cv).

    A point (t, r, theta) maps to (tbar, r rho, theta - angle) and a state
    (U, V, h) to ((U - cu r) / rho, (V - cv r) / rho, h / rho^2), with
    rho = sqrt(alpha / D) and D, cu, cv from :func:`y9_factors`.  The angle
    is the continuous form of atan(alpha tan(f t/2)) - atan(tan(f t/2)) and
    tbar = t + 2 angle / f, so no time is singular: tbar = t exactly where
    the tangent form breaks down, at the half-period times.  The time map
    t -> tbar is inverted by the dilation with 1/alpha.
    """
    c, s, D, cu, cv = y9_factors(t, alpha, f)
    angle = arctan2((alpha - 1.0) * s, (1.0 + alpha) - (alpha - 1.0) * c)
    return t + 2.0 * angle / f, angle, sqrt(alpha / D), cu, cv


# ---------------------------------------------------------------------------
# Solution transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryFormula:
    """Closed-form particle path through (r0, theta0) at ``anchor_time``, from ``meta["path"]``.

    ``circle`` is (x_c, y_c, R) when the path is known to be that circle.
    """

    r_of_t: Callable[[float], float]
    theta_of_t: Callable[[float], float]
    circle: tuple[float, float, float] | None = None
    anchor_time: float = 0.0

    def x_of_t(self, t: float) -> float:
        return self.r_of_t(t) * math.cos(self.theta_of_t(t))

    def y_of_t(self, t: float) -> float:
        return self.r_of_t(t) * math.sin(self.theta_of_t(t))


def _dilated_radius(radius, alpha: float, f: float) -> Callable[[float], float]:
    """A source radius, a number or ``t -> r``, in the transport by ``alpha``: radius(tbar) / rho."""

    def r_of_t(t: float) -> float:
        tbar, _, rho, _, _ = y9_dilation(t, alpha, f)
        return (radius(tbar) if callable(radius) else radius) / rho

    return r_of_t


def dilated_path(src_path: Callable, alpha: float, f: float) -> Callable:
    """``path(r0, theta0)`` of the transport by ``alpha`` of a flow whose paths are ``src_path``.

    It is the source's path through (r0 sqrt(alpha), theta0) at t = 0, the
    anchor, moved to r_src(tbar) / rho and theta_src(tbar) + angle.
    """

    def path(r0: float, theta0: float) -> TrajectoryFormula:
        src = src_path(r0 * math.sqrt(alpha), theta0)

        def theta_of_t(t):
            tbar, angle, _, _, _ = y9_dilation(t, alpha, f)
            return src.theta_of_t(tbar) + angle

        return TrajectoryFormula(_dilated_radius(src.r_of_t, alpha, f), theta_of_t)

    return path


def transport_solution(
    field_: FlowField, alpha: float, params: FlowParameters | None = None
) -> FlowField:
    """New exact solution obtained by transporting a polar solution.

    For a source solution (U, V, h) the transported field reads the source
    at the image (tbar, r rho, theta - angle) of :func:`y9_dilation`, scales
    the state by rho, and adds the rigid velocity shifts (cu r, cv r), in
    one source call for array positions; jets compose through the dilation
    and the source's own.  Transporting the rest state
    produces the pulsating cylinder; transporting the stationary
    rotationally symmetric class produces the pulsating drop family.
    ``params``, when given, must equal the source's, and 1/alpha must pass
    :func:`check_dilation` where a finite time is mapped.  ``meta`` holds the
    ``source`` and any ``path`` and ``boundary_radius`` of it, mapped.
    """
    params = source_params(field_.params, params)
    if field_.frame != "polar":
        raise InvalidParams("solution transport expects a polar-frame field")
    check_dilation(alpha)
    f = params.f
    src = field_

    def value_fn(t, r, theta):
        tbar, angle, rho, cu, cv = y9_dilation(t, alpha, f)
        Ub, Vb, hb = src.value_fn(tbar, r * rho, theta - angle)
        return rho * Ub + cu * r, rho * Vb + cv * r, hb * rho * rho

    # the time map is inverted by the dilation with 1/alpha, so it must be usable too
    def t_preimage(tbar):
        try:
            check_dilation(1.0 / alpha)
        except InvalidParams:
            raise InvalidParams(
                f"transport by the dilation parameter alpha={alpha!r} maps times back through "
                f"its inverse, and 1/alpha={1.0 / alpha!r} is out of range: the inverse must lie "
                f"in (2^-27, 2^26.5), so alpha must exceed 2^-26.5, about 1.05e-8"
            ) from None
        return y9_dilation(tbar, 1.0 / alpha, f)[0]

    def to_view(rows):
        t = t_preimage(rows[:, 0])
        _, angle, rho, _, _ = y9_dilation(t, alpha, f)
        return np.column_stack([t, rows[:, 1] / rho, rows[:, 2] + angle])

    # the source is read at the dilated point, so its radial bounds apply
    # to r * rho(t) at the mapped time; rho is positive and finite, so an
    # infinite bound stays infinite
    src_lo, src_hi = src.window.r_lo, src.window.r_hi
    window = Window(
        *(t_preimage(b) if math.isfinite(b) else b for b in (src.window.t_lo, src.window.t_hi)),
        t_guard=src.window.t_guard,
        r_lo=_dilated_radius(src_lo, alpha, f) if callable(src_lo) or src_lo else 0.0,
        r_hi=_dilated_radius(src_hi, alpha, f) if callable(src_hi) or math.isfinite(src_hi) else math.inf,
    )
    carried = {"path": dilated_path, "boundary_radius": _dilated_radius}
    meta = {key: carry(src.meta[key], alpha, f) for key, carry in carried.items() if key in src.meta}
    meta["source"] = (src, to_view)
    return FlowField(
        frame="polar",
        params=params,
        value_fn=value_fn,
        window=window,
        system="rsw",
        label=f"transport({src.label}, alpha={alpha:g})",
        meta=meta,
    )
