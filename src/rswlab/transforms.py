"""Point transformations connecting solutions.

Three pieces of machinery live here:

* the equivalence transformation, an explicit change of variables mapping
  any solution of the rotating system to a solution of the non-rotating
  one and back (the rotating-frame solution lives on one inertial period
  ``0 < t < 2*pi/f``);
* finite transformations of the three non-obvious canonical generators,
  obtained by integrating their flow equations in polar variables.  The two
  parabolic flows (Y7, Y8) carry piecewise-constant time offsets that keep
  them continuous across the half-period times ``t = (2n+1)*pi/f``; the
  dilation (Y9) is written in ``cos f t`` and ``sin f t``, which is smooth
  for all t;
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
from typing import Literal

import numpy as np

from .core import (
    CartesianPoint,
    CartesianState,
    FlowField,
    FlowParameters,
    PolarPoint,
    PolarState,
    Window,
)
from .core import arctan2, atan, cos, sin, sqrt, value_of  # jet-aware math
from .errors import InvalidParams, SingularTime

Direction = Literal["rsw2sw", "sw2rsw"]

#: |cos(f t / 2)| (Y8) or |sin(f t / 2)| (Y7) below this triggers the exact
#: half-period formulas of the parabolic group actions (tan overflows);
#: |sin(f t / 2)| below it marks the singular times of the equivalence map.
SINGULAR_GUARD = 1e-9


def chi(t: float, f: float) -> float:
    """Piecewise-constant offset 2*pi*k/f for t in ((2k-1)pi/f, (2k+1)pi/f)."""
    k = math.floor(f * t / (2.0 * math.pi) + 0.5)
    return 2.0 * math.pi * k / f


def chi_shifted(t: float, f: float) -> float:
    """Offset (2k+1)*pi/f for t in (2k pi/f, 2(k+1) pi/f)."""
    k = math.floor(f * t / (2.0 * math.pi))
    return (2.0 * k + 1.0) * math.pi / f


# ---------------------------------------------------------------------------
# Equivalence transformation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceMap:
    """Change of variables between the rotating and non-rotating systems.

    In the ``rsw2sw`` direction the map is defined for times with
    sin(f t / 2) != 0; the ``sw2rsw`` direction is its closed-form inverse
    and always lands in the principal period (0, 2*pi/f).
    """

    params: FlowParameters
    direction: Direction = "rsw2sw"

    def inverse(self) -> "EquivalenceMap":
        other = "sw2rsw" if self.direction == "rsw2sw" else "rsw2sw"
        return EquivalenceMap(self.params, other)


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


def equiv_jet_array(arr: np.ndarray, params: FlowParameters, direction: Direction = "rsw2sw") -> np.ndarray:
    """The equivalence map as a map of raw 6-vectors (t, x, y, u, v, h)."""
    to = _forward_arrays if direction == "rsw2sw" else _inverse_arrays
    return np.array(to(np.asarray(arr, dtype=float), params.f))


def equiv_point(
    m: EquivalenceMap, p: CartesianPoint, s: CartesianState
) -> tuple[CartesianPoint, CartesianState]:
    """Apply the equivalence transformation to one point/state pair."""
    arr = np.array([p.t, p.x, p.y, s.u, s.v, s.h])
    out = equiv_jet_array(arr, m.params, m.direction)
    return (
        CartesianPoint(float(out[0]), float(out[1]), float(out[2])),
        CartesianState(float(out[3]), float(out[4]), float(out[5])),
    )


def map_field_rsw_to_sw(field_: FlowField, params: FlowParameters | None = None) -> FlowField:
    """Non-rotating image of a rotating Cartesian-frame solution.

    The image field at (t', x', y') pulls the point back through the
    inverse map, evaluates the source, and pushes the state forward.  The
    source is restricted to its principal period; the image time window is
    the monotone image of that interval.  The source time depends on t'
    alone, so array positions read the source in one checked block call.
    Jets compose through the map and the source's own, and the source's
    window check applies to their values.
    """
    params = params or field_.params
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

    src = field_

    def value_fn(tp, xp, yp):
        t, x, y, _, _, _ = _inverse_arrays((tp, xp, yp, 0.0, 0.0, 0.0), f)
        u, v, h = src.eval(t, x, y)
        return _forward_arrays((t, x, y, u, v, h), f)[3:]

    window = Window(t_lo=t_image(t_lo), t_hi=t_image(t_hi))
    meta = dict(src.meta)
    meta.update(kind="equiv_image", direction="rsw2sw", source=src.label)
    return FlowField(
        frame="cartesian",
        params=params,
        value_fn=value_fn,
        window=window,
        system="sw",
        label=f"sw_image({src.label})",
        meta=meta,
    )


def map_field_sw_to_rsw(field_: FlowField, params: FlowParameters | None = None) -> FlowField:
    """Rotating image of a non-rotating Cartesian-frame solution.

    Defined on the principal period (0, 2*pi/f) minus a guard band.  The
    source time depends on t alone, so array positions read the source in
    one checked block call.  Jets compose as in :func:`map_field_rsw_to_sw`.
    """
    params = params or field_.params
    if field_.frame != "cartesian":
        raise InvalidParams("sw2rsw field map expects a cartesian-frame field")
    if field_.system != "sw":
        raise InvalidParams("source field must solve the non-rotating system")
    f = params.f
    src = field_

    def value_fn(t, x, y):
        tp, xp, yp, _, _, _ = _forward_arrays((t, x, y, 0.0, 0.0, 0.0), f)
        up, vp, hp = src.eval(tp, xp, yp)
        return _inverse_arrays((tp, xp, yp, up, vp, hp), f)[3:]

    window = Window(t_lo=0.0, t_hi=params.period, t_guard=1e-9 * params.period)
    meta = dict(src.meta)
    meta.update(kind="equiv_image", direction="sw2rsw", source=src.label)
    return FlowField(
        frame="cartesian",
        params=params,
        value_fn=value_fn,
        window=window,
        system="rsw",
        label=f"rsw_image({src.label})",
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Finite transformations of the canonical generators
# ---------------------------------------------------------------------------


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
        if self.generator == "Y9" and self.parameter <= 0.0:
            raise InvalidParams(
                f"dilation parameter alpha must be positive, got {self.parameter}"
            )


def _parabolic_map(t, r, theta, U, V, h, a, f, sigma, offset):
    """Shared form of the two parabolic flows; sigma is tan- or -cot-based."""
    num = sigma * sigma + 1.0
    den = (sigma + a) * (sigma + a) + 1.0
    ratio = math.sqrt(den / num)
    tbar = (2.0 / f) * math.atan(sigma + a) + offset
    rbar = r / ratio
    thbar = theta + math.atan(sigma) - math.atan(sigma + a)
    shift_u = (f * r / 2.0) * (sigma * sigma + a * sigma - 1.0) * a / den
    shift_v = (f * r / 2.0) * (2.0 * sigma + a) * a / den
    return (
        tbar,
        rbar,
        thbar,
        (U + shift_u) * ratio,
        (V + shift_v) * ratio,
        h * den / num,
    )


def finite_transform(
    action: GroupAction, p: PolarPoint, s: PolarState, params: FlowParameters
) -> tuple[PolarPoint, PolarState]:
    """Apply a finite transformation to a polar point/state pair.

    For Y7 and Y8, at the times where the underlying tangent half-angle
    degenerates, the continuous completion values are used, so the map is
    defined for all times in the generator's domain; Y9 is
    :func:`y9_dilation`, which is smooth everywhere.
    """
    f = params.f
    t, r, theta = p.t, p.r, p.theta
    U, V, h = s.U, s.V, s.h
    half = f * t / 2.0
    if action.generator == "Y9":
        alpha = action.parameter
        tbar, angle, rho, cu, cv = y9_dilation(t, alpha, f)
        out = (tbar, r * rho, theta - angle, (U - cu * r) / rho, (V - cv * r) / rho,
               h / (rho * rho))
    elif action.generator == "Y8":
        c2 = math.cos(half)
        if abs(c2) < SINGULAR_GUARD:
            a = action.parameter
            out = (t, r, theta, U + f * r * a / 2.0, V, h)
        else:
            tau = math.sin(half) / c2
            out = _parabolic_map(t, r, theta, U, V, h, action.parameter, f, tau, chi(t, f))
    else:  # Y7
        s2 = math.sin(half)
        if abs(s2) < SINGULAR_GUARD:
            a = action.parameter
            out = (t, r, theta, U + f * r * a / 2.0, V, h)
        else:
            sigma = -math.cos(half) / s2
            out = _parabolic_map(
                t, r, theta, U, V, h, action.parameter, f, sigma, chi_shifted(t, f)
            )
    tb, rb, thb, Ub, Vb, hb = out
    return PolarPoint(tb, rb, thb), PolarState(Ub, Vb, hb)


# ---------------------------------------------------------------------------
# The Y9 dilation
# ---------------------------------------------------------------------------


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
    the tangent form breaks down, at the half-period times.
    """
    c, s, D, cu, cv = y9_factors(t, alpha, f)
    angle = arctan2((alpha - 1.0) * s, (1.0 + alpha) - (alpha - 1.0) * c)
    return t + 2.0 * angle / f, angle, sqrt(alpha / D), cu, cv


def y9_time_map(t: float, alpha: float, f: float) -> float:
    """Dilated time tbar of :func:`y9_dilation`; alpha -> 1/alpha inverts it."""
    return y9_dilation(t, alpha, f)[0]


# ---------------------------------------------------------------------------
# Solution transport
# ---------------------------------------------------------------------------


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
    """
    params = params or field_.params
    if field_.frame != "polar":
        raise InvalidParams("solution transport expects a polar-frame field")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise InvalidParams(f"transport parameter alpha must be positive, got {alpha}")
    f = params.f
    src = field_

    def value_fn(t, r, theta):
        tbar, angle, rho, cu, cv = y9_dilation(t, alpha, f)
        Ub, Vb, hb = src.values_unchecked(tbar, r * rho, theta - angle)
        return rho * Ub + cu * r, rho * Vb + cv * r, hb * rho * rho

    src_lo, src_hi = src.window.r_lo, src.window.r_hi

    # the source is read at the dilated point, so its radial bounds apply
    # to r * rho(t) at the mapped time
    def r_lo(t: float) -> float:
        tbar, _, rho, _, _ = y9_dilation(t, alpha, f)
        lo = src_lo(tbar) if callable(src_lo) else src_lo
        return lo / rho

    def r_hi(t: float) -> float:
        tbar, _, rho, _, _ = y9_dilation(t, alpha, f)
        hi = src_hi(tbar) if callable(src_hi) else src_hi
        return hi / rho if math.isfinite(hi) else math.inf

    # the transported time window is the preimage of the source window;
    # the time map is inverted by the dilation with 1/alpha
    def t_preimage(bound: float) -> float:
        return y9_time_map(bound, 1.0 / alpha, f) if math.isfinite(bound) else bound

    window = Window(
        t_lo=t_preimage(src.window.t_lo),
        t_hi=t_preimage(src.window.t_hi),
        t_guard=src.window.t_guard,
        r_lo=r_lo if callable(src_lo) or src_lo else 0.0,
        r_hi=r_hi if callable(src_hi) or math.isfinite(src_hi) else math.inf,
    )
    meta = dict(src.meta)
    meta.update(kind="transported", alpha=alpha, source=src.label)
    return FlowField(
        frame="polar",
        params=params,
        value_fn=value_fn,
        window=window,
        system="rsw",
        label=f"transport({src.label}, alpha={alpha:g})",
        meta=meta,
    )
