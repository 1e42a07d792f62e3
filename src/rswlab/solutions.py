"""Catalog of exact solution families.

Each constructor returns a :class:`~rswlab.core.FlowField` with a validity
window and metadata: its construction's keys and any closed-form ``path``.
Each family writes its formula once, as its ``value_fn``; the analytic first
derivatives come from running it on :class:`~rswlab.core.Jet` arguments.
A quantity the formula solves for or reads from a table enters through
one derivative rule: a cubic root through the implicit-function
derivative (:func:`~rswlab.core.implicit`), a table through its
integrand, the collapse tabulation through the reduced ODEs, and a swirl
profile through its ``deriv``.  Families:

``rest``
    State of rest with constant depth (polar frame, also available in
    Cartesian form for the equivalence-map checks).
``constant-sw-image``
    Rotating-frame image of a uniform non-rotating stream; lives on one
    inertial period, particles ride circular arcs.
``barochronous-sw``
    Non-rotating solution whose depth depends on time only; it is the image
    of the rest state under the equivalence map.
``stationary-rotsym``
    Stationary rotationally symmetric class: zero radial velocity, a free
    swirl profile, depth from the cyclogeostrophic balance integral.
``pulsating-cylinder``
    Time-periodic solution transported from rest: a rigidly pulsating
    column whose depth depends on time only.
``pulsating-drop``
    Time-periodic localized solution transported from a quadratic swirl
    profile; depth vanishes on a pulsating boundary circle.
``stationary-ring``
    Stationary flow with radial throughput confined to an annulus bounded
    by sonic circles; depth solves a cubic with two branches.
``collapse-contact``
    Unsteady flow whose similarity surfaces are material (contact)
    characteristics; interpreted as a ring compressed by pistons.
``collapse-contact-cubic``
    Companion class with constant swirl invariant ruled by a per-level
    cubic.
``collapse-scaling``
    Self-similar spreading/collapse regime driven by the implicit
    tabulation from :mod:`rswlab.reduction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import FlowField, FlowParameters, Jet, Window, _check_finite, _check_radius, cos, implicit, sin
from .errors import InvalidParams, UnsupportedFamily
from .reduction import (
    IntegralTable,
    bisect_bracket,
    collapse2_build,
    cubic_real_roots,
    cubic_roots,
    depth_cubic_coeffs,
    ring_bounds,
    solve_cubic_real,
)
from .transforms import TrajectoryFormula, _inverse_arrays, check_dilation, dilated_path, y9_factors

_ALIASES = {
    "rest-state": "rest",
    "constant": "constant-sw-image",
    "barochronous": "barochronous-sw",
    "cylinder": "pulsating-cylinder",
    "drop": "pulsating-drop",
    "ring": "stationary-ring",
}


def canonical_family_name(name: str) -> str:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in FAMILY_NAMES:
        raise UnsupportedFamily(f"unknown family {name!r}; known: {FAMILY_NAMES}")
    return key


# ---------------------------------------------------------------------------
# Swirl profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """A function of one variable with analytic derivative: a swirl
    profile V(r), or the contact family's swirl invariant psi(lam).

    A swirl profile must vanish at the origin (V ~ O(r)) so that the
    balance integral converges.  ``fn`` and ``deriv`` take floats or
    arrays, and give the same bits for a float as for that float in an
    array: the built-in profiles take their transcendental functions from
    numpy.  Called with a :class:`~rswlab.core.Jet`, a profile takes its
    slope from ``deriv``.
    """

    fn: Callable[[float], float]
    deriv: Callable[[float], float]
    label: str

    def __call__(self, x: float) -> float:
        if isinstance(x, Jet):
            return x.chain(self.fn(x.v), self.deriv(x.v))
        return self.fn(x)


def profile_zero() -> RadialProfile:
    return RadialProfile(lambda r: 0.0, lambda r: 0.0, "zero")


def profile_solid(omega: float = 0.5) -> RadialProfile:
    return RadialProfile(lambda r: omega * r, lambda r: omega, f"solid:{omega:g}")


def profile_quadratic(coef: float = -0.25) -> RadialProfile:
    return RadialProfile(
        lambda r: coef * r * r, lambda r: 2.0 * coef * r, f"quadratic:{coef:g}"
    )


def profile_gauss(coef: float = 0.5, width: float = 2.0) -> RadialProfile:
    w2 = width * width
    if not w2 > 0.0:
        raise InvalidParams(f"gauss profile width must have a positive square, got {width!r}")

    def fn(r):
        return coef * r * np.exp(-r * r / w2)

    def deriv(r):
        return coef * np.exp(-r * r / w2) * (1.0 - 2.0 * r * r / w2)

    return RadialProfile(fn, deriv, f"gauss:{coef:g},{width:g}")


def _parse_spec(spec: str, builders: dict, kind: str):
    """``builders[name](*numbers)`` for a CLI spec ``name:n1,n2``; no numbers take the defaults."""
    name, _, rest = spec.partition(":")
    build = builders.get(name.strip().lower())
    if build is None:
        raise InvalidParams(f"unknown {kind} {spec!r}")
    try:
        args = [float(tok) for tok in rest.split(",") if tok]
    except ValueError as exc:
        raise InvalidParams(f"{kind} {spec!r} needs comma-separated numbers") from exc
    if not all(math.isfinite(x) for x in args):
        raise InvalidParams(f"{kind} {spec!r} needs finite numbers")
    try:
        return build(*args)
    except TypeError as exc:
        raise InvalidParams(f"too many numbers in {kind} {spec!r}") from exc


def parse_profile(spec: str) -> RadialProfile:
    """Parse a CLI profile spec like ``solid:0.4`` or ``gauss:0.5,2``."""
    builders = {"zero": profile_zero, "solid": profile_solid,
                "quadratic": profile_quadratic, "gauss": profile_gauss}
    return _parse_spec(spec, builders, "profile")


# ---------------------------------------------------------------------------
# Simple families
# ---------------------------------------------------------------------------


def _swirl_path(profile: RadialProfile):
    """``path(r0, theta0)`` of a stationary swirl V = profile(r): r = r0, theta turns at V(r0) / r0."""

    def path(r0: float, theta0: float) -> TrajectoryFormula:
        C = profile(r0) / r0 if r0 > 0.0 else 0.0
        return TrajectoryFormula(lambda t: r0, lambda t: theta0 + C * t)

    return path


def rest_state(h0: float, params: FlowParameters, frame: str = "polar") -> FlowField:
    """State of rest with constant depth; exact in both frames."""
    if not h0 > 0.0:
        raise InvalidParams(f"h0 must be positive, got {h0}")

    def value_fn(t, a, b):
        return 0.0, 0.0, h0

    return FlowField(
        frame=frame,
        params=params,
        value_fn=value_fn,
        window=Window(),
        label=f"rest(h0={h0:g})",
        meta={
            "family": "rest",
            "path": _swirl_path(profile_zero()),
            "sample_box": {"t": (0.0, params.period), "r": (0.0, 2.0), "x": (-2.0, 2.0)},
        },
    )


def constant_sw_image(
    u0: float, v0: float, h0: float, params: FlowParameters
) -> FlowField:
    """Rotating-frame image of the uniform stream (u0, v0, h0).

    Solving the equivalence transformation for the rotating variables gives

        u = (f x / 2 - u0) cot(f t / 2) + f y / 2 - v0,
        v = -f x / 2 + u0 + (f y / 2 - v0) cot(f t / 2),
        h = 2 h0 / (1 - cos(f t)),

    valid on one inertial period.  Particle paths are arcs of circles,
    anchored at the window midpoint, where the map degenerates to a quarter
    turn; the solution blows up towards both window ends.
    """
    if not h0 > 0.0:
        raise InvalidParams(f"h0 must be positive, got {h0}")
    f = params.f
    period = params.period

    def value_fn(t, x, y):
        ft = f * t
        w = 1.0 - cos(ft)
        c = sin(ft) / w  # cot(f t / 2)
        u = (f * x / 2.0 - u0) * c + f * y / 2.0 - v0
        v = -f * x / 2.0 + u0 + (f * y / 2.0 - v0) * c
        return u, v, 2.0 * h0 / w

    def path(r0: float, theta0: float) -> TrajectoryFormula:
        x0, y0 = r0 * math.cos(theta0), r0 * math.sin(theta0)

        def xy_of_t(t):
            # the inverse map of the straight path (y0/2, -x0/2) + (u0, v0) t'
            q = -1.0 / (f * math.tan(f * t / 2.0))  # t'
            return _inverse_arrays((q, y0 / 2.0 + u0 * q, -x0 / 2.0 + v0 * q, u0, v0, 1.0), f)[1:3]

        circle = (x0 / 2.0 + u0 / f, y0 / 2.0 + v0 / f,
                  math.hypot(u0 / f - x0 / 2.0, v0 / f - y0 / 2.0))
        return TrajectoryFormula(lambda t: math.hypot(*xy_of_t(t)),
                                 lambda t: math.atan2(*xy_of_t(t)[::-1]), circle, math.pi / f)

    return FlowField(
        frame="cartesian",
        params=params,
        value_fn=value_fn,
        window=Window(t_lo=0.0, t_hi=period, t_guard=1e-9 * period),
        label=f"constant-sw-image(u0={u0:g}, v0={v0:g}, h0={h0:g})",
        meta={
            "family": "constant-sw-image",
            "path": path,
            "sample_box": {"t": (0.08 * period, 0.92 * period), "x": (-2.0, 2.0)},
        },
    )


def barochronous_sw(h0: float, params: FlowParameters) -> FlowField:
    """Non-rotating solution with depth depending on time only.

    This is the image of the rest state under the equivalence map:
    u = (f^2 t x - f y) / W, v = (f x + f^2 t y) / W, h = h0 / W with
    W = 1 + f^2 t^2.  It solves the system with the Coriolis term dropped,
    for all times.
    """
    if not h0 > 0.0:
        raise InvalidParams(f"h0 must be positive, got {h0}")
    f = params.f
    if not math.isfinite(f * f):
        raise InvalidParams(f"f * f overflows at f={f!r}")

    def value_fn(t, x, y):
        W = 1.0 + f * f * t * t
        return (f * f * t * x - f * y) / W, (f * x + f * f * t * y) / W, h0 / W

    return FlowField(
        frame="cartesian",
        params=params,
        value_fn=value_fn,
        window=Window(),
        system="sw",
        label=f"barochronous-sw(h0={h0:g})",
        meta={
            "family": "barochronous-sw",
            "sample_box": {"t": (-2.0, 5.0), "x": (-2.0, 2.0)},
        },
    )


def stationary_rotsym(profile: RadialProfile, h0: float, params: FlowParameters) -> FlowField:
    """Stationary rotationally symmetric flow with a free swirl profile.

    Zero radial velocity, V = profile(r), and the depth from integrating
    the cyclogeostrophic balance g h'(r) = V^2 / r + f V from the origin.
    The depth is an :class:`~rswlab.reduction.IntegralTable` built once:
    Gauss-Legendre panels over [0, r_max] with r_max = 6, continued by
    doubling panels out to 2^64 r_max, read by quintic Hermite
    interpolation (the integrand and its slope from ``profile.deriv`` at
    each node); its jet takes the integrand as the slope.  Beyond the table
    the depth is NaN, which :meth:`FlowField.eval` reports as non-finite.
    The profile must vanish at r = 0.
    """
    if not h0 > 0.0:
        raise InvalidParams(f"h0 must be positive, got {h0}")
    if abs(profile(0.0)) > 0.0:
        raise InvalidParams("swirl profile must vanish at the origin")
    f, g = params.f, params.g
    r_max = 6.0

    def integrand(r):
        V = profile(r)  # ~ O(r), so the integrand vanishes at the origin
        return np.where(r > 0.0, (V * V / np.where(r > 0.0, r, 1.0) + f * V) / g, 0.0)

    def integrand_slope(r):
        V, dV = profile(r), profile.deriv(r)
        return np.where(r > 0.0, (2.0 * V * dV / r - V * V / (r * r) + f * dV) / g,
                        (dV * dV + f * dV) / g)

    breaks = np.concatenate([np.linspace(0.0, r_max, 17), r_max * 2.0 ** np.arange(1.0, 65.0)])
    depth = IntegralTable(integrand, integrand_slope, breaks, origin=0.0, value=h0, scale=h0)

    # reject profiles that drain the depth below zero, or overflow it, inside the window
    radii = np.linspace(0.0, r_max, 61)[1:]
    depths = depth(radii)
    bad = np.flatnonzero(~((depths > 0.0) & np.isfinite(depths)))
    if bad.size:
        raise InvalidParams(
            f"depth becomes non-positive or non-finite at r={radii[bad[0]]:g}; choose a tamer profile"
        )

    def value_fn(t, r, theta):
        return 0.0, profile(r), depth(r)

    return FlowField(
        frame="polar",
        params=params,
        value_fn=value_fn,
        window=Window(),
        label=f"stationary-rotsym({profile.label}, h0={h0:g})",
        meta={
            "family": "stationary-rotsym",
            "path": _swirl_path(profile),
            "depth_fn": depth,
            "sample_box": {"t": (0.0, params.period), "r": (0.05, r_max * 0.9)},
        },
    )


# ---------------------------------------------------------------------------
# Pulsating (transported) families, in closed form
# ---------------------------------------------------------------------------


def pulsating_cylinder(alpha: float, h0: float, params: FlowParameters) -> FlowField:
    """Pulsating liquid column: transport of the rest state.

    U = cu r, V = cv r, h = alpha h0 / D with the time factors cu, cv, D
    of the dilation, :func:`~rswlab.transforms.y9_factors`.  The depth
    depends on time only; every particle rides a circle and returns after one
    inertial period; the potential vorticity is f / h0 everywhere.
    """
    check_dilation(alpha)
    if not h0 > 0.0:
        raise InvalidParams(f"h0 must be positive, got {h0}")
    f = params.f

    def value_fn(t, r, theta):
        _, _, D, cu, cv = y9_factors(t, alpha, f)
        return cu * r, cv * r, alpha * h0 / D

    moved = dilated_path(_swirl_path(profile_zero()), alpha, f)

    def path(r0: float, theta0: float) -> TrajectoryFormula:
        k = 0.5 * (alpha + 1.0) * r0
        return replace(moved(r0, theta0), circle=(k * math.cos(theta0), k * math.sin(theta0),
                                                   0.5 * (alpha - 1.0) * r0))

    return FlowField(
        frame="polar",
        params=params,
        value_fn=value_fn,
        window=Window(),
        label=f"pulsating-cylinder(alpha={alpha:g}, h0={h0:g})",
        meta={
            "family": "pulsating-cylinder",
            "path": path,
            "sample_box": {"t": (0.0, params.period), "r": (0.05, 2.0)},
        },
    )


def drop_swirl_coefficient(alpha: float, params: FlowParameters) -> float:
    """Quadratic swirl coefficient l = -f^2 sqrt(alpha / (12 g)) < 0.

    Tied to the transport parameter so the transported profile closes the
    depth at a finite pulsating boundary circle.
    """
    f, g = params.f, params.g
    return -f * f * math.sqrt(alpha / (12.0 * g))


def _drop_coefficients(alpha: float, params: FlowParameters) -> tuple[float, float, float, float]:
    """The swirl coefficient l and the base depth's coefficients a4, a3, a0.

    Raises :class:`InvalidParams` when one overflows, or l underflows to 0.
    """
    f, g = params.f, params.g
    l = drop_swirl_coefficient(alpha, params)
    try:
        coefficients = l, l * l / (4.0 * g), f * l / (3.0 * g), f ** 4 / (12.0 * g * l * l)
        if all(map(math.isfinite, coefficients)):
            return coefficients
    except ArithmeticError:
        pass
    raise InvalidParams(f"drop coefficients leave the float range at f={f!r}, g={g!r}, alpha={alpha!r}")


def drop_base_depth(alpha: float, params: FlowParameters) -> Callable[[float], float]:
    """Base depth profile of the drop before transport.

    hbar(x) = (l^2/(4g)) x^4 + (f l/(3g)) x^3 + f^4/(12 g l^2); it has a
    double zero at x = -f/l and is positive inside.
    """
    _, a4, a3, a0 = _drop_coefficients(alpha, params)

    def hbar(x):
        return ((a4 * x + a3) * x * x) * x + a0

    return hbar


def pulsating_drop(alpha: float, params: FlowParameters) -> FlowField:
    """Pulsating localized volume: transport of the quadratic swirl profile.

    The base flow has swirl l r^2 and a depth vanishing at r = -f/l; the
    transported solution has depth zero on the moving circle
    R*(t) = (-f/l) sqrt(D / alpha), maximal depth at the center, and period
    one inertial period.  Particle paths generally only quasi-close; see
    :func:`closure_condition`; they are the base swirl's, dilated.
    """
    check_dilation(alpha)
    f = params.f
    l, a4, a3, a0 = _drop_coefficients(alpha, params)

    def value_fn(t, r, theta):
        _, _, D, cu, B = y9_factors(t, alpha, f)
        P = alpha / D  # rho^2
        U = cu * r
        V = l * r * r * P ** 1.5 + B * r
        # powers of r as products: numpy's array ``**`` is not the scalar one
        r2 = r * r
        h = a4 * (r2 * r2) * P ** 3 + a3 * (r2 * r) * P ** 2.5 + a0 * P
        return U, V, h

    def boundary_radius(t: float) -> float:
        D = y9_factors(t, alpha, f)[2]
        return (-f / l) * math.sqrt(D / alpha)

    r_box = 0.9 * min(boundary_radius(0.0), boundary_radius(math.pi / f))
    return FlowField(
        frame="polar",
        params=params,
        value_fn=value_fn,
        window=Window(),
        label=f"pulsating-drop(alpha={alpha:g})",
        meta={
            "family": "pulsating-drop",
            "alpha": alpha,
            "boundary_radius": boundary_radius,
            "path": dilated_path(_swirl_path(profile_quadratic(l)), alpha, f),
            "sample_box": {"t": (0.0, params.period), "r": (0.05, r_box)},
        },
    )


# ---------------------------------------------------------------------------
# Stationary ring
# ---------------------------------------------------------------------------


def stationary_ring(
    C1: float,
    C2: float,
    C3: float,
    params: FlowParameters,
    branch: str = "lower",
) -> FlowField:
    """Stationary annular flow bounded by sonic circles.

    U = C3 / (r h), V = C2 / r - f r / 2, with the depth h(r) a root of
    h^3 + phi1(r) h^2 + phi2(r) = 0.  Two positive branches exist on
    [r_inner, r_outer]; the lower one (smaller depth) is supercritical,
    the upper subcritical.  At the interval ends the depth derivative is
    unbounded and the flow is exactly sonic there.  Array radii solve their
    cubics in one :func:`~rswlab.reduction.cubic_real_roots` call; a float
    radius takes :func:`~rswlab.reduction.cubic_roots`, with the same bits.
    The depth's jet is the implicit-function derivative of the cubic.
    """
    if branch not in ("lower", "upper"):
        raise InvalidParams(f"branch must be 'lower' or 'upper', got {branch!r}")
    bounds = ring_bounds(C1, C2, C3, params)  # raises NoRingExists if empty
    f = params.f

    # phi2 > 0: one negative root, then the positive pair (or its double
    # root at the interval ends, which rounding may also leave complex)
    def depth(r):
        phi1, phi2 = depth_cubic_coeffs(r, C1, C2, C3, params)
        if isinstance(r, Jet):
            h = depth(r.v)
            return implicit(h, (h + phi1) * h * h + phi2, (3.0 * h + 2.0 * phi1.v) * h)
        if isinstance(r, np.ndarray):
            _, mid, top = cubic_real_roots(phi1, 0.0, phi2)
            lower = np.where(np.isnan(mid), -2.0 / 3.0 * phi1, mid)
            return lower if branch == "lower" else np.where(np.isnan(top), lower, top)
        roots = cubic_roots(phi1, phi2)
        if len(roots) == 1:
            return -2.0 / 3.0 * phi1
        return roots[1] if branch == "lower" or len(roots) == 2 else roots[2]

    def value_fn(t, r, theta):
        h = depth(r)
        return C3 / (r * h), C2 / r - f * r / 2.0, h

    span = bounds.r_outer - bounds.r_inner
    return FlowField(
        frame="polar",
        params=params,
        value_fn=value_fn,
        window=Window(r_lo=bounds.r_inner, r_hi=bounds.r_outer),
        label=f"stationary-ring(C=({C1:g},{C2:g},{C3:g}), {branch})",
        meta={
            "family": "stationary-ring",
            "bounds": bounds,
            "sample_box": {
                "t": (0.0, params.period),
                "r": (bounds.r_inner + 0.05 * span, bounds.r_outer - 0.05 * span),
            },
        },
    )


# ---------------------------------------------------------------------------
# Contact-characteristic collapse families
# ---------------------------------------------------------------------------


def _contact_geometry(f: float, t, r) -> tuple:
    """w = 1 - cos(f t), the similarity variable lam = w / r^2, and the
    piston velocity (f r / 2) cot(f t / 2) = (f r / 2) sin(f t) / w."""
    ft = f * t
    w = 1.0 - cos(ft)
    return w, w / (r * r), (f * r / 2.0) * sin(ft) / w


def _level_radius(f: float, t: float, lam: float) -> float:
    """The radius sqrt((1 - cos f t) / lam) of the similarity level lam at time t."""
    return math.sqrt((1.0 - math.cos(f * t)) / lam)


def _contact_window(params: FlowParameters, lam_cap: float) -> Window:
    """One inertial period, at the radii inside the similarity level lam_cap."""
    period = params.period
    return Window(t_lo=0.0, t_hi=period, t_guard=1e-9 * period,
                  r_lo=lambda t: _level_radius(params.f, t, lam_cap))


def swirl_constant(c: float = 1.0) -> RadialProfile:
    return RadialProfile(lambda lam: c, lambda lam: 0.0, f"const:{c:g}")


def swirl_sine(amplitude: float = 1.0) -> RadialProfile:
    return RadialProfile(
        lambda lam: amplitude * np.sin(lam),
        lambda lam: amplitude * np.cos(lam),
        f"sine:{amplitude:g}",
    )


def parse_swirl(spec: str) -> RadialProfile:
    """Parse a CLI swirl invariant spec like ``const:1`` or ``sine:0.5``."""
    return _parse_spec(spec, {"const": swirl_constant, "sine": swirl_sine}, "swirl invariant")


def collapse_contact(
    psi: RadialProfile,
    lam0: float,
    eta0: float,
    params: FlowParameters,
) -> FlowField:
    """Ring collapse with material similarity surfaces.

    In the similarity variable lam = (1 - cos(f t)) / r^2 the solution is

        U = (f r / 2) cot(f t / 2),
        V = psi(lam) / r - f r / 2,
        h = eta(lam) / r^2,
        eta(lam) = (lam0 eta0 - (1 / 2g) integral_{lam0}^{lam} psi^2) / lam.

    Surfaces lam = const move with the fluid, so the flow can be read as a
    liquid ring compressed by pistons r ~ sin(f t / 2).  The depth must
    stay positive, which bounds lam from above; the window tracks that
    bound.  The integral of psi^2 is an
    :class:`~rswlab.reduction.IntegralTable` from lam = 0, built out
    ahead of the probes of the search for that bound, ``lam_max``; the
    search and every evaluation read it.  Its panels are resolved to 1e-14
    of 2 g lam0 eta0 + |integral|, the size of the terms it enters.  Its
    jet takes psi^2 as the slope, and the depth's jet is that of
    (lam0 eta0 - integral / 2g) / (1 - cos f t), the same depth with no
    cancellation in its r-derivative.
    """
    if not (0.0 < lam0 < math.inf and 0.0 < eta0 < math.inf):
        raise InvalidParams(f"lam0 and eta0 must be positive and finite, got {lam0!r}, {eta0!r}")
    f, g = params.f, params.g
    budget = lam0 * eta0

    def psi_sq(lam):
        v = psi(lam)
        return v * v

    def psi_sq_slope(lam):
        return 2.0 * psi(lam) * psi.deriv(lam)

    # find where the depth budget runs out (eta crosses zero above lam0);
    # a vanishing swirl never exhausts it, so cap the search geometrically
    lam_ceiling = lam0 + 1e4 * max(lam0, 1.0)
    step = max(lam0, 1.0)
    lam_max = lam0
    breaks = np.linspace(0.0, lam0, 9)  # and on to the first probe
    breaks = np.append(breaks, np.linspace(lam0, min(lam0 + step, lam_ceiling), 9)[1:])
    psi_sq_integral = IntegralTable(psi_sq, psi_sq_slope, breaks, origin=lam0, scale=2.0 * g * budget)

    def eta(lam):
        return (budget - psi_sq_integral(lam) / (2.0 * g)) / lam

    while lam_max + step < lam_ceiling:
        if lam_max + step > psi_sq_integral.hi:  # tabulate on to the probe after
            psi_sq_integral.extend(min(lam_max + 2.5 * step, lam_ceiling))
        if not eta(lam_max + step) > 0.0:
            break
        lam_max += step
        step *= 1.5
    if lam_max + step >= lam_ceiling:
        lam_max = lam_ceiling
        psi_sq_integral.extend(lam_ceiling)
    else:
        lam_max = bisect_bracket(lambda lam: eta(lam) > 0.0, lam_max, lam_max + step, 1e-12)[0]
    lam_cap = lam0 + 0.95 * (lam_max - lam0)

    def depth(w, lam, r):
        if not isinstance(lam, Jet):
            return eta(lam) / (r * r)
        slopes = (budget - psi_sq_integral(lam) / (2.0 * g)) / w
        return Jet(eta(lam.v) / (r.v * r.v), slopes.t, slopes.a, slopes.b)

    def value_fn(t, r, theta):
        w, lam, U = _contact_geometry(f, t, r)
        V = psi(lam) / r - f * r / 2.0
        return U, V, depth(w, lam, r)

    # default sampling stays within a few swirl periods of lam0: far out on
    # the similarity axis the radius shrinks until fixed-step differencing
    # can no longer resolve psi(lam) oscillations
    lam_box = min(lam_cap, lam0 + 25.0 * max(1.0, lam0))
    period = params.period
    t_box = 0.1 * period
    field_ = FlowField(
        frame="polar",
        params=params,
        value_fn=value_fn,
        window=_contact_window(params, lam_cap),
        label=f"collapse-contact(psi={psi.label}, lam0={lam0:g}, eta0={eta0:g})",
        meta={
            "family": "collapse-contact",
            "psi": psi,
            "lam_max": lam_max,
            "eta_fn": eta,
            "psi_sq_integral": psi_sq_integral,
            "sample_box": {"t": (t_box, 0.9 * period), "lam": (0.2 * lam0, lam_box)},
        },
    )
    # the jet divides by r^3 with r^2 = (1 - cos f t) / lam, so the radii of
    # the sample box's lam extremes must stay in floating-point range
    for lam in (0.2 * lam0, lam_box):
        try:
            with np.errstate(all="ignore"):  # psi may give numpy floats
                grad = field_.jet_fn(t_box, _level_radius(f, t_box, lam), 0.0)[1]
        except ArithmeticError:
            grad = None
        if grad is None or not np.all(np.isfinite(grad)):
            raise InvalidParams(
                f"lam0={lam0!r}, eta0={eta0!r}: the jet at lam={lam!r} leaves "
                "floating-point range"
            )
    return field_


def collapse_contact_cubic(
    C1: float,
    C2: float,
    C3: float,
    params: FlowParameters,
    branch: str = "lower",
) -> FlowField:
    """Constant-swirl companion of the contact family.

    With psi = C2 the radial invariant phi(lam) solves the per-level cubic
    phi^3 + (C2^2 - C1/lam) phi + 2 g C3 / lam = 0 and eta = C3 / (lam phi).
    Two branches with sign(phi) = sign(C3) exist below the double-root
    level lam_c; root selection is by magnitude with continuity guaranteed
    away from lam_c.  Array positions solve their cubics in one
    :func:`~rswlab.reduction.cubic_real_roots` call; a float takes
    :func:`~rswlab.reduction.solve_cubic_real`, with the same bits.  The
    jet of phi is the implicit-function derivative of the cubic.
    """
    if branch not in ("lower", "upper"):
        raise InvalidParams(f"branch must be 'lower' or 'upper', got {branch!r}")
    if C3 == 0.0:
        raise InvalidParams("C3 must be nonzero (depth would vanish)")
    f, g = params.f, params.g

    def discriminant(lam: float) -> float:
        p = C2 * C2 - C1 / lam
        q = 2.0 * g * C3 / lam
        try:
            return (q / 2.0) ** 2 + (p / 3.0) ** 3
        except OverflowError as exc:
            raise InvalidParams(
                f"C=({C1!r}, {C2!r}, {C3!r}) overflow the discriminant of the cubic at lam={lam!r}"
            ) from exc

    if discriminant(1e-8) >= 0.0:
        raise InvalidParams(
            "no two-branch region: the cubic never has three real roots"
        )
    hi = 1.0
    while discriminant(hi) < 0.0 and hi < 1e8:
        hi *= 2.0
    lam_c = bisect_bracket(lambda lam: discriminant(lam) < 0.0, 1e-8, hi, 1e-14)[0]
    lam_cap = 0.95 * lam_c

    # q = 2 g C3 / lam: three real roots put one root on the side opposite
    # C3 and the two admissible ones on its side, the lower branch in the
    # middle; with fewer there is no pair of branches
    far = 2 if C3 > 0.0 else 0

    def phi(lam):
        p = C2 * C2 - C1 / lam
        q = 2.0 * g * C3 / lam
        if isinstance(lam, Jet):
            ph = phi(lam.v)
            return implicit(ph, (ph * ph + p) * ph + q, 3.0 * ph * ph + p.v)
        if isinstance(lam, np.ndarray):
            roots = cubic_real_roots(0.0, p, q)
            missing = np.isnan(roots[2])
            if missing.any():
                raise InvalidParams(f"no admissible branches at lam={float(lam[missing][0])!r}")
        else:
            roots = solve_cubic_real(0.0, p, q)
            if len(roots) < 3:
                raise InvalidParams(f"no admissible branches at lam={lam!r}")
        return roots[1] if branch == "lower" else roots[far]

    def value_fn(t, r, theta):
        _, lam, piston = _contact_geometry(f, t, r)
        ph = phi(lam)
        U = ph / r + piston
        V = C2 / r - f * r / 2.0
        return U, V, C3 / (lam * ph) / (r * r)

    period = params.period
    return FlowField(
        frame="polar",
        params=params,
        value_fn=value_fn,
        window=_contact_window(params, lam_cap),
        label=f"collapse-contact-cubic(C=({C1:g},{C2:g},{C3:g}), {branch})",
        meta={
            "family": "collapse-contact-cubic",
            "lam_c": lam_c,
            "sample_box": {"t": (0.1 * period, 0.9 * period), "lam": (0.05 * lam_c, lam_cap)},
        },
    )


def collapse_scaling(phi0: float, eta0: float, params: FlowParameters) -> FlowField:
    """Self-similar spreading/collapse regime.

    U = r phi(t), V = -f r / 2, h = r^2 eta(t), with (phi, eta) read
    backwards from one :class:`~rswlab.reduction.IntegralTable` of t per
    monotone branch.  For phi0 > 0 the ring first spreads until the
    turning time, then collapses; eta grows without bound as t approaches
    the finite blow-up time T*.  Time derivatives come from the reduced
    ODEs themselves (:meth:`~rswlab.reduction.ImplicitCollapse.state_of_t`
    on a jet), so the jets are analytic given the tabulated values.
    """
    ic = collapse2_build(phi0, eta0, params)
    f, g = params.f, params.g
    t_hi = min(0.93 * ic.Tstar, ic.t_cap * 0.999)

    def value_fn(t, r, theta):
        ph, e = ic.state_of_t(t)
        return r * ph, -f * r / 2.0, r * r * e

    return FlowField(
        frame="polar",
        params=params,
        value_fn=value_fn,
        window=Window(t_lo=-1e-12, t_hi=t_hi),
        label=f"collapse-scaling(phi0={phi0:g}, eta0={eta0:g})",
        meta={
            "family": "collapse-scaling",
            "tabulation": ic,
            "sample_box": {"t": (0.0, 0.9 * ic.Tstar), "r": (0.05, 2.0)},
        },
    )


# ---------------------------------------------------------------------------
# Dispatcher and catalog
# ---------------------------------------------------------------------------


#: Each family's builder, called with ``params`` and its keywords, and the
#: keywords it takes with their defaults; :func:`make_family` reads it.
_FAMILIES: dict[str, tuple[Callable[..., FlowField], dict]] = {
    "rest": (rest_state, {"h0": 1.0, "frame": "polar"}),
    "constant-sw-image": (constant_sw_image, {"u0": 1.0, "v0": 0.5, "h0": 1.0}),
    "barochronous-sw": (barochronous_sw, {"h0": 1.0}),
    "stationary-rotsym": (stationary_rotsym, {"profile": "gauss:0.5", "h0": 1.0}),
    "pulsating-cylinder": (pulsating_cylinder, {"alpha": 2.0, "h0": 1.0}),
    "pulsating-drop": (pulsating_drop, {"alpha": 2.0}),
    "stationary-ring": (
        lambda params, c1, c2, c3, branch: stationary_ring(c1, c2, c3, params, branch),
        {"c1": 1.0, "c2": 1.0, "c3": 1.0, "branch": "lower"}),
    "collapse-contact": (collapse_contact, {"psi": "sine:1", "lam0": 1.0, "eta0": 1.0}),
    "collapse-contact-cubic": (
        lambda params, c1, c2, c3, branch: collapse_contact_cubic(c1, c2, c3, params, branch),
        {"c1": 1.0, "c2": 1.0, "c3": 1.0, "branch": "lower"}),
    "collapse-scaling": (collapse_scaling, {"phi0": 0.0, "eta0": 1.0}),
}

FAMILY_NAMES = tuple(_FAMILIES)


def family_keywords(name: str) -> frozenset[str]:
    """The keywords :func:`make_family` passes on to family ``name``."""
    return frozenset(_FAMILIES[canonical_family_name(name)][1])


def make_family(name: str, params: FlowParameters, **kw) -> FlowField:
    """Build a family by (kebab-case) name with keyword parameters.

    A keyword the family does not take is ignored, and one given as None
    takes its default; a float that is not finite is :class:`InvalidParams`.
    ``profile`` and ``psi`` take a profile or its spec string, as
    :func:`parse_profile` and :func:`parse_swirl` read it.
    """
    build, defaults = _FAMILIES[canonical_family_name(name)]
    args = {k: v if kw.get(k) is None else kw[k] for k, v in defaults.items()}
    _check_finite(**{k: v for k, v in args.items() if isinstance(v, float)})
    for key, parse in (("profile", parse_profile), ("psi", parse_swirl)):
        if isinstance(args.get(key), str):
            args[key] = parse(args[key])
    return build(params=params, **args)


def default_catalog() -> dict[str, FlowField]:
    """One field per family at the defaults of :func:`make_family`.

    Every family uses f = g = 1, except the stationary ring, which uses
    f = 0.1, g = 1.
    """
    p11, ring_params = FlowParameters(1.0, 1.0), FlowParameters(0.1, 1.0)
    return {
        name: make_family(name, ring_params if name == "stationary-ring" else p11)
        for name in _FAMILIES
    }


# ---------------------------------------------------------------------------
# Trajectory formulas and closure
# ---------------------------------------------------------------------------


def trajectory_formula(
    field_: FlowField, r0: float, theta0: float
) -> TrajectoryFormula:
    """``field_.meta["path"](r0, theta0)``, the closed-form trajectory through (r0, theta0).

    A family stores its ``path``, a transport composes its source's and a
    Cartesian view keeps it.  A start that is not finite with r0 >= 0 raises
    :class:`InvalidParams`; a field without a path, such as an equivalence
    image, :class:`UnsupportedFamily`.
    """
    _check_finite(r0=r0, theta0=theta0)
    _check_radius(r0)
    path = field_.meta.get("path")
    if path is None:
        raise UnsupportedFamily(
            f"no closed-form trajectories for {field_.label!r}: a family with a closed form, "
            "a transport or a Cartesian view of one has them; an equivalence image has none"
        )
    return path(r0, theta0)


@dataclass(frozen=True)
class ClosureResult:
    """Whether a drop particle path closes, and after how many periods."""

    closed: bool
    m: int | None
    M: int | None
    winding_ratio: float


def closure_condition(alpha: float, r0: float, params: FlowParameters) -> ClosureResult:
    """Classify a drop particle path as closed or quasi-closed.

    Per inertial period the path angle advances by 2 pi C / f with
    C = l r0 sqrt(alpha); the path closes after M periods when the winding
    ratio |C|/f equals m/M in lowest terms, to within 1e-9 for some
    M <= 1000.  Particles on the boundary circle have ratio one and close
    every period; interior ratios are generically irrational and the path
    only quasi-closes.
    """
    check_dilation(alpha)
    l = _drop_coefficients(alpha, params)[0]
    boundary = -params.f / (l * math.sqrt(alpha))
    if not 0.0 < r0 <= boundary * (1.0 + 1e-12):
        raise InvalidParams(
            f"r0={r0!r} must be positive and inside the drop (boundary radius {boundary!r})"
        )
    ratio = abs(l) * r0 * math.sqrt(alpha) / params.f
    for M in range(1, 1001):
        m = round(ratio * M)
        if m >= 1 and abs(ratio - m / M) <= 1e-9:
            frac = Fraction(m, M)
            return ClosureResult(True, frac.numerator, frac.denominator, ratio)
    return ClosureResult(False, None, None, ratio)
