"""Numerical machinery behind the rotationally symmetric submodels.

Contents:

* a real-root cubic solver (trigonometric method for the three-root case,
  Cardano otherwise, one Newton polish per root, a compensated evaluation
  deciding near-double roots), for floats and, bit for bit the same, for
  arrays; the stationary ring and the contact-characteristic family with
  constant swirl use it;
* cumulative integral tables: Gauss-Legendre panels read by quintic Hermite
  interpolation, and backwards when monotone, for the stationary rotsym depth,
  the contact family's psi^2 integral and the collapse's time map;
* one bisection of a bracketed sign change (:func:`bisect_bracket`) for
  every edge the package brackets: the ring bounds, the contact families';
* the ring-bound finder: the radii where the depth cubic acquires a double
  root, bracketing the interval on which the two branches of the stationary
  ring exist;
* central-difference residuals of the contact-characteristic submodel ODEs;
* the implicit solution of the self-similar collapse submodel: one integral
  table of t per monotone branch, in a square-root variable removing the
  integrable endpoint singularity, read backwards; the blow-up time; and a
  cross-check of the reduced ODEs integrated by the package's Dormand-Prince
  5(4) integrator (:func:`verify.integrate_ode`).
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import FD_STEP, FlowParameters, Jet, source_params
from .errors import InvalidParams, NoRingExists, QuadratureFail
from .verify import integrate_ode

# ---------------------------------------------------------------------------
# Cubic solving
# ---------------------------------------------------------------------------


#: Half-width of the band around a double root in which the number of real
#: roots is decided by a compensated evaluation, relative to the size of the
#: terms; the plain evaluation's rounding stays below a twentieth of it.
DOUBLE_ROOT_BAND = 1e-14

#: A complex pair counts as a double root when |F| at the critical point is
#: at most this fraction of the size of the terms: four units of rounding.
DOUBLE_ROOT_MERGE = 4.0 * 2.0 ** -52

#: Blocks with fewer cubics than this are solved one cubic at a time: the
#: array version's fixed cost is about that of this many scalar solves.
SMALL_BLOCK = 24

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_SIN_2PI_3 = math.sqrt(3.0) / 2.0


def _cubic_value(b, c, d, x):
    return ((x + b) * x + c) * x + d


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    ca, cb = _SPLIT * a, _SPLIT * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _cubic_value_compensated(b, c, d, x):
    """x^3 + b x^2 + c x + d by compensated Horner, as if in twice the precision.

    Error-free sums and products (Graillat, Langlois and Louvet, 2005);
    plain arithmetic only, so floats and arrays give the same bits.
    """
    s, err = _two_sum(x, b)
    for coef in (c, d):
        prod, e_prod = _two_prod(s, x)
        s, e_sum = _two_sum(prod, coef)
        err = err * x + (e_prod + e_sum)
    return s + err


def _newton_polish_cubic(b: float, c: float, d: float, x: float) -> float:
    """One Newton step, kept only if it does not increase |F|."""
    fx = _cubic_value(b, c, d, x)
    dfx = (3.0 * x + 2.0 * b) * x + c
    if dfx == 0.0:
        return x
    step = fx / dfx
    if not math.isfinite(step) or abs(step) > 1.0 + abs(x):
        return x
    candidate = x - step
    if abs(_cubic_value(b, c, d, candidate)) <= abs(fx):
        return candidate
    return x


def _newton_polish_cubic_array(b, c, d, x):
    fx = _cubic_value(b, c, d, x)
    dfx = (3.0 * x + 2.0 * b) * x + c
    step = fx / np.where(dfx == 0.0, 1.0, dfx)
    candidate = x - step
    keep = (dfx != 0.0) & np.isfinite(step) & (np.abs(step) <= 1.0 + np.abs(x))
    return np.where(keep & (np.abs(_cubic_value(b, c, d, candidate)) <= np.abs(fx)), candidate, x)


def _check_cubic_coefficients(b, c, d, isfinite=math.isfinite) -> None:
    for name, value in (("b", b), ("c", c), ("d", d)):
        if not isfinite(value):
            raise InvalidParams(f"cubic coefficient {name} must be finite")


def solve_cubic_real(b: float, c: float, d: float) -> list[float]:
    """All distinct real roots of x^3 + b x^2 + c x + d, ascending.

    The cubic is depressed about its inflection point s = -b/3, with
    q = F(s) and p = F'(s) evaluated directly (Kahan, "To solve a real
    cubic equation", 1986).  Three real roots exist when |q| < 2 m^3 with
    m = sqrt(-p/3), the extremum's depth.  Outside a band of relative
    width :data:`DOUBLE_ROOT_BAND` around |q| = 2 m^3 the trigonometric
    form gives the three roots and Cardano's form the single one, and each
    root gets one Newton polish.  Inside the band the far root comes from
    the trigonometric form, and the pair near the critical point
    x_c = s + sign(q) m is decided by the sign of F(x_c) in compensated
    arithmetic.  Real roots on both sides of x_c are returned as
    x_c -/+ sqrt(-2 F(x_c) / F''(x_c)), so both roots of a pair 2.6e-8
    apart come back.  A complex pair is dropped, unless |F(x_c)| is within
    :data:`DOUBLE_ROOT_MERGE` of the size of the terms: rounding the
    coefficients could then make it real, and it is reported as one double
    root x_c.  :func:`cubic_real_roots` is the same computation on arrays,
    bit for bit.
    """
    _check_cubic_coefficients(b, c, d)
    shift = -b / 3.0
    q = _cubic_value(b, c, d, shift)
    p = (3.0 * shift + 2.0 * b) * shift + c
    m0 = math.sqrt(-p / 3.0) if p < 0.0 else 0.0
    crit = abs(q) - 2.0 * (m0 * m0 * m0)
    ashift = abs(shift)
    size = (((ashift + abs(b)) * ashift + abs(c)) * ashift + abs(d)
            + m0 * ((3.0 * ashift + 2.0 * abs(b)) * ashift + abs(c)))
    band = m0 > 0.0 and abs(crit) <= DOUBLE_ROOT_BAND * size
    if m0 > 0.0 and not band and crit < 0.0:
        return [_newton_polish_cubic(b, c, d, x) for x in _trig_roots(p, q, m0, shift)]
    if not band:
        hq, p3 = 0.5 * q, p / 3.0
        disc = hq * hq + p3 * p3 * p3
        u = float(np.cbrt(-(hq + math.copysign(math.sqrt(max(disc, 0.0)), q))))
        w = -p / (3.0 * u) if u != 0.0 else 0.0
        return [_newton_polish_cubic(b, c, d, u + w + shift)]
    sq = 1.0 if q >= 0.0 else -1.0
    far = [_newton_polish_cubic(b, c, d, _trig_roots(p, q, m0, shift)[0 if sq > 0.0 else 2])]
    xc = shift + sq * m0
    fc = _cubic_value_compensated(b, c, d, xc)
    pair = -sq * fc / (3.0 * m0)
    if pair > 0.0:
        near = [xc - math.sqrt(pair), xc + math.sqrt(pair)]
    else:
        near = [xc] if abs(fc) <= DOUBLE_ROOT_MERGE * size else []
    return far + near if sq > 0.0 else near + far


def _trig_roots(p, q, m0, shift):
    """The trigonometric form's three roots, ascending (floats or arrays).

    With cos(a - 2 pi/3) = -cos(a)/2 + (sqrt(3)/2) sin(a), one arccos and
    one cos give all three.
    """
    m = 2.0 * m0
    den = p * m  # negative unless it underflows
    if isinstance(den, np.ndarray):
        arg = np.where(den != 0.0, np.minimum(1.0, np.maximum(-1.0, 3.0 * q / np.where(den != 0.0, den, 1.0))),
                       np.where(q != 0.0, -np.copysign(1.0, q), 0.0))
        cs = np.cos(np.arccos(arg) / 3.0)
        sn = np.sqrt(np.maximum(1.0 - cs * cs, 0.0))
    else:
        if den != 0.0:
            arg = min(1.0, max(-1.0, 3.0 * q / den))
        else:
            arg = -math.copysign(1.0, q) if q != 0.0 else 0.0
        cs = float(np.cos(float(np.arccos(arg)) / 3.0))
        sn = math.sqrt(max(1.0 - cs * cs, 0.0))
    half, rot = -0.5 * cs, _SIN_2PI_3 * sn
    return [m * (half - rot) + shift, m * (half + rot) + shift, m * cs + shift]


def cubic_real_roots(b, c, d) -> np.ndarray:
    """:func:`solve_cubic_real` on arrays: one call for a block of cubics.

    The coefficients broadcast together; the result has shape
    ``(3,) + shape``, each column the distinct real roots ascending and
    padded with NaN.  The branches of :func:`solve_cubic_real` are chosen
    per element with ``np.where``, and a branch no element takes is not
    computed.  The scalar version solves a block smaller than
    :data:`SMALL_BLOCK` cubic by cubic, and each cubic inside the
    near-double-root band wherever it occurs.  Both versions take
    ``arccos``, ``cos`` and ``cbrt`` from numpy, whose scalar and array
    results agree, so a column equals the scalar call bit for bit.
    """
    b, c, d = (np.asarray(v, dtype=float) for v in (b, c, d))
    _check_cubic_coefficients(b, c, d, lambda v: np.isfinite(v).all())
    shape = np.broadcast_shapes(b.shape, c.shape, d.shape)
    if math.prod(shape) < SMALL_BLOCK:  # fewer numpy calls than scalar solves
        roots, scalar = np.full((3,) + shape, np.nan), np.ones(shape, dtype=bool)
    else:
        with np.errstate(all="ignore"):
            shift = -b / 3.0
            q = _cubic_value(b, c, d, shift)
            p = (3.0 * shift + 2.0 * b) * shift + c
            m0 = np.sqrt(np.where(p < 0.0, -p / 3.0, 0.0))
            neg = m0 > 0.0
            crit = np.abs(q) - 2.0 * (m0 * m0 * m0)
            ashift = np.abs(shift)
            size = (((ashift + np.abs(b)) * ashift + np.abs(c)) * ashift + np.abs(d)
                    + m0 * ((3.0 * ashift + 2.0 * np.abs(b)) * ashift + np.abs(c)))
            band = np.broadcast_to(neg & (np.abs(crit) <= DOUBLE_ROOT_BAND * size), shape)
            three = np.broadcast_to(neg & ~band & (crit < 0.0), shape)

            trig = _trig_roots(p, q, m0, shift) if three.any() else [np.nan] * 3
            card = np.nan
            if not three.all():
                hq, p3 = 0.5 * q, p / 3.0
                disc = hq * hq + p3 * p3 * p3
                u = np.cbrt(-(hq + np.copysign(np.sqrt(np.maximum(disc, 0.0)), q)))
                w = np.where(u != 0.0, -p / (3.0 * np.where(u != 0.0, u, 1.0)), 0.0)
                card = u + w + shift
            first = np.where(three, trig[0], card)
            if three.any():
                roots = _newton_polish_cubic_array(
                    b, c, d, np.stack([first] + [np.where(three, trig[k], np.nan) for k in (1, 2)]))
            else:
                roots = np.full((3,) + shape, np.nan)
                roots[0] = _newton_polish_cubic_array(b, c, d, first)
        scalar = band  # a near-double root pair is decided cubic by cubic
    if scalar.any():  # the scalar version solves these cubics one by one
        # their rows past the first are NaN, and every cubic has a real root
        flat = roots.reshape(3, -1)  # a view: roots is contiguous
        cubics = zip(*(np.broadcast_to(v, shape)[scalar].tolist() for v in (b, c, d)))
        for k, cubic in zip(np.flatnonzero(scalar).tolist(), cubics):
            found = solve_cubic_real(*cubic)
            flat[: len(found), k] = found
    return roots


def depth_cubic_coeffs(
    r: float, C1: float, C2: float, C3: float, params: FlowParameters
) -> tuple[float, float]:
    """Coefficients (phi1, phi2) of the ring depth cubic h^3 + phi1 h^2 + phi2.

    phi1 = (f^2 r^2 / 8 + C2^2 / (2 r^2) - C1) / g,  phi2 = C3^2 / (2 g r^2).
    """
    f, g = params.f, params.g
    phi1 = (f * f * r * r / 8.0 + C2 * C2 / (2.0 * r * r) - C1) / g
    phi2 = C3 * C3 / (2.0 * g * r * r)
    return phi1, phi2


def cubic_roots(phi1: float, phi2: float) -> list[float]:
    """Real roots of h^3 + phi1 h^2 + phi2 = 0, ascending.

    The number of real roots follows the sign of G = (4/27) phi1^3 + phi2,
    the value of the cubic at its interior critical point: for phi2 > 0,
    G < 0 gives three real roots (two of them positive) and G > 0 one.
    """
    return solve_cubic_real(phi1, 0.0, phi2)


def double_root_indicator(phi1: float, phi2: float) -> float:
    """G = (4/27) phi1^3 + phi2; zero exactly at double-root configurations."""
    return (4.0 / 27.0) * phi1 ** 3 + phi2


def bisect_bracket(
    holds: Callable[[float], bool], lo: float, hi: float, rtol: float
) -> tuple[float, float]:
    """Halve [lo, hi], where ``holds`` is true at lo and false at hi.

    Each halving keeps ``holds`` true at the new lo and false at the new hi;
    it stops once hi - lo <= rtol max(1, lo), or after 200 halvings, and
    returns the last bracket.
    """
    for _ in range(200):
        if hi - lo <= rtol * max(1.0, lo):
            break
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass(frozen=True)
class RingBounds:
    """Radial interval on which the stationary ring branches exist.

    At both endpoints the depth cubic has a double root h_c = -(2/3) phi1,
    the depth profile h(r) stays finite while its derivative is unbounded,
    and the flow is exactly sonic (U^2 = g h).
    """

    r_inner: float
    r_outer: float
    h_inner: float
    h_outer: float


def ring_bounds(
    C1: float, C2: float, C3: float, params: FlowParameters
) -> RingBounds:
    """Find the two radii where the double-root indicator G(r) vanishes.

    A geometric scan brackets the sign changes of G (the minimum of phi1
    sits at r^2 = 2 |C2| / f, and the outer zero of phi1 bounds the ring),
    then :func:`bisect_bracket` refines each bracket to relative 1e-12.
    Both steps compare the signs of G, never multiply its values, so the
    bounds do not depend on G's scale: under (f, C1, C2, C3) -> (e f,
    e^2 C1, e C2, e^3 C3) G scales by e^6 while the radii stay put.  The
    scan starts at 0.01 sqrt(2 |C2| / f), or at 1e-3 sqrt(g C1) / f when
    C2 = 0; both are unchanged by that scaling, so the scan visits the same
    radii at every e.  A scan
    point whose G fails in arithmetic or is not finite raises
    :class:`InvalidParams`: its sign there means nothing.
    """
    f, g = params.f, params.g
    if C3 == 0.0:
        raise InvalidParams("ring requires C3 != 0")
    if not C1 > f * abs(C2) / 2.0:
        raise NoRingExists(
            f"C1={C1!r} must exceed f |C2| / 2 = {f * abs(C2) / 2.0!r}"
        )

    def G(r: float) -> float:
        try:
            value = double_root_indicator(*depth_cubic_coeffs(r, C1, C2, C3, params))
        except ArithmeticError:
            value = math.nan
        if not math.isfinite(value):
            raise InvalidParams(
                f"C=({C1!r}, {C2!r}, {C3!r}) leave the double-root indicator "
                f"without a finite value at r={r!r}"
            )
        return value

    r = 0.01 * math.sqrt(2.0 * abs(C2) / f) if C2 != 0.0 else 1e-3 * math.sqrt(g * C1) / f
    r_stop = 100.0 * math.sqrt(8.0 * g * C1) / f
    scan: list[tuple[float, bool]] = [(r, G(r) < 0.0)]
    while r < r_stop:
        r *= 1.1
        scan.append((r, G(r) < 0.0))
    flips = [(lo, hi, below) for (lo, below), (hi, after) in zip(scan, scan[1:]) if below != after]
    if len(flips) < 2:
        raise NoRingExists(
            f"indicator G(r) never becomes negative for C=({C1!r}, {C2!r}, {C3!r})"
        )

    def edge(lo: float, hi: float, below: bool) -> float:
        lo, hi = bisect_bracket(lambda r: (G(r) < 0.0) == below, lo, hi, 1e-12)
        return 0.5 * (lo + hi)

    r_in, r_out = edge(*flips[0]), edge(*flips[-1])
    h_in = -2.0 / 3.0 * depth_cubic_coeffs(r_in, C1, C2, C3, params)[0]
    h_out = -2.0 / 3.0 * depth_cubic_coeffs(r_out, C1, C2, C3, params)[0]
    return RingBounds(r_inner=r_in, r_outer=r_out, h_inner=h_in, h_outer=h_out)


# ---------------------------------------------------------------------------
# Contact-characteristic submodel residuals
# ---------------------------------------------------------------------------


def submodel_residual_contact(
    phi: Callable[[float], float],
    psi: Callable[[float], float],
    eta: Callable[[float], float],
    lam_samples: Sequence[float],
    params: FlowParameters,
) -> np.ndarray:
    """Max-norm residuals of the contact-characteristic ODE system.

    The system for the invariant unknowns (phi, psi, eta) of the similarity
    variable lam reads

        (lam (phi^2 + 2 g eta))' + psi^2 = 0,
        lam phi psi' = 0,
        (lam phi eta)' = 0,

    with primes in lam.  Derivatives are taken by central differences with
    relative step :data:`~rswlab.core.FD_STEP`.
    """
    g = params.g
    worst = np.zeros(3)

    def ddl(fn, lam):
        d = FD_STEP * max(1.0, abs(lam))
        return (fn(lam + d) - fn(lam - d)) / (2.0 * d)

    for lam in lam_samples:
        r1 = ddl(lambda L: L * (phi(L) ** 2 + 2.0 * g * eta(L)), lam) + psi(lam) ** 2
        r2 = lam * phi(lam) * ddl(psi, lam)
        r3 = ddl(lambda L: L * phi(L) * eta(L), lam)
        worst = np.maximum(worst, np.abs([r1, r2, r3]))
    return worst


# ---------------------------------------------------------------------------
# Self-similar collapse, implicit solution
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _gl_partial_weights() -> np.ndarray:
    """Weights for the first quarter and the first half of a panel.

    They integrate the degree-23 interpolant of the 24 Gauss-Legendre
    values over [-1, -1/2] and [-1, 0]; by the rule's discrete
    orthogonality its Legendre coefficients are
    (2j + 1)/2 * sum_k w_k P_j(x_k) f_k.
    """
    leg = np.polynomial.legendre
    j = np.arange(24)
    to_coef = ((2 * j + 1) / 2.0)[:, None] * leg.legvander(_GL_NODES, 23).T * _GL_WEIGHTS
    antiderivatives = leg.legint(np.eye(24), lbnd=-1.0)
    return to_coef.T @ leg.legval(np.array([-0.5, 0.0]), antiderivatives)


#: Gauss-Legendre weights for a whole panel, its first quarter and its first half.
_GL_PANEL_WEIGHTS = np.column_stack([_GL_WEIGHTS, _gl_partial_weights()])


def _gl_panels(fn, grid: np.ndarray) -> np.ndarray:
    """24-point Gauss-Legendre integrals of ``fn`` over each panel of ``grid``, in one array call."""
    half = 0.5 * np.diff(grid)
    mid = 0.5 * (grid[:-1] + grid[1:])
    return half * (fn(mid[:, None] + half[:, None] * _GL_NODES) @ _GL_WEIGHTS)


def _quintic_coefficients(F0, delta, f, df, h):
    """Per panel, the quintic in s = (x - a) / h with value F0 + delta at
    s = 1 and slopes ``f`` and curvatures ``df`` (rows: both ends) in x."""
    d0, d1 = h * f[0], h * f[1]
    e0, e1 = h * h * df[0], h * h * df[1]
    A = delta - d0 - 0.5 * e0
    B = d1 - d0 - e0
    C = e1 - e0
    return np.stack([F0, d0, 0.5 * e0, 10.0 * A - 4.0 * B + 0.5 * C,
                     -15.0 * A + 7.0 * B - C, 6.0 * A - 3.0 * B + 0.5 * C], axis=-1)


#: A panel's six quintic coefficients as Python floats, from a view of ``coef`` at byte offset 48 i.
_QUINTIC = struct.Struct("6d").unpack_from


def _horner5(c, s):
    v = c[..., 5]
    for k in (4, 3, 2, 1, 0):
        v = c[..., k] + s * v
    return v


class IntegralTable:
    """F(x) = F(origin) + integral of ``fn`` from ``origin`` to x, tabulated once.

    Panel integrals come from the 24-point Gauss-Legendre rule and are
    summed outwards from ``origin``.  A point is read by quintic Hermite
    interpolation on its panel, from F, F' = ``fn`` and F'' = ``dfn`` at
    the panel's ends.  A panel is split until the interpolant agrees with
    Gauss-Legendre at a quarter and at the middle of the panel within
    :attr:`RTOL` of ``scale`` + |F|; ``scale`` is the size of what F is
    added to, so the tolerance follows the accuracy the caller can use.  The
    interpolation error falls as the sixth power of the width, which
    predicts how many pieces a panel needs.  No table has more than
    :attr:`MAX_PANELS` panels: a range that would need more raises
    :class:`InvalidParams`.  ``fn`` and ``dfn`` take arrays.

    A call with a float takes a ``bisect`` lookup and plain arithmetic on
    Python floats read from ``memoryview``s of the arrays; an array takes
    ``np.searchsorted`` and the same arithmetic, so both give the same bits.
    Outside the tabulated range the reading is NaN.  A
    :class:`~rswlab.core.Jet` reads its value so, with ``fn`` as the slope.
    The table is complete once built: a reading changes nothing in it.
    """

    MAX_PANELS = 1 << 15
    RTOL = 1e-14
    #: Newton steps of :meth:`invert`: five converge, more alternate by an ulp of u >= 0.5.
    NEWTON_STEPS = 8

    def __init__(self, fn, dfn, breaks, origin: float, value: float = 0.0,
                 scale: float = 0.0) -> None:
        self.fn, self.dfn = fn, dfn
        self.scale = abs(scale)
        self.nodes = np.zeros(1)
        self.coef = np.zeros((0, 6))
        self._width = math.inf  # of the panels that splitting produced last
        self._append(np.asarray(breaks, dtype=float), origin, value)

    def extend(self, end: float) -> None:
        """Tabulate on out to ``end``, continuing from the last node.

        The new range starts at the width that splitting needed last, so a
        continuation as smooth as the tabulated range is not split again.
        """
        last = float(self.nodes[-1])
        if end > last:
            n = int(min(max(math.ceil((end - last) / self._width), 8), 4096))
            self._append(np.linspace(last, end, n + 1), last, float(_horner5(self.coef[-1], 1.0)))

    @property
    def panels(self) -> int:
        return len(self.coef)

    def _panels(self, a: np.ndarray, h: np.ndarray):
        """Each panel's integral, its quintic with value 0 at the panel's
        start, and the quintic's interpolation error.

        The error is checked against the integrals over the panel's first
        quarter and first half, from the same 24 integrand values.
        """
        half = 0.5 * h
        nodes = (a + half)[:, None] + half[:, None] * _GL_NODES
        q = half * (np.broadcast_to(self.fn(nodes), nodes.shape) @ _GL_PANEL_WEIGHTS).T
        ends = np.stack([a, a + h])
        f = np.broadcast_to(self.fn(ends), ends.shape)
        df = np.broadcast_to(self.dfn(ends), ends.shape)
        shape = _quintic_coefficients(np.zeros_like(h), q[0], f, df, h)
        err = np.maximum(np.abs(_horner5(shape, 0.25) - q[1]), np.abs(_horner5(shape, 0.5) - q[2]))
        return q[0], shape, err

    def _append(self, x: np.ndarray, origin: float, value: float) -> None:
        with np.errstate(all="ignore"):
            while True:
                h = np.diff(x)
                inc, coef, err = self._panels(x[:-1], h)
                k = int(np.searchsorted(x, origin))
                F = np.concatenate([value - np.cumsum(inc[:k][::-1])[::-1], [value],
                                    value + np.cumsum(inc[k:])])
                tol = self.RTOL * (self.scale + np.maximum(np.abs(F[:-1]), np.abs(F[1:])))
                tol = np.maximum(tol, 4.0 * math.ulp(0.0))  # a subnormal range resolves no finer
                bad = err > tol
                if not bad.any():
                    break
                pieces = np.clip(np.ceil(1.5 * (err[bad] / tol[bad]) ** (1.0 / 6.0)), 2, 64)
                self._width = float((h[bad] / pieces).min())
                cuts = (pieces - 1).astype(int)
                if self.panels + len(h) + int(cuts.sum()) > self.MAX_PANELS:
                    raise InvalidParams(
                        f"integral table on [{float(x[0])!r}, {float(x[-1])!r}] needs more than "
                        f"{self.MAX_PANELS} panels"
                    )
                j = np.arange(1, int(cuts.sum()) + 1) - np.repeat(np.cumsum(cuts) - cuts, cuts)
                x = np.sort(np.concatenate([x, np.repeat(x[:-1][bad], cuts)
                                            + np.repeat(h[bad], cuts) * (j / np.repeat(pieces, cuts))]))
            coef[:, 0] = F[:-1]
        first = not self.coef.size
        self.nodes = x if first else np.concatenate([self.nodes, x[1:]])
        self.values = F if first else np.concatenate([self.values, F[1:]])
        self.widths = np.diff(self.nodes)
        self.coef = coef if first else np.concatenate([self.coef, coef])
        self.lo, self.hi = float(self.nodes[0]), float(self.nodes[-1])
        # float reads index these views, which copy nothing
        self._x0 = memoryview(self.nodes)[:-1]  # each panel's start
        self._h, self._c = memoryview(self.widths), memoryview(self.coef)
        # invert's keys: the values times their direction, ascending if monotone, and those
        # between the panels, on which bisect gives the panel (the end panels past the ends)
        self._direction = -1.0 if self.values[-1] < self.values[0] else 1.0
        self._keys = memoryview(-self.values if self._direction < 0.0 else self.values)
        self._cuts = self._keys[1:-1]

    def __call__(self, x):
        if isinstance(x, Jet):
            return x.chain(self(x.v), self.fn(x.v))
        if isinstance(x, np.ndarray):
            i = np.clip(np.searchsorted(self.nodes, x, side="right") - 1, 0, len(self.coef) - 1)
            v = _horner5(self.coef[i], (x - self.nodes[i]) / self.widths[i])
            return np.where((x >= self.lo) & (x <= self.hi), v, np.nan)
        if not self.lo <= x <= self.hi:
            return math.nan
        i = bisect.bisect_right(self._x0, x) - 1
        c0, c1, c2, c3, c4, c5 = _QUINTIC(self._c, 48 * i)
        s = (x - self._x0[i]) / self._h[i]
        return c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5))))

    def invert(self, y: float) -> float:
        """The float x where a strictly monotone table reads ``y``: the panel
        by ``bisect`` over the node values, then Newton on its quintic from
        the linear guess until a step in the panel variable is below 1e-16."""
        key = self._direction * y
        i = bisect.bisect_right(self._cuts, key)
        c0, c1, c2, c3, c4, c5 = _QUINTIC(self._c, 48 * i)
        k0 = self._keys[i]
        u = (key - k0) / (self._keys[i + 1] - k0)
        d = c0 - y
        for _ in range(self.NEWTON_STEPS):
            step = (d + u * (c1 + u * (c2 + u * (c3 + u * (c4 + u * c5))))) / (
                c1 + u * (2.0 * c2 + u * (3.0 * c3 + u * (4.0 * c4 + u * 5.0 * c5))))
            u -= step
            if abs(step) < 1e-16:
                break
        return self._x0[i] + u * self._h[i]


class ImplicitCollapse:
    """Implicit solution of the self-similar collapse with fixed swirl.

    With the circular-velocity unknown frozen at -f/2 the reduced system
    integrates to

        phi = phi_hat(eta) = +/- sqrt(2 g eta - f^2/4 + K sqrt(eta/eta0)),
        t(eta) = -(1/4) * integral_{eta0}^{eta} dnu / (nu phi_hat(nu)),

    with K = phi0^2 - 2 g eta0 + f^2/4.  The radicand has exactly one
    positive zero eta_z; when phi0 > 0 the plus sign applies until the
    radicand vanishes at eta1 = eta_z < eta0 (partial spreading), after
    which the sign switches and eta grows without bound (collapse).  The
    blow-up time T* is finite because the tail integral converges.

    Each monotone branch of t is one :class:`IntegralTable` in the variable
    s = sqrt(eta - eta_z), which removes the integrable singularity at the
    radicand zero, with the analytic d^2t/ds^2 as its curvature.  A time is
    read backwards on the branch's quintic (:meth:`IntegralTable.invert`).
    A time within rounding of the range is read at its end, so no table is
    read past its ends; nothing is stored by a reading.
    """

    def __init__(self, phi0: float, eta0: float, params: FlowParameters) -> None:
        if not (math.isfinite(phi0) and math.isfinite(eta0)):
            raise InvalidParams(f"phi0 and eta0 must be finite, got {phi0!r}, {eta0!r}")
        if not eta0 > 0.0:
            raise InvalidParams(f"eta0 must be positive, got {eta0}")
        self.phi0 = float(phi0)
        self.eta0 = float(eta0)
        self.params = params
        f, g = params.f, params.g
        self.K = phi0 * phi0 - 2.0 * g * eta0 + f * f / 4.0
        # The radicand is quadratic in m = sqrt(eta) with one positive and
        # one negative root; keeping both factors lets it be evaluated
        # without cancellation arbitrarily close to its zero.
        kk = self.K / math.sqrt(eta0)
        disc = math.sqrt(kk * kk + 2.0 * g * f * f)
        if kk > 0.0:  # -kk + disc cancels; the roots' product is -f^2 / (8 g)
            self._m_plus = f * f / (2.0 * (kk + disc))
        else:
            self._m_plus = (-kk + disc) / (4.0 * g)
        self._m_minus = (-kk - disc) / (4.0 * g)
        self.eta_z = self._m_plus ** 2
        if not (math.isfinite(self.eta_z) and self.eta_z > 0.0):  # dt/ds is infinite at eta_z = 0
            raise InvalidParams(f"collapse parameters put the radicand zero at eta_z = {self.eta_z!r}")
        # eta_z <= eta0 up to rounding (the radicand is phi0^2 >= 0 at eta0),
        # so the cap lies at least 2e4 times above both
        self.eta_cap = 2e4 * max(1.0, eta0)

        self.eta1: float | None = None
        self.t1: float | None = None
        #: (sign of phi, table of t over s) per branch, in the order time runs through them
        self.branches: list[tuple[float, IntegralTable]] = []
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                self._build()
        except FloatingPointError as exc:
            raise InvalidParams(f"collapse parameters overflow the tabulation: {exc}") from exc

    # -- construction ----------------------------------------------------

    def radicand(self, eta):
        """2 g eta - f^2/4 + K sqrt(eta/eta0), for a float or an array; math.sqrt
        and np.sqrt are both correctly rounded, so the two give the same bits."""
        f, g = self.params.f, self.params.g
        sqrt = np.sqrt if isinstance(eta, np.ndarray) else math.sqrt
        return 2.0 * g * eta - f * f / 4.0 + self.K * sqrt(eta / self.eta0)

    def phi_hat(self, eta: float, sign: float) -> float:
        return sign * math.sqrt(max(self.radicand(eta), 0.0))

    def _rates(self, sign: float):
        """dt/ds = -sign / (2 eta sqrt(F)) and d^2t/ds^2 = (dt/ds)(-2s/eta - F'/(2F)) on a
        branch, s = sqrt(eta - eta_z): radicand = s^2 F, F = 2 g (m - m_-) / (m + m_+) with
        m = sqrt(eta) and m_- < 0 < m_+, so no factor cancels and dt/ds is smooth at s = 0.
        The functions hold floats, not the collapse, so its tables form no reference cycle.
        """
        eta_z, mp, mm = self.eta_z, self._m_plus, self._m_minus
        c = -0.5 * sign / math.sqrt(2.0 * self.params.g)

        def dt_ds(s):
            nu = s * s
            nu += eta_z
            m = np.sqrt(nu)
            out = m + mp
            out /= m - mm
            np.sqrt(out, out=out)
            out /= nu
            out *= c
            return out

        def d2t_ds2(s):
            nu = eta_z + s * s
            m = np.sqrt(nu)
            return -s * dt_ds(s) * (2.0 / nu + (mp + mm) / (2.0 * m * (m + mp) * (m - mm)))

        return dt_ds, d2t_ds2

    def _table(self, sign: float, s_lo: float, s_hi: float, origin: float, value: float) -> IntegralTable:
        """t over s in [s_lo, s_hi], ``value`` at ``origin``, from 32 panels geometric in
        s + m_+ (their Gauss-Legendre sum is its scale); a map flat in floats is refused."""
        fn, dfn = self._rates(sign)
        a = s_lo + self._m_plus
        breaks = s_lo + a * np.expm1(np.linspace(0.0, math.log1p((s_hi - s_lo) / a), 33))
        breaks[-1] = s_hi
        span = float(_gl_panels(fn, breaks).sum())
        table = IntegralTable(fn, dfn, breaks, origin, value, span)
        steps = sign * np.diff(table.values)  # negative where time runs forward
        if not (steps <= 0.0).all():
            raise QuadratureFail("tabulated time map is not monotone")
        if not (steps < 0.0).all():
            raise InvalidParams(f"collapse parameters leave the time map flat in floating point "
                                f"at s={float(table.nodes[np.argmax(steps == 0.0)])!r}")
        return table

    def _build(self) -> None:
        s_cap = math.sqrt(self.eta_cap - self.eta_z)
        # radicand = s^2 F(m) with F as in _rates, and phi0^2 at eta0: s0 without cancellation
        m0 = math.sqrt(self.eta0)
        s0 = abs(self.phi0) / math.sqrt(2.0 * self.params.g * (m0 - self._m_minus) / (m0 + self._m_plus))
        if self.phi0 > 0.0:
            self.eta1 = self.eta_z
            # spreading: eta runs from eta0 down to eta1, so t falls as s grows
            down = self._table(+1.0, 0.0, s0, s0, 0.0)
            self.t1 = float(down.values[0])
            self.branches.append((+1.0, down))
            self.branches.append((-1.0, self._table(-1.0, 0.0, s_cap, 0.0, self.t1)))
        else:
            self.branches.append((-1.0, self._table(-1.0, s0, s_cap, s0, 0.0)))
        self.t_cap = float(self.branches[-1][1].values[-1])
        self.Tstar = self.t_cap + self._tail_time()

    def _tail_time(self) -> float:
        """Remaining time from eta_cap to infinity via the 1/eta substitution; the integrand
        tends to 1 / (2 sqrt(2 g)) as sig -> 0, which the 40 panels' interior nodes never reach."""

        def integrand(sig):
            nu = 1.0 / (sig * sig)
            root = np.sqrt(np.maximum(self.radicand(nu), 0.0))
            return 1.0 / (2.0 * sig * root)

        sig_cap = 1.0 / math.sqrt(self.eta_cap)
        grid = sig_cap * np.linspace(0.0, 1.0, 41) ** 2
        return float(sum(_gl_panels(integrand, grid).tolist()))

    # -- evaluation ------------------------------------------------------

    def _branch_for_time(self, t: float) -> tuple[float, IntegralTable]:
        if not -1e-12 <= t <= self.t_cap * (1.0 + 1e-12):
            raise InvalidParams(
                f"t={t!r} outside tabulated range [0, {self.t_cap!r}]"
            )
        if self.t1 is not None and t <= self.t1:
            return self.branches[0]
        return self.branches[-1]

    def eta_of_t(self, t: float) -> float:
        """eta_z + s^2, with s read backwards from t on its branch's table; a time
        inside the range check's slack is read at the nearer end of [0, t_cap]."""
        t = float(t)
        table = self._branch_for_time(t)[1]
        if not 0.0 <= t <= self.t_cap:
            t = min(max(t, 0.0), self.t_cap)
        s = table.invert(t)
        return self.eta_z + s * s

    def state_of_t(self, t: float) -> tuple[float, float]:
        """(phi, eta) at time t; a jet t gives jets, with the reduced ODEs'
        right-hand sides phi' = -f^2/4 - phi^2 - 2 g eta, eta' = -4 phi eta as slopes.

        eta comes from :meth:`eta_of_t`, which refuses a time outside the
        tabulated range, and phi = :meth:`phi_hat` with the branch's sign.
        Each call computes afresh; a repeated time gives the same bits.
        """
        if isinstance(t, Jet):
            phi, eta = self.state_of_t(t.v)
            f, g = self.params.f, self.params.g
            return t.chain(phi, -f * f / 4.0 - phi * phi - 2.0 * g * eta), t.chain(eta, -4.0 * phi * eta)
        t = float(t)
        eta = self.eta_of_t(t)
        spreading = self.t1 is not None and t <= self.t1  # as in the branch lookup of eta_of_t
        return self.phi_hat(eta, 1.0 if spreading else -1.0), eta

    def piston_radius(self, t: float, r0: float) -> float:
        """Material boundary radius r0 (eta0/eta)^{1/4}; moves with the flow."""
        return r0 * (self.eta0 / self.state_of_t(t)[1]) ** 0.25


def collapse2_build(phi0: float, eta0: float, params: FlowParameters) -> ImplicitCollapse:
    """Tabulate the implicit collapse solution; see :class:`ImplicitCollapse`."""
    return ImplicitCollapse(phi0, eta0, params)


# ---------------------------------------------------------------------------
# Independent ODE cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollapseOdeReport:
    """Agreement between the implicit tabulation and direct integration."""

    max_phi_error: float
    max_eta_error: float
    max_psi_drift: float
    max_piston_error: float
    t_end: float
    turning_time: float | None


def collapse2_verify_ode(
    ic: ImplicitCollapse,
    params: FlowParameters | None = None,
    t_end_fraction: float = 0.9,
) -> CollapseOdeReport:
    """Integrate the reduced ODEs directly and compare with the tabulation.

    The full system

        phi' = (psi + f) psi - phi^2 - 2 g eta,
        psi' = -(2 psi + f) phi,
        eta' = -4 phi eta

    is integrated (in log eta for stability) from (phi0, -f/2, eta0) in one
    :func:`rswlab.verify.integrate_ode` call, the adaptive Dormand-Prince
    5(4) pair landing exactly on 200 comparison times; its tolerance 1e-11
    bounds the local error per step, relative to max(1, |y|), not the
    accumulated error.  The swirl equation is fulfilled automatically, so
    psi staying at -f/2 is itself a check.  The piston law
    R(t) = R0 (eta0/eta)^{1/4} must satisfy R' = U(t, R) = phi R, which is
    checked by differencing the implicit tabulation.  ``params``, when
    given, must equal the tabulation's.
    """
    params = source_params(ic.params, params)
    f, g = params.f, params.g

    def rhs(t, y):
        phi, psi, logeta = y
        eta = math.exp(logeta)
        return (psi + f) * psi - phi * phi - 2.0 * g * eta, -(2.0 * psi + f) * phi, -4.0 * phi

    t_end = t_end_fraction * ic.Tstar
    times = np.linspace(0.0, t_end, 200)
    y0 = np.array([ic.phi0, -f / 2.0, math.log(ic.eta0)])
    ts, ys, _ = integrate_ode(rhs, y0, 0.0, t_end, 1e-11, record=times)
    max_phi = max_eta = max_psi = max_piston = 0.0
    turning = None
    prev_phi = ic.phi0
    for t, y in zip(ts[1:], ys[1:]):
        phi_rk, psi_rk, eta_rk = y[0], y[1], math.exp(y[2])
        phi_im, eta_im = ic.state_of_t(t)
        max_phi = max(max_phi, abs(phi_rk - phi_im))
        max_eta = max(max_eta, abs(eta_rk - eta_im))
        max_psi = max(max_psi, abs(psi_rk + f / 2.0))
        if turning is None and prev_phi > 0.0 >= phi_rk:
            turning = t
        prev_phi = phi_rk
        # piston boundary: compare dR/dt with phi * R by central differences
        dt = 1e-6 * max(1.0, t_end)
        if dt < t < t_end - dt:
            dR = (ic.piston_radius(t + dt, 1.0) - ic.piston_radius(t - dt, 1.0)) / (
                2.0 * dt
            )
            max_piston = max(
                max_piston, abs(dR - phi_im * ic.piston_radius(t, 1.0))
            )
    return CollapseOdeReport(
        max_phi_error=max_phi,
        max_eta_error=max_eta,
        max_psi_drift=max_psi,
        max_piston_error=max_piston,
        t_end=t_end,
        turning_time=turning,
    )
