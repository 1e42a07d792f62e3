"""Numerical machinery behind the rotationally symmetric submodels.

Contents:

* a real-root cubic solver (trigonometric method for the three-root case,
  Cardano otherwise, one Newton polish per root) used by the stationary
  ring and by the contact-characteristic family with constant swirl;
* the ring-bound finder: the radii where the depth cubic acquires a double
  root, bracketing the interval on which the two branches of the stationary
  ring exist;
* central-difference residuals of the contact-characteristic submodel ODEs;
* the implicit solution of the self-similar collapse submodel: a tabulated
  monotone map t(eta) built by quadrature with a square-root substitution
  removing the integrable endpoint singularity, its inverse, the blow-up
  time, and an independent cross-check of the reduced ODEs integrated by
  the package's Dormand-Prince 5(4) integrator (:func:`verify.integrate_ode`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import FlowParameters
from .errors import InvalidParams, NoRingExists, QuadratureFail
from .verify import integrate_ode

# ---------------------------------------------------------------------------
# Cubic solving
# ---------------------------------------------------------------------------


def _cubic_value(b: float, c: float, d: float, x: float) -> float:
    return ((x + b) * x + c) * x + d


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


def solve_cubic_real(b: float, c: float, d: float) -> list[float]:
    """All real roots of x^3 + b x^2 + c x + d, ascending.

    Three-real-root configurations go through the trigonometric form, which
    stays stable near double roots; the single-root configuration uses
    Cardano.  Each root gets one Newton polish.
    """
    for name, value in (("b", b), ("c", c), ("d", d)):
        if not math.isfinite(value):
            raise InvalidParams(f"cubic coefficient {name} must be finite")
    # depressed form: x = y - b/3, y^3 + p y + q = 0
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b ** 3 / 27.0
    shift = -b / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    disc_scale = (q / 2.0) ** 2 + (abs(p) / 3.0) ** 3
    if abs(disc) <= 1e-14 * disc_scale:
        disc = 0.0
    if p == 0.0 and q == 0.0:
        roots = [shift]
    elif disc > 0.0:
        s = math.sqrt(disc)
        u = math.copysign(abs(-q / 2.0 + s) ** (1.0 / 3.0), -q / 2.0 + s)
        w = math.copysign(abs(-q / 2.0 - s) ** (1.0 / 3.0), -q / 2.0 - s)
        roots = [u + w + shift]
    elif disc == 0.0:
        r = math.copysign(abs(q / 2.0) ** (1.0 / 3.0), q / 2.0)
        roots = sorted({-2.0 * r + shift, r + shift})
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        angle = math.acos(arg) / 3.0
        roots = sorted(
            m * math.cos(angle - 2.0 * math.pi * k / 3.0) + shift for k in range(3)
        )
    return sorted(_newton_polish_cubic(b, c, d, x) for x in roots)


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
    then bisection refines each bracket to relative 1e-12.
    """
    f, g = params.f, params.g
    if C3 == 0.0:
        raise InvalidParams("ring requires C3 != 0")
    if not C1 > f * abs(C2) / 2.0:
        raise NoRingExists(
            f"C1={C1!r} must exceed f |C2| / 2 = {f * abs(C2) / 2.0!r}"
        )

    def G(r: float) -> float:
        return double_root_indicator(*depth_cubic_coeffs(r, C1, C2, C3, params))

    r = 0.01 * math.sqrt(2.0 * abs(C2) / f) if C2 != 0.0 else 1e-3 * math.sqrt(g) / f
    r_stop = 100.0 * math.sqrt(8.0 * g * C1) / f
    scan: list[tuple[float, float]] = [(r, G(r))]
    while r < r_stop:
        r *= 1.1
        scan.append((r, G(r)))
    flips = [
        (scan[i][0], scan[i + 1][0])
        for i in range(len(scan) - 1)
        if scan[i][1] * scan[i + 1][1] < 0.0
    ]
    if len(flips) < 2:
        raise NoRingExists(
            f"indicator G(r) never becomes negative for C=({C1!r}, {C2!r}, {C3!r})"
        )

    def bisect(lo: float, hi: float) -> float:
        glo = G(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gm = G(mid)
            if gm == 0.0:
                return mid
            if glo * gm < 0.0:
                hi = mid
            else:
                lo, glo = mid, gm
            if hi - lo <= 1e-12 * max(1.0, lo):
                break
        return 0.5 * (lo + hi)

    r_in = bisect(*flips[0])
    r_out = bisect(*flips[-1])
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
    step: float = 1e-5,
) -> np.ndarray:
    """Max-norm residuals of the contact-characteristic ODE system.

    The system for the invariant unknowns (phi, psi, eta) of the similarity
    variable lam reads

        (lam (phi^2 + 2 g eta))' + psi^2 = 0,
        lam phi psi' = 0,
        (lam phi eta)' = 0,

    with primes in lam.  Derivatives are taken by central differences with
    relative step ``step``.
    """
    g = params.g
    worst = np.zeros(3)

    def ddl(fn, lam):
        d = step * max(1.0, abs(lam))
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


def _gl_integrate(fn, a: float, b: float) -> float:
    """24-point Gauss-Legendre quadrature of a smooth integrand on [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return float(half * np.dot(_GL_WEIGHTS, fn(mid + half * _GL_NODES)))


@dataclass
class _Branch:
    """One monotone piece of t(eta), parametrized by s = sqrt(eta - eta_z)."""

    sign: float                 # sign of phi on this piece
    s_nodes: np.ndarray         # ascending in t
    t_nodes: np.ndarray         # ascending, same length


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

    The map t(eta) is tabulated by Gauss-Legendre panels in the variable
    s = sqrt(eta - eta_z), which removes the integrable singularity at the
    radicand zero, and inverted by safeguarded Newton iteration.
    """

    def __init__(
        self,
        phi0: float,
        eta0: float,
        params: FlowParameters,
        eta_cap: float | None = None,
        refine: int = 1,
    ) -> None:
        if not eta0 > 0.0:
            raise InvalidParams(f"eta0 must be positive, got {eta0}")
        if refine < 1:
            raise InvalidParams("refine must be >= 1")
        self.phi0 = float(phi0)
        self.eta0 = float(eta0)
        self.params = params
        self.refine = int(refine)
        f, g = params.f, params.g
        self.K = phi0 * phi0 - 2.0 * g * eta0 + f * f / 4.0
        # The radicand is quadratic in m = sqrt(eta) with one positive and
        # one negative root; keeping both factors lets it be evaluated
        # without cancellation arbitrarily close to its zero.
        kk = self.K / math.sqrt(eta0)
        disc = math.sqrt(kk * kk + 2.0 * g * f * f)
        self._m_plus = (-kk + disc) / (4.0 * g)
        self._m_minus = (-kk - disc) / (4.0 * g)
        self.eta_z = self._m_plus ** 2
        self.eta_cap = eta_cap if eta_cap is not None else 2e4 * max(1.0, eta0)
        if self.eta_cap <= max(eta0, self.eta_z) * 4.0:
            raise InvalidParams("eta_cap too small for a useful tabulation")

        self.eta1: float | None = None
        self.t1: float | None = None
        self.branches: list[_Branch] = []
        self._build()

    # -- construction ----------------------------------------------------

    def radicand(self, eta):
        f, g = self.params.f, self.params.g
        return 2.0 * g * eta - f * f / 4.0 + self.K * np.sqrt(eta / self.eta0)

    def phi_hat(self, eta, sign: float):
        rad = np.maximum(self.radicand(eta), 0.0)
        return sign * np.sqrt(rad)

    def _dt_ds(self, s, sign: float):
        """dt/ds along a branch, parametrized by s = sqrt(eta - eta_z).

        sqrt(radicand) = s * sqrt(factor) with the factored quadratic, so
        the integrand is smooth through s = 0 with no explicit division by
        the vanishing root.
        """
        g = self.params.g
        nu = self.eta_z + s * s
        m = np.hypot(self._m_plus, s)  # sqrt(eta_z + s^2), stable
        factor = 2.0 * g * (m - self._m_minus) / (m + self._m_plus)
        return -sign / (2.0 * nu * np.sqrt(factor))

    def _tabulate(self, sign: float, s_from: float, s_to: float, t_start: float) -> _Branch:
        n_seg = 400 * self.refine
        u = np.linspace(0.0, 1.0, n_seg + 1)
        s_min, s_max = min(s_from, s_to), max(s_from, s_to)
        ascending = s_min + (s_max - s_min) * u * u
        grid = ascending if s_from <= s_to else ascending[::-1].copy()
        fn = lambda s: self._dt_ds(s, sign)
        increments = [
            _gl_integrate(fn, grid[i], grid[i + 1]) for i in range(len(grid) - 1)
        ]
        t_nodes = t_start + np.concatenate([[0.0], np.cumsum(increments)])
        if np.any(np.diff(t_nodes) <= 0.0):
            raise QuadratureFail("tabulated time map is not strictly increasing")
        return _Branch(sign=sign, s_nodes=grid, t_nodes=t_nodes)

    def _build(self) -> None:
        s_cap = math.sqrt(self.eta_cap - self.eta_z)
        if self.phi0 > 0.0:
            self.eta1 = self.eta_z
            s0 = math.sqrt(max(self.eta0 - self.eta_z, 0.0))
            # spreading: eta runs from eta0 down to eta1, i.e. s down to 0;
            # reverse the s direction so that t ascends along the nodes.
            down = self._tabulate(+1.0, s0, 0.0, 0.0)
            self.t1 = float(down.t_nodes[-1])
            self.branches.append(down)
            self.branches.append(self._tabulate(-1.0, 0.0, s_cap, self.t1))
        else:
            s0 = math.sqrt(max(self.eta0 - self.eta_z, 0.0))
            self.branches.append(self._tabulate(-1.0, s0, s_cap, 0.0))
        tail_branch = self.branches[-1]
        self.t_cap = float(tail_branch.t_nodes[-1])
        self.Tstar = self.t_cap + self._tail_time()

    def _tail_time(self) -> float:
        """Remaining time from eta_cap to infinity via the 1/eta substitution."""
        g = self.params.g

        def integrand(sig):
            nu = 1.0 / (sig * sig)
            root = np.sqrt(np.maximum(self.radicand(nu), 0.0))
            return 1.0 / (2.0 * sig * root)

        sig_cap = 1.0 / math.sqrt(self.eta_cap)
        n_seg = 40 * self.refine
        # integrand -> 1 / (2 sqrt(2 g)) smoothly as sig -> 0
        grid = sig_cap * np.linspace(0.0, 1.0, n_seg + 1) ** 2

        def safe(sig):
            sig = np.asarray(sig, dtype=float)
            out = np.where(
                sig > 0.0, integrand(np.where(sig > 0.0, sig, 1.0)), 1.0 / (2.0 * math.sqrt(2.0 * g))
            )
            return out

        return float(
            sum(_gl_integrate(safe, grid[i], grid[i + 1]) for i in range(len(grid) - 1))
        )

    # -- evaluation ------------------------------------------------------

    def _branch_for_time(self, t: float) -> _Branch:
        if t < -1e-12 or t > self.t_cap * (1.0 + 1e-12):
            raise InvalidParams(
                f"t={t!r} outside tabulated range [0, {self.t_cap!r}]"
            )
        if self.t1 is not None and t <= self.t1:
            return self.branches[0]
        return self.branches[-1]

    def eta_of_t(self, t: float) -> float:
        """Invert the tabulated map by bracketed Newton iteration in s.

        Within the bracketing tabulation segment, T(s) = t_lo + integral of
        dt/ds from the segment start; the derivative is analytic, so Newton
        converges in a few steps, with bisection as the safeguard.
        """
        t = float(t)
        br = self._branch_for_time(t)
        tn, sn = br.t_nodes, br.s_nodes
        i = int(np.clip(np.searchsorted(tn, t) - 1, 0, len(tn) - 2))
        lo_s, hi_s = float(sn[i]), float(sn[i + 1])
        lo_t = float(tn[i])
        fn = lambda s: self._dt_ds(s, br.sign)
        # traversal-ordered bracket: F(lo_b) <= 0 <= F(hi_b)
        lo_b, hi_b = lo_s, hi_s
        span = float(tn[i + 1]) - lo_t
        frac = 0.0 if span == 0.0 else (t - lo_t) / span
        s = lo_s + (hi_s - lo_s) * frac
        for _ in range(80):
            F = lo_t + _gl_integrate(fn, lo_s, s) - t
            if abs(F) <= 1e-13 * max(1.0, abs(t)):
                break
            if F > 0.0:
                hi_b = s
            else:
                lo_b = s
            dF = float(self._dt_ds(np.asarray(s, dtype=float), br.sign))
            s_new = s - F / dF if dF != 0.0 else 0.5 * (lo_b + hi_b)
            s_min, s_max = min(lo_b, hi_b), max(lo_b, hi_b)
            if not s_min <= s_new <= s_max:
                s_new = 0.5 * (lo_b + hi_b)
            if abs(s_new - s) <= 1e-16 * max(1.0, abs(s)):
                s = s_new
                break
            s = s_new
        return self.eta_z + s * s

    def phi_of_t(self, t: float) -> float:
        br = self._branch_for_time(float(t))
        return float(self.phi_hat(self.eta_of_t(t), br.sign))

    def state_of_t(self, t: float) -> tuple[float, float]:
        """(phi, eta) at time t."""
        br = self._branch_for_time(float(t))
        eta = self.eta_of_t(t)
        return float(self.phi_hat(eta, br.sign)), eta

    def piston_radius(self, t: float, r0: float) -> float:
        """Material boundary radius r0 (eta0/eta)^{1/4}; moves with the flow."""
        return r0 * (self.eta0 / self.eta_of_t(t)) ** 0.25


def collapse2_build(
    phi0: float,
    eta0: float,
    params: FlowParameters,
    eta_cap: float | None = None,
    refine: int = 1,
) -> ImplicitCollapse:
    """Tabulate the implicit collapse solution; see :class:`ImplicitCollapse`."""
    return ImplicitCollapse(phi0, eta0, params, eta_cap=eta_cap, refine=refine)


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
    n_samples: int = 200,
    tol: float = 1e-11,
) -> CollapseOdeReport:
    """Integrate the reduced ODEs directly and compare with the tabulation.

    The full system

        phi' = (psi + f) psi - phi^2 - 2 g eta,
        psi' = -(2 psi + f) phi,
        eta' = -4 phi eta

    is integrated (in log eta for stability) from (phi0, -f/2, eta0) in one
    :func:`rswlab.verify.integrate_ode` call, the adaptive Dormand-Prince
    5(4) pair landing exactly on the ``n_samples`` comparison times; ``tol``
    bounds its local error per step, relative to max(1, |y|), not the
    accumulated error.  The swirl equation is fulfilled automatically, so
    psi staying at -f/2 is itself a check.  The piston law
    R(t) = R0 (eta0/eta)^{1/4} must satisfy R' = U(t, R) = phi R, which is
    checked by differencing the implicit tabulation.
    """
    params = params or ic.params
    f, g = params.f, params.g

    def rhs(t, y):
        phi, psi, logeta = y
        eta = math.exp(logeta)
        return np.array(
            [
                (psi + f) * psi - phi * phi - 2.0 * g * eta,
                -(2.0 * psi + f) * phi,
                -4.0 * phi,
            ]
        )

    t_end = t_end_fraction * ic.Tstar
    times = np.linspace(0.0, t_end, n_samples)
    y0 = np.array([ic.phi0, -f / 2.0, math.log(ic.eta0)])
    ts, ys, _ = integrate_ode(rhs, y0, 0.0, t_end, tol, record=times)
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
