import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rswlab.cli import main as cli_main
from rswlab.core import FlowParameters
from rswlab.errors import InvalidParams, NoRingExists
from rswlab.reduction import (
    bisect_bracket,
    collapse2_build,
    collapse2_verify_ode,
    cubic_real_roots,
    cubic_roots,
    depth_cubic_coeffs,
    double_root_indicator,
    ring_bounds,
    solve_cubic_real,
    submodel_residual_contact,
)

RING = FlowParameters(0.1, 1.0)
P = FlowParameters(1.0, 1.0)


def _seeded_cubics(n: int = 80):
    """Monic cubics (b, c, d): generic, near-double real roots, one real root."""
    rng = np.random.default_rng(2024)
    for _ in range(n):
        yield tuple(rng.uniform(-4.0, 4.0, 3))
    for _ in range(n):
        r1, r3 = rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0)
        r2 = r1 + 10.0 ** rng.uniform(-9.0, -1.0)
        yield -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
    for _ in range(n):
        r, re, im = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-9.0, 0.5)
        yield -(r + 2.0 * re), 2.0 * r * re + re * re + im * im, -r * (re * re + im * im)


class TestCubicRoots:
    def test_pure_cube(self):
        assert cubic_roots(0.0, -8.0) == pytest.approx([2.0])

    def test_ring_outside_radius_has_no_positive_root(self):
        # r = 1 with unit constants and f = 0.1 lies outside the annulus
        phi1, phi2 = depth_cubic_coeffs(1.0, 1.0, 1.0, 1.0, RING)
        assert phi1 == pytest.approx(-0.49875)
        assert phi2 == pytest.approx(0.5)
        G = double_root_indicator(phi1, phi2)
        assert G == pytest.approx(0.4816, abs=1e-4)
        roots = cubic_roots(phi1, phi2)
        assert all(r < 0 for r in roots)

    def test_roots_satisfy_polynomial(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            phi1 = rng.uniform(-3, 3)
            phi2 = rng.uniform(1e-6, 3.0)  # physical regime: positive constant term
            roots = cubic_roots(phi1, phi2)
            for r in roots:
                F = r ** 3 + phi1 * r ** 2 + phi2
                assert abs(F) < 1e-9 * max(1.0, abs(phi1) ** 3)
            G = double_root_indicator(phi1, phi2)
            if G < -1e-12:
                assert len(roots) == 3
            elif G > 1e-12:
                assert len(roots) == 1

    @given(b=st.floats(-4, 4), c=st.floats(-4, 4), d=st.floats(-4, 4))
    @settings(max_examples=120, deadline=None)
    def test_matches_numpy_roots(self, b, c, d):
        mine = solve_cubic_real(b, c, d)
        ref = sorted(r.real for r in np.roots([1.0, b, c, d]) if abs(r.imag) < 1e-9)
        assert len(mine) >= 1
        for x in mine:
            assert abs(((x + b) * x + c) * x + d) < 1e-8 * max(1.0, abs(x) ** 3)
        # every clearly-real reference root is matched by one of ours
        for x in ref:
            assert min(abs(x - m) for m in mine) < 1e-6 * max(1.0, abs(x))


class TestCubicMpmathOracle:
    """``solve_cubic_real`` against ``mpmath.polyroots`` at 50 digits.

    The reference roots are those of the cubic with exactly the given double
    coefficients.  Real roots, near-double pairs included, come back with
    the reference's count.  A complex pair within 1e-6 of the real axis may
    instead be reported as one double root at its real part, when it is
    within rounding of one.
    """

    def test_against_50_digit_roots(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for b, c, d in _seeded_cubics():
            coef = [mpmath.mpf(1), mpmath.mpf(b), mpmath.mpf(c), mpmath.mpf(d)]
            ref = mpmath.polyroots(coef, maxsteps=100, extraprec=100)
            mine = solve_cubic_real(b, c, d)
            assert mine == sorted(mine)
            for x in mine:  # backward error (measured at most 2.1e-13)
                size = abs(x) ** 3 + abs(b) * x * x + abs(c) * abs(x) + abs(d)
                assert abs(mpmath.polyval(coef, mpmath.mpf(x))) <= 1e-12 * size
            real = sorted(mpmath.re(z) for z in ref if abs(mpmath.im(z)) < mpmath.mpf(10) ** -40)
            gap = min(abs(ref[i] - ref[j]) for i in range(3) for j in range(i + 1, 3))
            if len(real) == 1 and gap < 1e-6:
                # the complex pair is dropped or merged at its real part (measured 6.6e-15)
                pair = [z for z in ref if abs(mpmath.im(z)) >= mpmath.mpf(10) ** -40]
                assert len(mine) in (1, 2)
                wanted = sorted(real + [mpmath.re(pair[0])] * (len(mine) - 1))
                for x, want in zip(mine, wanted):
                    assert abs(mpmath.mpf(x) - want) <= 1e-12 * max(1.0, abs(x))
                continue
            # same count, each root within 1e-13 / gap: measured 2.1e-8 at
            # gap 1e-6 and 2.2e-15 at gap 1 for separated roots, and at most
            # 6.2e-17 / gap for the near-double real pairs
            assert len(mine) == len(real)
            for x, want in zip(mine, real):
                tol = 1e-13 * max(1.0, abs(x)) / min(float(gap), 1.0)
                assert abs(mpmath.mpf(x) - want) <= tol


class TestCubicArrays:
    def test_pair_2_6e_8_apart_is_resolved(self):
        # both roots of the near-double pair come back, in order
        r1, r2, r3 = -0.97548598, -0.97548596, -0.67436749
        b, c, d = -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
        block = cubic_real_roots(np.full(40, b), c, d)  # above SMALL_BLOCK: the array version
        for roots in (solve_cubic_real(b, c, d), cubic_real_roots(b, c, d).tolist(), block[:, 39].tolist()):
            assert roots == pytest.approx([r1, r2, r3], abs=1e-8)
            assert roots[1] - roots[0] > 2e-8

    def test_block_equals_scalar_calls(self):
        special = [(0.0, 0.0, 0.0), (0.0, 0.0, -8.0), (0.0, -1e-300, 0.0), (3.0, 3.0, 1.0),
                   (0.0, -3.0, 2.0), (0.0, -3.0, -2.0), (1.0, 0.0, 3.1838623701714225e-284)]
        ring = [(phi1, 0.0, phi2) for phi1, phi2 in
                (depth_cubic_coeffs(r, 1.0, 1.0, 1.0, RING) for r in np.linspace(2.0, 30.0, 200))]
        cubics = list(_seeded_cubics()) + special + ring
        block = cubic_real_roots(*np.array(cubics).T)
        assert block.shape == (3, len(cubics))
        for k, (b, c, d) in enumerate(cubics):
            scalar = solve_cubic_real(b, c, d)
            assert np.array_equal(block[: len(scalar), k], scalar)
            assert np.isnan(block[len(scalar):, k]).all()
        # coefficients broadcast; the roots gain a leading axis of three
        b = np.array(cubics)[:30, 0].reshape(5, 6)
        assert cubic_real_roots(b[:, :1], 0.0, -1.0).shape == (3, 5, 1)
        assert np.array_equal(cubic_real_roots(b, -1.0, 0.5)[:, 1, 2],
                              cubic_real_roots(b[1, 2], -1.0, 0.5), equal_nan=True)
        with pytest.raises(InvalidParams):
            cubic_real_roots(np.array([0.0, math.nan]), 0.0, 1.0)


class TestBisectBracket:
    def test_bracket_keeps_the_sign_change_and_stops_at_rtol(self):
        lo, hi = bisect_bracket(lambda x: x * x < 2.0, 1.0, 2.0, 1e-12)
        assert lo * lo < 2.0 <= hi * hi
        assert 0.0 < hi - lo <= 1e-12

    def test_a_bracket_already_within_rtol_is_returned_as_given(self):
        calls = []
        assert bisect_bracket(calls.append, 1.0, 1.0 + 1e-13, 1e-12) == (1.0, 1.0 + 1e-13)
        assert calls == []

    def test_stops_after_200_halvings(self):
        calls = []

        def holds(x):
            calls.append(x)
            return x < 0.5

        lo, hi = bisect_bracket(holds, 0.0, 1.0, 0.0)  # rtol 0 never stops by width
        assert lo < 0.5 <= hi
        assert len(calls) == 200


class TestRingBounds:
    def test_reference_constants(self):
        rb = ring_bounds(1.0, 1.0, 1.0, RING)
        # digits confirmed against a brute-force sign scan of the indicator
        assert rb.r_inner == pytest.approx(2.189198032, abs=1e-6)
        assert rb.r_outer == pytest.approx(25.72325742, abs=1e-5)
        for r_star in (rb.r_inner, rb.r_outer):
            phi1, phi2 = depth_cubic_coeffs(r_star, 1.0, 1.0, 1.0, RING)
            assert abs(double_root_indicator(phi1, phi2)) < 1e-10

    def test_critical_depths(self):
        rb = ring_bounds(1.0, 1.0, 1.0, RING)
        h_s = (2 * 1.0 - 1.0 * RING.f) / (3 * RING.g)
        assert rb.h_inner <= h_s + 1e-12
        assert rb.h_outer <= h_s + 1e-12
        for r_star, h_c in ((rb.r_inner, rb.h_inner), (rb.r_outer, rb.h_outer)):
            phi1, _ = depth_cubic_coeffs(r_star, 1.0, 1.0, 1.0, RING)
            assert h_c == pytest.approx(-2.0 / 3.0 * phi1, rel=1e-12)

    def test_depth_slope_unbounded_at_bounds(self):
        # |h'(r)| grows like the inverse square root of the distance to the
        # sonic radius, so it exceeds any bound as the endpoint is approached
        rb = ring_bounds(1.0, 1.0, 1.0, RING)

        def slope(r):
            phi1, phi2 = depth_cubic_coeffs(r, 1.0, 1.0, 1.0, RING)
            h = [x for x in cubic_roots(phi1, phi2) if x > 0][0]
            g = RING.g
            phi1_r = (RING.f ** 2 * r / 4 - 1.0 / r ** 3) / g
            phi2_r = -1.0 / (g * r ** 3)
            return abs((phi1_r * h * h + phi2_r) / ((3 * h + 2 * phi1) * h))

        for r_star, side in ((rb.r_inner, +1), (rb.r_outer, -1)):
            slopes = [slope(r_star + side * d) for d in (1e-7, 1e-9, 1e-11)]
            assert slopes[1] > 8 * slopes[0]
            assert slopes[2] > 8 * slopes[1]
            assert slopes[2] > 1e4
        assert slope(rb.r_inner + 1e-13) > 1e6

    @pytest.mark.parametrize("C1, C2, C3, f", [
        (1.0, 1.0, 1.0, 0.1), (2.0, 0.5, 0.3, 0.1), (1.5, -1.0, 2.0, 0.5)])
    def test_bounds_match_40_digit_roots(self, C1, C2, C3, f):
        # the indicator restated in mpmath and solved from a bracket around
        # each bound; measured at most 2e-13 relative in r, and 8.4e-12 in
        # h = -(2/3) phi1(r), whose slope amplifies the error of r
        mpmath = pytest.importorskip("mpmath")
        params = FlowParameters(f, 1.0)
        rb = ring_bounds(C1, C2, C3, params)
        with mpmath.workdps(40):
            C1m, C2m, C3m, fm, gm = map(mpmath.mpf, (C1, C2, C3, f, params.g))

            def phi1(r):
                return (fm * fm * r * r / 8 + C2m * C2m / (2 * r * r) - C1m) / gm

            def indicator(r):
                return mpmath.mpf(4) / 27 * phi1(r) ** 3 + C3m * C3m / (2 * gm * r * r)

            for r, h in ((rb.r_inner, rb.h_inner), (rb.r_outer, rb.h_outer)):
                lo, hi = mpmath.mpf(r) / 1.05, mpmath.mpf(r) * 1.05
                assert indicator(lo) * indicator(hi) < 0
                root = mpmath.findroot(indicator, (lo, hi), solver="anderson")
                assert abs(r - root) <= 1e-11 * root
                assert abs(h + 2 * phi1(root) / 3) <= 1e-10 * abs(h)

    @pytest.mark.parametrize("eps", [1e-20, 1e-26, 1e-30, 1e-35, 1e-40, 1e-45])
    def test_bounds_do_not_depend_on_the_scale_of_the_indicator(self, eps):
        # (f, C1, C2, C3) -> (eps f, eps^2 C1, eps C2, eps^3 C3) scales G by
        # eps^6 and the depths by eps^2, and leaves the radii put; a product
        # of two values of G underflows from about eps = 1e-26 on
        ref = ring_bounds(1.0, 1.0, 1.0, RING)
        rb = ring_bounds(eps * eps, eps, eps ** 3, FlowParameters(RING.f * eps, RING.g))
        assert rb.r_inner == pytest.approx(ref.r_inner, rel=1e-12)
        assert rb.r_outer == pytest.approx(ref.r_outer, rel=1e-12)
        assert rb.h_inner == pytest.approx(eps * eps * ref.h_inner, rel=1e-12)
        assert rb.h_outer == pytest.approx(eps * eps * ref.h_outer, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-8, 1e-3, 1e-2, 1.0, 1e3, 1e6])
    def test_scan_without_swirl_starts_from_the_constants_scale(self, eps):
        # with C2 = 0 the scan starts at 1e-3 sqrt(g C1) / f, which the
        # scaling leaves put, so every eps scans the same radii; a start of
        # 1e-3 sqrt(g) / f moved the bits and missed the ring at eps <= 1e-3
        rb = ring_bounds(eps * eps, 0.0, eps ** 3, FlowParameters(RING.f * eps, RING.g))
        assert (rb.r_inner, rb.r_outer) == (1.8489563529428712, 25.735880020937223)

    def test_small_scale_ring_without_swirl_is_a_ring(self, capsys):
        argv = ["field", "--family", "ring", "--f", "1e-4", "--c1", "1e-6", "--c2", "0",
                "--c3", "1e-9", "--t", "0", "--r", "3:20:3"]
        assert cli_main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_threshold_case_has_no_ring(self):
        C2 = 1.0
        C1 = RING.f * abs(C2) / 2.0
        with pytest.raises(NoRingExists):
            ring_bounds(C1, C2, 1.0, RING)
        with pytest.raises(NoRingExists):
            ring_bounds(C1 * 1.000001, C2, 1.0, RING)  # barely above: G never < 0

    @pytest.mark.parametrize("C, params", [
        # the scan starts at r = 0 (its radius underflows): C2^2 / (2 r^2) divides by 0
        ((1e308, 1e-200, 2.0), FlowParameters(1e200, 1e300)),
        # f^2 overflows to inf without an exception: G is inf, its sign says nothing
        ((1e300, 1.0, 1.0), FlowParameters(1e200, 1.0)),
    ])
    def test_indicator_without_a_finite_value_is_invalid(self, C, params):
        with pytest.raises(InvalidParams, match="without a finite value"):
            ring_bounds(*C, params)


class TestContactSubmodel:
    def test_sine_swirl_with_quadrature(self):
        g = P.g
        lam0, eta0 = 1.0, 1.0

        def eta(lam):
            integral = quad(lambda v: math.sin(v) ** 2, lam0, lam, epsabs=1e-13)[0]
            return (lam0 * eta0 - integral / (2 * g)) / lam

        res = submodel_residual_contact(
            lambda lam: 0.0, math.sin, eta, np.linspace(0.6, 3.0, 13), P
        )
        assert res.max() < 1e-6

    def test_constant_swirl_closed_form(self):
        g = P.g
        c, lam0, eta0 = 0.8, 1.0, 1.0

        def eta(lam):
            return (lam0 * eta0 - c * c * (lam - lam0) / (2 * g)) / lam

        res = submodel_residual_contact(
            lambda lam: 0.0, lambda lam: c, eta, np.linspace(0.5, 2.2, 9), P
        )
        assert res.max() < 1e-10

    def test_degenerate_member(self):
        res = submodel_residual_contact(
            lambda lam: 0.0, lambda lam: 0.0, lambda lam: 0.7 / lam,
            np.linspace(0.5, 2.0, 7), P,
        )
        assert res.max() < 1e-12


class TestImplicitCollapse:
    def test_pure_collapse_from_zero(self):
        ic = collapse2_build(0.0, 1.0, P)
        assert ic.Tstar == pytest.approx(0.6797, abs=2e-4)
        # radicand closed form: 2 eta - 1/4 - 1.75 sqrt(eta), vanishing at eta0
        assert ic.K == pytest.approx(-1.75)
        assert ic.radicand(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ic.phi_hat(4.0, -1.0) == pytest.approx(-math.sqrt(2 * 4 - 0.25 - 1.75 * 2))
        sampled = [ic.eta_of_t(t) for t in np.linspace(0.01, 0.6, 25)]
        assert all(b > a for a, b in zip(sampled, sampled[1:]))

    def test_negative_start_is_monotone_collapse(self):
        ic = collapse2_build(-1.0, 1.0, P)
        assert ic.t1 is None
        sampled = [ic.eta_of_t(t) for t in np.linspace(0.0, 0.9 * ic.Tstar, 30)]
        assert all(b > a for a, b in zip(sampled, sampled[1:]))
        assert sampled[0] == pytest.approx(1.0, abs=1e-12)

    def test_positive_start_spreads_then_collapses(self):
        ic = collapse2_build(0.5, 1.0, P)
        assert ic.eta1 is not None and ic.eta1 < 1.0
        assert ic.eta1 == pytest.approx(0.7927911524, abs=1e-9)
        assert ic.t1 == pytest.approx(0.2449786631, abs=1e-9)
        before = [ic.eta_of_t(t) for t in np.linspace(0.0, ic.t1 * 0.98, 12)]
        after = [ic.eta_of_t(t) for t in np.linspace(ic.t1 * 1.02, 0.9 * ic.Tstar, 12)]
        assert all(b < a for a, b in zip(before, before[1:]))  # spreading
        assert all(b > a for a, b in zip(after, after[1:]))  # collapse
        # phi changes sign from positive to negative at the turning time
        assert ic.state_of_t(ic.t1 * 0.5)[0] > 0
        assert ic.state_of_t(ic.t1 * 1.5)[0] < 0

    @pytest.mark.parametrize("phi0", [0.0, -1.0, 0.5])
    def test_time_map_matches_30_digit_quadrature(self, phi0):
        # t(eta) = -(1/4) int_{eta0}^{eta} dnu / (nu phi_hat(nu)) by mpmath.quad.
        # Differences measured at most 3.6e-15 (phi0 = 0.5): each branch is
        # a table checked to 1e-14 of its time span, read backwards to the
        # last few bits.  Probes: t = 0, t1 (1 -/+ 1e-3) on either side of
        # the turn, 0.997 t_cap, where the time map is flattest, and t_cap.
        mpmath = pytest.importorskip("mpmath")
        ic = collapse2_build(phi0, 1.0, P)
        with mpmath.workdps(30):
            f, g, eta0 = mpmath.mpf(P.f), mpmath.mpf(P.g), mpmath.mpf(1)
            K = mpmath.mpf(phi0) ** 2 - 2 * g * eta0 + f * f / 4
            kk = K / mpmath.sqrt(eta0)
            eta_z = ((-kk + mpmath.sqrt(kk * kk + 2 * g * f * f)) / (4 * g)) ** 2

            def leg(lo, hi):  # time spent between two depths, |dt/deta| integrated
                rate = lambda nu: 1 / (4 * nu * mpmath.sqrt(2 * g * nu - f * f / 4 + K * mpmath.sqrt(nu / eta0)))
                return mpmath.quad(rate, [lo, hi])

            t1 = leg(eta_z, eta0) if phi0 > 0 else 0
            start = eta_z if phi0 > 0 else eta0
            assert abs(ic.Tstar - (t1 + leg(start, mpmath.inf))) <= 1e-14
            probes = [0.0, 0.997 * ic.t_cap, ic.t_cap] + list(np.linspace(0.02, 0.9, 9) * ic.Tstar)
            if phi0 > 0:
                assert abs(ic.t1 - t1) <= 1e-14
                probes += [ic.t1 * (1 - 1e-3), ic.t1 * (1 + 1e-3)]
            for t in probes:
                eta = mpmath.mpf(ic.eta_of_t(t))
                spreading = ic.t1 is not None and t <= ic.t1
                t_of_eta = leg(eta, eta0) if spreading else t1 + leg(start, eta)
                assert abs(t_of_eta - t) <= 1e-14, t

    @given(phi0=st.floats(-2, 2), eta0=st.floats(0.1, 10),
           fractions=st.lists(st.floats(0, 1), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_inverse_read_is_monotone_and_reads_back(self, phi0, eta0, fractions):
        try:
            ic = collapse2_build(phi0, eta0, P)
        except InvalidParams as exc:  # a spreading leg of subnormal length (1e-315 still builds)
            assert 0.0 < phi0 < 1e-300 and "flat in floating point" in str(exc)
            return
        times = sorted(u * ic.t_cap for u in fractions)
        for t in times:
            sign, table = ic._branch_for_time(t)
            s = table.invert(t)
            assert ic.eta_of_t(t) == ic.eta_z + s * s
            # the forward read gives t back to a few units in the last place of the time scale
            back = table(min(max(s, table.lo), table.hi))
            assert abs(back - t) <= 4 * np.spacing(np.abs(table.values).max()), (t, back)
        for sign, _ in ic.branches:  # eta falls while spreading (sign +1) and grows while collapsing
            etas = [ic.eta_of_t(t) for t in times if ic._branch_for_time(t)[0] == sign]
            assert all(sign * (b - a) <= 0.0 for a, b in zip(etas, etas[1:]))
        if ic.t1 is not None:
            assert [ic.eta_z + table.invert(ic.t1) ** 2 for _, table in ic.branches] == [ic.eta_z] * 2

    def test_rejects_bad_eta0(self):
        with pytest.raises(InvalidParams):
            collapse2_build(0.0, -1.0, P)

    def test_overflowing_parameters_rejected(self):
        with pytest.raises(InvalidParams):
            collapse2_build(0.0, 1.0, FlowParameters(1.0, 1e300))


class TestStateMemo:
    """``state_of_t`` memoizes per time, bounded, with the bits of a fresh solve."""

    @pytest.mark.parametrize("phi0", [0.0, 0.5])
    def test_bounded_and_bit_identical_after_eviction(self, phi0):
        ic = collapse2_build(phi0, 1.0, P)
        probes = np.linspace(0.0, 0.9 * ic.Tstar, 7).tolist()
        first = [ic.state_of_t(t) for t in probes]
        assert [ic.state_of_t(t) for t in probes] == first  # repeated: memo hits
        for t in np.linspace(0.001, 0.91 * ic.Tstar, 10_000).tolist():
            ic.state_of_t(t)
            assert len(ic._memo) <= ic.MEMO_CAP
        assert not set(probes) & set(ic._memo)
        again = [ic.state_of_t(t) for t in probes]
        fresh = collapse2_build(phi0, 1.0, P)
        assert again == first == [fresh.state_of_t(t) for t in probes]

    def test_shared_across_threads(self):
        ic = collapse2_build(0.5, 1.0, P)
        times = np.linspace(0.0, 0.9 * ic.Tstar, 600).tolist()
        fresh = collapse2_build(0.5, 1.0, P)
        expect = [fresh.state_of_t(t) for t in times]
        ic.MEMO_CAP = 64  # many clears while the threads run
        results, sizes = {}, []

        def work(k):
            results[k] = []
            for t in times[k % 3::3] + times:
                results[k].append(ic.state_of_t(t))
                sizes.append(len(ic._memo))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        assert all(results[k] == expect[k % 3::3] + expect for k in range(6))
        assert max(sizes) <= 64

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, 2.0])
    def test_out_of_range_times_raise_and_are_not_stored(self, t):
        ic = collapse2_build(0.0, 1.0, P)
        ic.state_of_t(0.1)
        with pytest.raises(InvalidParams):
            ic.state_of_t(t)
        assert list(ic._memo) == [0.1]


class TestCollapseOdeAgreement:
    @pytest.mark.parametrize("phi0", [0.0, -1.0, 0.5])
    def test_rk_matches_tabulation(self, phi0):
        ic = collapse2_build(phi0, 1.0, P)
        rep = collapse2_verify_ode(ic, P)
        assert rep.max_phi_error < 1e-6
        assert rep.max_eta_error < 1e-6
        assert rep.max_psi_drift < 1e-12
        assert rep.max_piston_error < 1e-5

    def test_turning_point_detected(self):
        ic = collapse2_build(0.5, 1.0, P)
        rep = collapse2_verify_ode(ic, P)
        assert rep.turning_time is not None
        assert rep.turning_time == pytest.approx(ic.t1, abs=0.01)

    def test_only_the_tabulation_parameters_are_accepted(self):
        ic = collapse2_build(0.0, 1.0, P)
        with pytest.raises(InvalidParams, match="differ from the source's"):
            collapse2_verify_ode(ic, FlowParameters(2.0, 1.0))
        assert collapse2_verify_ode(ic, FlowParameters(1.0, 1.0)) == collapse2_verify_ode(ic)

    def test_monotone_collapse_for_negative_start(self):
        ic = collapse2_build(-1.0, 1.0, P)
        rep = collapse2_verify_ode(ic, P)
        assert rep.turning_time is None
