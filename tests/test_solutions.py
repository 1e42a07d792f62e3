import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rswlab.core import FlowParameters, potential_vorticity
from rswlab.errors import InvalidParams, UnsupportedFamily, WindowViolation
from rswlab.solutions import (
    FAMILY_NAMES,
    canonical_family_name,
    closure_condition,
    collapse_contact,
    collapse_contact_cubic,
    constant_sw_image,
    drop_base_depth,
    drop_swirl_coefficient,
    make_family,
    parse_profile,
    profile_solid,
    pulsating_cylinder,
    pulsating_drop,
    stationary_ring,
    stationary_rotsym,
    swirl_constant,
    swirl_sine,
    trajectory_formula,
)
from rswlab.verify import residual_report, sample_grid

P = FlowParameters(1.0, 1.0)
RING = FlowParameters(0.1, 1.0)


class TestFamilyNames:
    def test_aliases(self):
        assert canonical_family_name("drop") == "pulsating-drop"
        assert canonical_family_name("Cylinder") == "pulsating-cylinder"
        assert canonical_family_name("rest") == "rest"

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamily):
            canonical_family_name("vortex-street")

    def test_make_family_dispatch(self):
        field = make_family("ring", RING, c1=1.0, c2=1.0, c3=1.0)
        assert field.meta["family"] == "stationary-ring"

    @pytest.mark.parametrize("name, kw", [
        ("rest", {"h0": math.inf}),
        ("constant-sw-image", {"u0": math.nan}),
        ("barochronous-sw", {"h0": -math.inf}),
        ("stationary-rotsym", {"h0": math.nan}),
        ("collapse-scaling", {"phi0": math.inf}),
    ])
    def test_nonfinite_constant_is_invalid(self, name, kw):
        with pytest.raises(InvalidParams, match=f"{next(iter(kw))} must be finite"):
            make_family(name, P, **kw)

    @pytest.mark.parametrize("name, f", [("pulsating-drop", 1e300), ("pulsating-drop", 1e-300),
                                         ("barochronous-sw", 1e300)])
    def test_coefficients_out_of_float_range_are_invalid(self, name, f):
        # a bare OverflowError or ZeroDivisionError, or non-finite values at
        # every t != 0, without the check
        with pytest.raises(InvalidParams, match="float range" if name == "pulsating-drop" else "overflows"):
            make_family(name, FlowParameters(f, 1.0))

    @pytest.mark.parametrize("name, f, kw", [
        ("collapse-scaling", 1.0, {"eta0": 1e-300}),
        ("collapse-scaling", 1.0, {"eta0": 1e300}),
        ("stationary-rotsym", 1.0, {"profile": "gauss:0.5,1e-200"}),
        ("stationary-ring", 0.1, {"c1": 1e300}),
        ("stationary-rotsym", 1.0, {"profile": "solid:1e200"}),
    ], ids=["scaling-eta0-underflow", "scaling-eta0-overflow", "gauss-width-square-underflow",
            "ring-c1-overflow", "solid-depth-overflow"])
    def test_constants_overflowing_the_construction_are_invalid(self, name, f, kw):
        # without the checks: a numpy overflow warning in the collapse
        # tabulation, a ZeroDivisionError, an OverflowError in the ring's
        # bound scan, or a depth table that is infinite from r = 0.1 on
        with pytest.raises(InvalidParams):
            make_family(name, FlowParameters(f, 1.0), **kw)


class TestResiduals:
    def test_every_family_solves_its_equations(self, catalog):
        for name, field in catalog.items():
            rep = residual_report(field)
            assert rep.max_residual < 1e-6, (name, rep.max_residual)

    def test_every_family_in_finite_difference_mode(self, catalog):
        for name, field in catalog.items():
            rep = residual_report(field.with_derivative_mode("fd"), shape=(5, 5, 4))
            assert rep.max_residual < 1e-4, (name, rep.max_residual)

    def test_rest_state_is_exact(self, catalog):
        rep = residual_report(catalog["rest"])
        assert rep.max_residual < 1e-12


class TestConstantImage:
    def test_window_is_one_period(self):
        field = constant_sw_image(1.0, 0.5, 1.0, P)
        with pytest.raises(WindowViolation):
            field.eval(0.0, 0.1, 0.1)
        with pytest.raises(WindowViolation):
            field.eval(2 * math.pi, 0.1, 0.1)
        field.eval(3.0, 0.1, 0.1)

    def test_residual_on_window(self):
        field = constant_sw_image(1.0, 0.5, 1.0, P)
        pts = [(t, x, y) for t in np.linspace(0.5, 5.0, 6)
               for x in np.linspace(-1.5, 1.5, 5) for y in np.linspace(-1.5, 1.5, 5)]
        rep = residual_report(field, points=np.array(pts))
        assert rep.max_residual < 1e-6

    def test_circle_trajectory_data(self):
        u0, v0, f = 1.0, 0.5, 1.0
        field = constant_sw_image(u0, v0, 1.0, P)
        r0, th0 = 0.9, 0.4
        formula = trajectory_formula(field, r0, th0)
        x0, y0 = r0 * math.cos(th0), r0 * math.sin(th0)
        A, B, R = formula.circle
        assert A == pytest.approx(x0 / 2 + u0 / f)
        assert B == pytest.approx(y0 / 2 + v0 / f)
        assert R == pytest.approx(math.hypot(u0 / f - x0 / 2, v0 / f - y0 / 2))
        # the path parametrization stays on that circle and passes through
        # the anchor at the window midpoint
        assert formula.x_of_t(math.pi) == pytest.approx(x0)
        assert formula.y_of_t(math.pi) == pytest.approx(y0)
        for t in np.linspace(0.4, 5.9, 17):
            assert math.hypot(formula.x_of_t(t) - A, formula.y_of_t(t) - B) == pytest.approx(R, abs=1e-12)


class TestPulsatingCylinder:
    def test_values_at_reference_times(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        for r in (0.4, 1.0, 1.7):
            U, V, h = field.eval(0.0, r, 0.3)
            assert U == pytest.approx(0.0, abs=1e-15)
            assert V == pytest.approx(r / 2)
            assert h == pytest.approx(2.0)
            U, V, h = field.eval(math.pi, r, 0.3)
            assert U == pytest.approx(0.0, abs=1e-12)
            assert V == pytest.approx(-r / 4)
            assert h == pytest.approx(0.5)

    def test_periodicity(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        for t in (0.3, 1.9, 4.4):
            for r in (0.2, 1.5):
                a = field.eval(t, r, 0.0)
                b = field.eval(t + 2 * math.pi, r, 0.0)
                assert np.allclose(a, b, atol=1e-10)

    def test_potential_vorticity_everywhere(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = rng.uniform(0.0, 2 * math.pi)
            r = rng.uniform(0.05, 2.0)
            th = rng.uniform(0, 2 * math.pi)
            assert potential_vorticity(field, t, r, th) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_trajectory_formula_circle(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        formula = trajectory_formula(field, 1.0, 0.0)
        A, B, R = formula.circle
        assert R == pytest.approx(0.5)
        assert math.hypot(A, B) == pytest.approx(1.5)
        assert formula.r_of_t(0.0) == pytest.approx(1.0)
        assert formula.r_of_t(math.pi) == pytest.approx(2.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParams):
            pulsating_cylinder(-1.0, 1.0, P)
        with pytest.raises(InvalidParams):
            pulsating_cylinder(2.0, 0.0, P)


class TestPulsatingDrop:
    def test_swirl_coefficient_and_depth(self):
        l = drop_swirl_coefficient(2.0, P)
        assert l == pytest.approx(-1.0 / math.sqrt(6.0))
        hbar = drop_base_depth(2.0, P)
        assert hbar(0.0) == pytest.approx(0.5)
        assert hbar(-1.0 / l) == pytest.approx(0.0, abs=1e-14)
        assert hbar(math.sqrt(6.0)) == pytest.approx(0.0, abs=1e-14)

    def test_boundary_depth_vanishes(self):
        field = pulsating_drop(2.0, P)
        R = field.meta["boundary_radius"]
        for t in (0.0, 0.8, math.pi, 4.9):
            _, _, h = field.values_unchecked(t, R(t), 0.0)
            assert abs(h) < 1e-9
            _, _, h_in = field.values_unchecked(t, 0.5 * R(t), 0.0)
            assert h_in > 0

    def test_periodicity(self):
        field = pulsating_drop(2.0, P)
        for t in (0.1, 2.2):
            for r in (0.3, 1.2):
                assert np.allclose(
                    field.eval(t, r, 0.0), field.eval(t + 2 * math.pi, r, 0.0),
                    atol=1e-10,
                )

    def test_depth_maximal_at_origin(self):
        field = pulsating_drop(2.0, P)
        for t in (0.0, math.pi / 2, math.pi):
            hs = [field.values_unchecked(t, r, 0.0)[2] for r in np.linspace(0.0, 0.95 * field.meta["boundary_radius"](t), 12)]
            assert hs[0] == max(hs)
            assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))


class TestStationaryRing:
    def test_lower_branch_supercritical_everywhere(self):
        lower = stationary_ring(1.0, 1.0, 1.0, RING, branch="lower")
        bounds = lower.meta["bounds"]
        from rswlab.core import diagnostics

        for r in np.linspace(bounds.r_inner * 1.001, bounds.r_outer * 0.999, 50):
            assert diagnostics(lower, 0.0, r, 0.0).froude > 1.0

    def test_upper_branch_subcritical_between_critical_crossings(self):
        # the upper branch depth exceeds the critical depth h_s only on an
        # interior band; towards both sonic circles the flow is critical in
        # the radial speed alone, so every branch turns supercritical there
        from scipy.optimize import brentq

        from rswlab.core import diagnostics
        from rswlab.reduction import depth_cubic_coeffs

        upper = stationary_ring(1.0, 1.0, 1.0, RING, branch="upper")
        bounds = upper.meta["bounds"]
        h_s = (2 * 1.0 - 1.0 * RING.f) / (3 * RING.g)

        def gap(r):
            phi1, phi2 = depth_cubic_coeffs(r, 1.0, 1.0, 1.0, RING)
            return h_s ** 3 + phi1 * h_s ** 2 + phi2

        r_lo = brentq(gap, bounds.r_inner, 0.3 * bounds.r_outer, xtol=1e-12)
        r_hi = brentq(gap, 0.3 * bounds.r_outer, bounds.r_outer, xtol=1e-12)
        assert bounds.r_inner < r_lo < r_hi < bounds.r_outer
        for r in np.linspace(r_lo * 1.01, r_hi * 0.99, 25):
            assert diagnostics(upper, 0.0, r, 0.0).froude < 1.0
        # just outside the band the upper branch is supercritical
        assert diagnostics(upper, 0.0, r_hi * 1.05, 0.0).froude > 1.0

    def test_sonic_at_bounds(self):
        field = stationary_ring(1.0, 1.0, 1.0, RING)
        bounds = field.meta["bounds"]
        for r_star, h_c in ((bounds.r_inner, bounds.h_inner), (bounds.r_outer, bounds.h_outer)):
            U = 1.0 / (r_star * h_c)  # depth limit at the circle is h_c
            assert U * U == pytest.approx(RING.g * h_c, rel=1e-8)

    def test_no_ring_below_threshold(self):
        from rswlab.errors import NoRingExists

        with pytest.raises(NoRingExists):
            stationary_ring(0.05, 1.0, 1.0, RING)

    def test_throughput_continuity(self):
        # r U h is the same constant at every radius (mass flux invariant)
        field = stationary_ring(1.0, 1.0, 1.0, RING)
        bounds = field.meta["bounds"]
        for r in np.linspace(bounds.r_inner * 1.1, bounds.r_outer * 0.9, 9):
            U, V, h = field.values_unchecked(0.0, r, 0.0)
            assert r * U * h == pytest.approx(1.0, rel=1e-10)


class TestCollapseContact:
    def test_constant_swirl_depth_closed_form(self):
        g = P.g
        c, lam0, eta0 = 0.8, 1.0, 1.0
        field = collapse_contact(swirl_constant(c), lam0, eta0, P)
        eta = field.meta["eta_fn"]
        for lam in (0.5, 1.0, 2.0):
            expected = (lam0 * eta0 - c * c * (lam - lam0) / (2 * g)) / lam
            assert eta(lam) == pytest.approx(expected, rel=1e-10)

    def test_material_surfaces(self):
        # the similarity level of a particle stays constant along its path
        from rswlab.verify import integrate_trajectory

        field = collapse_contact(swirl_constant(0.8), 1.0, 1.0, P)
        f = P.f
        t0 = 1.2
        r0 = 1.4
        lam_start = (1 - math.cos(f * t0)) / r0 ** 2
        traj = integrate_trajectory(field, r0, 0.0, t0, 5.2, record=np.linspace(t0, 5.2, 9))
        for t, (r, _) in zip(traj.times, traj.positions):
            lam = (1 - math.cos(f * t)) / r ** 2
            assert lam == pytest.approx(lam_start, abs=1e-6)

    def test_piston_radii_scale_with_half_angle(self):
        field = collapse_contact(swirl_constant(0.8), 1.0, 1.0, P)
        from rswlab.verify import integrate_trajectory

        t0, r0 = 1.0, 1.2
        traj = integrate_trajectory(field, r0, 0.0, t0, 5.0, record=[5.0])
        expected = r0 * math.sin(P.f * 5.0 / 2) / math.sin(P.f * t0 / 2)
        assert traj.positions[-1][0] == pytest.approx(expected, abs=1e-8)


class TestCollapseContactCubic:
    def test_depth_positive_and_residual(self):
        field = collapse_contact_cubic(1.0, 1.0, 1.0, P)
        rep = residual_report(field, shape=(5, 6, 3))
        assert rep.max_residual < 1e-6
        pts = sample_grid(field, (4, 5, 2))
        for t, r, th in pts:
            _, _, h = field.values_unchecked(t, r, th)
            assert h > 0

    def test_branches_differ(self):
        lo = collapse_contact_cubic(1.0, 1.0, 1.0, P, branch="lower")
        hi = collapse_contact_cubic(1.0, 1.0, 1.0, P, branch="upper")
        t, r = 2.0, 9.0
        assert lo.values_unchecked(t, r, 0.0)[0] != pytest.approx(
            hi.values_unchecked(t, r, 0.0)[0]
        )

    def test_upper_branch_solves_too(self):
        field = collapse_contact_cubic(1.0, 1.0, 1.0, P, branch="upper")
        rep = residual_report(field, shape=(5, 6, 3))
        assert rep.max_residual < 1e-6

    def test_zero_c3_rejected(self):
        with pytest.raises(InvalidParams):
            collapse_contact_cubic(1.0, 1.0, 0.0, P)


class TestCollapseScaling:
    def test_monotone_regimes(self, catalog):
        field = catalog["collapse-scaling"]
        ic = field.meta["tabulation"]
        hs = [field.values_unchecked(t, 1.0, 0.0)[2] for t in np.linspace(0.0, 0.9 * ic.Tstar, 20)]
        assert all(b > a for a, b in zip(hs, hs[1:]))  # depth grows: collapse

    def test_spreading_then_collapse_depth(self):
        field = make_family("collapse-scaling", P, phi0=0.5, eta0=1.0)
        ic = field.meta["tabulation"]
        t1 = ic.t1
        before = [field.values_unchecked(t, 1.0, 0.0)[2] for t in np.linspace(0.0, t1 * 0.95, 8)]
        after = [field.values_unchecked(t, 1.0, 0.0)[2] for t in np.linspace(t1 * 1.05, 0.9 * ic.Tstar, 8)]
        assert all(b < a for a, b in zip(before, before[1:]))
        assert all(b > a for a, b in zip(after, after[1:]))


class TestTrajectoryFormulaDispatch:
    def test_transported_identity(self, params11):
        from rswlab.solutions import rest_state
        from rswlab.transforms import transport_solution

        moved = transport_solution(rest_state(1.0, params11), 1.0, params11)
        formula = trajectory_formula(moved, 0.7, 1.1)
        for t in (0.0, 1.0, 4.0):
            assert formula.r_of_t(t) == pytest.approx(0.7)
            assert formula.theta_of_t(t) == pytest.approx(1.1)

    def test_unsupported_family(self, catalog):
        with pytest.raises(UnsupportedFamily):
            trajectory_formula(catalog["stationary-ring"], 3.0, 0.0)

    def test_equivalence_image_is_refused(self, params11):
        # the image keeps the cylinder's family, but its paths are not the cylinder's circles
        from rswlab.core import as_cartesian
        from rswlab.transforms import map_field_rsw_to_sw

        image = map_field_rsw_to_sw(as_cartesian(pulsating_cylinder(2.0, 1.0, params11)))
        with pytest.raises(UnsupportedFamily, match="equivalence image"):
            trajectory_formula(image, 0.5, 0.0)

    @pytest.mark.parametrize("name", ["pulsating-cylinder", "pulsating-drop", "transported-swirl"])
    def test_repeated_transport_matches_integrated_path(self, params11, name):
        from rswlab.solutions import profile_gauss, stationary_rotsym
        from rswlab.transforms import transport_solution
        from rswlab.verify import integrate_trajectory

        once = {
            "pulsating-cylinder": lambda: pulsating_cylinder(2.0, 1.0, params11),
            "pulsating-drop": lambda: pulsating_drop(2.0, params11),
            "transported-swirl": lambda: transport_solution(
                stationary_rotsym(profile_gauss(0.5), 1.0, params11), 2.0),
        }[name]()
        twice = transport_solution(once, 3.0)
        r0, th0 = 0.5, 0.3
        formula = trajectory_formula(twice, r0, th0)
        record = np.linspace(0.0, 2.0 * math.pi, 9)
        traj = integrate_trajectory(twice, r0, th0, 0.0, 2.0 * math.pi, record=record)
        for t, (r, th) in zip(traj.times, traj.positions):
            assert abs(r - formula.r_of_t(t)) < 1e-8, t
            assert abs(th - formula.theta_of_t(t)) < 1e-8, t


class TestClosure:
    def test_figure_radii(self):
        res = closure_condition(2.0, 1.0 / math.sqrt(3.0), P)
        assert res.closed and (res.m, res.M) == (1, 3)
        res = closure_condition(2.0, math.sqrt(3.0) / 6.0, P)
        assert res.closed and (res.m, res.M) == (1, 6)

    def test_irrational_ratio_is_quasi_closed(self):
        res = closure_condition(2.0, math.sqrt(3.0) / math.pi, P)
        assert not res.closed

    def test_boundary_particles_close_every_period(self):
        l = drop_swirl_coefficient(2.0, P)
        r_boundary = -P.f / (l * math.sqrt(2.0))
        res = closure_condition(2.0, r_boundary, P)
        assert res.closed and (res.m, res.M) == (1, 1)

    def test_outside_drop_rejected(self):
        with pytest.raises(InvalidParams):
            closure_condition(2.0, 10.0, P)

    def test_underflowing_swirl_coefficient_rejected(self):
        # l = -f^2 sqrt(alpha / 12 g) underflows to 0 at f = 1e-200, and the
        # boundary radius -f / (l sqrt(alpha)) would divide by it
        with pytest.raises(InvalidParams, match="drop coefficients"):
            closure_condition(2.0, 0.5, FlowParameters(1e-200, 1.0))


class TestProfiles:
    def test_parse(self):
        prof = parse_profile("solid:0.4")
        assert prof(2.0) == pytest.approx(0.8)
        with pytest.raises(InvalidParams):
            parse_profile("fourier:1")

    def test_stationary_profile_must_vanish_at_origin(self):
        from rswlab.solutions import RadialProfile, stationary_rotsym

        bad = RadialProfile(lambda r: 1.0, lambda r: 0.0, "offset")
        with pytest.raises(InvalidParams):
            stationary_rotsym(bad, 1.0, P)

    def test_depth_table_is_bounded(self):
        # solid rotation V = w r: g h' = (w^2 + f w) r, so h = h0 + (w^2 + f w) r^2 / (2 g)
        w, h0 = 0.4, 1.0
        field = stationary_rotsym(profile_solid(w), h0, P)
        table = field.meta["depth_fn"]
        nodes, coef = table.nodes, table.coef
        assert nodes.shape == (coef.shape[0] + 1,) and coef.shape[0] <= table.MAX_PANELS
        first = field.values_unchecked(0.0, np.linspace(0.01, 0.5, 50), 0.0)[2]
        radii = np.linspace(0.011, 5.9, 20_000)
        depth = field.values_unchecked(0.0, radii, 0.0)[2]
        scalar = [field.values_unchecked(0.0, r, 0.0)[2] for r in radii.tolist()]
        # 40,000 distinct radius queries leave the table as built
        assert table.nodes is nodes and table.coef is coef
        assert nodes.shape == (coef.shape[0] + 1,) and coef.shape == (table.panels, 6)
        assert np.array_equal(scalar, depth)
        exact = h0 + (w * w + P.f * w) * radii ** 2 / (2.0 * P.g)
        assert np.allclose(depth, exact, rtol=1e-12, atol=0.0)
        again = field.values_unchecked(0.0, np.linspace(0.01, 0.5, 50), 0.0)[2]
        assert np.array_equal(again, first)

    def test_draining_profile_rejected(self):
        # weak anticyclonic rotation: f V dominates V^2 / r, the balance
        # integral is negative and the depth runs out at finite radius
        from rswlab.solutions import stationary_rotsym

        with pytest.raises(InvalidParams):
            stationary_rotsym(profile_solid(-0.9), 0.01, P)


def _quad_from(integrand, origin, points):
    """Integrals of ``integrand`` from ``origin`` to each point by ``quad``.

    The points are visited outwards from ``origin`` on each side, one short
    ``quad`` per neighbour gap, and the pieces are added with Neumaier's
    compensated sum.
    """
    quad = pytest.importorskip("scipy.integrate").quad
    out = np.empty(len(points))
    for side in (points >= origin, points < origin):
        idx = np.flatnonzero(side)
        prev, total, comp = origin, 0.0, 0.0
        for k in idx[np.argsort(np.abs(points[idx] - origin))]:
            piece = quad(integrand, prev, points[k], epsabs=0.0, epsrel=1e-13, limit=200)[0]
            new = total + piece
            comp += (total - new) + piece if abs(total) >= abs(piece) else (piece - new) + total
            total, prev = new, points[k]
            out[k] = total + comp
    return out


class TestIntegralTables:
    """The depth and psi^2 tables against ``scipy.integrate.quad`` (test oracle)."""

    @pytest.mark.parametrize("spec, h0, n", [("gauss:0.5", 1.0, 10_000), ("solid:0.4", 1.0, 2_000),
                                             ("quadratic:0.1", 1.0, 2_000), ("gauss:0.8,1.5", 2.0, 2_000)])
    def test_depth_matches_quad(self, spec, h0, n):
        profile = parse_profile(spec)
        field = stationary_rotsym(profile, h0, P)
        lo, hi = field.meta["sample_box"]["r"]
        radii = np.random.default_rng(11).uniform(lo, hi, n)

        def integrand(r):
            V = profile(r)
            return (V * V / r + P.f * V) / P.g

        want = h0 + _quad_from(integrand, 0.0, radii)
        got = field.meta["depth_fn"](radii)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        assert field.meta["depth_fn"].panels <= field.meta["depth_fn"].MAX_PANELS  # 342 for gauss:0.5

    @pytest.mark.parametrize("psi, lam0, eta0, n", [("sine:1", 1.0, 1.0, 10_000), ("sine:0.5", 2.0, 0.5, 2_000),
                                                    ("const:0.8", 1.0, 1.0, 2_000), ("sine:1", 0.3, 3.0, 2_000),
                                                    ("sine:1", 1.0, 1e300, 2_000)])
    def test_eta_matches_quad(self, psi, lam0, eta0, n):
        field = make_family("collapse-contact", P, psi=psi, lam0=lam0, eta0=eta0)
        swirl = field.meta["psi"]
        lo, hi = field.meta["sample_box"]["lam"]
        lams = np.random.default_rng(12).uniform(lo, hi, n)
        integral = _quad_from(lambda v: swirl(v) ** 2, lam0, lams)
        want = (lam0 * eta0 - integral / (2.0 * P.g)) / lams
        got = field.meta["eta_fn"](lams)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        table = field.meta["psi_sq_integral"]
        assert table.panels <= table.MAX_PANELS  # 356 for the catalog's field, 104 at eta0 = 1e300

    def test_lam_max_unchanged(self, catalog):
        # the bound of the quadrature-based search, to 1e-12 relative
        assert catalog["collapse-contact"].meta["lam_max"] == pytest.approx(4.628674849633171, rel=1e-12)

    def test_threads_share_a_field_bit_for_bit(self):
        # the depth table's lazily built float rows are shared; eight
        # threads, switching every microsecond, read them
        radii = [*np.linspace(0.0, 6.0, 97).tolist(), 6.0 * 2.0 ** 64]  # and the last node
        want = [make_family("stationary-rotsym", P).eval(0.0, r, 0.0).tobytes() for r in radii]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                field = make_family("stationary-rotsym", P)
                got = [None] * 8

                def work(k, field=field, got=got):
                    order = random.Random(k).sample(range(len(radii)), len(radii))
                    values = {i: field.eval(0.0, radii[i], 0.0).tobytes() for i in order}
                    got[k] = [values[i] for i in range(len(radii))]

                threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert got == [want] * 8
        finally:
            sys.setswitchinterval(interval)

    def test_profiles_and_swirl_take_arrays(self):
        r = np.linspace(0.0, 3.0, 7)
        for profile in (parse_profile("gauss:0.5"), swirl_sine(0.7)):
            for fn in (profile.fn, profile.deriv):
                block = fn(r)
                assert np.array_equal(block, [fn(x) for x in r.tolist()])


class TestValueJetAgreement:
    """Every catalog family at random in-window points: jets against eval and FD."""

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_jet_values_and_gradients(self, name, data, catalog):
        field = catalog[name]
        grid = sample_grid(field, (4, 5, 3))
        t = data.draw(st.sampled_from(sorted(set(grid[:, 0].tolist()))), label="t")
        rows = grid[grid[:, 0] == t]
        u, v = data.draw(st.floats(0.02, 0.98), label="u"), data.draw(st.floats(0.0, 1.0), label="v")
        a = rows[:, 1].min() + u * (rows[:, 1].max() - rows[:, 1].min())
        if field.frame == "polar":
            b = 2.0 * math.pi * v - math.pi
        else:
            b = rows[:, 2].min() + v * (rows[:, 2].max() - rows[:, 2].min())
        values = field.eval(t, a, b)
        jet_values, grad = field.jet(t, a, b)
        # measured 1.4e-16 and 2.2e-7 on the sample grids
        assert np.all(np.abs(jet_values - values) <= 1e-15 * np.abs(values).max())
        _, fd = field.with_derivative_mode("fd").jet(t, a, b)
        assert np.all(np.abs(grad - fd) <= 1e-6 * np.abs(grad).max())


def _closed_forms(name: str, params: FlowParameters):
    """Each closed-form family's state as sympy expressions of (t, a, b)."""
    import sympy as sp

    t, a, b = sp.symbols("t a b", real=True)
    f, g = sp.Float(params.f, 30), sp.Float(params.g, 30)
    alpha, h0, u0, v0 = sp.Float(2, 30), sp.Float(1, 30), sp.Float(1, 30), sp.Float("0.5", 30)
    c, s = sp.cos(f * t), sp.sin(f * t)
    D = ((1 + alpha ** 2) + c * (1 - alpha ** 2)) / 2
    cu = f * (alpha ** 2 - 1) * s / (4 * D)
    cv = -f * (alpha - 1) * ((alpha - 1) - c * (alpha + 1)) / (4 * D)
    if name == "rest":
        state = (sp.Integer(0), sp.Integer(0), h0)
    elif name == "constant-sw-image":
        cot = sp.cot(f * t / 2)
        state = ((f * a / 2 - u0) * cot + f * b / 2 - v0, -f * a / 2 + u0 + (f * b / 2 - v0) * cot,
                 2 * h0 / (1 - c))
    elif name == "barochronous-sw":
        W = 1 + f ** 2 * t ** 2
        state = ((f ** 2 * t * a - f * b) / W, (f * a + f ** 2 * t * b) / W, h0 / W)
    elif name == "pulsating-cylinder":
        state = (cu * a, cv * a, alpha * h0 / D)
    else:  # pulsating-drop: transported quadratic swirl, depth closing on a circle
        l = -f ** 2 * sp.sqrt(alpha / (12 * g))
        P = alpha / D
        state = (cu * a, l * a ** 2 * P ** sp.Rational(3, 2) + cv * a,
                 l ** 2 / (4 * g) * a ** 4 * P ** 3 + f * l / (3 * g) * a ** 3 * P ** sp.Rational(5, 2)
                 + f ** 4 / (12 * g * l ** 2) * P)
    grad = [[sp.diff(comp, x) for x in (t, a, b)] for comp in state]
    return sp.lambdify((t, a, b), (state, grad), "mpmath")


class TestJetsAgainstSympy:
    """The closed-form families' jets against sympy's derivatives in 30 digits."""

    @pytest.mark.parametrize("name", ["rest", "constant-sw-image", "barochronous-sw",
                                      "pulsating-cylinder", "pulsating-drop"])
    def test_jets_match_symbolic_derivatives(self, name, catalog):
        import mpmath

        field = catalog[name]
        oracle = _closed_forms(name, field.params)
        grid = sample_grid(field, (5, 4, 3))
        with mpmath.workdps(30):
            for t, a, b in grid.tolist():
                values, grad = field.jet(t, a, b)
                want_values, want_grad = (np.array(x, dtype=float) for x in oracle(t, a, b))
                scale = max(np.abs(want_grad).max(), 1e-300)
                assert np.all(np.abs(grad - want_grad) <= 1e-13 * scale)
                assert np.all(np.abs(values - want_values) <= 1e-13 * np.abs(want_values).max())
