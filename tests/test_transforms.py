import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rswlab.core import (
    CartesianPoint,
    CartesianState,
    FlowParameters,
    PolarPoint,
    PolarState,
)
from rswlab.errors import InvalidParams, SingularTime
from rswlab.solutions import (
    barochronous_sw,
    constant_sw_image,
    pulsating_cylinder,
    pulsating_drop,
    rest_state,
    stationary_rotsym,
    profile_gauss,
)
from rswlab.transforms import (
    EquivalenceMap,
    GroupAction,
    chi,
    chi_shifted,
    equiv_point,
    finite_transform,
    map_field_rsw_to_sw,
    map_field_sw_to_rsw,
    transport_solution,
    y9_time_map,
)
from rswlab.verify import residual_cartesian, residual_polar, sample_grid

P = FlowParameters(1.0, 1.0)


class TestBranchOffsets:
    def test_chi_interval_rule(self):
        f = 1.3
        for k in range(-3, 4):
            lo = (2 * k - 1) * math.pi / f
            hi = (2 * k + 1) * math.pi / f
            for t in np.linspace(lo + 1e-6, hi - 1e-6, 7):
                assert chi(t, f) == pytest.approx(2 * math.pi * k / f, abs=1e-12)

    def test_chi_shifted_interval_rule(self):
        f = 0.7
        for k in range(-3, 4):
            lo = 2 * k * math.pi / f
            hi = 2 * (k + 1) * math.pi / f
            for t in np.linspace(lo + 1e-6, hi - 1e-6, 7):
                assert chi_shifted(t, f) == pytest.approx((2 * k + 1) * math.pi / f, abs=1e-12)


class TestEquivalencePoint:
    def test_rest_state_at_half_period(self):
        m = EquivalenceMap(P)
        p, s = equiv_point(m, CartesianPoint(math.pi, 0.8, -0.3), CartesianState(0, 0, 2.0))
        assert p.t == pytest.approx(0.0, abs=1e-15)
        assert p.x == pytest.approx(-0.3 / 2)
        assert p.y == pytest.approx(-0.8 / 2)
        assert s.u == pytest.approx(0.8 / 2)
        assert s.v == pytest.approx(-0.3 / 2)
        assert s.h == pytest.approx(2.0)
        # consistency with the barochronous image at t' = 0: u' = -f y', v' = f x'
        assert s.u == pytest.approx(-p.y)
        assert s.v == pytest.approx(p.x)

    @given(
        t=st.floats(0.3, 5.9),
        x=st.floats(-2, 2), y=st.floats(-2, 2),
        u=st.floats(-2, 2), v=st.floats(-2, 2), h=st.floats(0.1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, t, x, y, u, v, h):
        m = EquivalenceMap(P)
        p1, s1 = equiv_point(m, CartesianPoint(t, x, y), CartesianState(u, v, h))
        p2, s2 = equiv_point(m.inverse(), p1, s1)
        assert abs(p2.t - t) < 1e-10
        assert abs(p2.x - x) < 1e-10 and abs(p2.y - y) < 1e-10
        assert abs(s2.u - u) < 1e-9 and abs(s2.v - v) < 1e-9 and abs(s2.h - h) < 1e-10

    def test_full_period_time_is_singular(self):
        m = EquivalenceMap(P)
        with pytest.raises(SingularTime):
            equiv_point(m, CartesianPoint(2 * math.pi, 0.1, 0.1), CartesianState(0, 0, 1))


class TestFieldMaps:
    def test_rest_maps_to_barochronous(self, params11):
        img = map_field_rsw_to_sw(rest_state(1.0, params11, frame="cartesian"))
        ref = barochronous_sw(1.0, params11)
        for t in (-2.0, 0.0, 1.5, 4.0):
            for x, y in ((0.4, 0.8), (-1.0, 0.2)):
                assert np.allclose(img.eval(t, x, y), ref.eval(t, x, y), atol=1e-12)
        rep = residual_cartesian(img, points=sample_grid(ref, (6, 6, 6)))
        assert rep.max_residual < 1e-6
        assert rep.coriolis == 0.0

    def test_constant_stream_maps_to_closed_form(self, params11):
        from rswlab.core import FlowField

        const = FlowField(
            "cartesian", params11,
            lambda t, x, y: (1.0, 0.5, 1.0),
            lambda t, x, y: (np.array([1.0, 0.5, 1.0]), np.zeros((3, 3))),
            system="sw", label="uniform-stream",
        )
        img = map_field_sw_to_rsw(const, params11)
        ref = constant_sw_image(1.0, 0.5, 1.0, params11)
        for t in (0.5, 2.0, 5.0):
            for x, y in ((0.3, 0.7), (-1.0, -0.4)):
                assert np.allclose(img.eval(t, x, y), ref.eval(t, x, y), atol=1e-10)

    def test_sw_image_of_cylinder_solves_plain_system(self, params11):
        from rswlab.core import as_cartesian
        from rswlab.transforms import equiv_jet_array

        cyl = as_cartesian(pulsating_cylinder(2.0, 1.0, params11))
        img = map_field_rsw_to_sw(cyl, params11)
        src_pts = sample_grid(constant_sw_image(1.0, 0.5, 1.0, params11), (20, 20, 20))
        img_pts = np.array(
            [equiv_jet_array([t, x, y, 0, 0, 1], params11)[:3] for t, x, y in src_pts]
        )
        rep = residual_cartesian(img, points=img_pts)
        assert rep.max_residual < 1e-6


class TestFiniteTransforms:
    def test_identity_at_unit_parameter(self):
        p0 = PolarPoint(1.1, 0.8, 0.3)
        s0 = PolarState(0.4, -0.2, 1.5)
        p, s = finite_transform(GroupAction("Y9", 1.0), p0, s0, P)
        assert p.t == pytest.approx(p0.t, abs=1e-14)
        assert p.r == pytest.approx(p0.r, abs=1e-14)
        assert p.theta == pytest.approx(p0.theta, abs=1e-14)
        assert (s.U, s.V, s.h) == pytest.approx((s0.U, s0.V, s0.h), abs=1e-14)

    def test_half_period_values_alpha_four(self):
        p, s = finite_transform(
            GroupAction("Y9", 4.0), PolarPoint(math.pi, 1.0, 0.3),
            PolarState(0.5, 0.2, 1.0), P,
        )
        assert p.t == pytest.approx(math.pi)
        assert p.r == pytest.approx(0.5)
        assert p.theta == pytest.approx(0.3)
        assert s.U == pytest.approx(1.0)  # U sqrt(alpha)
        assert s.V == pytest.approx((0.2 + 3.0 / 8.0) * 2.0)
        assert s.h == pytest.approx(4.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(InvalidParams):
            GroupAction("Y9", 0.0)
        with pytest.raises(InvalidParams):
            GroupAction("Y9", -2.0)

    @pytest.mark.parametrize("gen", ["Y7", "Y8", "Y9"])
    def test_composition_law(self, gen):
        rng = np.random.default_rng(9)
        f = 1.3
        params = FlowParameters(f, 1.0)
        worst = 0.0
        for _ in range(10):
            t = rng.uniform(0.2, 4.0)
            r = rng.uniform(0.2, 2.0)
            th = rng.uniform(-3, 3)
            state = PolarState(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2))
            a1, a2 = rng.uniform(-0.7, 0.7, 2)
            if gen == "Y9":
                g1 = GroupAction(gen, math.exp(-2 * a1))
                g2 = GroupAction(gen, math.exp(-2 * a2))
                g12 = GroupAction(gen, math.exp(-2 * (a1 + a2)))
            else:
                g1, g2 = GroupAction(gen, a1), GroupAction(gen, a2)
                g12 = GroupAction(gen, a1 + a2)
            p1, s1 = finite_transform(g2, PolarPoint(t, r, th), state, params)
            p2, s2 = finite_transform(g1, p1, s1, params)
            p3, s3 = finite_transform(g12, PolarPoint(t, r, th), state, params)
            worst = max(
                worst,
                abs(p2.t - p3.t), abs(p2.r - p3.r), abs(p2.theta - p3.theta),
                abs(s2.U - s3.U), abs(s2.V - s3.V), abs(s2.h - s3.h),
            )
        assert worst < 1e-10

    @pytest.mark.parametrize("gen", ["Y7", "Y8", "Y9"])
    def test_matches_generator_flow_integration(self, gen):
        # Independent oracle: integrate d(state)/da = generator(state) and
        # compare with the closed-form map.
        f = 1.3
        params = FlowParameters(f, 1.0)

        def y7(state):
            t, r, th, U, V, h = state
            s, c = math.sin(f * t), math.cos(f * t)
            return np.array([
                (1 - c) / f, 0.5 * r * s, -0.5 * (1 - c),
                -0.5 * (U * s - f * r * c), -0.5 * (V + f * r) * s, -h * s,
            ])

        def y8(state):
            out = -y7(state)
            out[0] += 2.0 / f
            out[2] += -1.0
            return out

        def y9(state):
            t, r, th, U, V, h = state
            s, c = math.sin(f * t), math.cos(f * t)
            return np.array([
                -2.0 * s / f, -r * c, s,
                U * c + f * r * s, (V + f * r) * c, 2 * h * c,
            ])

        rhs = {"Y7": y7, "Y8": y8, "Y9": y9}[gen]
        state0 = np.array([0.9, 1.4, 0.33, 0.21, -0.56, 1.8])
        for a in (0.35, -0.8):
            y = state0.copy()
            n = 4000
            hstep = a / n
            for _ in range(n):
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * hstep * k1)
                k3 = rhs(y + 0.5 * hstep * k2)
                k4 = rhs(y + hstep * k3)
                y = y + (hstep / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            param = math.exp(-2 * a) if gen == "Y9" else a
            p, s = finite_transform(
                GroupAction(gen, param),
                PolarPoint(*state0[:3]), PolarState(*state0[3:]), params,
            )
            closed = np.array([p.t, p.r, p.theta, s.U, s.V, s.h])
            assert np.max(np.abs(closed - y)) < 1e-9

    def test_one_sided_limits_match_half_period_values(self):
        # extrapolated limits from t* -/+ eps agree with the continuation
        f = 1.0
        params = FlowParameters(f, 1.0)
        t_star = math.pi / f
        state = PolarState(0.3, -0.2, 1.1)

        def snapshot(t, alpha):
            p, s = finite_transform(
                GroupAction("Y9", alpha), PolarPoint(t, 1.2, 0.4), state, params
            )
            return np.array([p.t, p.r, p.theta, s.U, s.V, s.h])

        for alpha in (0.5, 4.0):
            at_star = snapshot(t_star, alpha)
            for side in (-1.0, +1.0):
                eps = 1e-6
                a = snapshot(t_star + side * eps, alpha)
                b = snapshot(t_star + side * eps / 2, alpha)
                limit = 2.0 * b - a  # linear extrapolation to eps -> 0
                assert np.max(np.abs(limit - at_star)) < 1e-8

    def test_y9_periodic_time_bookkeeping(self):
        # shifting t by one full period shifts the mapped time equally
        f, alpha = 1.0, 2.0
        period = 2 * math.pi / f
        for t in (0.4, 2.0, 4.4):
            t1 = y9_time_map(t, alpha, f)
            t2 = y9_time_map(t + period, alpha, f)
            assert t2 - t1 == pytest.approx(period, abs=1e-12)


class TestTransport:
    def test_identity_for_unit_alpha(self, params11):
        field = pulsating_drop(2.0, params11)
        moved = transport_solution(field, 1.0, params11)
        for t in (0.0, 1.1, math.pi):
            for r in (0.3, 0.9):
                assert np.allclose(
                    moved.values_unchecked(t, r, 0.2),
                    field.values_unchecked(t, r, 0.2),
                    atol=1e-12,
                )

    def test_rest_transports_to_cylinder(self, params11):
        moved = transport_solution(rest_state(1.0, params11), 2.0, params11)
        cyl = pulsating_cylinder(2.0, 1.0, params11)
        for t in (0.0, 0.7, math.pi, 4.0, 2 * math.pi):
            for r in (0.3, 1.0, 1.9):
                assert np.allclose(
                    moved.values_unchecked(t, r, 0.4),
                    cyl.values_unchecked(t, r, 0.4),
                    atol=1e-12,
                )

    def test_quadratic_profile_transports_to_drop(self, params11):
        from rswlab.solutions import drop_swirl_coefficient, profile_quadratic

        alpha = 2.0
        l = drop_swirl_coefficient(alpha, params11)
        h0 = params11.f ** 4 / (12 * params11.g * l * l)
        base = stationary_rotsym(profile_quadratic(l), h0, params11, r_max=2.4)
        moved = transport_solution(base, alpha, params11)
        drop = pulsating_drop(alpha, params11)
        for t in (0.3, 1.4, math.pi):
            for r in (0.2, 0.8, 1.3):
                assert np.allclose(
                    moved.values_unchecked(t, r, 0.1),
                    drop.values_unchecked(t, r, 0.1),
                    atol=1e-9,
                )
        rep = residual_polar(moved, points=sample_grid(drop, (5, 5, 4)))
        assert rep.max_residual < 1e-6

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_every_polar_catalog_family_transports(self, catalog, alpha):
        # transporting any member of the catalog yields another solution
        for name, field in catalog.items():
            if field.frame != "polar":
                continue
            params = field.params
            moved = transport_solution(field, alpha, params)
            period = params.period
            t_lo = max(moved.window.t_lo, 0.0)
            t_hi = min(moved.window.t_hi, period)
            span = t_hi - t_lo
            pts = []
            for t in np.linspace(t_lo + 0.06 * span, t_hi - 0.06 * span, 4):
                lo, hi = moved.window.radial_bounds(t)
                lo = max(lo, 0.02)
                if not math.isfinite(hi):
                    hi = lo + 2.0 / math.sqrt(alpha)
                for r in np.linspace(lo + 0.06 * (hi - lo), hi - 0.06 * (hi - lo), 4):
                    for th in (0.1, 2.4):
                        pts.append((t, r, th))
            rep = residual_polar(moved, points=np.array(pts))
            assert rep.max_residual < 1e-6, (name, alpha, rep.max_residual)

    def test_transported_swirl_paths_match_formula(self, params11):
        # generic transported stationary swirl: closed-form path against
        # direct integration of the particle equations
        from rswlab.solutions import trajectory_formula
        from rswlab.verify import integrate_trajectory

        base = stationary_rotsym(profile_gauss(0.5), 1.0, params11)
        moved = transport_solution(base, 2.0, params11)
        r0, th0 = 0.8, 0.4
        formula = trajectory_formula(moved, r0, th0)
        record = np.linspace(0.0, 2 * math.pi, 17)
        traj = integrate_trajectory(moved, r0, th0, 0.0, 2 * math.pi, record=record)
        for t, (r, th) in zip(traj.times, traj.positions):
            assert abs(r - formula.r_of_t(t)) < 1e-7
            assert abs(th - formula.theta_of_t(t)) < 1e-7

    def test_rejects_bad_alpha(self, params11):
        with pytest.raises(InvalidParams):
            transport_solution(rest_state(1.0, params11), 0.0, params11)
        with pytest.raises(InvalidParams):
            transport_solution(rest_state(1.0, params11), -1.0, params11)


class TestY9GroupLaw:
    """Transport twice by alpha then beta is transport once by alpha * beta."""

    @given(
        alpha=st.floats(0.5, 3.0), beta=st.floats(0.5, 3.0),
        t=st.floats(0.0, 2.0 * math.pi), r=st.floats(0.05, 2.0), theta=st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_composition_is_the_cylinder_of_the_product(self, alpha, beta, t, r, theta):
        rest = rest_state(1.0, P)
        twice = transport_solution(transport_solution(rest, alpha), beta)
        once = pulsating_cylinder(alpha * beta, 1.0, P)
        want = once.eval(t, r, theta)
        got = twice.eval(t, r, theta)
        # measured 2.1e-15 at alpha = 2, beta = 3
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max())
        # the column's gradients are of order f times its state, and vanish
        # where alpha * beta = 1 makes it the rest state
        (_, grad), (_, want_grad) = twice.jet(t, r, theta), once.jet(t, r, theta)
        scale = max(np.abs(want_grad).max(), P.f * np.abs(want).max())
        assert np.all(np.abs(grad - want_grad) <= 1e-12 * scale)

    def test_inverse_parameters_compose_to_rest(self):
        rest = rest_state(1.0, P)
        for alpha in (2.0, 3.0, 0.5):
            back = transport_solution(transport_solution(rest, alpha), 1.0 / alpha)
            values, grad = back.jet(1.3, 0.8, 0.2)
            assert np.all(np.abs(values - [0.0, 0.0, 1.0]) <= 1e-15)
            assert np.all(np.abs(grad) <= 1e-15)
