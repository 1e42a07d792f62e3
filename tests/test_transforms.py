import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rswlab.core import FlowParameters
from rswlab.errors import InvalidParams, SingularTime
from rswlab.solutions import (
    barochronous_sw,
    constant_sw_image,
    make_family,
    pulsating_cylinder,
    pulsating_drop,
    rest_state,
    stationary_rotsym,
    profile_gauss,
)
from rswlab.transforms import (
    GroupAction,
    equiv_jet_array,
    finite_transform,
    map_field_rsw_to_sw,
    map_field_sw_to_rsw,
    transport_solution,
    y9_dilation,
)
from rswlab.verify import residual_report, sample_grid

P = FlowParameters(1.0, 1.0)


class TestEquivalencePoint:
    def test_rest_state_at_half_period(self):
        t, x, y, u, v, h = equiv_jet_array((math.pi, 0.8, -0.3, 0, 0, 2.0), P)
        assert t == pytest.approx(0.0, abs=1e-15)
        assert x == pytest.approx(-0.3 / 2)
        assert y == pytest.approx(-0.8 / 2)
        assert u == pytest.approx(0.8 / 2)
        assert v == pytest.approx(-0.3 / 2)
        assert h == pytest.approx(2.0)
        # consistency with the barochronous image at t' = 0: u' = -f y', v' = f x'
        assert u == pytest.approx(-y)
        assert v == pytest.approx(x)

    @given(
        t=st.floats(0.3, 5.9),
        x=st.floats(-2, 2), y=st.floats(-2, 2),
        u=st.floats(-2, 2), v=st.floats(-2, 2), h=st.floats(0.1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, t, x, y, u, v, h):
        image = equiv_jet_array((t, x, y, u, v, h), P)
        t2, x2, y2, u2, v2, h2 = equiv_jet_array(image, P, direction="sw2rsw")
        assert abs(t2 - t) < 1e-10
        assert abs(x2 - x) < 1e-10 and abs(y2 - y) < 1e-10
        assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9 and abs(h2 - h) < 1e-10

    def test_full_period_time_is_singular(self):
        with pytest.raises(SingularTime):
            equiv_jet_array((2 * math.pi, 0.1, 0.1, 0, 0, 1), P)

    @pytest.mark.parametrize("direction", ["rws2sw", "bogus", ""])
    def test_unknown_direction_is_invalid(self, direction):
        with pytest.raises(InvalidParams, match="direction"):
            equiv_jet_array([1.0, 0.5, 0.2, 0.0, 0.0, 1.0], P, direction)


class TestFieldMaps:
    def test_rest_maps_to_barochronous(self, params11):
        img = map_field_rsw_to_sw(rest_state(1.0, params11, frame="cartesian"))
        ref = barochronous_sw(1.0, params11)
        for t in (-2.0, 0.0, 1.5, 4.0):
            for x, y in ((0.4, 0.8), (-1.0, 0.2)):
                assert np.allclose(img.eval(t, x, y), ref.eval(t, x, y), atol=1e-12)
        rep = residual_report(img, points=sample_grid(ref, (6, 6, 6)))
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

        cyl = as_cartesian(pulsating_cylinder(2.0, 1.0, params11))
        img = map_field_rsw_to_sw(cyl, params11)
        src_pts = sample_grid(constant_sw_image(1.0, 0.5, 1.0, params11), (20, 20, 20))
        img_pts = np.array(
            [equiv_jet_array([t, x, y, 0, 0, 1], params11)[:3] for t, x, y in src_pts]
        )
        rep = residual_report(img, points=img_pts)
        assert rep.max_residual < 1e-6


class TestForeignParameters:
    """A map given another system's parameters refuses, rather than
    returning a field that solves neither system."""

    @pytest.mark.parametrize("name, apply", [
        ("stationary-rotsym", lambda field, params: transport_solution(field, 2.0, params)),
        ("constant-sw-image", map_field_rsw_to_sw),
        ("barochronous-sw", map_field_sw_to_rsw),
    ], ids=["transport", "rsw2sw", "sw2rsw"])
    def test_only_the_source_parameters_are_accepted(self, name, apply):
        field = make_family(name, P)
        with pytest.raises(InvalidParams, match="differ from the source's"):
            apply(field, FlowParameters(2.0, 1.0))
        assert apply(field, FlowParameters(1.0, 1.0)).params is field.params


class TestFieldMapRoundTrips:
    """Mapping a field to the other system and back gives the field again."""

    @staticmethod
    def assert_same(back, field_, t, x, y, tol=1e-12):
        values, grad = back.jet(t, x, y)
        want, want_grad = field_.jet(t, x, y)
        assert np.all(np.abs(values - want) <= tol * max(1.0, np.abs(want).max()))
        assert np.all(np.abs(grad - want_grad) <= tol * max(1.0, np.abs(want_grad).max()))

    @given(
        name=st.sampled_from(["pulsating-cylinder", "pulsating-drop", "constant-sw-image", "rest"]),
        u=st.floats(0.01, 0.99), x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0),
    )
    @example(name="pulsating-cylinder", u=0.9899999999999999, x=0.0, y=0.0)  # 1.46e-12
    @settings(max_examples=80, deadline=None)
    def test_rsw_to_sw_and_back(self, name, u, x, y):
        from rswlab.core import as_cartesian
        from rswlab.solutions import make_family

        field_ = as_cartesian(make_family(name, P))
        back = map_field_sw_to_rsw(map_field_rsw_to_sw(field_))
        # The intermediate image is conditioned like 1/sin^3(pi u) near the
        # singular times.  Over 8,000 random points with u within 0.06 of
        # them the error was at most 0.57 eps/sin^3(pi u) (the cylinder's
        # jets), and below 1e-12 elsewhere (3.7e-14 for values, 1.8e-15 for
        # jets in mid-period); 2 eps/sin^3(pi u) leaves a margin.
        tol = max(1e-12, 2.0 * np.finfo(float).eps / math.sin(math.pi * u) ** 3)
        self.assert_same(back, field_, u * P.period, x, y, tol)

    @given(u=st.floats(0.01, 0.99), x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_sw_to_rsw_and_back(self, u, x, y):
        field_ = barochronous_sw(1.0, P)
        back = map_field_rsw_to_sw(map_field_sw_to_rsw(field_))
        # the image window of the principal period, (-1/tan(f t/2)) / f
        tp = -1.0 / (P.f * math.tan(math.pi * u))
        self.assert_same(back, field_, tp, x, y)


class TestFiniteTransforms:
    def test_identity_at_unit_parameter(self):
        point = (1.1, 0.8, 0.3, 0.4, -0.2, 1.5)
        image = finite_transform(GroupAction("Y9", 1.0), point, P)
        assert tuple(image) == pytest.approx(point, abs=1e-14)

    def test_half_period_values_alpha_four(self):
        t, r, theta, U, V, h = finite_transform(
            GroupAction("Y9", 4.0), (math.pi, 1.0, 0.3, 0.5, 0.2, 1.0), P
        )
        assert t == pytest.approx(math.pi)
        assert r == pytest.approx(0.5)
        assert theta == pytest.approx(0.3)
        assert U == pytest.approx(1.0)  # U sqrt(alpha)
        assert V == pytest.approx((0.2 + 3.0 / 8.0) * 2.0)
        assert h == pytest.approx(4.0)

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
            state = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2))
            a1, a2 = rng.uniform(-0.7, 0.7, 2)
            if gen == "Y9":
                g1 = GroupAction(gen, math.exp(-2 * a1))
                g2 = GroupAction(gen, math.exp(-2 * a2))
                g12 = GroupAction(gen, math.exp(-2 * (a1 + a2)))
            else:
                g1, g2 = GroupAction(gen, a1), GroupAction(gen, a2)
                g12 = GroupAction(gen, a1 + a2)
            point = (t, r, th, *state)
            twice = finite_transform(g1, finite_transform(g2, point, params), params)
            once = finite_transform(g12, point, params)
            worst = max(worst, float(np.max(np.abs(twice - once))))
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
            closed = finite_transform(GroupAction(gen, param), state0, params)
            assert np.max(np.abs(closed - y)) < 1e-9

    def test_one_sided_limits_match_half_period_values(self):
        # extrapolated limits from t* -/+ eps agree with the value at t*, the
        # half-period time where the tangent form of each action breaks down
        f = 1.0
        params = FlowParameters(f, 1.0)
        state = (0.3, -0.2, 1.1)
        cases = [("Y9", math.pi / f, (0.5, 4.0)), ("Y8", math.pi / f, (0.7, -1.3)),
                 ("Y7", 2.0 * math.pi / f, (0.7, -1.3))]

        def snapshot(gen, t, param):
            return finite_transform(GroupAction(gen, param), (t, 1.2, 0.4, *state), params)

        for gen, t_star, parameters in cases:
            for param in parameters:
                at_star = snapshot(gen, t_star, param)
                for side in (-1.0, +1.0):
                    eps = 1e-6
                    a = snapshot(gen, t_star + side * eps, param)
                    b = snapshot(gen, t_star + side * eps / 2, param)
                    limit = 2.0 * b - a  # linear extrapolation to eps -> 0
                    assert np.max(np.abs(limit - at_star)) < 1e-8, (gen, param, side)

    def test_y9_periodic_time_bookkeeping(self):
        # shifting t by one full period shifts the mapped time equally
        f, alpha = 1.0, 2.0
        period = 2 * math.pi / f
        for t in (0.4, 2.0, 4.4):
            t1 = y9_dilation(t, alpha, f)[0]
            t2 = y9_dilation(t + period, alpha, f)[0]
            assert t2 - t1 == pytest.approx(period, abs=1e-12)


class TestParabolicActionsAgainstMpmath:
    """Y7 and Y8 against their tangent forms at 40 digits, half periods included."""

    @staticmethod
    def tangent_form(mp, gen, t, r, theta, U, V, h, a, f):
        # the flows integrated in tan(f t/2) (Y8) or -cot(f t/2) (Y7), with the
        # offsets that make tbar continuous; finite at every float t in 40 digits
        t, r, theta, U, V, h, a, f = map(mp.mpf, (t, r, theta, U, V, h, a, f))
        if gen == "Y8":
            sig = mp.tan(f * t / 2)
            offset = 2 * mp.pi * mp.floor(f * t / (2 * mp.pi) + mp.mpf(1) / 2) / f
        else:
            sig = -mp.cot(f * t / 2)
            offset = (2 * mp.floor(f * t / (2 * mp.pi)) + 1) * mp.pi / f
        num, den = sig * sig + 1, (sig + a) ** 2 + 1
        ratio = mp.sqrt(den / num)
        return [
            (2 / f) * mp.atan(sig + a) + offset,
            r / ratio,
            theta + mp.atan(sig) - mp.atan(sig + a),
            (U + (f * r / 2) * (sig * sig + a * sig - 1) * a / den) * ratio,
            (V + (f * r / 2) * (2 * sig + a) * a / den) * ratio,
            h * den / num,
        ]

    @pytest.mark.parametrize("gen", ["Y7", "Y8"])
    def test_matches_40_digit_tangent_form(self, gen):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        worst, near = 0.0, 0
        for i in range(240):
            f = float(rng.choice([0.37, 1.0, 2.0]))
            t = rng.uniform(-20.0, 20.0)
            if i % 3 == 0:  # within 2e-9 of a time where the tangent form is singular
                k = int(rng.integers(-3, 4))
                t = (2 * k + (gen == "Y8")) * math.pi / f + rng.uniform(-2e-9, 2e-9)
            half = f * t / 2.0
            near += abs(math.cos(half) if gen == "Y8" else math.sin(half)) < 1e-9
            a, r, theta = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 2.0), rng.uniform(-3.0, 3.0)
            U, V, h = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
            image = finite_transform(GroupAction(gen, a), (t, r, theta, U, V, h), FlowParameters(f, 1.0))
            with mpmath.workdps(40):
                want = self.tangent_form(mpmath, gen, t, r, theta, U, V, h, a, f)
                for got, w in zip(image.tolist(), want):
                    # measured 4.2e-15, within 2e-9 of the tangent form's singular times and away from them
                    worst = max(worst, float(abs(mpmath.mpf(got) - w) / max(1, abs(w))))
        assert near >= 40
        assert worst <= 1e-13

    @pytest.mark.parametrize("gen", ["Y7", "Y8"])
    def test_large_parameter_near_its_turning_time(self, gen):
        # near f t = pi + 2/a (Y8; Y7 a half period earlier) tan(f t/2) = -a
        # and 1/rho^2 is O(1/a^2): a form whose O(1) terms cancel to it loses
        # eps a^4.  The rounding of sin and cos of f t/2 alone moves the action
        # by about eps |a| relative, and U by eps a^2; measured at most
        # 3 eps |a| and 0.4 eps a^2.  f is a power of two, so f t/2 is exact.
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        rng = np.random.default_rng(12)
        for _ in range(48):
            f = float(rng.choice([0.5, 1.0, 2.0]))
            a = float(rng.choice([1e2, -1e2, 1e4, -1e4]))
            k = int(rng.integers(-2, 3))
            t = ((2 * k + (gen == "Y8")) * math.pi + 2.0 / a) / f + rng.uniform(-1.0, 1.0) / (f * a * a)
            r, theta = rng.uniform(0.1, 2.0), rng.uniform(-3.0, 3.0)
            U, V, h = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
            image = finite_transform(GroupAction(gen, a), (t, r, theta, U, V, h), FlowParameters(f, 1.0))
            with mpmath.workdps(40):
                want = self.tangent_form(mpmath, gen, t, r, theta, U, V, h, a, f)
                got = image.tolist()
                err = [float(abs(mpmath.mpf(g) - w) / max(1, abs(w))) for g, w in zip(got, want)]
            assert err[3] <= eps * a * a, (a, f, t)
            assert max(err[:3] + err[4:]) <= 8 * eps * abs(a), (a, f, t)


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
        base = stationary_rotsym(profile_quadratic(l), h0, params11)
        moved = transport_solution(base, alpha, params11)
        drop = pulsating_drop(alpha, params11)
        for t in (0.3, 1.4, math.pi):
            for r in (0.2, 0.8, 1.3):
                assert np.allclose(
                    moved.values_unchecked(t, r, 0.1),
                    drop.values_unchecked(t, r, 0.1),
                    atol=1e-9,
                )
        rep = residual_report(moved, points=sample_grid(drop, (5, 5, 4)))
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
            rep = residual_report(moved, points=np.array(pts))
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
