import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rswlab.core import (
    FlowField,
    FlowParameters,
    Jet,
    as_cartesian,
    diagnostics,
    potential_vorticity,
    scale_depth,
)
from rswlab.errors import InvalidParams, WindowViolation, ZeroDepth
from rswlab.solutions import (
    default_catalog,
    pulsating_cylinder,
    rest_state,
    stationary_ring,
)
from rswlab.transforms import (
    GroupAction,
    equiv_jet_array,
    finite_transform,
    map_field_rsw_to_sw,
    map_field_sw_to_rsw,
    transport_solution,
)
from rswlab.verify import sample_grid


class TestFlowParameters:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParams):
            FlowParameters(0.0, 1.0)
        with pytest.raises(InvalidParams):
            FlowParameters(1.0, -9.8)
        with pytest.raises(InvalidParams):
            FlowParameters(math.nan, 1.0)

    def test_period(self):
        assert FlowParameters(2.0, 1.0).period == pytest.approx(math.pi)


class TestCoordinateConversion:
    """The polar-to-Cartesian rotation of a state, as :func:`as_cartesian` applies it."""

    @staticmethod
    def uniform_polar(U, V, h, params):
        return FlowField("polar", params, lambda t, r, theta: (U, V, h))

    def test_theta_zero_identity(self, params11):
        cart = as_cartesian(self.uniform_polar(1.0, 0.0, 2.0, params11))
        assert tuple(cart.eval(0.0, 1.0, 0.0)) == (1.0, 0.0, 2.0)

    def test_quarter_turn(self, params11):
        cart = as_cartesian(self.uniform_polar(0.0, 1.0, 1.0, params11))
        u, v, h = cart.eval(0.0, 0.0, 1.0)
        assert u == pytest.approx(-1.0)
        assert v == pytest.approx(0.0, abs=1e-15)
        assert h == 1.0

    @given(U=st.floats(-5, 5), V=st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_speed_is_exact_quadrature_of_components(self, U, V):
        params = FlowParameters(1.0, 1.0)
        field = rest_state(1.0, params)
        diag = diagnostics(field, 0.0, 1.0, 0.0)
        assert diag.speed == 0.0
        # independent of frame bookkeeping: q^2 = U^2 + V^2 exactly
        q = math.hypot(U, V)
        assert q * q == pytest.approx(U * U + V * V, rel=1e-15)


class TestDiagnostics:
    def test_rest_state_pv(self, params11):
        field = rest_state(1.0, params11)
        omega = potential_vorticity(field, 0.3, 0.5, 0.1)
        assert omega == pytest.approx(1.0, abs=1e-14)

    def test_rest_state_froude_zero(self, params11):
        d = diagnostics(rest_state(1.0, params11), 0.0, 1.0, 0.0)
        assert d.froude == 0.0

    def test_cylinder_pv_constant(self):
        params = FlowParameters(1.0, 1.0)
        field = pulsating_cylinder(2.0, 2.0, params)
        for t, r in [(0.0, 0.5), (1.3, 1.2), (math.pi, 0.8), (5.1, 1.9)]:
            omega = potential_vorticity(field, t, r, 0.7)
            assert omega == pytest.approx(0.5, abs=1e-12)

    def test_solid_body_pv(self, params11):
        # u = -omega y, v = omega x, h = h0: curl = 2 omega
        omega_rot, h0 = 0.5, 2.0

        def value_fn(t, x, y):
            return -omega_rot * y, omega_rot * x, h0

        def jet_fn(t, x, y):
            vals = np.array([-omega_rot * y, omega_rot * x, h0])
            grad = np.array([[0.0, 0.0, -omega_rot], [0.0, omega_rot, 0.0], [0.0, 0.0, 0.0]])
            return vals, grad

        field = FlowField("cartesian", params11, value_fn, jet_fn)
        val = potential_vorticity(field, 0.0, 0.4, -0.2)
        assert val == pytest.approx((2 * omega_rot + 1.0) / h0)

    def test_ring_froude_one_at_critical_depth(self, ring_params):
        # At depth h_s = (2 C1 - C2 f) / (3 g) the Froude number is one;
        # find a radius where the depth cubic passes through h_s.
        from rswlab.reduction import depth_cubic_coeffs
        from scipy.optimize import brentq

        C1 = C2 = C3 = 1.0
        h_s = (2 * C1 - C2 * ring_params.f) / (3 * ring_params.g)
        assert h_s == pytest.approx(0.6333333333333333)

        def F(r):
            phi1, phi2 = depth_cubic_coeffs(r, C1, C2, C3, ring_params)
            return h_s ** 3 + phi1 * h_s ** 2 + phi2

        r_star = brentq(F, 2.2, 10.0, xtol=1e-14)
        U = C3 / (r_star * h_s)
        V = C2 / r_star - ring_params.f * r_star / 2
        q = math.hypot(U, V)
        fr = q / math.sqrt(ring_params.g * h_s)
        assert fr == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [potential_vorticity, diagnostics])
    @pytest.mark.parametrize("slope", [math.inf, -math.inf, math.nan])
    def test_nonfinite_gradient_raises_like_nonfinite_values(self, entry, slope, params11):
        # finite values, dv/dr not finite: the PV would come back inf or NaN
        def jet_fn(t, r, th):
            grad = np.zeros((3, 3))
            grad[1, 1] = slope
            return np.array([0.0, 0.5 * r, 1.0]), grad

        field = FlowField("polar", params11, lambda t, r, th: (0.0, 0.5 * r, 1.0), jet_fn)
        with pytest.raises(WindowViolation, match=r"non-finite values at \(t=0.5, 0.7, 0.1\)"):
            entry(field, 0.5, 0.7, 0.1)

    def test_zero_depth_raises(self, params11):
        field = FlowField(
            "polar", params11, lambda t, r, th: (0.0, 0.0, 0.0),
            lambda t, r, th: (np.zeros(3), np.zeros((3, 3))),
        )
        with pytest.raises(ZeroDepth):
            diagnostics(field, 0.0, 1.0, 0.0)
        with pytest.raises(ZeroDepth):
            potential_vorticity(field, 0.0, 1.0, 0.0)


P11 = FlowParameters(1.0, 1.0)
REST = rest_state(1.0, P11)
Y9 = GroupAction("Y9", 2.0)


class TestPointChecks:
    """Every entry that takes a point checks it there and raises InvalidParams."""

    @pytest.mark.parametrize(
        "entry, args, match",
        [
            pytest.param(potential_vorticity, (REST, math.nan, 1.0, 0.0), "t must be finite", id="pv-t"),
            pytest.param(diagnostics, (REST, 0.0, math.inf, 0.0), "a must be finite", id="diagnostics-a"),
            pytest.param(potential_vorticity, (as_cartesian(REST), 0.0, 0.5, math.nan),
                         "b must be finite", id="pv-b"),
            pytest.param(diagnostics, (as_cartesian(REST), -math.inf, 0.5, 0.2),
                         "t must be finite", id="diagnostics-t"),
            pytest.param(potential_vorticity, (REST, 0.0, -0.5, 0.0),
                         "radius must be nonnegative", id="pv-negative-r"),
            pytest.param(diagnostics, (REST, 0.0, -1e-300, 0.0),
                         "radius must be nonnegative", id="diagnostics-negative-r"),
            pytest.param(finite_transform, (Y9, (math.nan, 1.0, 0.0, 0.0, 0.0, 1.0), P11),
                         "t must be finite", id="finite-transform-t"),
            pytest.param(finite_transform, (Y9, (0.5, 1.0, 0.0, math.inf, 0.0, 1.0), P11),
                         "c1 must be finite", id="finite-transform-U"),
            pytest.param(finite_transform, (Y9, (0.5, 1.0, 0.0, 0.0, 0.0), P11),
                         "six numbers", id="finite-transform-length"),
            pytest.param(finite_transform, (Y9, (0.5, 1.0, 0.0, 0.0, 0.0, -1.0), P11),
                         "depth must be nonnegative", id="finite-transform-depth"),
            pytest.param(finite_transform, (Y9, (0.5, -1.0, 0.0, 0.0, 0.0, 1.0), P11),
                         "radius must be nonnegative", id="finite-transform-negative-r"),
            pytest.param(equiv_jet_array, ((1.0, math.nan, 0.2, 0.0, 0.0, 1.0), P11),
                         "a must be finite", id="equiv-x"),
            pytest.param(equiv_jet_array, ((-math.inf, 0.5, 0.2, 0.0, 0.0, 1.0), P11, "sw2rsw"),
                         "t must be finite", id="equiv-inverse-t"),
            pytest.param(equiv_jet_array, ((1.0, 0.5, 0.2, 0.0, 0.0, -0.1), P11),
                         "depth must be nonnegative", id="equiv-depth"),
            pytest.param(equiv_jet_array, ((1.0, 0.5, 0.2, 0.0, 0.0, -0.1), P11, "sw2rsw"),
                         "depth must be nonnegative", id="equiv-inverse-depth"),
        ],
    )
    def test_rejects_bad_point(self, entry, args, match):
        with pytest.raises(InvalidParams, match=match):
            entry(*args)


class TestFlowFieldWindow:
    def test_outside_window_raises(self, params11):
        from rswlab.solutions import constant_sw_image

        field = constant_sw_image(1.0, 0.5, 1.0, params11)
        with pytest.raises(WindowViolation):
            field.eval(2 * math.pi, 0.0, 0.0)
        with pytest.raises(WindowViolation):
            field.eval(-0.3, 0.0, 0.0)

    def test_arithmetic_error_of_a_point_is_a_nonfinite_value(self, params11):
        from rswlab.solutions import constant_sw_image

        field = constant_sw_image(1.0, 0.5, 1.0, params11)
        t = field.params.period * (1.0 - 1.5e-9)  # inside the guard band's end
        with pytest.raises(WindowViolation, match="non-finite"):
            field.eval(t, 0.5, 0.0)  # cos(f t) rounds to 1: a float division by zero

    @pytest.mark.parametrize("call", ["block-eval", "block-jet", "scalar-jet"])
    def test_arithmetic_error_of_a_block_or_jet_is_a_nonfinite_value(self, call, params11):
        from rswlab.solutions import constant_sw_image

        field = constant_sw_image(1.0, 0.5, 1.0, params11)
        t = field.params.period * (1.0 - 1.5e-9)  # the time factor divides by zero
        a, b = (np.array([0.5]), np.array([0.0])) if call.startswith("block") else (0.5, 0.0)
        evaluate = field.eval if call == "block-eval" else field.jet
        # a block is named by its first point
        with pytest.raises(WindowViolation, match=rf"non-finite values at \(t={t!r}, 0.5, 0.0\)"):
            evaluate(t, a, b)

    @pytest.mark.parametrize("step", [0.0, -1e-5, math.nan, math.inf])
    def test_fd_step_must_be_finite_and_positive(self, step, params11):
        with pytest.raises(InvalidParams):
            pulsating_cylinder(2.0, 1.0, params11).with_derivative_mode("fd", step)

    def test_ring_radial_window(self, ring_params):
        field = stationary_ring(1.0, 1.0, 1.0, ring_params)
        with pytest.raises(WindowViolation):
            field.eval(0.0, 1.0, 0.0)  # inside the inner sonic radius

    def test_fd_jet_matches_analytic(self, params11):
        field = pulsating_cylinder(2.0, 1.0, params11)
        fd = field.with_derivative_mode("fd")
        va, ga = field.jet(0.7, 1.1, 0.2)
        vf, gf = fd.jet(0.7, 1.1, 0.2)
        assert np.allclose(va, vf, atol=1e-14)
        assert np.allclose(ga, gf, atol=1e-8)


class TestCartesianView:
    def test_values_and_jets_agree_with_polar(self, params11):
        field = pulsating_cylinder(2.0, 1.0, params11)
        cart = as_cartesian(field)
        t, x, y = 0.9, 0.7, -0.4
        r, th = math.hypot(x, y), math.atan2(y, x)
        U, V, h = field.eval(t, r, th)
        u, v, hh = cart.eval(t, x, y)
        ct, stn = math.cos(th), math.sin(th)
        assert u == pytest.approx(U * ct - V * stn, rel=1e-14)
        assert v == pytest.approx(U * stn + V * ct, rel=1e-14)
        assert hh == pytest.approx(h, rel=1e-14)
        # chain-rule jets agree with finite differences of the view
        _, g_analytic = cart.jet(t, x, y)
        _, g_fd = cart.with_derivative_mode("fd").jet(t, x, y)
        assert np.allclose(g_analytic, g_fd, atol=1e-8)


def _array_views():
    """Every catalog family plus the views built on top of them.

    Each entry is (field, polar source): a Cartesian view of a polar family
    is sampled through its source, so its points stay in the source window.
    """
    catalog = default_catalog()
    views = {name: (field, None) for name, field in catalog.items()}
    for name, field in catalog.items():
        if field.frame == "polar":
            views[f"cartesian({name})"] = (as_cartesian(field), field)
    for name in ("rest", "stationary-rotsym", "pulsating-drop"):
        views[f"transport({name})"] = (transport_solution(catalog[name], 1.7), None)
    cylinder = as_cartesian(catalog["pulsating-cylinder"])
    views["rsw2sw(pulsating-cylinder)"] = (map_field_rsw_to_sw(cylinder), None)
    views["rsw2sw(constant-sw-image)"] = (map_field_rsw_to_sw(catalog["constant-sw-image"]), None)
    views["sw2rsw(barochronous-sw)"] = (map_field_sw_to_rsw(catalog["barochronous-sw"]), None)
    for name in ("stationary-rotsym", "pulsating-drop", "constant-sw-image"):
        views[f"scale_depth({name})"] = (scale_depth(catalog[name], 1.01), None)
    return views


ARRAY_VIEWS = _array_views()


def _draw_block(data, field, source):
    """A time of the field's sample grid and in-window positions at it."""
    base = source if source is not None else field
    grid = sample_grid(base, (4, 5, 3))
    t = data.draw(st.sampled_from(sorted(set(grid[:, 0].tolist()))), label="t")
    rows = grid[grid[:, 0] == t]
    k = data.draw(st.integers(1, 6), label="points")
    shape = data.draw(st.sampled_from([(k,), (1, k), (k, 1)]), label="shape")
    unit = st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)
    fa = np.reshape(data.draw(unit, label="a"), shape)
    fb = np.reshape(data.draw(unit, label="b"), shape)
    a = rows[:, 1].min() + fa * (rows[:, 1].max() - rows[:, 1].min())
    if base.frame == "polar":
        b = 2.0 * math.pi * fb - math.pi
    else:
        b = rows[:, 2].min() + fb * (rows[:, 2].max() - rows[:, 2].min())
    if source is not None:
        a, b = a * np.cos(b), a * np.sin(b)
    return t, a, b


class TestArrayContract:
    """``value_fn`` broadcasts: one array call equals the stacked scalar calls."""

    @pytest.mark.parametrize("name", sorted(ARRAY_VIEWS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_array_call_equals_scalar_calls(self, name, data):
        field, source = ARRAY_VIEWS[name]
        t, a, b = _draw_block(data, field, source)
        shape = a.shape

        values = field.values_unchecked(t, a, b)
        assert all(np.broadcast_shapes(np.shape(c), shape) == shape for c in values)
        stacked = np.stack([np.broadcast_to(c, shape) for c in values])
        scalar = np.array(
            [field.values_unchecked(t, x, y) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())],
            dtype=float,
        ).T.reshape((3,) + shape)
        assert np.all(np.isfinite(scalar))
        # numpy's array pow/arctan2 may differ from the scalar ones in the
        # last bit, so ulps are counted at each point's largest |component|
        ulp = np.spacing(np.abs(scalar).max(axis=0))
        assert np.all(np.abs(stacked - scalar) <= 4 * ulp)

    @pytest.mark.parametrize("name", sorted(ARRAY_VIEWS))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_checked_block_equals_scalar_calls(self, name, data):
        field, source = ARRAY_VIEWS[name]
        t, a, b = _draw_block(data, field, source)
        values = field.eval(t, a, b)
        assert values.shape == (3,) + a.shape
        points = list(zip(a.ravel().tolist(), b.ravel().tolist()))
        scalar = np.array([field.eval(t, x, y) for x, y in points]).T.reshape(values.shape)
        assert np.array_equal(values, scalar)

        fd = field if field.derivative_mode == "fd" else field.with_derivative_mode("fd")
        fd_values, grad = fd.jet(t, a, b)
        assert grad.shape == (3, 3) + a.shape
        assert np.array_equal(fd_values, values)
        scalar_grad = np.stack([fd.jet(t, x, y)[1] for x, y in points], axis=-1).reshape(grad.shape)
        assert np.all(np.abs(grad - scalar_grad) <= 1e-11 * np.abs(scalar_grad).max())

    @pytest.mark.parametrize("name", ["stationary-ring", "collapse-contact", "collapse-contact-cubic",
                                      "cartesian(stationary-ring)", "cartesian(collapse-contact)"])
    def test_block_with_one_point_outside_raises_like_scalar(self, name):
        field, source = ARRAY_VIEWS[name]
        base = source if source is not None else field
        t, r, _ = sample_grid(base, (3, 4, 2))[5]
        lo, hi = base.window.radial_bounds(t)
        outside = 1.5 * hi if math.isfinite(hi) else 0.5 * lo
        radii = np.array([r, outside, r, 2.0 * outside])
        a, b = (radii, np.full(4, 0.3)) if source is None else (radii * math.cos(0.3), radii * math.sin(0.3))
        with pytest.raises(WindowViolation) as scalar:
            field.eval(t, float(a[1]), float(b[1]))
        with pytest.raises(WindowViolation) as block:
            field.eval(t, a, b)
        assert str(block.value) == str(scalar.value)
        with pytest.raises(WindowViolation):
            field.with_derivative_mode("fd").jet(t, a, b)
        if math.isfinite(base.window.t_hi):  # blocks check the time window too
            with pytest.raises(WindowViolation):
                field.eval(base.window.t_hi, a[:1], b[:1])

    @pytest.mark.parametrize("frame", ["polar", "cartesian"])
    def test_block_with_one_nonfinite_value_raises_like_scalar(self, frame, params11):
        base = rest_state(1.0, params11, frame=frame)

        def value_fn(t, a, b):
            return a * 0.0, b * 0.0, np.where(a == 0.75, math.nan, 1.0)

        field = replace(base, value_fn=value_fn)
        a, b = np.array([0.5, 0.75, 1.0, 0.75]), np.array([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(WindowViolation) as scalar:
            field.eval(0.5, 0.75, 0.2)
        with pytest.raises(WindowViolation) as block:
            field.eval(0.5, a, b)
        assert str(block.value) == str(scalar.value)
        with pytest.raises(WindowViolation):
            field.with_derivative_mode("fd").jet(0.5, a, b)


SCALAR_VIEWS = sorted(name for name in ARRAY_VIEWS if "(" not in name or name.startswith("cartesian("))


def _error_points():
    """(view, t, a, b) cases that both scalar entries must reject alike."""
    cases = []
    for name in SCALAR_VIEWS:
        field, source = ARRAY_VIEWS[name]
        base = source if source is not None else field
        t, r, _ = sample_grid(base, (3, 4, 2))[5]
        w = base.window
        lo, hi = w.radial_bounds(t)
        points = [("guard", w.t_hi - 0.5 * w.t_guard, r)] if math.isfinite(w.t_hi) else []
        if math.isfinite(hi) or lo > 0.0:
            points.append(("radius", t, 1.5 * hi if math.isfinite(hi) else 0.5 * lo))
        for kind, t_, r_ in points:
            a, b = (r_, 0.3) if source is None else (r_ * math.cos(0.3), r_ * math.sin(0.3))
            cases.append(pytest.param(name, float(t_), float(a), float(b), id=f"{name}-{kind}"))
    # cos(f t) rounds to 1 here, and the kernel divides by zero
    cases.append(pytest.param("constant-sw-image", 2 * math.pi * (1.0 - 1.5e-9), 0.5, 0.0,
                              id="constant-sw-image-nonfinite"))
    return cases


class TestScalarKernel:
    """``FlowField._eval_point``, the float RHS's entry, is ``eval`` without the array."""

    @pytest.mark.parametrize("name", SCALAR_VIEWS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_floats_are_the_bits_of_eval(self, name, data):
        field, source = ARRAY_VIEWS[name]
        t, a, b = _draw_block(data, field, source)
        for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
            point = [float(c).hex() for c in field._eval_point(t, x, y)]
            assert point == [c.hex() for c in field.eval(t, x, y).tolist()]

    @pytest.mark.parametrize("name, t, a, b", _error_points())
    def test_errors_are_those_of_eval(self, name, t, a, b):
        field = ARRAY_VIEWS[name][0]
        with pytest.raises(WindowViolation) as point:
            field._eval_point(t, a, b)
        with pytest.raises(WindowViolation) as full:
            field.eval(t, a, b)
        assert type(point.value) is type(full.value)
        assert str(point.value) == str(full.value)


class TestJetContract:
    """Jets derived from ``value_fn``: values with the bits of ``eval``, FD-close gradients."""

    @pytest.mark.parametrize("name", sorted(ARRAY_VIEWS))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_jet_values_are_eval_and_gradients_match_fd(self, name, data):
        field, source = ARRAY_VIEWS[name]
        assert field.derivative_mode == "analytic"
        t, a, b = _draw_block(data, field, source)
        values, grad = field.jet(t, a, b)
        assert grad.shape == (3, 3) + a.shape
        assert np.array_equal(values, field.eval(t, a, b))
        for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
            assert np.array_equal(field.jet(t, x, y)[0], field.eval(t, x, y))
        _, fd = field.with_derivative_mode("fd").jet(t, a, b)
        # the second term is FD's rounding, about eps |value| / fd_step, which
        # is all FD returns where the exact gradient vanishes
        tol = 1e-6 * np.abs(grad).max(axis=(0, 1)) + 1e-9 * np.abs(values).max(axis=0)
        assert np.all(np.abs(grad - fd) <= tol)

    @pytest.mark.parametrize("name", ["pulsating-cylinder", "pulsating-drop", "stationary-rotsym", "rest"])
    def test_cartesian_view_is_differentiable_at_the_origin(self, name, catalog):
        cart = as_cartesian(catalog[name])
        t = 0.9
        values, grad = cart.jet(t, 0.0, 0.0)
        assert np.array_equal(values, cart.eval(t, 0.0, 0.0))
        # central differences straddling the origin agree to O(fd_step): the
        # drop's velocity holds a y sqrt(x^2 + y^2) term, C^1 but not C^2 there
        _, fd = cart.with_derivative_mode("fd").jet(t, 0.0, 0.0)
        rtol = 1e-4 if name == "pulsating-drop" else 1e-8
        assert np.all(np.abs(grad - fd) <= rtol * max(1.0, np.abs(grad).max()))
        # the same point inside a block, next to points off the origin
        block_values, block_grad = cart.jet(t, np.array([0.3, 0.0, -0.2]), np.array([0.1, 0.0, 0.4]))
        assert np.array_equal(block_grad[..., 1], grad)
        assert np.array_equal(block_values[:, 1], values)


class TestJetElementaryFunctions:
    """Each rule: the plain call's bits as the value, the derivative as the slope."""

    CASES = [  # (name, math, numpy, argument values)
        ("cos", math.cos, np.cos, (0.3, 2.5)),
        ("sin", math.sin, np.sin, (0.3, 2.5)),
        ("tan", math.tan, np.tan, (0.3, -1.2)),
        ("atan", math.atan, np.arctan, (0.3, -4.0)),
        ("sqrt", math.sqrt, np.sqrt, (0.3, 7.0)),
        ("exp", math.exp, np.exp, (0.3, -2.0)),
        ("hypot", math.hypot, np.hypot, ((0.3, -1.1), (2.0, 0.5))),
        ("arctan2", math.atan2, np.arctan2, ((0.3, -1.1), (-2.0, 0.5))),
    ]

    @pytest.mark.parametrize("name, math_fn, np_fn, points", CASES, ids=[c[0] for c in CASES])
    def test_values_and_slopes(self, name, math_fn, np_fn, points):
        import rswlab.core as core

        fn = getattr(core, name)
        for point in points:
            args = point if isinstance(point, tuple) else (point,)
            assert fn(*args) == math_fn(*args)  # floats take math
            arrays = [np.array([x, x]) for x in args]
            assert np.array_equal(fn(*arrays), np_fn(*arrays))
            for k in range(len(args)):
                seeded = [Jet(x, 1.0) if j == k else x for j, x in enumerate(args)]
                jet, via_numpy = fn(*seeded), np_fn(*seeded)
                assert jet.v == math_fn(*args) and via_numpy.v == np_fn(*args)
                step = 1e-6 * max(1.0, abs(args[k]))
                hi = [x + step if j == k else x for j, x in enumerate(args)]
                lo = [x - step if j == k else x for j, x in enumerate(args)]
                fd = (math_fn(*hi) - math_fn(*lo)) / (2.0 * step)
                assert jet.t == pytest.approx(fd, rel=1e-8, abs=1e-10)
                assert via_numpy.t == pytest.approx(jet.t, rel=1e-15)

    def test_arithmetic_values_are_the_plain_operations(self):
        x, y = 0.7, -1.9
        jx, jy = Jet(x, 1.0), Jet(y, 0.0, 1.0)
        for got, want in [(jx + jy, x + y), (2.0 - jx, 2.0 - x), (jx * jy, x * y),
                          (jx / jy, x / y), (3.0 / jy, 3.0 / y), (jx ** 1.5, x ** 1.5),
                          (-jx, -x), (np.float64(2.5) * jx, 2.5 * x)]:
            assert got.v == want
        quotient = jx / jy
        assert (quotient.t, quotient.a) == pytest.approx((1.0 / y, -x / (y * y)), rel=1e-15)
        power = jx ** 1.5
        assert power.t == pytest.approx(1.5 * math.sqrt(x), rel=1e-15)
