"""Derived views: each states its own meta, samples the image of its source's
sample, and composes its source's closed-form paths through its map."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from rswlab.cli import main
from rswlab.core import FlowParameters, as_cartesian
from rswlab.errors import InvalidParams, UnsupportedFamily, WindowViolation
from rswlab.solutions import (
    closure_condition,
    default_catalog,
    make_family,
    pulsating_drop,
    trajectory_formula,
)
from rswlab.transforms import check_dilation, map_field_rsw_to_sw, map_field_sw_to_rsw, transport_solution
from rswlab.verify import integrate_trajectory, residual_report, sample_grid

P = FlowParameters(1.0, 1.0)


def _views() -> dict:
    """Every catalog family's views: Cartesian, transported by 1/2 and 3, and its equivalence image."""
    views = {}
    for name, family in default_catalog().items():
        cart = as_cartesian(family)
        if family.frame == "polar":
            views[f"cartesian({name})"] = cart
            for alpha in (0.5, 3.0):
                views[f"transport({name}, {alpha:g})"] = transport_solution(family, alpha)
        image = map_field_rsw_to_sw if family.system == "rsw" else map_field_sw_to_rsw
        views[f"image({name})"] = image(cart)
    return views


VIEWS = _views()


def test_every_family_has_its_views():
    assert len(VIEWS) == 34


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_default_sample_lies_in_the_window_and_solves_the_equations(name):
    view = VIEWS[name]
    points = sample_grid(view)
    for t in np.unique(points[:, 0]).tolist():
        rows = points[points[:, 0] == t]
        view.window.check(t, np.hypot(rows[:, 1], rows[:, 2]) if view.frame == "cartesian" else rows[:, 1])
    assert residual_report(view).max_residual < 1e-6


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_a_view_copies_no_construction_key(name):
    meta = VIEWS[name].meta
    assert set(meta) <= {"source", "path", "boundary_radius"}
    if name.startswith("image"):
        assert set(meta) == {"source"}


def test_a_sample_is_the_image_of_its_sources():
    drop = pulsating_drop(2.0, P)
    moved = transport_solution(drop, 3.0)
    src, to_view = moved.meta["source"]
    assert src is drop
    assert np.array_equal(sample_grid(moved, (3, 4, 2)), to_view(sample_grid(drop, (3, 4, 2))))


@pytest.mark.parametrize("alpha", [0.5, 3.0])
def test_transported_drop_boundary_is_where_its_depth_vanishes(alpha):
    moved = transport_solution(pulsating_drop(2.0, P), alpha)
    edge = moved.meta["boundary_radius"]
    assert edge(0.0) == pytest.approx(math.sqrt(3.0 / alpha), rel=1e-14)  # the source's sqrt(3), dilated
    for t in (0.0, 0.7, 2.0, math.pi, 4.4, 6.0):
        R = edge(t)
        assert abs(moved.values_unchecked(t, R, 0.3)[2]) < 1e-12
        assert moved.values_unchecked(t, 0.9 * R, 0.3)[2] > 0.0


def test_transported_drop_edge_at_zero_is_the_true_edge():
    # the source's edge sqrt(3) at t = 0 is not the transport's: the depth there is 21.6
    moved = transport_solution(pulsating_drop(2.0, P), 3.0)
    assert moved.meta["boundary_radius"](0.0) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("name", ["rest", "stationary-rotsym"])
def test_stationary_paths_match_integrated_ones(catalog, name):
    field = catalog[name]
    r0, th0 = 1.3, 0.4
    formula = trajectory_formula(field, r0, th0)
    record = np.linspace(0.0, 6.0, 7)
    traj = integrate_trajectory(field, r0, th0, 0.0, 6.0, record=record)
    for t, (r, th) in zip(traj.times.tolist(), traj.positions.tolist()):
        assert abs(r - formula.r_of_t(t)) < 1e-9
        assert abs(th - formula.theta_of_t(t)) < 1e-9


def test_cartesian_view_keeps_the_path_and_nested_transports_nest(catalog):
    drop = catalog["pulsating-drop"]
    assert as_cartesian(drop).meta["path"] is drop.meta["path"]
    twice = transport_solution(transport_solution(drop, 3.0), 0.5)
    record = np.linspace(0.0, 2.0 * math.pi, 5)
    traj = integrate_trajectory(twice, 0.5, 0.3, 0.0, 2.0 * math.pi, record=record)
    formula = trajectory_formula(twice, 0.5, 0.3)
    for t, (r, th) in zip(traj.times.tolist(), traj.positions.tolist()):
        assert abs(r - formula.r_of_t(t)) < 1e-8
        assert abs(th - formula.theta_of_t(t)) < 1e-8


@pytest.mark.parametrize("name", ["rest", "constant-sw-image", "stationary-rotsym",
                                  "pulsating-cylinder", "pulsating-drop"])
@pytest.mark.parametrize("start", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.inf),
                                   (1.0, -math.inf), (1.0, math.nan), (-0.5, 0.0)])
def test_bad_starts_are_invalid(catalog, name, start):
    with pytest.raises(InvalidParams):
        trajectory_formula(catalog[name], *start)
    with pytest.raises(InvalidParams):
        trajectory_formula(transport_solution(catalog["rest"], 2.0), *start)


def test_no_path_is_unsupported(catalog):
    with pytest.raises(UnsupportedFamily, match="equivalence image"):
        trajectory_formula(VIEWS["image(pulsating-drop)"], 0.5, 0.0)
    with pytest.raises(UnsupportedFamily):
        trajectory_formula(transport_solution(catalog["collapse-scaling"], 2.0), 0.5, 0.0)


class TestImagesReadTheSourceKernel:
    """An equivalence image checks its source's window at the pulled-back
    point, then reads the source's ``value_fn`` once; its own ``eval`` and
    ``jet`` check the rest."""

    @staticmethod
    def image_of(source):
        return (map_field_rsw_to_sw if source.system == "rsw" else map_field_sw_to_rsw)(source)

    @pytest.mark.parametrize("name", ["rest", "barochronous-sw"])
    @pytest.mark.parametrize("call", ["eval", "jet"])
    @pytest.mark.parametrize("block", [False, True], ids=["point", "block"])
    def test_one_source_kernel_call_per_call(self, catalog, name, call, block):
        source = as_cartesian(catalog[name])
        calls = []

        def value_fn(t, x, y):
            calls.append(t)
            return source.value_fn(t, x, y)

        image = self.image_of(replace(source, value_fn=value_fn))
        t, x, y = sample_grid(image, (3, 4, 2))[5].tolist()
        a, b = (np.array([x, -0.5 * y]), np.array([y, 0.5 * x])) if block else (x, y)
        out = getattr(image, call)(t, a, b)
        assert len(calls) == 1
        plain = getattr(self.image_of(source), call)(t, a, b)
        assert all(np.array_equal(o, p) for o, p in zip(out, plain))

    @pytest.mark.parametrize("name", ["stationary-ring", "collapse-contact"])
    def test_a_pre_image_outside_the_source_radial_window_raises(self, catalog, name):
        source = as_cartesian(catalog[name])
        image = map_field_rsw_to_sw(source)
        t, _, _ = sample_grid(catalog[name], (3, 4, 2))[5].tolist()
        lo, hi = source.window.radial_bounds(t)
        outside = 1.5 * hi if math.isfinite(hi) else 0.5 * lo
        ti, xi, yi = image.meta["source"][1](np.array([[t, outside * math.cos(0.3),
                                                       outside * math.sin(0.3)]]))[0].tolist()
        image.window.check_time(ti)  # the image's own window holds the point
        for a, b in ((xi, yi), (np.array([xi]), np.array([yi]))):
            for call in (image.eval, image.jet):
                with pytest.raises(WindowViolation, match=r"^radius .* outside \["):
                    call(ti, a, b)

    def test_a_nonfinite_source_value_is_reported_at_the_image_point(self, catalog):
        source = as_cartesian(catalog["rest"])
        image = map_field_rsw_to_sw(replace(source, value_fn=lambda t, x, y: (x, y, math.nan)))
        message = f"field {image.label!r} produced non-finite values at (t=0.5, 0.25, -0.5)"
        with pytest.raises(WindowViolation, match=re.escape(message)):
            image.eval(0.5, 0.25, -0.5)


class TestDilationRange:
    def test_message_states_the_enforced_range(self):
        lo, hi = 2.0 ** -27, 2.0 ** 26.5
        for alpha in (lo, hi, 1e8, 0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidParams, match=r"\(2\^-27, 2\^26.5\)"):
                check_dilation(alpha)
        for alpha in (math.nextafter(lo, 1.0), 1e-8, 1.0, 9.4e7, math.nextafter(hi, 0.0)):
            check_dilation(alpha)

    @pytest.mark.parametrize("name", ["collapse-contact", "collapse-scaling"])
    def test_finite_window_needs_the_inverse_dilation(self, name):
        with pytest.raises(InvalidParams, match=r"alpha=1e-08 .*1/alpha=100000000.0 is out of range"):
            transport_solution(make_family(name, P), 1e-8)

    def test_infinite_window_does_not(self):
        moved = transport_solution(make_family("rest", P), 1e-8)
        assert moved.eval(1.0, 1.5, 0.0)[2] > 0.0

    @pytest.mark.parametrize("name", ["collapse-contact", "collapse-scaling"])
    def test_cli_exits_2(self, name, capsys):
        code = main(["map", "--family", name, "--transport", "--alpha", "1e-8", "--t", "1", "--r", "1:2:3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "ZeroDivisionError" not in err and "dilation parameter" in err

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0, 1e8])
    def test_closure_checks_alpha(self, alpha):
        with pytest.raises(InvalidParams, match="dilation parameter"):
            closure_condition(alpha, 0.5, P)
