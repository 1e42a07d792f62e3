import json
import math
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from rswlab import cli
from rswlab.core import FlowParameters, as_cartesian, scale_depth
from rswlab.errors import (
    BlowUp,
    InvalidParams,
    LeftDomain,
    NegativeDepth,
    OriginSingular,
    WindowViolation,
)
from rswlab.solutions import (
    FAMILY_NAMES,
    barochronous_sw,
    make_family,
    profile_gauss,
    pulsating_cylinder,
    pulsating_drop,
    rest_state,
    stationary_ring,
    stationary_rotsym,
    trajectory_formula,
)
from rswlab.verify import (
    evolve_material_curve,
    fv_convergence,
    fv_oracle,
    integrate_ode,
    integrate_trajectory,
    pv_along_trajectory,
    residual_report,
    sample_grid,
)

P = FlowParameters(1.0, 1.0)


def _pointwise_report(field, points, polar):
    """The residual report computed one point at a time, as a reference."""

    def normalized(terms):
        return abs(sum(terms)) / max(1.0, max(abs(term) for term in terms))

    grav, f_eff = field.params.g, field.coriolis
    worst, sq, worst_pt, worst_eq = [0.0] * 3, [0.0] * 3, (math.nan,) * 3, 0
    for t, a, b in points.tolist():
        (u, v, h), ((u_t, u_a, u_b), (v_t, v_a, v_b), (h_t, h_a, h_b)) = field.jet(t, a, b)
        if polar:
            r = a
            res = [
                normalized([u_t, u * u_a, v * u_b / r, -v * v / r, -f_eff * v, grav * h_a]),
                normalized([v_t, u * v_a, v * v_b / r, u * v / r, f_eff * u, grav * h_b / r]),
                normalized([h_t, u * h_a, h * u_a, u * h / r, v * h_b / r, h * v_b / r]),
            ]
        else:
            res = [
                normalized([u_t, u * u_a, v * u_b, -f_eff * v, grav * h_a]),
                normalized([v_t, u * v_a, v * v_b, f_eff * u, grav * h_b]),
                normalized([h_t, u * h_a, h * u_a, v * h_b, h * v_b]),
            ]
        for i in range(3):
            sq[i] += res[i] ** 2
            if res[i] > worst[i]:
                worst[i] = res[i]
                if res[i] >= max(worst):
                    worst_pt, worst_eq = (t, a, b), i
    return worst, [math.sqrt(s / len(points)) for s in sq], worst_pt, worst_eq


class TestResidualReports:
    def test_rest_state_cartesian(self):
        field = rest_state(1.0, P, frame="cartesian")
        rep = residual_report(field)
        assert rep.max_residual < 1e-14

    def test_corruption_is_detected(self):
        # scaling the depth of a field with a radial depth gradient breaks
        # the momentum balance measurably
        field = stationary_rotsym(profile_gauss(0.5), 1.0, P)
        bad = scale_depth(field, 1.01)
        rep = residual_report(bad, shape=(4, 6, 3))
        assert rep.max_residual > 1e-3

    def test_cartesian_corruption_via_view(self):
        field = as_cartesian(pulsating_drop(2.0, P))
        pts = [(t, x, y) for t in (0.4, 1.5) for x in (0.2, 0.6) for y in (-0.4, 0.3)]
        good = residual_report(field, points=np.array(pts))
        bad = residual_report(scale_depth(field, 1.01), points=np.array(pts))
        assert good.max_residual < 1e-6
        assert bad.max_residual > 1e-3

    def test_report_carries_metadata(self):
        field = pulsating_cylinder(2.0, 1.0, P).with_derivative_mode("fd", 1e-5)
        rep = residual_report(field, shape=(3, 4, 2))
        assert rep.derivative_mode == "fd"
        assert rep.fd_step == 1e-5
        d = rep.as_dict()
        assert d["n_points"] == 24
        assert set(d) >= {"max_abs", "rms", "worst_point", "max_residual"}

    @pytest.mark.parametrize("case", ["cylinder", "cylinder-fd", "drop-cartesian-fd", "barochronous", "tie"])
    def test_matches_pointwise_reference(self, case):
        def tie_jet(t, x, y):
            # x-momentum fails by 0.5 where x < 0, y-momentum by as much elsewhere
            grad = np.zeros((3, 3) + np.shape(x))
            grad[0, 0] = np.where(x < 0.0, 0.5, 0.0)
            grad[1, 0] = np.where(x < 0.0, 0.0, 0.5)
            values = np.zeros((3,) + np.shape(x))
            values[2] = 1.0
            return values, grad

        field = {
            "cylinder": pulsating_cylinder(2.0, 1.0, P),
            "cylinder-fd": pulsating_cylinder(2.0, 1.0, P).with_derivative_mode("fd"),
            "drop-cartesian-fd": as_cartesian(pulsating_drop(2.0, P)).with_derivative_mode("fd"),
            "barochronous": barochronous_sw(1.0, P),
            "tie": replace(rest_state(1.0, P, frame="cartesian"), jet_fn=tie_jet),
        }[case]
        grid = sample_grid(pulsating_drop(2.0, P) if case.startswith("drop") else field, (4, 5, 3))
        if field.frame == "cartesian" and case.startswith("drop"):
            grid = np.column_stack([grid[:, 0], grid[:, 1] * np.cos(grid[:, 2]), grid[:, 1] * np.sin(grid[:, 2])])
        # shuffled times and repeated points: blocks are gathered and ties kept
        points = np.random.default_rng(3).permutation(np.concatenate([grid, grid[::7]]))
        rep = residual_report(field, points=points)
        worst, rms, worst_pt, worst_eq = _pointwise_report(field, points, field.frame == "polar")
        assert list(rep.max_abs) == worst
        assert rep.worst_point == worst_pt
        assert rep.worst_equation == rep.equation_names[worst_eq]
        assert np.allclose(rep.rms, rms, rtol=1e-13, atol=0.0)

    def test_nan_residual_fails_the_report(self, monkeypatch, tmp_path):
        base = pulsating_cylinder(2.0, 1.0, P)

        def jet_fn(t, r, theta):
            values, grad = base.jet_fn(t, r, theta)
            values = np.array(values, dtype=float)
            values[2] = np.where(r > 1.0, math.nan, values[2])
            return values, grad

        field = replace(base, jet_fn=jet_fn)
        pts = sample_grid(base, (2, 4, 2))
        rep = residual_report(field, points=pts)
        assert math.isnan(rep.max_residual)
        assert rep.worst_point == next(tuple(p) for p in pts.tolist() if p[1] > 1.0)
        assert rep.worst_equation == "mass"
        # the CLI reports the failure: exit 1 and "passed": false
        monkeypatch.setattr(cli, "make_family", lambda *args, **kw: field)
        out = tmp_path / "res.json"
        assert cli.main(["residual", "--family", "cylinder", "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["passed"] is False
        assert not payload["report"]["max_residual"] < math.inf

    def test_polar_grid_must_avoid_origin(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        with pytest.raises(OriginSingular):
            residual_report(field, points=np.array([[0.1, 0.0, 0.0]]))


class TestTrajectories:
    def test_cylinder_matches_closed_form(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        eps = 1e-3
        record = np.linspace(eps, 2 * math.pi - eps, 23)
        traj = integrate_trajectory(field, 1.0, 0.0, eps, 2 * math.pi - eps, record=record)
        formula = trajectory_formula(field, 1.0, 0.0)
        # the formula is anchored at t = 0; re-anchor to the start sample
        for t, (r, th) in zip(traj.times, traj.positions):
            r_ref = formula.r_of_t(t) / formula.r_of_t(eps)
            th_ref = formula.theta_of_t(t) - formula.theta_of_t(eps)
            assert abs(r / traj.positions[0][0] - r_ref) < 1e-7
            assert abs((th - traj.positions[0][1]) - th_ref) < 1e-7

    def test_cylinder_particles_return(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        traj = integrate_trajectory(field, 1.0, 0.3, 0.0, 2 * math.pi, record=[2 * math.pi])
        assert abs(traj.positions[-1][0] - 1.0) < 1e-8
        assert abs(traj.positions[-1][1] - 0.3) < 1e-8

    def test_circle_invariant_along_path(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        formula = trajectory_formula(field, 1.0, 0.0)
        A, B, R = formula.circle
        record = np.linspace(0, 2 * math.pi, 40)
        traj = integrate_trajectory(field, 1.0, 0.0, 0.0, 2 * math.pi, record=record)
        for r, th in traj.positions:
            x, y = r * math.cos(th), r * math.sin(th)
            assert abs((x - A) ** 2 + (y - B) ** 2 - R * R) < 1e-8

    def test_drop_closure_period(self):
        field = pulsating_drop(2.0, P)
        r0 = 1.0 / math.sqrt(3.0)
        traj = integrate_trajectory(field, r0, 0.0, 0.0, 6 * math.pi, tol=1e-11,
                                    record=[6 * math.pi])
        x = traj.positions[-1][0] * math.cos(traj.positions[-1][1])
        y = traj.positions[-1][0] * math.sin(traj.positions[-1][1])
        assert math.hypot(x - r0, y) < 1e-6

    def test_rest_state_is_fixed_point(self):
        field = rest_state(1.0, P)
        traj = integrate_trajectory(field, 0.7, 0.2, 0.0, 3.0, record=[1.0, 3.0])
        assert np.allclose(traj.positions[:, 0], 0.7)
        assert np.allclose(traj.positions[:, 1], 0.2)

    def test_origin_is_reported_as_fixed(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        traj = integrate_trajectory(field, 0.0, 0.0, 0.0, 1.0)
        assert traj.stats.get("fixed_point")

    def test_leaving_the_window_raises(self):
        from rswlab.solutions import stationary_ring

        ring = stationary_ring(1.0, 1.0, 1.0, FlowParameters(0.1, 1.0))
        b = ring.meta["bounds"]
        with pytest.raises(LeftDomain):
            # outward drift reaches the outer sonic circle before t1
            integrate_trajectory(ring, 0.97 * b.r_outer, 0.0, 0.0, 60.0)

    def test_origin_outside_the_window_raises(self):
        from rswlab.errors import WindowViolation
        from rswlab.solutions import stationary_ring

        ring = stationary_ring(1.0, 1.0, 1.0, FlowParameters(0.1, 1.0))
        with pytest.raises(WindowViolation):
            integrate_trajectory(ring, 0.0, 0.0, 0.0, 1.0)

    def test_trial_stage_outside_the_domain_rejects_the_step(self):
        # the first trial steps of this long path reach r < 0
        drop = pulsating_drop(2.0, P)
        traj = integrate_trajectory(drop, 1.0, 0.0, 0.0, 500.0, record=[500.0])
        path = trajectory_formula(drop, 1.0, 0.0)
        r, th = traj.positions[-1]
        miss = math.hypot(r * math.cos(th) - path.x_of_t(500.0), r * math.sin(th) - path.y_of_t(500.0))
        assert miss < 1e-4  # measured 2.2e-6 after 80 periods
        assert traj.stats["rejected"] > 0

    def test_step_underflow_raises(self):
        def rhs(t, y):
            return np.array([1.0 / max(1.0 - t, 1e-30)])

        with pytest.raises(BlowUp):
            integrate_ode(rhs, np.array([0.0]), 0.0, 2.0, tol=1e-12)

    def test_pv_conserved_along_drop_paths(self):
        field = pulsating_drop(2.0, P)
        record = np.linspace(0, 2 * math.pi, 15)
        traj = integrate_trajectory(field, 0.5, 0.3, 0.0, 2 * math.pi, record=record)
        pv = pv_along_trajectory(field, traj)
        assert np.max(np.abs(pv - pv[0])) / abs(pv[0]) < 1e-5


class TestIntegrateOde:
    """The Dormand-Prince 5(4) integrator on a problem with a closed form."""

    @staticmethod
    def rotation(calls):
        def rhs(t, y):
            calls.append(t)
            return np.array([-2.0 * y[1], 2.0 * y[0]])

        return rhs

    def test_global_error_shrinks_with_tol_and_lands_exactly(self):
        record = np.linspace(0.0, 10.0, 11)
        errors = []
        for tol in (1e-6, 1e-8, 1e-10, 1e-12):
            calls = []
            ts, ys, _ = integrate_ode(self.rotation(calls), np.array([1.0, 0.0]), 0.0, 10.0,
                                      tol=tol, record=record)
            assert np.array_equal(ts, record)
            assert all(t in calls for t in record[1:])
            exact = np.column_stack([np.cos(2.0 * ts), np.sin(2.0 * ts)])
            errors.append(float(np.max(np.abs(ys - exact))))
            assert errors[-1] < 50.0 * tol
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_rhs_evals_counts_fsal_stages(self):
        calls = []
        _, _, stats = integrate_ode(self.rotation(calls), np.array([1.0, 0.0]), 0.0, 10.0,
                                    tol=1e-10, record=[2.5, 10.0])
        assert stats["rhs_evals"] == len(calls)
        assert stats["rhs_evals"] == 6 * (stats["steps"] + stats["rejected"]) + 1

    def test_trajectory_stats_carry_rhs_evals(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        traj = integrate_trajectory(field, 1.0, 0.0, 0.0, 1.0)
        stats = traj.stats
        assert stats["rhs_evals"] == 6 * (stats["steps"] + stats["rejected"]) + 1

    def test_nan_error_estimate_rejects_until_underflow(self):
        with pytest.raises(BlowUp):
            integrate_ode(lambda t, y: np.array([math.nan]), np.array([0.0]), 0.0, 1.0)

    def test_overflowing_stage_sum_signals_under_errstate(self):
        # a float stage sum overflows to inf silently; numpy's raises at once
        calls = []

        def rhs(t, y):
            calls.append(t)
            return (1e300,)

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            integrate_ode(rhs, np.array([0.0]), 0.0, 1e300)
        assert len(calls) == 1

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(InvalidParams):
            integrate_ode(self.rotation([]), np.array([1.0, 0.0]), 0.0, 1.0, tol=tol)

    @pytest.mark.parametrize("flag, value", [("--tol", "0"), ("--tol", "nan"),
                                             ("--samples", "-1"), ("--t1", "inf"),
                                             ("--theta0", "nan"), ("--r0", "nan")])
    def test_cli_bad_trajectory_args_exit_2(self, flag, value):
        proc = subprocess.run(
            [sys.executable, "-m", "rswlab.cli", "trajectory", "--family", "cylinder",
             "--alpha", "2", flag, value],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


def _reference_integrate(field, r0, th0, t0, t1, tol, record):
    """The integrator loop as it was on numpy states: ``np.array`` RHS rows
    of scalar ``eval`` calls and a numpy error norm.  Returns the recorded
    positions, steps and rejections."""
    from rswlab.verify import _DP_A, _DP_C, _DP_E

    def fn(t, y):
        if field.frame == "polar":
            r, th = y
            U, V, _ = field.eval(t, r, th)
            return np.array([U, V / r])
        u, v, _ = field.eval(t, y[0], y[1])
        return np.array([u, v])

    polar = field.frame == "polar"
    y = np.array([r0, th0] if polar else [r0 * math.cos(th0), r0 * math.sin(th0)])
    t, out, steps, rejects = t0, [y.copy()], 0, 0
    k = np.empty((7, 2))
    k[0] = fn(t, y)
    h = (t1 - t0) / 64.0
    for target in record[1:]:
        while t < target - 1e-14 * max(1.0, abs(target)):
            lands = h >= target - t
            if lands:
                h = target - t
            t_new = target if lands else t + h
            for i in range(1, 7):
                y_new = y + h * (_DP_A[i] @ k[:i])
                k[i] = fn(t + _DP_C[i] * h if i < 5 else t_new, y_new)
            err = float(np.max(np.abs(h * (_DP_E @ k)) / np.maximum(1.0, np.abs(y_new))))
            if math.isnan(err):
                err = math.inf
            factor = 0.9 * (tol / err) ** 0.2 if err > 0.0 else 5.0
            h *= min(5.0, max(0.2, factor))
            if err > tol:
                rejects += 1
                continue
            t, y = t_new, y_new
            k[0] = k[6]
            steps += 1
        t = target
        out.append(y.copy())
    return np.array(out), steps, rejects


def _one_path(name, catalog):
    """One path of criterion 6's plan for a catalog family: (r0, theta0, t0, t1)."""
    field = catalog[name]
    w0 = 1 - math.cos(1.2)
    if name == "stationary-ring":
        b = field.meta["bounds"]
        r0 = 0.5 * (b.r_inner + b.r_outer)
        U0 = float(field.values_unchecked(0.0, r0, 0.0)[0])
        return r0, 2.1, 0.0, min(field.params.period, 0.35 * (b.r_outer - r0) / U0)
    if name == "collapse-contact":
        return math.sqrt(w0 / (0.4 * field.meta["lam_max"])), 2.1, 1.2, 4.8
    if name == "collapse-contact-cubic":
        return math.sqrt(w0 / (0.4 * field.meta["lam_c"])), 2.1, 1.2, 4.2
    if name == "collapse-scaling":
        return 0.97, 2.1, 0.0, 0.85 * field.meta["tabulation"].Tstar
    if name == "constant-sw-image":
        return 0.7, 2.1, 0.7, 5.6
    return 0.97, 2.1, 0.0, 2 * math.pi


class TestFloatPathIsBitIdentical:
    """Float RHS and float error norm against the numpy loop, bit for bit."""

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_catalog_path(self, name, catalog):
        self._check(catalog[name], *_one_path(name, catalog))

    def test_cartesian_view(self, catalog):
        self._check(as_cartesian(catalog["pulsating-drop"]), 0.8, 0.4, 0.0, 2 * math.pi)

    @staticmethod
    def _check(field, r0, th0, t0, t1):
        record = np.linspace(t0, t1, 9)
        traj = integrate_trajectory(field, r0, th0, t0, t1, tol=1e-10, record=record)
        positions, steps, rejects = _reference_integrate(field, r0, th0, t0, t1, 1e-10, record)
        assert traj.positions.tobytes() == positions.tobytes()
        assert (traj.stats["steps"], traj.stats["rejected"]) == (steps, rejects)
        assert steps >= len(record) - 1


# Captured before the integrator's stage states became Python floats: every
# step, every rejection and the bits of each path's last state are pinned.
PINNED_PATHS = [
    ("rest", 10, 0, ("0x1.f0a3d70a3d70ap-1", "0x1.0cccccccccccdp+1")),
    ("constant-sw-image", 114, 3, ("0x1.c31b3747e9621p+1", "0x1.61cd58d1fff06p+1")),
    ("barochronous-sw", 10, 0, ("-0x1.700b5ed774842p+2", "-0x1.1eaa241aed920p+1")),
    ("stationary-rotsym", 10, 0, ("0x1.f0a3d70a3d70ap-1", "0x1.255164864dd8ep+2")),
    ("pulsating-cylinder", 76, 2, ("0x1.f0a3d709794d9p-1", "0x1.0cccccccc956cp+1")),
    ("pulsating-drop", 83, 2, ("0x1.f0a3d709967adp-1", "-0x1.6b348f9a814b1p+0")),
    ("stationary-ring", 10, 0, ("0x1.1db1df2353267p+4", "0x1.f066d20433e81p+0")),
    ("collapse-contact", 49, 1, ("0x1.67710af62eb53p-1", "0x1.35ebd0f0968d7p+2")),
    ("collapse-contact-cubic", 41, 2, ("0x1.651b428d9dc07p+3", "0x1.407310d7a7c5dp-1")),
    ("collapse-scaling", 38, 1, ("0x1.01e9a1a30a007p-1", "0x1.cfa6c7f3552c6p+0")),
]


class TestPinnedPathBits:
    """Paths whose steps, rejections and final bits must never move."""

    @staticmethod
    def _assert_pinned(stats, last, steps, rejected, hexes):
        assert (stats["steps"], stats["rejected"]) == (steps, rejected)
        assert tuple(float(v).hex() for v in last) == hexes

    @pytest.mark.parametrize("name, steps, rejected, hexes", PINNED_PATHS)
    def test_catalog_path(self, name, steps, rejected, hexes, catalog):
        r0, th0, t0, t1 = _one_path(name, catalog)
        traj = integrate_trajectory(catalog[name], r0, th0, t0, t1, tol=1e-10,
                                    record=np.linspace(t0, t1, 9))
        self._assert_pinned(traj.stats, traj.positions[-1], steps, rejected, hexes)

    def test_cartesian_path(self, catalog):
        field = as_cartesian(catalog["pulsating-cylinder"])
        traj = integrate_trajectory(field, 0.9, 0.4, 0.0, 2 * math.pi, tol=1e-10,
                                    record=np.linspace(0.0, 2 * math.pi, 9))
        self._assert_pinned(traj.stats, traj.positions[-1], 88, 1,
                            ("0x1.a86cc6a454750p-1", "0x1.66e35050d3e14p-2"))

    def test_collapse_ode(self, monkeypatch):
        from rswlab import reduction

        runs = []

        def spy(*args, **kwargs):
            runs.append(integrate_ode(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(reduction, "integrate_ode", spy)
        rep = reduction.collapse2_verify_ode(reduction.collapse2_build(0.5, 1.0, P))
        (_, ys, stats), = runs
        self._assert_pinned(stats, ys[-1], 261, 0, (
            "-0x1.2ca9296d1ca38p+2", "-0x1.0000000000000p-1", "0x1.51741e4c8821fp+1"))
        errors = (rep.max_phi_error, rep.max_eta_error, rep.max_psi_drift, rep.max_piston_error)
        assert [e.hex() for e in errors] == [
            "0x1.4068000000000p-37", "0x1.8f2c000000000p-34", "0x0.0p+0", "0x1.7f55800000000p-33"]
        assert rep.turning_time.hex() == "0x1.fde8fcf942074p-3"


class TestMaterialCurves:
    def test_centered_circle_returns_in_cylinder(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        n = 12
        mc = evolve_material_curve(field, (0.0, 0.0), 0.5, n, [0.0, math.pi, 2 * math.pi])
        assert mc.return_distance[-1] < 1e-6
        polygon = 2 * n * 0.5 * math.sin(math.pi / n)  # inscribed polygon perimeter
        assert mc.curve_length[0] == pytest.approx(polygon, rel=1e-9)
        # at the half period the column has doubled: length scales with alpha
        assert mc.curve_length[1] == pytest.approx(2 * mc.curve_length[0], rel=1e-6)

    def test_offset_circle_in_drop_winds_and_grows(self):
        # within a period the length pulses with the breathing, but the
        # differential winding stretches the curve from period to period
        # until it wraps into a helix
        field = pulsating_drop(2.0, P)
        times = [2 * math.pi * k for k in range(4)]
        mc = evolve_material_curve(field, (0.4, 0.5), 0.3, 24, times)
        lengths = mc.curve_length
        assert all(b > a for a, b in zip(lengths, lengths[1:]))
        assert lengths[-1] > 3 * lengths[0]
        # unlike the centered circle, an off-center curve never returns
        assert all(d > 1e-2 for d in mc.return_distance[1:])

    def test_single_marker_degenerates_to_trajectory(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        times = [0.0, 1.0]
        mc = evolve_material_curve(field, (0.8, 0.0), 0.0, 1, times)
        traj = integrate_trajectory(field, 0.8, 0.0, 0.0, 1.0, record=times)
        x = traj.positions[-1][0] * math.cos(traj.positions[-1][1])
        y = traj.positions[-1][0] * math.sin(traj.positions[-1][1])
        assert mc.positions[-1, 0, 0] == pytest.approx(x, abs=1e-12)
        assert mc.positions[-1, 0, 1] == pytest.approx(y, abs=1e-12)


def _fv_case(case):
    """Arguments of ``fv_oracle`` for a named reference case."""
    cylinder = pulsating_cylinder(2.0, 1.0, P)
    drop = pulsating_drop(2.0, P)
    R = drop.meta["boundary_radius"]
    r_safe = 0.7 * min(R(t) for t in np.linspace(0.1, 0.3, 7))

    def mask(t1, X, Y):
        return np.hypot(X, Y) < r_safe

    return {
        "exact-cylinder": (cylinder, 0.0, 0.25, 40, dict(box=(-2.0, 2.0))),
        "exact-rotsym": (stationary_rotsym(profile_gauss(0.5), 1.0, P), 0.0, 0.2, 16,
                         dict(box=(-2.0, 2.0))),
        "drop-masked": (drop, 0.1, 0.3, 40,
                        dict(box=(-2.0, 2.0), mask_fn=mask, dry_floor=True)),
        "study-100": (cylinder, 0.0, math.pi / 2.0, 100, {}),
        "ring-dry": (stationary_ring(1.0, 1.0, 1.0, FlowParameters(0.1, 1.0)), 0.0, 0.2, 32,
                     dict(box=(-3.0, 3.0), dry_floor=True)),
    }[case]


class TestFiniteVolumeOracle:
    def test_rest_state_is_machine_exact(self):
        field = rest_state(1.0, P, frame="cartesian")
        run = fv_oracle(field, 0.0, 0.1, 24, box=(-1.0, 1.0))
        assert run.l1_error_h < 1e-13

    def test_cylinder_first_order_convergence_small(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        res = fv_convergence(field, 0.0, 0.25, ns=(40, 80), box=(-2.0, 2.0))
        assert res.rate_h >= 0.8

    def test_drop_masked_convergence(self):
        field = pulsating_drop(2.0, P)
        R = field.meta["boundary_radius"]
        r_safe = 0.7 * min(R(t) for t in np.linspace(0.1, 0.3, 7))

        def mask(t1, X, Y):
            return np.hypot(X, Y) < r_safe

        res = fv_convergence(
            field, 0.1, 0.3, ns=(40, 80), box=(-2.0, 2.0), mask_fn=mask, dry_floor=True
        )
        assert res.rate_h >= 0.8

    # steps and L1 errors of the strip-by-strip, np.roll implementation of
    # the oracle, which sampled the exact field one point at a time
    @pytest.mark.parametrize("case, steps, l1_h, l1_all", [
        ("exact-cylinder", 29, 0.04059905266683883, 0.16809299104904854),
        ("exact-rotsym", 7, 0.2191162805852493, 0.6996326809006179),
        ("drop-masked", 66, 0.06938543274540411, 0.1926061577156969),
    ])
    def test_reference_results(self, case, steps, l1_h, l1_all):
        field, t0, t1, n, kw = _fv_case(case)
        run = fv_oracle(field, t0, t1, n, **kw)
        assert run.steps == steps
        assert run.l1_error_h == pytest.approx(l1_h, rel=1e-12, abs=0.0)
        assert run.l1_error_all == pytest.approx(l1_all, rel=1e-12, abs=0.0)

    # exact steps and float.hex errors; "study-100" is the coarse run of
    # criterion 9's study
    @pytest.mark.parametrize("case, steps, l1_h, l1_all", [
        ("exact-cylinder", 29, "0x1.4c96626e7c25bp-5", "0x1.58412359f09b7p-3"),
        ("exact-rotsym", 7, "0x1.c0c00959141a6p-3", "0x1.663641375ca6cp-1"),
        ("drop-masked", 66, "0x1.1c33e6475d76ep-4", "0x1.8a7518e32d55fp-3"),
        ("study-100", 317, "0x1.0bb6e7d91e188p-3", "0x1.55a51712b0732p-2"),
        ("ring-dry", 44, "0x1.d80f0d2768dbbp+0", "0x1.2cadc4b149e7ep+3"),
    ])
    def test_pinned_bits(self, case, steps, l1_h, l1_all):
        field, t0, t1, n, kw = _fv_case(case)
        run = fv_oracle(field, t0, t1, n, **kw)
        assert (run.steps, run.l1_error_h.hex(), run.l1_error_all.hex()) == (steps, l1_h, l1_all)

    def test_ring_case_has_dry_cells(self):
        # inside the inner sonic circle the ring's depth continues as
        # -2 phi1 / 3, which turns negative near the axis: the exact data
        # there, clamped at 0, are dry, and the oracle takes its dry-cell branch
        field, t0, _, n, kw = _fv_case("ring-dry")
        lo, hi = kw["box"]
        centers = lo + (hi - lo) / n * (np.arange(n) + 0.5)
        X, Y = np.meshgrid(centers, centers, indexing="ij")
        depth = as_cartesian(field).values_unchecked(t0, X, Y)[2]
        assert np.count_nonzero(depth <= 1e-12) == 44

    def test_negative_depth_is_raised_at_its_step(self):
        # one cell on the axis, where the column is at rest: the step's rate
        # reads that cell's speed only, while its interfaces take the faster
        # ghosts', so the outflow drains more than the cell holds
        field = pulsating_cylinder(8.0, 1.0, P)
        with pytest.raises(NegativeDepth) as info:
            fv_oracle(field, 0.0, 1.5, 1, box=(-3.0, 3.0))
        depth, t = (float(s) for s in re.findall(r"-?\d+\.\d+", str(info.value)))
        assert (depth, t) == (-5.541713424570015, 0.9545941546018389)
        assert "np.float64" not in str(info.value)

    @pytest.mark.parametrize("name, t0, t1", [
        ("collapse-contact", 0.0, 0.02),  # w = 0 at t = 0 divides 0 by 0
        ("constant-sw-image", 1.0, 7.0),  # past the end of its inertial period
    ])
    def test_times_outside_the_window_are_refused(self, name, t0, t1):
        with pytest.raises(WindowViolation, match="outside validity window"):
            fv_oracle(make_family(name, P), t0, t1, 8)

    def test_no_rate_for_an_exactly_kept_field(self):
        field = rest_state(1.0, P, frame="cartesian")
        with pytest.raises(InvalidParams, match=r"error is 0 at n=8, 16"):
            fv_convergence(field, 0.0, 0.1, ns=(8, 16))
        # the constant image at t = 0 sampled w = 0 and divided by it
        with pytest.raises(WindowViolation):
            fv_convergence(make_family("constant-sw-image", P), 0.0, 0.1, ns=(8, 16))

    def test_bad_bc_rejected(self):
        # the ghost cells are the exact field's; no other treatment exists
        field = rest_state(1.0, P, frame="cartesian")
        for bc in ("reflecting", "periodic", "outflow"):
            with pytest.raises(InvalidParams, match="unknown boundary treatment"):
                fv_oracle(field, 0.0, 0.1, 8, bc=bc)

    @pytest.mark.parametrize("ns", [(), (20,), (20, 20), (40, 20)])
    def test_convergence_needs_a_refinement(self, ns):
        field = rest_state(1.0, P, frame="cartesian")
        with pytest.raises(InvalidParams, match="refinement"):
            fv_convergence(field, 0.0, 0.1, ns=ns)


@pytest.mark.parametrize("call", [
    pytest.param(lambda field: fv_oracle(field, 0.0, 0.1, 0), id="fv-n-zero"),
    pytest.param(lambda field: fv_oracle(field, 0.0, 0.1, -3), id="fv-n-negative"),
    pytest.param(lambda field: fv_oracle(field, 0.1, 0.1, 8), id="fv-empty-span"),
    pytest.param(lambda field: fv_oracle(field, 0.1, 0.0, 8), id="fv-reversed-span"),
    pytest.param(lambda field: fv_oracle(field, 0.0, math.nan, 8), id="fv-t1-nan"),
    pytest.param(lambda field: fv_oracle(field, 0.0, 0.1, 8, box=(1.0, -1.0)), id="fv-reversed-box"),
    pytest.param(lambda field: fv_oracle(field, 0.0, 0.1, 8, box=(-1.0, math.inf)), id="fv-infinite-box"),
    pytest.param(lambda field: evolve_material_curve(field, (0.0, 0.0), 0.5, 0, [0.0, 1.0]),
                 id="curve-no-markers"),
    pytest.param(lambda field: evolve_material_curve(field, (0.0, 0.0), 0.5, 4, []), id="curve-no-times"),
])
def test_degenerate_sizes_are_invalid(call):
    with pytest.raises(InvalidParams):
        call(rest_state(1.0, P, frame="cartesian"))


class TestSampleGrid:
    def test_polar_grid_respects_window(self):
        from rswlab.solutions import stationary_ring

        ring = stationary_ring(1.0, 1.0, 1.0, FlowParameters(0.1, 1.0))
        pts = sample_grid(ring, (3, 4, 2))
        b = ring.meta["bounds"]
        assert np.all(pts[:, 1] > b.r_inner)
        assert np.all(pts[:, 1] < b.r_outer)

    def test_level_set_boxes(self):
        from rswlab.solutions import collapse_contact_cubic

        field = collapse_contact_cubic(1.0, 1.0, 1.0, P)
        pts = sample_grid(field, (3, 3, 2))
        lam_c = field.meta["lam_c"]
        f = P.f
        for t, r, _ in pts:
            lam = (1 - math.cos(f * t)) / r ** 2
            assert lam < lam_c
