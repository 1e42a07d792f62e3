import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from rswlab import cli
from rswlab.core import FlowParameters, as_cartesian, scale_depth
from rswlab.errors import (
    BlowUp,
    CFLViolation,
    InvalidParams,
    LeftDomain,
    OriginSingular,
)
from rswlab.solutions import (
    barochronous_sw,
    profile_gauss,
    pulsating_cylinder,
    pulsating_drop,
    rest_state,
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
    residual_cartesian,
    residual_polar,
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
        rep = residual_cartesian(field)
        assert rep.max_residual < 1e-14

    def test_corruption_is_detected(self):
        # scaling the depth of a field with a radial depth gradient breaks
        # the momentum balance measurably
        field = stationary_rotsym(profile_gauss(0.5), 1.0, P)
        bad = scale_depth(field, 1.01)
        rep = residual_polar(bad, shape=(4, 6, 3))
        assert rep.max_residual > 1e-3

    def test_cartesian_corruption_via_view(self):
        field = as_cartesian(pulsating_drop(2.0, P))
        pts = [(t, x, y) for t in (0.4, 1.5) for x in (0.2, 0.6) for y in (-0.4, 0.3)]
        good = residual_cartesian(field, points=np.array(pts))
        bad = residual_cartesian(scale_depth(field, 1.01), points=np.array(pts))
        assert good.max_residual < 1e-6
        assert bad.max_residual > 1e-3

    def test_report_carries_metadata(self):
        field = pulsating_cylinder(2.0, 1.0, P).with_derivative_mode("fd", 1e-5)
        rep = residual_polar(field, shape=(3, 4, 2))
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
        rep = residual_polar(field, points=pts)
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
            residual_polar(field, points=np.array([[0.1, 0.0, 0.0]]))

    def test_frame_mismatch_rejected(self):
        field = pulsating_cylinder(2.0, 1.0, P)
        with pytest.raises(InvalidParams):
            residual_cartesian(field)


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
        ("periodic-cylinder", 10, 0.06439949781215897, 0.8410259287610605),
        ("outflow-cylinder", 11, 0.01094636856727682, 0.06741437233620916),
        ("drop-masked", 66, 0.06938543274540411, 0.1926061577156969),
    ])
    def test_reference_results(self, case, steps, l1_h, l1_all):
        cylinder = pulsating_cylinder(2.0, 1.0, P)
        drop = pulsating_drop(2.0, P)
        R = drop.meta["boundary_radius"]
        r_safe = 0.7 * min(R(t) for t in np.linspace(0.1, 0.3, 7))

        def mask(t1, X, Y):
            return np.hypot(X, Y) < r_safe

        field, t0, t1, n, kw = {
            "exact-cylinder": (cylinder, 0.0, 0.25, 40, dict(box=(-2.0, 2.0))),
            "exact-rotsym": (stationary_rotsym(profile_gauss(0.5), 1.0, P), 0.0, 0.2, 16,
                             dict(box=(-2.0, 2.0))),
            "periodic-cylinder": (cylinder, 0.0, 0.1, 24, dict(box=(-1.0, 1.0), bc="periodic")),
            "outflow-cylinder": (cylinder, 0.0, 0.1, 24, dict(box=(-1.0, 1.0), bc="outflow")),
            "drop-masked": (drop, 0.1, 0.3, 40,
                            dict(box=(-2.0, 2.0), mask_fn=mask, dry_floor=True)),
        }[case]
        run = fv_oracle(field, t0, t1, n, **kw)
        assert run.steps == steps
        assert run.l1_error_h == pytest.approx(l1_h, rel=1e-12, abs=0.0)
        assert run.l1_error_all == pytest.approx(l1_all, rel=1e-12, abs=0.0)

    def test_cfl_violation(self):
        field = rest_state(1.0, P, frame="cartesian")
        with pytest.raises(CFLViolation):
            fv_oracle(field, 0.0, 0.5, 16, box=(-1.0, 1.0), dt=1.0)

    def test_bad_bc_rejected(self):
        field = rest_state(1.0, P, frame="cartesian")
        with pytest.raises(InvalidParams):
            fv_oracle(field, 0.0, 0.1, 8, bc="reflecting")


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
