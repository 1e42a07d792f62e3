"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` to see
them) and asserts the criterion at its stated tolerance.
"""

import json
import math
import time

import numpy as np

from rswlab.cli import main as cli_main
from rswlab.core import (
    FlowParameters,
    as_cartesian,
    potential_vorticity,
)
from rswlab.liealg import structure_constants
from rswlab.reduction import (
    collapse2_build,
    collapse2_verify_ode,
    depth_cubic_coeffs,
    double_root_indicator,
    ring_bounds,
)
from rswlab.solutions import (
    closure_condition,
    constant_sw_image,
    default_catalog,
    drop_swirl_coefficient,
    profile_quadratic,
    pulsating_cylinder,
    pulsating_drop,
    rest_state,
    stationary_ring,
    stationary_rotsym,
)
from rswlab.transforms import equiv_jet_array, map_field_rsw_to_sw, transport_solution
from rswlab.verify import (
    fv_convergence,
    integrate_trajectory,
    pv_along_trajectory,
    residual_report,
    sample_grid,
)

P11 = FlowParameters(1.0, 1.0)
RING = FlowParameters(0.1, 1.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_structure_constants():
    start = time.perf_counter()
    identical = True
    matches = True
    for f in (0.37, 1.0, 2.0):
        params = FlowParameters(f, 1.0)
        ty = structure_constants("Y", params)
        tz = structure_constants("Z", params)
        matches &= ty.matches_canonical() and tz.matches_canonical()
        identical &= bool(np.max(np.abs(ty.coeffs - tz.coeffs)) <= 1e-9)
    elapsed = time.perf_counter() - start
    ok = matches and identical and elapsed < 1.0
    _report(
        "criterion 1 (structure constants)",
        ok,
        f"tables exact for f in (0.37, 1, 2), bases identical, {elapsed:.2f}s",
    )


def test_criterion_2_residual_suite():
    start = time.perf_counter()
    catalog = default_catalog()
    worst_name, worst = "", 0.0
    for name, field in catalog.items():
        rep = residual_report(field, shape=(10, 10, 10))
        if rep.max_residual > worst:
            worst_name, worst = name, rep.max_residual
    elapsed = time.perf_counter() - start
    ok = len(catalog) == 10 and worst < 1e-6 and elapsed < 10.0
    _report(
        "criterion 2 (residual suite)",
        ok,
        f"10 families, worst {worst:.2e} ({worst_name}), {elapsed:.1f}s",
    )


def test_criterion_3_equivalence_to_plain_system():
    sources = {
        "rest": rest_state(1.0, P11, frame="cartesian"),
        "constant-sw-image": constant_sw_image(1.0, 0.5, 1.0, P11),
        "pulsating-cylinder": as_cartesian(pulsating_cylinder(2.0, 1.0, P11)),
        "pulsating-drop": as_cartesian(pulsating_drop(2.0, P11)),
    }
    worst_res = 0.0
    for name, src in sources.items():
        img = map_field_rsw_to_sw(src, P11)
        ts = np.linspace(0.6, 5.6, 5)
        pts = []
        for t in ts:
            r_cap = 1.5
            if name == "pulsating-drop":
                r_cap = 0.7 * src.meta["boundary_radius"](t)
            for rr in np.linspace(0.15, r_cap, 4):
                for th in (0.2, 1.8, 3.9):
                    x, y = rr * math.cos(th), rr * math.sin(th)
                    pts.append(equiv_jet_array([t, x, y, 0, 0, 1], P11)[:3])
        rep = residual_report(img, points=np.array(pts))
        worst_res = max(worst_res, rep.max_residual)
    # round-trip of the point map
    rng = np.random.default_rng(12)
    worst_rt = 0.0
    for _ in range(50):
        arr = np.array([
            rng.uniform(0.3, 5.9), rng.uniform(-2, 2), rng.uniform(-2, 2),
            rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 3.0),
        ])
        back = equiv_jet_array(equiv_jet_array(arr, P11, "rsw2sw"), P11, "sw2rsw")
        worst_rt = max(worst_rt, float(np.max(np.abs(back - arr))))
    ok = worst_res < 1e-6 and worst_rt < 1e-10
    _report(
        "criterion 3 (equivalence map)",
        ok,
        f"image residual {worst_res:.2e}, round trip {worst_rt:.2e}",
    )


def test_criterion_4_transport_operator():
    worst_pt = 0.0
    for alpha in (0.5, 2.0, 3.0):
        moved = transport_solution(rest_state(1.0, P11), alpha, P11)
        ref = pulsating_cylinder(alpha, 1.0, P11)
        for t in np.linspace(0.0, 2 * math.pi, 9):
            for r in (0.2, 0.9, 1.7):
                a = np.asarray(moved.values_unchecked(t, r, 0.3), dtype=float)
                b = np.asarray(ref.values_unchecked(t, r, 0.3), dtype=float)
                worst_pt = max(worst_pt, float(np.max(np.abs(a - b))))
    l = drop_swirl_coefficient(2.0, P11)
    h0 = P11.f ** 4 / (12 * P11.g * l * l)
    base = stationary_rotsym(profile_quadratic(l), h0, P11)
    moved = transport_solution(base, 2.0, P11)
    rep = residual_report(moved, points=sample_grid(pulsating_drop(2.0, P11), (6, 6, 4)))
    ok = worst_pt < 1e-12 and rep.max_residual < 1e-6
    _report(
        "criterion 4 (solution transport)",
        ok,
        f"rest->column pointwise {worst_pt:.2e}, swirl->drop residual {rep.max_residual:.2e}",
    )


def test_criterion_5_periodicity_and_trajectories():
    cyl = pulsating_cylinder(2.0, 1.0, P11)
    period = P11.period
    worst_return = 0.0
    for r0, th0 in ((0.4, 0.0), (1.0, 1.1), (1.8, 3.9)):
        traj = integrate_trajectory(cyl, r0, th0, 0.0, period, tol=1e-11, record=[period])
        worst_return = max(
            worst_return,
            abs(traj.positions[-1][0] - r0),
            abs(traj.positions[-1][1] - th0),
        )
    drop = pulsating_drop(2.0, P11)
    r0 = 1.0 / math.sqrt(3.0)
    traj = integrate_trajectory(drop, r0, 0.0, 0.0, 6 * math.pi, tol=1e-11, record=[6 * math.pi])
    x = traj.positions[-1][0] * math.cos(traj.positions[-1][1])
    y = traj.positions[-1][0] * math.sin(traj.positions[-1][1])
    drop_close = math.hypot(x - r0, y)
    c1 = closure_condition(2.0, 1.0 / math.sqrt(3.0), P11)
    c2 = closure_condition(2.0, math.sqrt(3.0) / 6.0, P11)
    ok = (
        worst_return < 1e-8
        and drop_close < 1e-6
        and c1.closed and (c1.m, c1.M) == (1, 3)
        and c2.closed and (c2.m, c2.M) == (1, 6)
    )
    _report(
        "criterion 5 (periodicity and trajectories)",
        ok,
        f"column return {worst_return:.2e}, drop closure {drop_close:.2e}, "
        f"classifier ({c1.m},{c1.M}) and ({c2.m},{c2.M})",
    )


def _trajectory_plan(catalog):
    """Twenty start states per family with windows that stay in-domain."""
    plans = {}
    period = 2 * math.pi
    radii = np.linspace(0.25, 1.55, 10)
    angles = (0.0, 2.1)

    plans["rest"] = [(r, a, 0.0, period) for r in radii for a in angles]
    plans["constant-sw-image"] = [
        (r, a, 0.7, 5.6) for r in np.linspace(0.25, 1.2, 10) for a in angles
    ]
    plans["barochronous-sw"] = [(r, a, 0.0, period) for r in radii for a in angles]
    plans["stationary-rotsym"] = [(r, a, 0.0, period) for r in radii for a in angles]
    plans["pulsating-cylinder"] = [(r, a, 0.0, period) for r in radii for a in angles]
    plans["pulsating-drop"] = [(r, a, 0.0, period) for r in radii for a in angles]

    ring = catalog["stationary-ring"]
    b = ring.meta["bounds"]
    ring_plan = []
    for r0 in np.linspace(b.r_inner + 2.0, b.r_outer - 6.0, 10):
        U0 = float(ring.values_unchecked(0.0, r0, 0.0)[0])
        t1 = min(RING.period, 0.35 * (b.r_outer - r0) / max(U0, 1e-9))
        for a in angles:
            ring_plan.append((r0, a, 0.0, t1))
    plans["stationary-ring"] = ring_plan

    contact = catalog["collapse-contact"]
    lam_hi = 0.8 * contact.meta["lam_max"]
    t0 = 1.2
    w0 = 1 - math.cos(t0)
    plans["collapse-contact"] = [
        (math.sqrt(w0 / lam), a, t0, 4.8)
        for lam in np.linspace(0.25, lam_hi, 10)
        for a in angles
    ]

    cubic = catalog["collapse-contact-cubic"]
    lam_c = cubic.meta["lam_c"]
    plans["collapse-contact-cubic"] = [
        (math.sqrt(w0 / lam), a, t0, 4.2)
        for lam in np.linspace(0.1 * lam_c, 0.75 * lam_c, 10)
        for a in angles
    ]

    scaling = catalog["collapse-scaling"]
    t_end = 0.85 * scaling.meta["tabulation"].Tstar
    plans["collapse-scaling"] = [(r, a, 0.0, t_end) for r in radii for a in angles]
    return plans


def test_criterion_6_potential_vorticity_conservation():
    catalog = default_catalog()
    plans = _trajectory_plan(catalog)
    worst_family, worst = "", 0.0
    for name, field in catalog.items():
        for r0, th0, t0, t1 in plans[name]:
            record = np.linspace(t0, t1, 9)
            traj = integrate_trajectory(field, r0, th0, t0, t1, tol=1e-10, record=record)
            pv = pv_along_trajectory(field, traj)
            h_start = float(field.values_unchecked(t0, *(
                (r0, th0) if field.frame == "polar"
                else (r0 * math.cos(th0), r0 * math.sin(th0))
            ))[2])
            scale = max(abs(pv[0]), field.params.f / h_start)
            drift = float(np.max(np.abs(pv - pv[0]))) / scale
            if drift > worst:
                worst_family, worst = name, drift
    cyl = pulsating_cylinder(2.0, 1.0, P11)
    rng = np.random.default_rng(4)
    worst_pv = 0.0
    for _ in range(100):
        point = (rng.uniform(0, 2 * math.pi), rng.uniform(0.05, 2.0), rng.uniform(0, 2 * math.pi))
        worst_pv = max(worst_pv, abs(potential_vorticity(cyl, *point) - 1.0))
    ok = worst < 1e-5 and worst_pv < 1e-10
    _report(
        "criterion 6 (conservation)",
        ok,
        f"20 paths/family, worst drift {worst:.2e} ({worst_family}); "
        f"column vorticity off by {worst_pv:.2e}",
    )


def test_criterion_7_ring_geometry():
    bounds = ring_bounds(1.0, 1.0, 1.0, RING)
    # digits confirmed by the independent sign-scan oracle
    digits_ok = (
        abs(bounds.r_inner - 2.189198032) < 1e-6
        and abs(bounds.r_outer - 25.72325742) < 1e-5
    )
    g_ok = all(
        abs(double_root_indicator(*depth_cubic_coeffs(r, 1.0, 1.0, 1.0, RING))) < 1e-10
        for r in (bounds.r_inner, bounds.r_outer)
    )
    # at the sonic circles the depth limit is the double root h_c and the
    # radial speed is exactly critical there
    sonic_ok = True
    for r_star, h_c in ((bounds.r_inner, bounds.h_inner), (bounds.r_outer, bounds.h_outer)):
        U = 1.0 / (r_star * h_c)
        sonic_ok &= abs(U * U - RING.g * h_c) <= 1e-8 * max(1.0, RING.g * h_c)
    h_s = (2 * 1.0 - 1.0 * RING.f) / (3 * RING.g)
    hc_ok = bounds.h_inner <= h_s + 1e-12 and bounds.h_outer <= h_s + 1e-12
    # The lower branch is supercritical on the whole annulus.  The upper
    # branch is subcritical strictly between the two radii where its depth
    # crosses the critical depth h_s; towards both sonic circles every
    # branch turns supercritical because the radial speed alone is critical
    # there.  Probe the branches accordingly.
    from scipy.optimize import brentq

    from rswlab.core import diagnostics

    def critical_depth_gap(r):
        phi1, phi2 = depth_cubic_coeffs(r, 1.0, 1.0, 1.0, RING)
        return h_s ** 3 + phi1 * h_s ** 2 + phi2

    r_lo = brentq(critical_depth_gap, bounds.r_inner, 0.3 * bounds.r_outer, xtol=1e-12)
    r_hi = brentq(critical_depth_gap, 0.3 * bounds.r_outer, bounds.r_outer, xtol=1e-12)
    band_ok = bounds.r_inner < r_lo < r_hi < bounds.r_outer
    lower = stationary_ring(1.0, 1.0, 1.0, RING, branch="lower")
    upper = stationary_ring(1.0, 1.0, 1.0, RING, branch="upper")
    fr_ok = True
    for r in np.linspace(bounds.r_inner * 1.001, bounds.r_outer * 0.999, 50):
        fr_ok &= diagnostics(lower, 0.0, r, 0.0).froude > 1.0
    for r in np.linspace(r_lo * 1.001, r_hi * 0.999, 50):
        fr_ok &= diagnostics(upper, 0.0, r, 0.0).froude < 1.0
    ok = digits_ok and g_ok and sonic_ok and hc_ok and band_ok and fr_ok
    _report(
        "criterion 7 (ring geometry)",
        ok,
        f"radii ({bounds.r_inner:.4f}, {bounds.r_outer:.4f}), sonic equality, "
        f"supercritical lower on 50 radii, subcritical upper on "
        f"({r_lo:.3f}, {r_hi:.3f})",
    )


def test_criterion_8_collapse_regime():
    worst = 0.0
    turning_seen = False
    for phi0 in (0.0, -1.0, 0.5):
        ic = collapse2_build(phi0, 1.0, P11)
        rep = collapse2_verify_ode(ic, P11, t_end_fraction=0.9)
        worst = max(worst, rep.max_phi_error, rep.max_eta_error)
        if phi0 == 0.5:
            turning_seen = rep.turning_time is not None and ic.t1 is not None
    ok = worst < 1e-6 and turning_seen
    _report(
        "criterion 8 (self-similar collapse)",
        ok,
        f"implicit vs direct integration worst {worst:.2e}, turning point found",
    )


def test_criterion_9_finite_volume_convergence():
    start = time.perf_counter()
    field = pulsating_cylinder(2.0, 1.0, P11)
    res = fv_convergence(field, 0.0, math.pi / 2.0, ns=(100, 200))
    elapsed = time.perf_counter() - start
    ok = res.rate_h >= 0.8 and elapsed < 60.0
    _report(
        "criterion 9 (finite-volume oracle)",
        ok,
        f"rate {res.rate_h:.3f} from errors {res.errors[0]:.3e} -> "
        f"{res.errors[1]:.3e}, {elapsed:.1f}s",
    )


def test_criterion_10_cli_contract(tmp_path):
    defaults = {
        "rest": [],
        "constant-sw-image": [],
        "barochronous-sw": [],
        "stationary-rotsym": [],
        "pulsating-cylinder": ["--alpha", "2"],
        "pulsating-drop": ["--alpha", "2"],
        "stationary-ring": ["--f", "0.1"],
        "collapse-contact": [],
        "collapse-contact-cubic": [],
        "collapse-scaling": [],
    }
    exits_ok = True
    for family, extra in defaults.items():
        out = tmp_path / f"{family}.json"
        code = cli_main(["residual", "--family", family, *extra, "--out", str(out)])
        exits_ok &= code == 0 and json.loads(out.read_text())["passed"]
    corrupted = cli_main([
        "residual", "--family", "drop", "--alpha", "2",
        "--corrupt-depth", "1.01", "--out", str(tmp_path / "bad.json"),
    ])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["field", "--family", "drop", "--alpha", "2",
            "--t", "0,0.7853981633974483,1.5707963267948966", "--r", "0:1.6:9"]
    cli_main([*args, "--out", str(a)])
    cli_main([*args, "--out", str(b)])
    deterministic = a.read_bytes() == b.read_bytes()
    ok = exits_ok and corrupted == 1 and deterministic
    _report(
        "criterion 10 (command-line contract)",
        ok,
        f"catalog exit codes 0, corrupted fixture exit {corrupted}, "
        f"byte-deterministic reruns {deterministic}",
    )
