import argparse
import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rswlab.cli import _csv_text, build_parser, main
from rswlab.core import FlowParameters, as_cartesian
from rswlab.solutions import FAMILY_NAMES, make_family
from rswlab.transforms import map_field_rsw_to_sw, map_field_sw_to_rsw, transport_solution


def run(argv, tmp_path=None):
    return main(argv)


class TestFieldCommand:
    def test_cylinder_depth_column(self, tmp_path):
        out = tmp_path / "field.csv"
        code = run([
            "field", "--family", "pulsating-cylinder", "--alpha", "2",
            "--f", "1", "--g", "1", "--h0", "1",
            "--t", "0,1.5708,3.1416", "--r", "0:2:21", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,r,theta,U,V,h"
        t0_rows = [ln.split(",") for ln in lines[1:] if ln.startswith("0,")]
        assert len(t0_rows) == 21
        assert all(float(row[-1]) == 2.0 for row in t0_rows)

    def test_row_order_is_time_major(self, tmp_path):
        out = tmp_path / "field.csv"
        run([
            "field", "--family", "drop", "--alpha", "2",
            "--t", "0,0.7854,1.5708", "--r", "0:1:3", "--theta", "0:1:2",
            "--out", str(out),
        ])
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        ts = [float(r[0]) for r in rows]
        assert ts == sorted(ts)

    def test_drop_profile_shape(self, tmp_path):
        out = tmp_path / "drop.csv"
        run([
            "field", "--family", "drop", "--alpha", "2",
            "--t", "0", "--r", "0:1.69:18", "--out", str(out),
        ])
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        hs = [float(r[-1]) for r in rows]
        assert hs[0] == max(hs)  # single maximum at the center
        assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))
        assert hs[-1] < 0.02 * hs[0]  # near-zero at the boundary radius

    def test_missing_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["field", "--t", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--mode", "fd"], ["--fd-step", "3"]])
    def test_derivative_flags_are_not_field_options(self, flag):
        # rsw field exports values only, so a derivative mode could not change it
        with pytest.raises(SystemExit) as exc:
            run(["field", "--family", "rest", *flag])
        assert exc.value.code == 2

    def test_unknown_family_exits_2(self):
        assert run(["field", "--family", "tsunami", "--t", "1"]) == 2

    def test_ring_at_a_tiny_scale_exists(self, capsys):
        # the default ring with (f, C1, C2, C3) scaled by (1e-30, 1e-60, 1e-30,
        # 1e-90): its double-root indicator scales by 1e-180, its radii stay put
        code = run(["field", "--family", "ring", "--f", "1e-31", "--c1", "1e-60", "--c2", "1e-30",
                    "--c3", "1e-90", "--t", "0", "--r", "3:20:3"])
        assert code == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 3 and all(float(row[-1]) > 0.0 for row in rows)

    def test_window_violation_exits_3(self):
        code = run([
            "field", "--family", "constant-sw-image", "--t", "0,1", "--x", "0:1:2",
            "--y", "0:1:2",
        ])
        assert code == 3


class TestResidualCommand:
    @pytest.mark.parametrize("family,extra", [
        ("rest", []),
        ("pulsating-cylinder", ["--alpha", "2"]),
        ("pulsating-drop", ["--alpha", "2"]),
        ("stationary-ring", ["--f", "0.1"]),
        ("collapse-scaling", []),
    ])
    def test_catalog_defaults_pass(self, family, extra, tmp_path):
        out = tmp_path / "res.json"
        code = run(["residual", "--family", family, *extra, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["passed"] is True
        assert payload["report"]["max_residual"] < 1e-6

    def test_corrupted_fixture_fails(self, tmp_path):
        out = tmp_path / "res.json"
        code = run([
            "residual", "--family", "drop", "--alpha", "2",
            "--corrupt-depth", "1.01", "--out", str(out),
        ])
        assert code == 1
        assert json.loads(out.read_text())["passed"] is False

    def test_fd_mode_metadata(self, tmp_path):
        out = tmp_path / "res.json"
        code = run([
            "residual", "--family", "cylinder", "--alpha", "2",
            "--mode", "fd", "--fd-step", "1e-5", "--out", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())["report"]
        assert rep["derivative_mode"] == "fd"
        assert rep["fd_step"] == 1e-5

    @pytest.mark.parametrize("flag", ["--lam0", "--eta0"])
    @pytest.mark.parametrize("value", ["1e300", "inf", "nan"])
    def test_collapse_contact_extreme_parameters(self, flag, value, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = run(["residual", "--family", "collapse-contact", flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if (flag, value) == ("--eta0", "1e300"):
            # a huge depth budget is a valid field: h_r is formed from psi
            # alone, with no cancellation of order-1e300 terms
            assert code == 0
            assert json.loads(out.read_text())["passed"] is True
        else:
            assert code == 2
            assert err.splitlines()[-1].startswith("error: ")
            assert not out.exists()


class TestBadArguments:
    @pytest.mark.parametrize("argv", [
        ["residual", "--family", "rest", "--shape", "10,x,10"],
        ["field", "--family", "stationary-rotsym", "--profile", "gauss:x"],
        ["field", "--family", "collapse-contact", "--psi", "sine:x"],
        ["field", "--family", "stationary-rotsym", "--profile", "solid:1,2,3"],
        ["field", "--family", "collapse-contact", "--psi", "sine:1,2"],
        ["field", "--family", "stationary-rotsym", "--profile", "gauss:0.5,0"],
        ["field", "--family", "drop", "--alpha", "1e-300"],
        ["field", "--family", "cylinder", "--h0", "inf"],
        ["field", "--family", "constant", "--u0", "nan"],
        ["field", "--family", "stationary-rotsym", "--profile", "gauss:nan"],
        ["field", "--family", "collapse-scaling", "--phi0", "nan"],
        ["field", "--family", "rest", "--h0", "nan"],
        ["trajectory", "--family", "rest", "--r0", "-0.5"],
        ["field", "--family", "rest", "--t", ""],
        ["trajectory", "--family", "rest", "--r0", ""],
        ["map", "--transport", "--alpha", "2", "--family", "rest", "--t", "", "--r", "0:2:5"],
        ["residual", "--family", "rest", "--mode", "fd", "--fd-step", "0"],
        ["residual", "--family", "rest", "--mode", "fd", "--fd-step", "nan"],
        ["residual", "--family", "rest", "--threshold", "nan"],
        ["field", "--family", "collapse-contact-cubic", "--c1", "1e300"],
        ["field", "--family", "stationary-rotsym", "--profile", ""],
        ["field", "--family", "collapse-contact", "--psi", ""],
        ["field", "--family", "drop", "--alpha", "2", "--f", "1e300"],
        ["field", "--family", "drop", "--alpha", "2", "--f", "1e-300"],
        ["field", "--family", "barochronous-sw", "--f", "1e300", "--t", "1"],
        ["field", "--family", "rest", "--t", "nan"],
        ["field", "--family", "rest", "--r", "nan:1:3"],
        ["field", "--family", "rest", "--r", "0:inf:3"],
        ["map", "--transport", "--alpha", "2", "--family", "rest", "--t", "inf", "--r", "0:2:5"],
        # counts beyond any address space: numpy refuses them before allocating
        ["trajectory", "--family", "rest", "--samples", "100000000000000000"],
        ["commutators", "--points", "100000000000000000"],
        ["field", "--family", "rest", "--r", "0:1:100000000000000000"],
        # constants that overflow a family's construction
        ["field", "--family", "collapse-scaling", "--eta0", "1e-300"],
        ["field", "--family", "collapse-scaling", "--eta0", "1e300"],
        ["field", "--family", "stationary-rotsym", "--profile", "gauss:0.5,1e-200"],
        ["field", "--family", "ring", "--c1", "1e300"],
        ["field", "--family", "stationary-rotsym", "--profile", "solid:1e200"],
        # the radius of the ring's bound scan underflows to 0 and C2^2 / (2 r^2) divides by it
        ["field", "--family", "stationary-ring", "--f", "1e200", "--g", "1e300", "--c1", "1e308",
         "--c2", "1e-200", "--c3", "2", "--t", "0", "--r", "3:20:3"],
    ], ids=["shape-not-integers", "profile-not-numbers", "psi-not-numbers",
            "profile-too-many-numbers", "psi-too-many-numbers", "gauss-zero-width",
            "drop-alpha-underflow", "h0-inf", "u0-nan", "profile-nan", "phi0-nan", "rest-h0-nan",
            "r0-negative", "t-empty", "r0-empty", "map-t-empty", "fd-step-zero", "fd-step-nan",
            "threshold-nan", "cubic-c1-overflow", "profile-empty", "psi-empty",
            "drop-f-overflow", "drop-f-underflow", "barochronous-f-overflow",
            "t-nan", "r-nan", "r-inf", "map-t-inf",
            "samples-unallocatable", "points-unallocatable", "grid-count-unallocatable",
            "scaling-eta0-underflow", "scaling-eta0-overflow", "gauss-width-square-underflow",
            "ring-c1-overflow", "solid-depth-overflow", "ring-scan-divides-by-zero"])
    def test_exit_2_with_an_error_line(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("error: ")
        assert not out.exists()


    @pytest.mark.parametrize("argv, flag", [
        (["trajectory", "--family", "cylinder", "--frame", "cartesian"], "--frame"),
        (["field", "--family", "drop", "--frame", "polar"], "--frame"),
        (["map", "--direction", "rsw2sw", "--family", "cylinder", "--frame", "cartesian"], "--frame"),
        (["field", "--family", "drop", "--x=-1:1:3"], "--x"),
        (["field", "--family", "drop", "--y=-1:1:3"], "--y"),
        (["field", "--family", "barochronous-sw", "--t", "1", "--r", "0:1:3"], "--r"),
        (["field", "--family", "rest", "--frame", "cartesian", "--theta", "0:1:3"], "--theta"),
        (["map", "--direction", "rsw2sw", "--family", "cylinder", "--r", "0:1:3"], "--r"),
        (["map", "--transport", "--alpha", "2", "--family", "rest", "--x=-1:1:3"], "--x"),
        (["field", "--family", "rest", "--alpha", "2"], "--alpha"),
        (["field", "--family", "drop", "--h0", "2"], "--h0"),
        (["residual", "--family", "cylinder", "--branch", "upper"], "--branch"),
        (["trajectory", "--family", "ring", "--f", "0.1", "--profile", "gauss:0.5"], "--profile"),
        (["field", "--family", "collapse-scaling", "--psi", "sine:1"], "--psi"),
        (["field", "--family", "rest", "--h0", "nan", "--c1", "2"], "--c1"),
        (["map", "--direction", "rsw2sw", "--family", "rest", "--alpha", "2"], "--alpha"),
        (["map", "--transport", "--alpha", "2", "--family", "drop", "--h0", "1"], "--h0"),
    ], ids=["trajectory-frame", "field-frame", "map-frame", "polar-x", "polar-y",
            "cartesian-r", "cartesian-theta", "map-cartesian-r", "map-polar-x",
            "rest-alpha", "drop-h0", "cylinder-branch", "ring-profile", "scaling-psi",
            "rest-c1-before-nan-h0", "map-direction-alpha", "map-transport-h0"])
    def test_flag_that_does_not_apply_exits_2_naming_it(self, argv, flag, capsys):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} does not apply")

    @pytest.mark.parametrize("family, source", [("drop", "pulsating-drop(alpha=2)"), ("rest", "rest(h0=1)")])
    def test_transport_alpha_reaches_only_a_family_that_takes_it(self, family, source, tmp_path):
        out = tmp_path / "map.json"
        argv = ["map", "--transport", "--alpha", "2", "--family", family, "--format", "json"]
        assert run([*argv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["source"] == source


class TestCommutatorsCommand:
    def test_default_matches_reference(self, tmp_path):
        out = tmp_path / "comm.json"
        assert run(["commutators", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["matches_reference_table"] is True
        assert payload["bases_agree"] is True

    def test_z_family_and_other_f(self, tmp_path):
        for extra in (["--family", "Z"], ["--f", "0.37"]):
            out = tmp_path / "comm.json"
            assert run(["commutators", *extra, "--out", str(out)]) == 0
            assert json.loads(out.read_text())["matches_reference_table"] is True

    @pytest.mark.parametrize("points", ["0", "-3", "1"])
    def test_too_few_points_exit_2(self, points, capsys):
        assert run(["commutators", "--points", points]) == 2
        assert "n_points >= 2" in capsys.readouterr().err


class TestMapCommand:
    def test_rest_to_barochronous_columns(self, tmp_path):
        out = tmp_path / "map.json"
        code = run([
            "map", "--direction", "rsw2sw", "--family", "rest", "--h0", "1",
            "--frame", "cartesian", "--t", "0.5,1.5", "--x=-1:1:3",
            "--y=-1:1:3", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["system"] == "sw"
        for row in payload["rows"]:
            t, x, y, u, v, h = row
            assert h == pytest.approx(1.0 / (1.0 + t * t), rel=1e-12)
        assert payload["residual"]["max_residual"] < 1e-6

    def test_transport_rest_gives_cylinder(self, tmp_path):
        out = tmp_path / "map.csv"
        code = run([
            "map", "--transport", "--alpha", "2", "--family", "rest",
            "--t", "0", "--r", "0.5:1.5:3", "--out", str(out),
        ])
        assert code == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:] if not ln.startswith("#")]
        for row in rows:
            r, V, h = float(row[1]), float(row[4]), float(row[5])
            assert V == pytest.approx(r / 2, rel=1e-12)
            assert h == pytest.approx(2.0, rel=1e-12)

    def test_zero_alpha_exits_2(self):
        assert run(["map", "--transport", "--alpha", "0", "--family", "rest"]) == 2

    def test_transport_exports_origin_but_checks_r_positive(self, tmp_path):
        out = tmp_path / "map.json"
        code = run([
            "map", "--transport", "--alpha", "2", "--family", "rest", "--t", "0",
            "--r", "0:2:5", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert [row[1] for row in payload["rows"]] == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert payload["residual"]["n_points"] == 4
        assert payload["residual"]["max_residual"] < 1e-6

    def test_transport_at_the_origin_only_exits_3(self):
        assert run(["map", "--transport", "--alpha", "2", "--family", "rest",
                    "--t", "0", "--r", "0:0:2"]) == 3

    def test_transport_with_out_of_range_inverse_names_the_alpha_given(self, capsys):
        # 1e-8 is a usable dilation but 1e8 is not, and the contact family's
        # finite time window is mapped back through the inverse
        assert run(["map", "--family", "collapse-contact", "--transport", "--alpha", "1e-8",
                    "--t", "2", "--r", "0.5:1:3"]) == 2
        err = capsys.readouterr().err
        assert "alpha=1e-08" in err and "inverse" in err and "out of range" in err


P11 = FlowParameters(1.0, 1.0)

# (argv, reference field): every exported row must equal the reference's
# scalar ``eval`` at the row's point
ROW_CASES = {
    "cylinder": (
        ["field", "--family", "pulsating-cylinder", "--alpha", "2", "--t", "0.3,1.1",
         "--r", "0:2:9", "--theta", "0:3:4"],
        lambda: make_family("pulsating-cylinder", P11, alpha=2.0)),
    "drop": (
        ["field", "--family", "drop", "--alpha", "2", "--t", "0.4,2", "--r", "0:0.9:7",
         "--theta", "0:2:3", "--format", "json"],
        lambda: make_family("drop", P11, alpha=2.0)),
    "barochronous": (
        ["field", "--family", "barochronous-sw", "--t", "0.5", "--x=-1:1:5", "--y=-1:1:4"],
        lambda: make_family("barochronous-sw", P11)),
    "stationary-rotsym": (
        ["field", "--family", "stationary-rotsym", "--t", "0,1", "--r", "0.1:2:6"],
        lambda: make_family("stationary-rotsym", P11)),
    "collapse-scaling": (
        ["field", "--family", "collapse-scaling", "--t", "0.2,0.5", "--r", "0.1:2:6"],
        lambda: make_family("collapse-scaling", P11)),
    "transport": (
        ["map", "--transport", "--alpha", "1.7", "--family", "rest", "--t", "0.3,1",
         "--r", "0:2:5", "--theta", "0:1:2"],
        lambda: transport_solution(make_family("rest", P11), 1.7, P11)),
    "rsw2sw": (
        ["map", "--direction", "rsw2sw", "--family", "pulsating-cylinder", "--alpha", "2",
         "--t=-1,0.5", "--x=-1:1:4", "--y=-1:1:3", "--format", "json"],
        lambda: map_field_rsw_to_sw(as_cartesian(make_family("pulsating-cylinder", P11, alpha=2.0)))),
    "sw2rsw": (
        ["map", "--direction", "sw2rsw", "--family", "barochronous-sw", "--t", "1,2",
         "--x=-1:1:4", "--y=-1:1:3"],
        lambda: map_field_sw_to_rsw(make_family("barochronous-sw", P11))),
}


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_exported_rows_equal_scalar_eval(case, tmp_path):
    argv, reference = ROW_CASES[case]
    out = tmp_path / ("out.json" if "json" in argv else "out.csv")
    assert run([*argv, "--out", str(out)]) == 0
    text = out.read_text()
    if "json" in argv:
        rows = json.loads(text)["rows"]
    else:
        rows = [[float(v) for v in ln.split(",")] for ln in text.splitlines()[1:] if not ln.startswith("#")]
    spec = next(tok[4:] if tok.startswith("--t=") else argv[i + 1]
                for i, tok in enumerate(argv) if tok == "--t" or tok.startswith("--t="))
    assert sorted({row[0] for row in rows}) == sorted(float(v) for v in spec.split(","))
    field = reference()
    for t, a, b, *state in rows:
        want = field.eval(t, a, b)
        assert np.all(np.abs(np.array(state) - want) <= 1e-14 * np.abs(want))


class TestTrajectoryCommand:
    def test_drop_closure_summary(self, tmp_path):
        out = tmp_path / "traj.json"
        r0 = 1.0 / math.sqrt(3.0)
        code = run([
            "trajectory", "--family", "drop", "--alpha", "2",
            "--r0", f"{r0:.17g}", "--t1", f"{6 * math.pi:.17g}",
            "--samples", "5", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads(out.read_text())["summaries"][0]
        assert summary["kind"] == "closed"
        assert (summary["m"], summary["M"]) == (1, 3)

    def test_cylinder_circle_fit(self, tmp_path):
        out = tmp_path / "traj.json"
        code = run([
            "trajectory", "--family", "cylinder", "--alpha", "2", "--r0", "1",
            "--samples", "17", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads(out.read_text())["summaries"][0]
        assert summary["kind"] == "circle"
        assert summary["circle_fit_residual"] < 1e-8

    def test_zero_radius_single_row(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run([
            "trajectory", "--family", "rest", "--r0", "0",
            "--samples", "9", "--out", str(out),
        ])
        assert code == 0
        lines = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
        assert len(lines) == 2  # header plus one fixed row


    @pytest.mark.parametrize("argv, kind", [
        (["--family", "cylinder", "--alpha", "2", "--r0", "1"], "circle"),
        (["--family", "cylinder", "--alpha", "2", "--r0", "1", "--t0", "1", "--t1", "4"],
         "generic"),
        (["--family", "constant", "--r0", "0.5", "--t0", repr(math.pi), "--t1", "5"], "circle"),
        (["--family", "constant", "--r0", "0.5", "--t0", "1", "--t1", "5"], "generic"),
        (["--family", "drop", "--alpha", "2", "--r0", "1", "--t0", "1", "--t1", "4"], "generic"),
    ], ids=["cylinder-anchor", "cylinder-t0-1", "constant-anchor", "constant-t0-1", "drop-t0-1"])
    def test_summary_only_at_the_anchor_time(self, argv, kind, tmp_path):
        # the closed forms start from (r0, theta0) at t = 0 (pi/f for the
        # constant image); elsewhere their circle misfits the path by O(1)
        out = tmp_path / "traj.json"
        argv = ["trajectory", *argv, "--samples", "9", "--format", "json", "--out", str(out)]
        assert run(argv) == 0
        payload = json.loads(out.read_text())
        summary, fits = payload["summaries"][0], [row[-1] for row in payload["rows"]]
        assert summary["kind"] == kind
        if kind == "circle":
            assert max(fits) < 1e-8 and summary["circle_fit_residual"] < 1e-8
        else:
            assert set(fits) == {""}

    @pytest.mark.parametrize("family", ["collapse-contact", "constant-sw-image"])
    def test_end_past_the_window_names_the_window(self, family, capsys):
        # t1 = 7 is past the window's end, 2 pi minus the guard band
        argv = ["trajectory", "--family", family, "--r0", "0.8", "--t0", "1.2", "--t1", "7"]
        assert run(argv) == 3
        assert "outside validity window" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, rows", [
        (["--family", "cylinder", "--t0", "1"], 0, 1),
        (["--family", "collapse-scaling", "--t1", "0.5"], 0, 1),
        (["--family", "ring", "--f", "0.1"], 3, 0),  # its window excludes r = 0
        (["--family", "constant", "--t0", "1", "--t1", "3"], 0, 9),  # the origin moves
    ], ids=["cylinder", "collapse-scaling", "ring", "constant"])
    def test_zero_radius_start(self, argv, code, rows, tmp_path):
        out = tmp_path / "traj.csv"
        assert run(["trajectory", *argv, "--r0", "0", "--samples", "9", "--out", str(out)]) == code
        lines = out.read_text().splitlines() if code == 0 else []
        data = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        assert len(data) == rows
        if rows == 9:
            assert float(data[-1][2]) > 3.9  # r at t = 3


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["commutators", "--seed", "5", "--format", "json"]
        assert run([*args, "--out", str(a)]) == 0
        assert run([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        args = ["field", "--family", "drop", "--alpha", "2", "--t", "0.3,0.9",
                "--r", "0.1:1.5:7"]
        assert run([*args, "--out", str(c)]) == 0
        assert run([*args, "--out", str(d)]) == 0
        assert c.read_bytes() == d.read_bytes()

    def test_parser_is_shared_and_calls_leak_nothing(self, tmp_path):
        assert build_parser() is build_parser()
        fd, plain = tmp_path / "fd.json", tmp_path / "plain.json"
        family = ["--family", "cylinder", "--shape", "3,3,2"]
        assert run(["residual", *family, "--mode", "fd", "--out", str(fd)]) == 0
        assert run(["residual", *family, "--out", str(plain)]) == 0
        assert json.loads(fd.read_text())["report"]["derivative_mode"] == "fd"
        assert json.loads(plain.read_text())["report"]["derivative_mode"] == "analytic"

        js, csv_out = tmp_path / "f.json", tmp_path / "f.csv"
        grid = ["--family", "rest", "--t", "0.5", "--r", "0.5:1:2"]
        assert run(["field", *grid, "--format", "json", "--out", str(js)]) == 0
        assert run(["field", *grid, "--out", str(csv_out)]) == 0
        assert json.loads(js.read_text())["command"] == "field"
        assert csv_out.read_text().splitlines()[0] == "t,r,theta,U,V,h"

    def test_csv_uses_17_significant_digits(self, tmp_path):
        out = tmp_path / "f.csv"
        run(["field", "--family", "drop", "--alpha", "2", "--t", "0.7853981633974483",
             "--r", "0.3:0.9:2", "--out", str(out)])
        row = out.read_text().splitlines()[1].split(",")
        value = float(row[-1])
        assert format(value, ".17g") == row[-1]

    def test_no_partial_file_on_failure(self, tmp_path):
        out = tmp_path / "never.csv"
        code = run([
            "field", "--family", "constant-sw-image", "--t", "0,1",
            "--x", "0:1:2", "--y", "0:1:2", "--out", str(out),
        ])
        assert code == 3
        assert not out.exists()
        assert not list(tmp_path.glob(".rsw-tmp-*"))


class TestConsoleEntryPoint:
    def test_subprocess_invocation(self, tmp_path):
        out = tmp_path / "res.json"
        proc = subprocess.run(
            [sys.executable, "-m", "rswlab.cli", "residual", "--family", "rest",
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["passed"] is True

    @pytest.mark.parametrize("flag, code", [("--eta0", 0), ("--lam0", 2)])
    def test_collapse_contact_extreme_parameters_warn_nothing(self, flag, code, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rswlab.cli", "residual", "--family", "collapse-contact",
             flag, "1e300", "--out", str(tmp_path / "res.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == code
        assert "Warning" not in proc.stderr

    def test_field_commands_import_no_scipy(self, tmp_path):
        # the four families that solve per point run on numpy alone
        commands = [
            ["--family", "stationary-rotsym", "--r", "0.1:2:5"],
            ["--family", "stationary-ring", "--f", "0.1", "--r", "5:20:5"],
            ["--family", "collapse-contact", "--r", "0.5:2:5"],
            ["--family", "collapse-contact-cubic", "--r", "8:12:5"],
        ]
        script = (
            "import sys\n"
            "from rswlab.cli import main\n"
            f"for k, argv in enumerate({commands!r}):\n"
            f"    assert main(['field', *argv, '--out', {str(tmp_path)!r} + f'/{{k}}.csv']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert len(list(tmp_path.glob("*.csv"))) == 4



# ---------------------------------------------------------------------------
# CSV text: float rows print exactly as printf "%.17g" row by row
# ---------------------------------------------------------------------------

#: Values every drawn block may hold: both zeros, NaN, the infinities, the
#: smallest subnormal and a larger one.
CSV_SPECIALS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310, 1.0)


def csv_reference(header, rows):
    """The per-row float export: one printf ``%.17g`` line per row."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(line % row for row in map(tuple, rows.tolist()))


@st.composite
def float_blocks(draw):
    """Float64 rows drawn from a small pool, so that values repeat heavily."""
    pool = draw(st.lists(st.floats(width=64), max_size=6)) + list(CSV_SPECIALS)
    n_rows, n_cols = draw(st.integers(0, 30)), draw(st.integers(1, 6))
    picks = draw(st.lists(st.sampled_from(pool), min_size=n_rows * n_cols,
                          max_size=n_rows * n_cols))
    return np.array(picks, dtype=np.float64).reshape(n_rows, n_cols)


class TestCsvText:
    @settings(max_examples=300, deadline=None)
    @given(rows=float_blocks())
    @example(rows=np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]]))
    @example(rows=np.empty((0, 6)))
    @example(rows=np.array([[math.nan, math.inf, -math.inf, 5e-324, -0.0, 0.0]]))
    def test_float_rows_equal_the_per_row_format(self, rows):
        header = [f"c{j}" for j in range(rows.shape[1])]
        assert _csv_text(header, rows) == csv_reference(header, rows)

    def test_list_rows_equal_the_csv_module(self):
        header = ["particle", "t", "r", "fit"]
        rows = [[0, 0.1, -0.0, ""], [12, 5e-324, math.inf, 1e300], [3, math.nan, 1.0, -2.5]]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([["%.17g" % v if isinstance(v, float) else v for v in row] for row in rows])
        assert _csv_text(header, rows) == buf.getvalue()
        assert _csv_text(header, []) == "particle,t,r,fit\n"


# ---------------------------------------------------------------------------
# Argument fuzz: every argv gets a documented exit code, never a traceback
# ---------------------------------------------------------------------------

FUZZ_VALUES = ("", "nan", "inf", "-1", "0", "1e300", "x", "1,2", "0.5", "1", "2", "0.25,1.5")
#: Well-formed values of the options that take structured text, kept small.
FUZZ_EXTRA = {
    "--r": ("0.5:1.5:3", "0:2:3"), "--theta": ("0:1:2",), "--x": ("-1:1:3",), "--y": ("-1:1:3",),
    "--shape": ("3,3,2",), "--profile": ("gauss:0.5,2", "solid:1"), "--psi": ("sine:1",),
    "--samples": ("3",), "--points": ("3",), "--seed": ("3",),
}
(_SUBCOMMANDS,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]


@st.composite
def rsw_argv(draw):
    """A subcommand with up to five of its flags, each set to a drawn value."""
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    options = [a for a in _SUBCOMMANDS[name]._actions
               if a.option_strings and a.dest not in ("help", "out")]
    argv = [name]
    for action in draw(st.lists(st.sampled_from(options), unique_by=id, max_size=5)):
        flag = action.option_strings[-1]
        if action.nargs == 0:
            argv.append(flag)
            continue
        if action.choices:
            pool = (*action.choices, "x")
        elif action.dest == "family":
            pool = (*FAMILY_NAMES, "x", "")
        else:
            pool = (*FUZZ_VALUES, *FUZZ_EXTRA.get(flag, ()))
        argv.append(f"{flag}={draw(st.sampled_from(pool))}")
    if name != "commutators" and not any(tok.startswith("--family=") for tok in argv):
        argv.append(f"--family={draw(st.sampled_from(FAMILY_NAMES))}")
    return argv


class TestArgumentFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(argv=rsw_argv())
    def test_exit_code_is_documented_and_nothing_escapes(self, argv, tmp_path):
        out = tmp_path / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([*argv, f"--out={out}"])
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert [p.name for p in tmp_path.iterdir()] in ([], ["out"])

    @pytest.mark.parametrize("argv", [
        ["trajectory", "--family", "cylinder", "--t1", "1e300"],
        ["trajectory", "--family", "collapse-scaling", "--r0", "1,2", "--samples", "3"],
        ["field", "--family", "barochronous-sw", "--f", "1e300"],
        ["field", "--family", "collapse-contact-cubic", "--c1", "1e300"],
        ["commutators", "--f", "1e300", "--seed", "-1"],
        ["map", "--transport", "--alpha", "1e300", "--family", "drop", "--t", "nan"],
    ])
    def test_fixed_cases_finish_in_a_subprocess(self, argv, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rswlab.cli", *argv, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode in (0, 1, 2, 3), proc.stderr
        assert "Traceback" not in proc.stderr
