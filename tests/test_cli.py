import json
import math
import subprocess
import sys

import numpy as np
import pytest

from rswlab.cli import main
from rswlab.core import FlowParameters, as_cartesian
from rswlab.solutions import make_family
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

    def test_unknown_family_exits_2(self):
        assert run(["field", "--family", "tsunami", "--t", "1"]) == 2

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
        from rswlab.cli import build_parser

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
