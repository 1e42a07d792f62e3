#!/usr/bin/env python3
"""Print one ``label exit sha256`` line per ``rsw`` command of a fixed list.

The list holds the commands of README's "Command line" block, read from
it, and, for every family, ``rsw field`` in CSV and JSON, ``rsw residual``
with analytic and FD jets and ``rsw trajectory``, plus equivalence maps,
transports, commutator tables and a few inputs that must exit 1, 2 or 3.
Each command runs in process in a fresh temporary directory; the digest
covers its stdout and the file it writes.  The script exits 1 when a
command raises (a traceback) or exits with a code outside 0-3.

Two trees give byte-identical outputs when their listings are equal:

    python scripts/output_digest.py --src /path/to/parent/src > parent.txt
    python scripts/output_digest.py > change.txt
    diff parent.txt change.txt

libm may differ between hosts, so listings are compared on one host only.
"""

import argparse
import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
import traceback

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")


def readme_commands() -> list[tuple[str, list[str]]]:
    """The ``rsw`` lines of README's "Command line" block, labelled by place and subcommand."""
    with open(README) as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    argvs = [argv[1:] for argv in lines if argv and argv[0] == "rsw"]
    return [(f"readme-{i + 1}-{argv[0]}", argv) for i, argv in enumerate(argvs)]


# per family: its parameter flags, an in-window grid and a trajectory start
FAMILIES = {
    "rest": ("", "--t 0.5,1.5 --r 0:2:6 --theta 0:3:4", "--r0 1,0"),
    "constant-sw-image": ("", "--t 1,2,3", "--r0 0.5 --t0 1 --t1 5"),
    "barochronous-sw": ("", "--t=-1,0,2", "--r0 1"),
    "stationary-rotsym": ("--profile solid:0.4", "--t 0.5 --r 0:5:11 --theta 0:3:4", "--r0 1.5"),
    "pulsating-cylinder": ("--alpha 2", "--t 0,1,2 --r 0:2:6 --theta 0:3:4", "--r0 1,0"),
    "pulsating-drop": ("--alpha 2", "--t 0,1,2 --r 0:1.5:6 --theta 0:3:4", "--r0 1 --t1 6"),
    "stationary-ring": ("--f 0.1", "--t 0,5 --r 4:20:9 --theta 0:3:4", "--r0 10,0 --t1 10"),
    "collapse-contact": ("", "--t 1.2,1.5 --r 0.6:1.1:6 --theta 0:3:4",
                         "--r0 0.8 --t0 1.2 --t1 3"),
    "collapse-contact-cubic": ("", "--t 1.2,1.5 --r 6:15:6 --theta 0:3:4",
                               "--r0 8 --t0 1.2 --t1 3"),
    "collapse-scaling": ("--phi0 0.5", "--t 0.1,0.3,0.5 --r 0.1:2:5 --theta 0:3:4",
                         "--r0 1 --t1 0.5"),
}

EXTRA = [
    ("ring-upper-field", "field --family ring --f 0.1 --branch upper --t 0 --r 3.4:24.5:50"),
    ("contact-cubic-upper-field", "field --family collapse-contact-cubic --branch upper "
                                  "--t 1.2 --r 6:15:30"),
    # 64 x 64 CSV exports: polar states that repeat across theta, and
    # Cartesian velocities that are all distinct (the y spacing is
    # incommensurate with x's, so no two grid points share u or v)
    ("drop-field-64x64", "field --family pulsating-drop --alpha 2 --t 1 --r 0:1.5:64 "
                         "--theta 0:6.283185307179586:64"),
    ("barochronous-field-64x64", "field --family barochronous-sw --t 2 --x=-1:1:64 "
                                 "--y=-1:1.2345:64"),
    ("rotsym-gauss-residual", "residual --family stationary-rotsym --profile gauss:0.5,2"),
    ("contact-const-residual", "residual --family collapse-contact --psi const:0.5 --lam0 2"),
    ("map-rsw2sw-cylinder", "map --direction rsw2sw --family cylinder --alpha 1.7 "
                            "--t=-2,0.5,3 --x=-1:1:5 --y=-1:1:5 --format json"),
    ("map-sw2rsw-barochronous", "map --direction sw2rsw --family barochronous-sw --h0 1.1 "
                                "--t 1,3,5 --x=-1:1:5 --y=-1:1:5"),
    ("map-transport-rotsym", "map --transport --alpha 2 --family stationary-rotsym "
                             "--profile solid:0.3 --t 0,2 --r 0.1:1.5:5 --theta 0:1:3"),
    ("map-transport-ring", "map --transport --alpha 1.2 --family ring --f 0.1 --t 0,4 "
                           "--r 6:18:5 --format json"),
    ("commutators-Y-json", "commutators --family Y --f 0.8"),
    ("commutators-Y-csv", "commutators --family Y --f 1.3 --format csv"),
    ("commutators-Z-csv", "commutators --family Z --f 0.5 --seed 3 --format csv"),
    # trajectory summaries at and away from the closed form's anchor time
    ("trajectory-cylinder-t0-1", "trajectory --family cylinder --alpha 2 --r0 1 --t0 1 --t1 4"),
    ("trajectory-constant-anchor", "trajectory --family constant --r0 0.5 "
                                   "--t0 3.141592653589793 --t1 5 --format json"),
    ("trajectory-constant-origin", "trajectory --family constant --r0 0 --t0 1 --t1 3"),
    ("trajectory-constant-t1-7", "trajectory --family constant --r0 0.5 --t0 1 --t1 7"),
    ("trajectory-drop-t1-500", "trajectory --family drop --alpha 2 --t1 500 --samples 5"),
    # the integrator's Cartesian right-hand side, and a tight tolerance on it
    ("trajectory-barochronous-cartesian", "trajectory --family barochronous-sw --r0 0.5,1.5 --t1 3"),
    ("trajectory-constant-cartesian", "trajectory --family constant --r0 0.8 --theta0 1 "
                                      "--t0 3.141592653589793 --t1 5 --tol 1e-13"),
    # inputs that must exit 1, 2 or 3
    ("residual-corrupt", "residual --family drop --corrupt-depth 1.5"),
    ("residual-fd-step-0", "residual --family rest --mode fd --fd-step 0"),
    ("residual-fd-step-nan", "residual --family rest --mode fd --fd-step nan"),
    ("residual-threshold-nan", "residual --family rest --threshold nan"),
    ("field-mode-fd", "field --family rest --mode fd --fd-step 3"),
    ("field-profile-empty", "field --family stationary-rotsym --profile="),
    ("field-psi-empty", "field --family collapse-contact --psi= --t 1.2 --r 0.6:1.1:6"),
    ("field-contact-cubic-c1-1e300", "field --family collapse-contact-cubic --c1 1e300"),
    ("field-unknown-family", "field --family nope"),
    ("field-outside-window", "field --family constant --t 0"),
    ("trajectory-negative-r0", "trajectory --family rest --r0 -0.5"),
    ("trajectory-cylinder-t1-1e300", "trajectory --family cylinder --t1 1e300"),  # stage sum overflows
]


def commands() -> list[tuple[str, list[str]]]:
    out = readme_commands()
    for family, (params, grid, start) in FAMILIES.items():
        base = f"--family {family} {params}"
        out += [
            (f"{family}-field-csv", f"field {base} {grid}".split()),
            (f"{family}-field-json", f"field {base} {grid} --format json".split()),
            (f"{family}-residual-analytic", f"residual {base}".split()),
            (f"{family}-residual-fd", f"residual {base} --mode fd".split()),
            (f"{family}-trajectory", f"trajectory {base} {start} --samples 9".split()),
        ]
    return out + [(label, line.split()) for label, line in EXTRA]


def run(main, argv: list[str]) -> tuple[int | None, str]:
    """Exit code (None on a traceback) and the sha256 of stdout and the written file."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects its arguments
                    code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        finally:
            os.chdir(cwd)
        digest = hashlib.sha256(out.getvalue().encode())
        for name in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, name), "rb") as fh:
                digest.update(b"\0" + name.encode() + b"\0" + fh.read())
    return code, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="directory to import rswlab from (default: this repository's src)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from rswlab.cli import main as rsw_main

    failed = 0
    for label, argv in commands():
        code, digest = run(rsw_main, argv)
        print(f"{label} {code} {digest}")
        failed += code not in (0, 1, 2, 3)
    if failed:
        print(f"{failed} command(s) raised or exited outside 0-3", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
