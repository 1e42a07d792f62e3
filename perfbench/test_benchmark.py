"""Tests of the benchmark's own gates and tracer.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_benchmark.py

The negative controls prove the gates catch wrong output: a corrupted
depth must make a ``cli-batch`` op and a ``verify`` op count as failed,
and not as a known defect.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from rswlab.core import scale_depth  # noqa: E402
from rswlab.solutions import pulsating_drop  # noqa: E402

P11 = workloads.P11


def _residual_cmd(*extra: str) -> dict:
    return {
        "argv": ["residual", "--family", "drop", "--alpha", "2", *extra, "--out", "res.json"],
        "kind": "residual", "label": "residual-drop", "rows": None, "ref": None,
        "threshold": workloads.RESIDUAL_ANALYTIC,
    }


def test_cli_negative_control_counts_as_failed(tmp_path):
    good = bench.run_ops([workloads.cli_op(_residual_cmd(), str(tmp_path))])
    bad = bench.run_ops([workloads.cli_op(_residual_cmd("--corrupt-depth", "1.01"), str(tmp_path))])
    assert (good.attempted, good.failed) == (1, 0)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert bad.unexpected and not bad.known
    assert bad.unexpected[0][1].startswith("exit 1")


def test_pv_negative_control_counts_as_failed():
    drop = pulsating_drop(2.0, P11)
    args = (0.6, 0.4, 0.0, 2 * math.pi)
    good = bench.run_ops([workloads.path_op("pulsating-drop", drop, *args)])
    bad = bench.run_ops([workloads.path_op("pulsating-drop", scale_depth(drop, 1.01), *args)])
    assert good.failed == 0
    assert bad.failed == 1 and bad.unexpected and not bad.known


def test_row_gate_catches_a_changed_value(tmp_path):
    inputs = workloads.generate_cli_batch(3)
    cmd = next(c for c in inputs.data["commands"] if c["label"] == "field-small-pulsating-drop-0")
    op = workloads.cli_op(cmd, str(tmp_path))
    result = op.run()
    assert op.check(result) is None
    lines = Path(result.out_path).read_text().splitlines()
    row = cmd["sample"][0] + 1  # skip the header
    cells = lines[row].split(",")
    cells[5] = repr(float(cells[5]) * (1.0 + 1e-9))
    lines[row] = ",".join(cells)
    Path(result.out_path).write_text("\n".join(lines) + "\n")
    assert "row" in op.check(result)


def test_readme_transport_example_is_a_known_failure(tmp_path):
    inputs = workloads.generate_cli_batch(0)
    cmd = next(c for c in inputs.data["commands"] if c.get("expected_failure"))
    rec = bench.run_ops([workloads.cli_op(cmd, str(tmp_path))])
    # it fails only in the documented way; once the defect is fixed it passes
    assert not rec.unexpected
    assert bool(rec.known) == bool(rec.failed)


def test_inputs_depend_on_the_seed_only():
    a = workloads.generate_verify(5).data["plans"]
    b = workloads.generate_verify(5).data["plans"]
    c = workloads.generate_verify(6).data["plans"]
    assert a == b and a != c
    argv = lambda seed: [c["argv"] for c in workloads.generate_cli_batch(seed).data["commands"]]
    assert argv(5) == argv(5) and argv(5) != argv(6)


def _traced_counts(ops_factory):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    tracer.on = True
    try:
        rec = bench.run_ops(ops_factory(tracer), tracer=tracer)
    finally:
        tracer.on = False
        uninstall()
    metrics = tracing.layer_metrics(tracer)
    counted = {k: v for k, v in metrics.items()
               if k.endswith(("_calls", "_steps", "_rejected", "per_step", "per_jet",
                              "commands", "cell_updates"))}
    return rec, counted, dict(tracer.counts)


def test_traced_work_counts_repeat_exactly(tmp_path):
    inputs = workloads.generate_cli_batch(2)
    commands = [c for c in inputs.data["commands"]
                if c["label"].startswith(("readme-2", "residual-fd-stationary-ring", "map-rsw2sw",
                                          "field-small-collapse-scaling-0", "commutators-Y-0"))]
    plans = workloads.generate_verify(2).data["plans"]

    def ops(tracer):
        catalog = {k: tracer.wrap_field(v) for k, v in workloads.solutions.default_catalog().items()}
        out = [workloads.cli_op(c, str(tmp_path)) for c in commands]
        for name in ("collapse-contact", "stationary-ring"):
            out.append(workloads.path_op(name, catalog[name], *plans[name][0]))
        return out

    first = _traced_counts(ops)
    second = _traced_counts(ops)
    assert first[0].failed == 0
    assert first[1] == second[1] and first[2] == second[2]
    assert first[1]["cli.commands"] == len(commands)
    assert first[1]["core.fd_evals_per_jet"] == 7
    assert first[1]["verify.ode_steps"] > 0 and first[1]["reduction.eta_of_t_calls"] > 0


def test_fv_boundary_spans_are_the_ghost_strips_only():
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    tracer.on = True
    try:
        field_ = workloads.solutions.make_family("pulsating-cylinder", P11, alpha=2.0, h0=1.0)
        run = workloads.verify.fv_oracle(field_, 0.0, 0.1, 10)
    finally:
        tracer.on = False
        uninstall()
    a = tracer.arrays()
    fv_ids = np.flatnonzero(a["name"] == tracer.name_id("verify.fv_oracle"))
    strips = (a["name"] == tracer.name_id("core.values_unchecked")) & np.isin(a["parent"], fv_ids)
    assert run.steps > 0
    assert int(strips.sum()) == 4 * (run.n + 2) * run.steps
    m = tracing.layer_metrics(tracer)
    spans_s = float((a["end"] - a["start"])[strips].sum())
    fv_s = float((a["end"] - a["start"])[fv_ids].sum())
    assert spans_s <= m["verify.fv_boundary_sample_s"] < fv_s
    assert 0.0 < m["verify.fv_flux_s"] < fv_s - m["verify.fv_boundary_sample_s"]


def test_instrumentation_is_removed_after_the_traced_pass():
    before = (workloads.cli.main, workloads.core.FlowField.eval, workloads.verify.fv_oracle)
    uninstall = tracing.install(tracing.Tracer())
    uninstall()
    assert before == (workloads.cli.main, workloads.core.FlowField.eval, workloads.verify.fv_oracle)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable if cmd[0] == "python3" else cmd[0], *cmd[1:],
         "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

