#!/usr/bin/env python3
"""rswlab benchmark: one workload, one fresh process, one closed-loop client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout; nothing is
installed.  BLAS/OpenMP threads are pinned to 1 and ``RSW_THREADS`` is
removed from the environment before numpy is imported.

With ``--trace 0`` the run times passes of the workload for ``--seconds``
and reports the end-to-end metrics of ``BENCHMARK.json``.  With
``--trace 1`` it times untraced passes while three more pass lengths fit
in ``--seconds``, then one traced pass of the same inputs, and reports the
per-layer metrics (and the tracing overhead).  The last line of standard
output is the JSON result; the lines before it are the run metadata and
its failures.  The full result, with metadata,
failures and per-pass wall and CPU times, is also written to
``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("RSW_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field as dc_field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters started per run to measure set-up time.
SETUP_PROBES = 7
WORKLOADS = ("cli-batch", "verify")
#: Untraced passes of a traced run stop early enough to leave this many
#: pass lengths for the traced pass.
TRACED_PASS_RESERVE = 3.0
CHILD_TIMEOUT_S = 120


def import_program():
    """Import rswlab from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "rswlab" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'rswlab'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import rswlab

    if Path(rswlab.__file__).resolve().parent != (SRC / "rswlab").resolve():
        raise SystemExit(f"error: imported rswlab from {rswlab.__file__}, not from {SRC}")
    return rswlab


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class PassRecord:
    wall_s: float = 0.0            # pass time without the benchmark's own checks
    cpu_s: float = 0.0             # process CPU time of the same
    check_s: float = 0.0
    check_cpu_s: float = 0.0
    latencies_s: list = dc_field(default_factory=list)
    labels: list = dc_field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unexpected: list = dc_field(default_factory=list)   # (label, reason)
    known: list = dc_field(default_factory=list)        # (label, reason)
    work: float = 0.0
    work_time_s: float = 0.0


def run_ops(ops, rate_kinds=None, tracer=None) -> PassRecord:
    """Run ops one after another, timing ``run`` and gating its result.

    A failure counts against ``failed``; it is ``known`` only when the op
    names a documented defect and fails in exactly the documented way.
    """
    rec = PassRecord()
    for k, op in enumerate(ops):
        err = None
        if tracer is not None:
            tracer.op_id = k
            op_span = tracer.open(tracer.name_id(f"op.{op.kind}"))
        a = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # one failing op must not stop the pass
            result, err = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        b, b_cpu = perf_counter(), process_time()
        if tracer is not None:
            tracer.close(op_span)
            tracer.count("cli.bytes_written", getattr(result, "bytes_written", 0))
            tracer.on = False
        try:
            reason = err or op.check(result)
        except Exception as exc:  # a gate that cannot read the output fails the op
            reason = f"check raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.on = True
        latency = b - a
        rec.attempted += 1
        rec.latencies_s.append(latency)
        rec.labels.append(op.label)
        if rate_kinds is not None and op.kind in rate_kinds:
            rec.work_time_s += latency
        if reason is None:
            rec.work += op.work(result)
        else:
            rec.failed += 1
            expected = op.expected_failure is not None and reason.startswith(op.expected_failure)
            (rec.known if expected else rec.unexpected).append((op.label, reason))
        rec.check_s += perf_counter() - b
        rec.check_cpu_s += process_time() - b_cpu
    return rec


def run_pass(workloads, workload: str, inputs, workdir: str, order: int, tracer=None) -> PassRecord:
    """Build the pass's fields, run its ops in a seeded order, and time the pass.

    The order is drawn from the workload seed and ``order``.  The host's
    speed changes over seconds; in a fixed order one kind of op (say, the
    slow collapse paths that set ``op_p90_ms``) would always run in the same
    stretch of every pass and take that stretch's speed, while a shuffled
    order spreads each kind over the whole run, as the pass time does.
    """
    import numpy as np

    start, start_cpu = perf_counter(), process_time()
    wrap_field = tracer.wrap_field if tracer is not None else workloads.identity
    ops = workloads.OPS[workload](inputs, workdir, wrap_field)
    perm = np.random.default_rng((inputs.seed, order)).permutation(len(ops))
    ops = [ops[i] for i in perm]
    rate_kinds = workloads.RATE_KINDS[workload]
    rec = run_ops(ops, rate_kinds, tracer)
    rec.wall_s = perf_counter() - start - rec.check_s
    rec.cpu_s = process_time() - start_cpu - rec.check_cpu_s
    return rec


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child side: import, generate inputs, build the first pass's fields."""
    t0 = perf_counter()
    import_program()
    t1 = perf_counter()
    import workloads

    inputs = workloads.GENERATORS[workload](seed)
    workloads.OPS[workload](inputs, str(OUT))
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


def measure_setup(workload: str, seed: int) -> dict:
    """Median wall time of fresh interpreters doing the workload's set-up."""
    walls, imports, builds = [], [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        a = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=str(ROOT), check=False)
        walls.append(perf_counter() - a)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        parts = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(parts["import_s"])
        builds.append(parts["build_s"])
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports),
            "build_s": statistics.median(builds), "samples_s": walls}


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload: str, seed: int, trace: bool, inputs) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "input_sizes": inputs.sizes,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "thread_env": {var: os.environ.get(var) for var in (*THREAD_VARS, "RSW_THREADS")},
        "client": "closed loop, one client, one process",
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    # numpy is imported late throughout this file so that a set-up probe's
    # import_s includes it
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def end_to_end(passes: list[PassRecord], setup: dict) -> dict:
    latencies = [x for p in passes for x in p.latencies_s]
    rates = [p.work / p.work_time_s for p in passes if p.work_time_s > 0]
    return {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "op_p50_ms": (_percentile(latencies, 50) * 1e3, "ms"),
        "op_p90_ms": (_percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()
    import workloads

    if trace:
        import tracer as tracing
    setup = measure_setup(workload, seed)
    inputs = workloads.GENERATORS[workload](seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    passes: list[PassRecord] = []
    traced: PassRecord | None = None
    tracer = None
    try:
        begin = perf_counter()
        while True:
            a = perf_counter()
            passes.append(run_pass(workloads, workload, inputs, str(workdir), len(passes)))
            last = perf_counter() - a
            reserve = TRACED_PASS_RESERVE if trace else 1.0
            if perf_counter() - begin + reserve * last > seconds:
                break
        if trace:
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            tracer.on = True
            try:
                # the first pass's order, so that the traced work repeats
                # however many untraced passes fit in the run
                traced = run_pass(workloads, workload, inputs, str(workdir), 0, tracer)
            finally:
                tracer.on = False
                uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = passes + ([traced] if traced else [])
    unexpected = [f for p in every for f in p.unexpected]
    known = [f for p in every for f in p.known]
    result = {
        "correct": not unexpected,
        "attempted": sum(p.attempted for p in every),
        "failed": sum(p.failed for p in every),
    }
    if trace:
        layer = tracing.layer_metrics(tracer)
        layer["setup.import_s"] = setup["import_s"]
        layer["setup.build_s"] = setup["build_s"]
        layer["trace.overhead_frac"] = traced.wall_s / statistics.median(p.wall_s for p in passes) - 1.0
        units = dict(tracing.per_layer_names())
        metrics = {name: (layer[name], units[name]) for name in units}
        tracer.save(str(OUT / f"trace-{workload}.npz"))
    else:
        metrics = end_to_end(passes, setup)
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    op_latency_ms: dict[str, list[float]] = {}
    for p in passes:
        for label, latency in zip(p.labels, p.latencies_s):
            op_latency_ms.setdefault(label, []).append(latency * 1e3)
    details = {
        "meta": metadata(workload, seed, trace, inputs),
        "passes": len(passes),
        "ops_per_pass": passes[0].attempted,
        "op_count": sum(len(p.latencies_s) for p in passes),
        "failed_frac": result["failed"] / result["attempted"],
        "work_name": workloads.WORK_NAMES[workload],
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_cpu_s": [p.cpu_s for p in passes],
        "op_latency_ms": op_latency_ms,
        "setup_samples_s": setup["samples_s"],
        "known_failures": sorted(set(known)),
        "unexpected_failures": sorted(set(unexpected)),
    }
    if traced is not None:
        details["traced_pass_wall_s"] = traced.wall_s
        details["counts"] = dict(tracer.counts)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**details, **result}, indent=2, sort_keys=True) + "\n")
    return {"details": details, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    details, result = out["details"], out["result"]
    print("# meta " + json.dumps(details["meta"], sort_keys=True))
    print(f"# passes {details['passes']}, ops per pass {details['ops_per_pass']}, "
          f"ops timed {details['op_count']}, failed {result['failed']}/{result['attempted']} "
          f"(failed_frac {details['failed_frac']:.4g})")
    for label, reason in details["known_failures"]:
        print(f"# known defect: {label}: {reason}")
    for label, reason in details["unexpected_failures"]:
        print(f"# FAILED: {label}: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
