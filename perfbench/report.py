#!/usr/bin/env python3
"""Print every benchmark metric by name, with its unit and op count.

Usage, from the root of a checkout::

    python3 perfbench/report.py              # end-to-end metrics
    python3 perfbench/report.py --trace      # per-layer metrics of a traced pass

Each workload runs in its own fresh process (``perfbench/run.py``) for
``run_seconds`` of ``BENCHMARK.json``.  The end-to-end table uses the
workload's own name for ``work_per_s`` (``points_per_s`` or
``paths_per_s``) and adds ``failed_frac``, the failed share of attempted
ops.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, OUT, ROOT, WORKLOADS


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} run exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").read_text())
    return result, details


def _fmt(values: list[float]) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true", help="run the traced pass and print per-layer metrics")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    for workload in WORKLOADS:
        result, details = run_workload(workload, args.seed, seconds, args.trace)
        meta = details["meta"]
        print(f"== {workload}  seed {meta['seed']}  trace {int(args.trace)}  "
              f"passes {details['passes']}  ops timed {details['op_count']}  "
              f"failed {result['failed']}/{result['attempted']}  correct {result['correct']}")
        print(f"   {meta['cpu_model']}, {meta['nproc']} cpus, python {meta['python']}, "
              f"numpy {meta['numpy']}, scipy {meta['scipy']}, commit {meta['git_commit']}")
        print(f"   inputs {json.dumps(meta['input_sizes'], sort_keys=True)}")
        print(f"   pass wall_s {_fmt(details['pass_wall_s'])}  cpu_s {_fmt(details['pass_cpu_s'])}")
        rows = []
        for name, entry in result["metrics"].items():
            shown = details["work_name"] if name == "work_per_s" else name
            count = f"n={details['op_count']}" if name.startswith("op_") else ""
            rows.append((shown, entry["value"], entry["unit"], count))
        if not args.trace:
            rows.append(("failed_frac", details["failed_frac"], "ratio", f"n={result['attempted']}"))
        width = max(len(r[0]) for r in rows)
        for shown, value, unit, count in rows:
            print(f"   {shown:<{width}}  {value:>14.6g} {unit:<6} {count}")
        for label, reason in details["known_failures"]:
            print(f"   known defect: {label}: {reason}")
        for label, reason in details["unexpected_failures"]:
            print(f"   FAILED: {label}: {reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
