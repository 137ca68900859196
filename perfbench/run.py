"""Benchmark entry point: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload churn-move --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run records
spans around every call into a layer, writes them to
``.perfbench/traces/<workload>-seed<seed>.jsonl`` and reports the per-layer
metrics.  The line before it (``run-metadata: {...}``) records the
machine, library versions, commit, seeds and the end-to-end figures, in a
traced run too, so comparing the two runs gives the tracing overhead.  The
exit code is 0 only when every operation passed the independent checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import numpy
    import scipy

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    tracer = Tracer(enabled=bool(args.trace))
    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, cpus)
    ledger = run.ledger

    if args.trace:
        tracer.write(Path(".perfbench") / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in workloads.layer_metrics(run.layers).items()
        }
    else:
        metrics = {
            name: {"value": workloads.guard(run.metrics[name]), "unit": unit}
            for name, unit in workloads.END_TO_END
        }

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_allowed": len(cpus),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "end_to_end": run.metrics,
        **run.meta,
    }
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("run-metadata: " + json.dumps(meta, sort_keys=True))
    correct = ledger.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
