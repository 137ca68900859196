"""Steadiness command: run workloads repeatedly and report the spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --runs 10 --seconds 20
    python3 perfbench/steadiness.py --workloads churn-move --runs 5

Run ``i`` uses seed ``--first-seed + i``; the workload order alternates
between forward and reverse from one run to the next, so no workload always
runs first or last.  Runs are sequential.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``),
and the spread between runs (interquartile range over median), plus the
failed share of operations.
``--json FILE`` also writes every run's result and metadata.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    meta = next(
        (json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("run-metadata: ")),
        {},
    )
    result = json.loads(lines[-1]) if lines else {}
    return {"workload": workload, "seed": seed, "exit": proc.returncode, "result": result,
            "meta": meta, "stderr": proc.stderr[-2000:]}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description="Measure run-to-run spread per metric.")
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in json.loads(SPEC.read_text())["workloads"]),
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()
    names = [w for w in args.workloads.split(",") if w]
    records = []
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for workload in order:
            rec = run_once(workload, args.first_seed + i, args.seconds)
            records.append(rec)
            res = rec["result"]
            print(
                f"run {i + 1}/{args.runs} {workload} seed {rec['seed']}: exit {rec['exit']}, "
                f"{res.get('attempted')} attempted, {res.get('failed')} failed",
                flush=True,
            )
            if rec["exit"] != 0:
                print(rec["stderr"], file=sys.stderr)
    if args.runs < 2:
        return 0
    print()
    print(f"{'workload':<18} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for workload in names:
        mine = [r for r in records if r["workload"] == workload and r["result"]]
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in mine})
        for metric in mine[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in mine]
            med, q1, q3, sp = spread(values)
            print(f"{workload:<18} {metric:<16} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {sp:>7.3f}")
        print(f"{workload:<18} failed share(s): {shares}")
    if args.json is not None:
        args.json.write_text(json.dumps(records, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
