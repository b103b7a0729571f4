"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 e2ebench/spread.py --workload large_db --seeds 0 1 2 3 4

Each seed runs `run.py` once, one after another. For every end-to-end metric
the report gives the median, the distance between the first and third
quartile as a share of the median (`statistics.quantiles(values, n=4)`), and
the metric's bound from BENCHMARK.json. A spread above a third of its bound
is flagged: the benchmark is meant to stay well inside its own bounds. The
share of failed questions must be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    steady = all(r["correct"] for r in results) and len(shares) == 1
    print(f"{'metric':28s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        flag = ""
        if metric["name"] != "setup_s" and share > metric["bound"] / 3:
            flag = "  WIDE"
            steady = False
        print(f"{metric['name']:28s} {median:12.6g} {share:10.4f} {metric['bound']:6.2f}{flag}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
