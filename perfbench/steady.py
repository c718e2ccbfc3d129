"""Steadiness of the benchmark: repeat runs with different seeds, print the spread.

    python3 perfbench/steady.py --runs 10 --seconds 20 [--workload NAME ...] [--first-seed 1]

Runs run.py once per seed, one run at a time, for each workload.  For each
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles with n=4) and the spread (Q3 - Q1) / median next to
the metric's bound in BENCHMARK.json, and the share of failed operations.
The raw values go to perfbench/out/steady-<workload>-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    (HERE / "out").mkdir(exist_ok=True)

    for workload in names:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
                return 1
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            if not doc["correct"]:
                print(f"{workload} seed {seed}: outputs failed their checks")
                return 1
            shares.add((doc["failed"], doc["attempted"]))
            for name, metric in doc["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items()),
                  flush=True)
        out = HERE / "out" / f"steady-{workload}-{args.first_seed}.json"
        out.write_text(json.dumps(values, indent=1))
        failed_shares = sorted({f / a for f, a in shares})
        print(f"\n{workload}: {args.runs} runs, failed share {failed_shares}")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"  {name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{(q3 - q1) / med:>9.2%}{bounds.get(name, 0):>8.0%}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
