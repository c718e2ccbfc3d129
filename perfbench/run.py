"""Benchmark entry point: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload threshold_table --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Set-up is timed in fresh processes, half of them before the measuring
process and half after it, and in the measuring process itself; setup_s is
the median of all of them.  Each half holds at least MIN_PROBES processes,
more while they have taken less than PROBE_SECONDS.  The measuring process
runs whole passes over the workload's inputs for --seconds seconds.  Every
output, also that of an operation that failed, is checked against
checks.py, which does not use the package; correct is false if an output
fails a check or an operation fails.  The last line of standard output is
one JSON object: correct, attempted, failed and the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1).  A traced run also prints
its end-to-end metrics on standard error, so that the tracing overhead can
be read off, and writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PROBES, MAX_PROBES, PROBE_SECONDS = 2, 15, 2.0  # per half
CHILD_TIMEOUT_S = 150

# One BLAS thread: the grid kernel otherwise keeps a second core busy for
# about 5% speed, and its times then depend on what else the machine runs.
SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(SINGLE_THREAD)

import checks  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MLOCALITY_")}
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(extra: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), *extra]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace_path: str | None, tiny: bool = False):
    """Set-up probes plus one measuring process; returns (setup times, result)."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if tiny:
        base.append("--tiny")
    before: list[float] = []
    while len(before) < MIN_PROBES or (sum(before) < PROBE_SECONDS and len(before) < MAX_PROBES):
        before.append(run_child(base + ["--probe"])["setup_s"])
    result = run_child(base + (["--trace", trace_path] if trace_path else []))
    after = [run_child(base + ["--probe"])["setup_s"] for _ in before]
    return before + [result["setup_s"]] + after, result


def end_to_end(setups: list[float], result: dict) -> dict:
    ops = result["ops"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(ops) / result["elapsed_s"], "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(op[1] for op in ops), "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def check_outputs(workload: str, cases: list[dict], ops: list) -> list[str]:
    check = checks.CHECKS[workload]
    seen: dict[tuple[int, str], list] = {}
    problems = []
    for index, _, ok, output in ops:
        label = f"{workload} {cases[index].get('argv') or cases[index]}"
        if not ok:
            problems.append(f"{label}: failed")
        if output is None:
            continue
        key = (index, output)
        if key not in seen:
            seen[key] = check(cases[index], output)
        for name, message in seen[key]:
            problems.append(f"{label}: {name}: {message}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "mlocality" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'mlocality'}", file=sys.stderr)
        return 2

    trace_path = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = str(out_dir / f"spans-{args.workload}-{args.seed}.csv")
    try:
        setups, result = measure(args.workload, args.seed, args.seconds, trace_path)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    cases = workloads.cases(args.workload, args.seed)
    problems = check_outputs(args.workload, cases, result["ops"])
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = len(result["ops"])
    failed = sum(1 for op in result["ops"] if not op[2])

    e2e = end_to_end(setups, result)
    if args.trace:
        print("end-to-end (traced): " + json.dumps(e2e), file=sys.stderr)
        if result["absent"]:
            print("absent from the package: " + ", ".join(result["absent"]), file=sys.stderr)
        metrics = result["layers"]
    else:
        metrics = e2e
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
