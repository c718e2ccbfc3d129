"""The measuring process: one fresh single-threaded interpreter per run.

It imports the package, builds the workload's inputs and fills the caches
the program fills on first use (that is set-up), then runs whole passes
over the inputs in a closed loop, one operation at a time, until the
requested seconds have passed.  It prints one JSON line with the set-up
time, the time and raw output of every operation and its peak memory.
With --probe it stops after set-up; with --trace it wraps the package's
public functions first and adds the per-layer metrics.

Run it through run.py, which sets one BLAS thread and the import path.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def run_op(case: dict, mlocality) -> tuple[bool, str]:
    """One operation; returns (succeeded, raw output)."""
    if case["kind"] == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mlocality.cli.main(case["argv"])
        return code == 0, buf.getvalue()
    # Module attributes are looked up at call time so that traced runs see
    # the wrapped functions.
    n, m = case["n"], case["m"]
    expr = mlocality.inequality.build_hierarchy_inequality(n, m)
    family = mlocality.quantum.ghz_state if case["family"] == "ghz" else mlocality.quantum.w_state
    state = mlocality.quantum.NoisyState(family(n), 1.0)
    value, angles = mlocality.search.exhaustive_symmetric_max(expr, state, case["resolution"])
    out = [angles.theta_a1, angles.theta_b1, angles.theta_a_rest, angles.theta_b_rest]
    return True, json.dumps({"value": value, "angles": out})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", default=None, help="write spans to this file and add per-layer metrics")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--tiny", action="store_true", help="the self-test's tiny inputs")
    args = parser.parse_args()

    import mlocality.cli
    import mlocality.inequality
    import mlocality.quantum
    import mlocality.search

    recorder = None
    absent: list[str] = []
    if args.trace:
        import spans

        recorder = spans.Recorder()
        absent = recorder.install()
    setup_span = recorder.span(spans.SETUP) if recorder else contextlib.nullcontext()
    with setup_span:
        cases = workloads.cases(args.workload, args.seed, args.tiny)
        if args.workload == "certify_sweep":
            with contextlib.redirect_stdout(io.StringIO()):
                if mlocality.cli.main(workloads.CERTIFY_WARMUP) != 0:
                    raise RuntimeError("set-up certification run failed")
    setup_s = time.perf_counter() - T0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = []
    start = time.perf_counter()
    while True:
        for index, case in enumerate(cases):
            t = time.perf_counter()
            op_span = recorder.span(spans.OP) if recorder else contextlib.nullcontext()
            try:
                with op_span:
                    ok, output = run_op(case, mlocality)
            except Exception:
                traceback.print_exc()
                ok, output = False, None
            ops.append([index, (time.perf_counter() - t) * 1e3, ok, output])
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder:
        samples = [cases[i].get("samples", 0) for i, *_ in ops]
        points = [cases[i].get("resolution", 0) ** 4 for i, *_ in ops]
        result["layers"] = spans.layer_metrics(recorder, samples, points)
        result["absent"] = absent
        recorder.write(args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
