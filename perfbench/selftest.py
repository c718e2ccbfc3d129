"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs every workload once on tiny inputs through the same measuring process
as run.py and requires every output to pass its checks.  Then it perturbs
each output in ways that each check must catch and requires that check to
report a failure.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import math
import re
import sys

import checks
import run
import workloads


def _threshold_edit(**changes):
    def edit(output: str) -> str:
        doc = json.loads(output)
        row = doc["results"][0]
        for key, fn in changes.items():
            if key in row["angles"]:
                row["angles"][key] = fn(row["angles"][key], row)
            else:
                row[key] = fn(row[key], row)
        return json.dumps(doc)

    return edit


def _below_floor(_, row):
    return checks.coarse_grid_max(row["family"], row["n"], row["m"]) - 1e-6


def _certify_edit(key: str, value: str):
    return lambda output: re.sub(rf"^{key} = .*$", f"{key} = {value}", output, flags=re.M)


def _grid_edit(fn):
    def edit(output: str) -> str:
        doc = json.loads(output)
        fn(doc)
        return json.dumps(doc)

    return edit


def _grid_origin(case):
    # a point of the 360 grid, honestly evaluated, that is not the maximum
    def fn(doc):
        doc["angles"] = [0.0, 0.0, 0.0, 0.0]
        doc["value"] = checks.symmetric_lhs(case["family"], case["n"], case["m"], 1.0, doc["angles"])

    return fn


def perturbations(workload: str, case: dict):
    """(check that must fail, edit of a correct output) pairs."""
    if workload == "threshold_table":
        return [
            ("reevaluate", _threshold_edit(max_lhs_at_p1=lambda v, _: v + 1e-6)),
            ("reevaluate", _threshold_edit(theta_a1=lambda v, _: v + 1e-3)),
            ("grid_floor", _threshold_edit(max_lhs_at_p1=_below_floor)),
            ("affine", _threshold_edit(p_threshold=lambda v, _: v + 1e-3)),
            ("reference", _threshold_edit(p_threshold=lambda v, _: v + 0.02)),
            ("cell", _threshold_edit(m=lambda v, _: v + 1)),
            ("parse", lambda output: output[: len(output) // 2]),
        ]
    if workload == "certify_sweep":
        return [
            ("deterministic", _certify_edit("deterministic_max", "1")),
            ("sampled", _certify_edit("sampled_max", "2e-09")),
            ("sampled", _certify_edit("sampled_max", "-0.5")),
            ("verdict", _certify_edit("bound_satisfied", "false")),
            ("parse", _certify_edit("sampled_max", "n/a")),
        ]
    return [
        ("on_grid", _grid_edit(lambda d: d["angles"].__setitem__(2, d["angles"][2] + 1e-3))),
        ("reevaluate", _grid_edit(lambda d: d.__setitem__("value", d["value"] + 1e-9))),
        ("grid_floor", _grid_edit(_grid_origin(case))),
        ("parse", lambda output: "{}"),
    ]


def main() -> int:
    failures = 0
    for workload in workloads.WORKLOADS:
        cases = workloads.cases(workload, 1, tiny=True)
        _, result = run.measure(workload, 1, 0.0, None, tiny=True)
        check = checks.CHECKS[workload]
        for index, _, ok, output in result["ops"]:
            case = cases[index]
            label = f"{workload} {case.get('argv') or case}"
            found = check(case, output) if ok else [("run", "operation failed")]
            if found:
                failures += 1
                print(f"FAIL {label}: correct output rejected: {found}")
                continue
            print(f"ok   {label}: output passes every check")
            if run.check_outputs(workload, cases, [[index, 0.0, False, output]]):
                print(f"ok   {label}: the same output from a failed operation is reported")
            else:
                failures += 1
                print(f"FAIL {label}: a failed operation passed the checks")
            for name, edit in perturbations(workload, case):
                caught = [n for n, _ in check(case, edit(output))]
                if name in caught:
                    print(f"ok   {label}: perturbed output caught by '{name}'")
                else:
                    failures += 1
                    print(f"FAIL {label}: perturbation for '{name}' not caught (got {caught})")
    # the independent brute force and evaluator against values known in closed form
    known = [
        (checks.deterministic_max(3, 3), 0),
        (checks.deterministic_max(4, 2), 0),
        (checks.mixed_value(5, 3), (1 - 5 - math.comb(4, 2)) / 2**5),
        (checks.symmetric_lhs("ghz", 3, 3, 0.0, [1.0, 2.0, 3.0, 4.0]), (1 - 3 - 1) / 2**3),
    ]
    for got, want in known:
        if abs(got - want) > 1e-12:
            failures += 1
            print(f"FAIL reference computation gave {got}, expected {want}")
    print("self-test " + ("passed" if failures == 0 else f"FAILED ({failures})"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
