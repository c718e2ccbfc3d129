"""The benchmark's workloads: fixed case lists and how a seed turns them into inputs.

A seed never changes which cases a pass holds, so every run does the same
mix of work.  It fixes the order of the cases in a pass and the `--seed`
handed to each CLI command.
"""

from __future__ import annotations

import random

GRID_RESOLUTION = 360  # points per angle, as in acceptance criterion 8

# (family, n, m): every m of GHZ and W at n=3, and GHZ at n=4, m=4, whose
# threshold the acceptance suite has a reference value for.  A pass takes
# about 17 s, so a 24 s run holds two passes.
THRESHOLD_CELLS = (
    ("ghz", 3, 2), ("ghz", 3, 3), ("w", 3, 2), ("w", 3, 3), ("ghz", 4, 4),
)

CERTIFY_SAMPLES = 500
# (n, m, samples): n=3..6 at every m, plus one n=10 case whose
# deterministic sweep covers 4^10 strategies and whose product tables are
# 1024 x 1024.
CERTIFY_CASES = tuple((n, m, CERTIFY_SAMPLES) for n in range(3, 7) for m in range(2, n + 1)) + (
    (10, 3, 20),
)

# (family, n, m): GHZ at n=4 and 6, W at n=5 and 6, at m=2 and m=n.  A
# pass takes about 17 s, so a 24 s run holds two passes.
GRID_CASES = (("ghz", 4, 2), ("ghz", 6, 6), ("w", 5, 5), ("w", 6, 6))

# Tiny inputs for the self-test.
TINY = {
    "threshold_table": (("ghz", 4, 4),),
    "certify_sweep": ((3, 2, 50), (4, 4, 50)),
    "exhaustive_grid": (("ghz", 3, 3),),
}

# Fixed certify run made during set-up.  Its samples split 6 parties into
# 2 blocks, and larger blocks are products of pool vertices of size 1 to 3.
# Seed 1 reaches the pools of sizes 1, 2 and 3, as the 1498 LP calls of a
# traced set-up show, so every pool is built before the first timed
# operation.  Another seed need not reach all three.
CERTIFY_WARMUP = ["certify", "--n", "6", "--m", "2", "--samples", "64", "--seed", "1"]

WORKLOADS = ("threshold_table", "certify_sweep", "exhaustive_grid")


def _threshold_case(cell, seed):
    family, n, m = cell
    return {
        "kind": "cli",
        "family": family, "n": n, "m": m,
        "argv": ["threshold", "--n", str(n), "--m", str(m), "--family", family,
                 "--seed", str(seed), "--format", "structured"],
    }


def _certify_case(case, seed):
    n, m, samples = case
    return {
        "kind": "cli",
        "n": n, "m": m, "samples": samples,
        "argv": ["certify", "--n", str(n), "--m", str(m), "--samples", str(samples),
                 "--seed", str(seed)],
    }


def _grid_case(cell, seed):
    family, n, m = cell
    return {"kind": "grid", "family": family, "n": n, "m": m, "resolution": GRID_RESOLUTION}


_BUILDERS = {
    "threshold_table": (THRESHOLD_CELLS, _threshold_case),
    "certify_sweep": (CERTIFY_CASES, _certify_case),
    "exhaustive_grid": (GRID_CASES, _grid_case),
}


def cases(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The cases of one pass, in the order the seed gives them."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    base, build = _BUILDERS[workload]
    if tiny:
        base = TINY[workload]
    rng = random.Random(seed)
    order = list(base)
    rng.shuffle(order)
    return [build(c, rng.randrange(1, 2**31)) for c in order]
