"""Checks of the program's outputs against computations made apart from it.

Nothing here imports the package under test.  The inequality is rebuilt
from the paper's definition, the GHZ and W vectors are written out again,
the LHS is evaluated as <psi|Pi|psi> with Pi a Kronecker product of
single-qubit projectors, and the classical bound is found by brute force
over all 4^n deterministic strategies.

Each check returns a list of (check name, message) failures; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import combinations

import numpy as np

TWO_PI = 2.0 * math.pi
COARSE_RESOLUTION = 12  # points per angle of the brute-force grids; divides 24 and 360

# The acceptance suite's reference visibility threshold p_3 for GHZ n=4,
# m=4, the one threshold_table cell it has a value for, and its tolerance.
REFERENCE_THRESHOLDS = {("ghz", 4, 4): (0.822, 0.005)}


# ---------------------------------------------------------------------------
# Independent model of the paper's objects


@lru_cache(maxsize=None)
def hierarchy_terms(n: int, m: int) -> tuple[tuple[int, str, str], ...]:
    """(coefficient, settings, outcomes) of every term, party 1 first.

    +P(0..0|a..a), then -P(0..0|b at party k, a elsewhere) for each k, then
    -P(1 on S, 0 elsewhere | b on S, a elsewhere) for S = {1} plus each
    (m-1)-subset of the other parties.
    """
    terms = [(1, "a" * n, "0" * n)]
    for k in range(n):
        terms.append((-1, "a" * k + "b" + "a" * (n - k - 1), "0" * n))
    for subset in combinations(range(2, n + 1), m - 1):
        chosen = {1, *subset}
        mark = "".join("1" if j in chosen else "0" for j in range(1, n + 1))
        terms.append((-1, mark.replace("1", "b").replace("0", "a"), mark))
    return tuple(terms)


def mixed_value(n: int, m: int) -> float:
    """LHS of the maximally mixed state: every term has probability 1/2^n."""
    return sum(c for c, _, _ in hierarchy_terms(n, m)) / 2**n


@lru_cache(maxsize=None)
def state_vector(family: str, n: int) -> np.ndarray:
    """GHZ or W amplitudes; index bit n-1 (most significant) is party 1."""
    psi = np.zeros(2**n)
    if family == "ghz":
        psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    elif family == "w":
        for k in range(n):
            psi[1 << k] = 1.0 / math.sqrt(n)
    else:
        raise ValueError(f"unknown family {family!r}")
    return psi


def _projector_vectors(theta: np.ndarray, outcome: str) -> np.ndarray:
    """Rows: the X-Z-plane vector of outcome 0 (cos, sin of theta/2) or its orthogonal."""
    half = np.asarray(theta, dtype=float) / 2.0
    if outcome == "0":
        return np.stack([np.cos(half), np.sin(half)], axis=-1)
    return np.stack([-np.sin(half), np.cos(half)], axis=-1)


def dense_lhs(family: str, n: int, m: int, p: float, theta_a: np.ndarray, theta_b: np.ndarray) -> np.ndarray:
    """LHS at a batch of full angle assignments (rows of theta_a, theta_b, shape (P, n)).

    Each term probability is p*|<v_1 x ... x v_n|psi>|^2 + (1-p)/2^n with the
    Kronecker product formed explicitly as a 2^n-vector.
    """
    psi = state_vector(family, n)
    theta_a = np.atleast_2d(theta_a)
    theta_b = np.atleast_2d(theta_b)
    total = np.zeros(theta_a.shape[0])
    for coef, settings, outcomes in hierarchy_terms(n, m):
        kron = None
        for k in range(n):
            theta = theta_a[:, k] if settings[k] == "a" else theta_b[:, k]
            v = _projector_vectors(theta, outcomes[k])
            kron = v if kron is None else (kron[:, :, None] * v[:, None, :]).reshape(len(v), -1)
        amp = kron @ psi
        total += coef * (p * amp**2 + (1.0 - p) / 2**n)
    return total


def symmetric_lhs(family: str, n: int, m: int, p: float, angles) -> float:
    """LHS at (theta_a1, theta_b1, theta_a_rest, theta_b_rest)."""
    a1, b1, ar, br = angles
    theta_a = np.array([[a1] + [ar] * (n - 1)])
    theta_b = np.array([[b1] + [br] * (n - 1)])
    return float(dense_lhs(family, n, m, p, theta_a, theta_b)[0])


@lru_cache(maxsize=None)
def coarse_grid_max(family: str, n: int, m: int, resolution: int = COARSE_RESOLUTION) -> float:
    """Brute-force maximum at p=1 over every point of the 4-angle symmetric grid."""
    axis = np.arange(resolution) * (TWO_PI / resolution)
    a1, b1, ar, br = (g.ravel() for g in np.meshgrid(axis, axis, axis, axis, indexing="ij"))
    theta_a = np.column_stack([a1] + [ar] * (n - 1))
    theta_b = np.column_stack([b1] + [br] * (n - 1))
    return float(dense_lhs(family, n, m, 1.0, theta_a, theta_b).max())


@lru_cache(maxsize=None)
def deterministic_max(n: int, m: int) -> int:
    """Maximum LHS over all 4^n deterministic strategies, by brute force.

    Strategy s is read as n base-4 digits, party 1 the most significant;
    a party's digit holds its outcome under setting a in the high bit and
    under setting b in the low bit.
    """
    idx = np.arange(4**n, dtype=np.int64)
    response = {}
    for k in range(n):
        digit = (idx >> (2 * (n - 1 - k))) & 3
        response[k, "a"] = (digit >> 1).astype(np.int8)
        response[k, "b"] = (digit & 1).astype(np.int8)
    total = np.zeros(4**n, dtype=np.int32)
    for coef, settings, outcomes in hierarchy_terms(n, m):
        hit = np.ones(4**n, dtype=bool)
        for k in range(n):
            hit &= response[k, settings[k]] == int(outcomes[k])
        total += coef * hit
    return int(total.max())


# ---------------------------------------------------------------------------
# Output checks, one function per workload


def check_threshold(case: dict, output: str) -> list[tuple[str, str]]:
    family, n, m = case["family"], case["n"], case["m"]
    fails = []
    try:
        (row,) = json.loads(output)["results"]
        angles = [row["angles"][k] for k in ("theta_a1", "theta_b1", "theta_a_rest", "theta_b_rest")]
        q_star = float(row["max_lhs_at_p1"])
        p_star = float(row["p_threshold"])
        if (row["family"], row["n"], row["m"]) != (family, n, m):
            fails.append(("cell", f"output is for {row['family']} n={row['n']} m={row['m']}"))
    except (ValueError, KeyError, TypeError) as exc:
        return [("parse", f"threshold output not understood: {exc}")]

    value = symmetric_lhs(family, n, m, 1.0, angles)
    if abs(value - q_star) > 1e-9:
        fails.append(("reevaluate", f"LHS at the reported angles is {value!r}, output says {q_star!r}"))
    floor = coarse_grid_max(family, n, m)
    if q_star < floor - 1e-12:
        fails.append(("grid_floor", f"max_lhs_at_p1 {q_star!r} below the coarse-grid maximum {floor!r}"))
    c = mixed_value(n, m)
    closed = c / (c - q_star) if q_star > 0 else math.nan
    if not abs(p_star - closed) <= 5e-4:
        fails.append(("affine", f"p_threshold {p_star} vs C/(C-Q*) = {closed}"))
    if (family, n, m) in REFERENCE_THRESHOLDS:
        ref, tol = REFERENCE_THRESHOLDS[family, n, m]
        if abs(p_star - ref) > tol:
            fails.append(("reference", f"p_threshold {p_star} vs reference {ref} (tol {tol})"))
    return fails


def parse_certify(output: str) -> dict[str, str]:
    fields = {}
    for line in output.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and not line.startswith("#"):
            fields[key.strip()] = value.strip()
    return fields


def check_certify(case: dict, output: str) -> list[tuple[str, str]]:
    n, m = case["n"], case["m"]
    fields = parse_certify(output)
    try:
        det = int(fields["deterministic_max"])
        sampled = float(fields["sampled_max"])
        verdict = fields["bound_satisfied"]
    except (KeyError, ValueError) as exc:
        return [("parse", f"certify output not understood: {exc}")]
    fails = []
    if verdict != "true":
        fails.append(("verdict", f"bound_satisfied = {verdict}"))
    expected = deterministic_max(n, m)
    if det != expected:
        fails.append(("deterministic", f"deterministic_max {det} vs brute force {expected}"))
    if not -1e-9 <= sampled <= 1e-9:
        fails.append(("sampled", f"sampled_max {sampled!r} outside [-1e-9, 1e-9]"))
    return fails


def check_grid(case: dict, output: str) -> list[tuple[str, str]]:
    family, n, m, resolution = case["family"], case["n"], case["m"], case["resolution"]
    try:
        doc = json.loads(output)
        value = float(doc["value"])
        angles = [float(a) for a in doc["angles"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [("parse", f"grid output not understood: {exc}")]
    fails = []
    steps = [a * resolution / TWO_PI for a in angles]
    if len(angles) != 4 or any(abs(s - round(s)) > 1e-9 for s in steps):
        fails.append(("on_grid", f"angles {angles} are not multiples of 2*pi/{resolution}"))
    own = symmetric_lhs(family, n, m, 1.0, angles)
    if abs(own - value) > 1e-10:
        fails.append(("reevaluate", f"LHS at the returned angles is {own!r}, returned {value!r}"))
    floor = coarse_grid_max(family, n, m)
    if value < floor - 1e-12:
        fails.append(("grid_floor", f"value {value!r} below the {COARSE_RESOLUTION}-point sub-grid maximum {floor!r}"))
    return fails


CHECKS = {
    "threshold_table": check_threshold,
    "certify_sweep": check_certify,
    "exhaustive_grid": check_grid,
}
