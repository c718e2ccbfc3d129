"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The table reproductions
and the certification sweep dominate the runtime (about a minute total).
"""

import math
from itertools import combinations

import numpy as np
import pytest

from mlocality.inequality import build_hierarchy_inequality, term_count
from mlocality.lhv import certify_m_local_bound, max_strategy_lhs
from mlocality.quantum import MeasurementAngles, NoisyState, StateVector, evaluate_lhs, ghz_state
from mlocality.search import exhaustive_symmetric_max, find_threshold, maximize_violation
from oracles import (
    dense_density_oracle,
    density_matrix,
    distribution_lhs,
    enumerate_strategies,
    measurement_projectors,
    quantum_behavior,
    strategy_lhs,
)

# Reference visibility thresholds for the noisy GHZ and W families
# (independently reproduced numerical-search values).
GHZ_THRESHOLDS = {
    4: (0.948, 0.914, 0.822),
    5: (0.964, 0.952, 0.923, 0.847),
    6: (0.971, 0.969, 0.960, 0.931, 0.866),
}
W_THRESHOLDS = {
    4: (0.903, 0.770, 0.573),
    5: (0.911, 0.792, 0.688, 0.462),
    6: (0.894, 0.783, 0.721, 0.593, 0.344),
}
ROW_TOLERANCE = {4: 0.005, 5: 0.01, 6: 0.01}


def random_state(n, rng):
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, amp / np.linalg.norm(amp))


def random_angles(n, rng):
    theta = rng.uniform(0.0, 2.0 * np.pi, 2 * n)
    return MeasurementAngles(tuple(theta[:n]), tuple(theta[n:]))


def reproduce_rows(family, reference):
    worst = 0.0
    for n, expected in reference.items():
        found = [find_threshold(n, m, family).p_threshold for m in range(2, n + 1)]
        tol = ROW_TOLERANCE[n]
        for got, want in zip(found, expected):
            assert abs(got - want) <= tol, (
                f"{family} n={n}: thresholds {found} vs reference {expected} (tol {tol})"
            )
            worst = max(worst, abs(got - want))
    return worst


def test_criterion_1_ghz_table():
    worst = reproduce_rows("ghz", GHZ_THRESHOLDS)
    print(f"\nACCEPTANCE 1 PASS: GHZ thresholds reproduced, worst deviation {worst:.4f}")


def test_criterion_2_w_table():
    worst = reproduce_rows("w", W_THRESHOLDS)
    print(f"\nACCEPTANCE 2 PASS: W thresholds reproduced, worst deviation {worst:.4f}")


def test_criterion_3_classical_hardy_bound():
    for n in range(2, 7):
        strategies = list(enumerate_strategies(n))
        assert len(strategies) == 4**n
        for m in range(2, n + 1):
            expr = build_hierarchy_inequality(n, m, 1)
            best = max(strategy_lhs(expr, s) for s in strategies)
            assert best <= 0
            assert best == max_strategy_lhs(expr)
            if m == n:
                assert best == 0
    print("\nACCEPTANCE 3 PASS: deterministic max is 0 at m=n and <= 0 everywhere (n=2..6)")


def test_criterion_4_theorem_certification():
    worst = -math.inf
    for n in range(3, 7):
        for m in range(2, n + 1):
            expr = build_hierarchy_inequality(n, m, 1)
            value = certify_m_local_bound(expr, 10_000, seed=1000 * n + m)
            assert value <= 1e-9, f"(n={n}, m={m}) observed LHS {value}"
            worst = max(worst, value)
    print(f"\nACCEPTANCE 4 PASS: 10k-sample certification for n=3..6, max LHS {worst:.3e}")


def test_criterion_5_structural_goldens():
    expr = build_hierarchy_inequality(4, 2, 1)
    assert [str(t) for t in expr.terms] == [
        "+P(0000|aaaa)",
        "-P(0000|baaa)",
        "-P(0000|abaa)",
        "-P(0000|aaba)",
        "-P(0000|aaab)",
        "-P(1100|bbaa)",
        "-P(1010|baba)",
        "-P(1001|baab)",
    ]
    expr = build_hierarchy_inequality(4, 3, 1)
    assert {str(t) for t in expr.terms[5:]} == {
        "-P(1110|bbba)",
        "-P(1101|bbab)",
        "-P(1011|babb)",
    }
    expr = build_hierarchy_inequality(4, 4, 1)
    assert [str(t) for t in expr.terms[5:]] == ["-P(1111|bbbb)"]
    for n in range(2, 11):
        for m in range(2, n + 1):
            subsets = sum(1 for _ in combinations(range(n - 1), m - 1))
            assert term_count(n, m) == 1 + n + subsets
    print("\nACCEPTANCE 5 PASS: n=4 term patterns and term counts up to n=10")


def test_criterion_6_cross_oracle_equivalence():
    worst = 0.0
    for n in range(2, 7):
        rng = np.random.default_rng(600 + n)
        for _ in range(100):
            m = int(rng.integers(2, n + 1))
            expr = build_hierarchy_inequality(n, m, 1)
            state = NoisyState(random_state(n, rng), float(rng.uniform()))
            angles = random_angles(n, rng)
            fast = evaluate_lhs(expr, state, angles)
            dense = dense_density_oracle(expr, density_matrix(state), measurement_projectors(angles))
            assert abs(fast - dense) < 1e-10
            worst = max(worst, abs(fast - dense))
    for n in range(2, 6):
        rng = np.random.default_rng(660 + n)
        for _ in range(3):
            m = int(rng.integers(2, n + 1))
            expr = build_hierarchy_inequality(n, m, 1)
            state = NoisyState(random_state(n, rng), float(rng.uniform()))
            angles = random_angles(n, rng)
            gap = abs(
                distribution_lhs(expr, quantum_behavior(state, angles))
                - evaluate_lhs(expr, state, angles)
            )
            assert gap < 1e-10
            worst = max(worst, gap)
    print(f"\nACCEPTANCE 6 PASS: oracle agreement on all draws, worst gap {worst:.2e}")


def test_criterion_7_affinity_in_p():
    for n in range(2, 7):
        rng = np.random.default_rng(700 + n)
        for m in range(2, n + 1):
            expr = build_hierarchy_inequality(n, m, 1)
            psi = random_state(n, rng)
            angles = random_angles(n, rng)
            v0 = evaluate_lhs(expr, NoisyState(psi, 0.0), angles)
            v_half = evaluate_lhs(expr, NoisyState(psi, 0.5), angles)
            v1 = evaluate_lhs(expr, NoisyState(psi, 1.0), angles)
            assert abs(v_half - 0.5 * (v0 + v1)) < 1e-12
            expected0 = (1 - n - math.comb(n - 1, m - 1)) / 2**n
            assert abs(v0 - expected0) < 1e-12
    print("\nACCEPTANCE 7 PASS: LHS(p) collinear at {0, 0.5, 1} and exact at p=0 (n=2..6)")


def test_criterion_8_optimizer_vs_exhaustive_grid():
    state = NoisyState(ghz_state(4), 1.0)
    worst = 0.0
    for m in (2, 3, 4):
        expr = build_hierarchy_inequality(4, m, 1)
        grid_value, _ = exhaustive_symmetric_max(expr, state, 360)
        optimizer_value, _, _ = maximize_violation(expr, state)
        gap = abs(grid_value - optimizer_value)
        assert gap <= 1e-4, f"m={m}: grid {grid_value} vs optimizer {optimizer_value}"
        worst = max(worst, gap)
    print(f"\nACCEPTANCE 8 PASS: optimizer matches the 360-point exhaustive grid, worst gap {worst:.1e}")
