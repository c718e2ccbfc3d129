"""Tests for the angle optimizer and the closed-form visibility threshold.

The threshold p* = C/(C - Q*) is checked three ways: the LHS at the
reported angles changes sign exactly at p*, a bisection oracle that
re-optimizes the angles at every p agrees with it, and it costs a single
optimization.
"""

import itertools
import math

import numpy as np
import pytest

import mlocality.search as search
from mlocality.inequality import build_hierarchy_inequality
from mlocality.quantum import MeasurementAngles, NoisyState, StateVector, evaluate_lhs, ghz_state
from mlocality.search import (
    VIOLATION_TOL,
    NoViolationError,
    OptimizerConfig,
    SymmetricAngles,
    ThresholdResult,
    compass_search,
    exhaustive_symmetric_max,
    find_threshold,
    maximize_violation,
    reproduce_table,
    state_for_family,
    thresholds_to_csv,
)

QUICK = OptimizerConfig(grid_resolution=12, restarts=4)


def random_state(n, rng):
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, amp / np.linalg.norm(amp))


def brute_force_symmetric_max(expr, state, resolution):
    axis = np.arange(resolution) * 2 * np.pi / resolution
    best = -np.inf
    n = expr.n
    for x in axis:
        for y in axis:
            for a in axis:
                for b in axis:
                    val = evaluate_lhs(expr, state, SymmetricAngles(x, y, a, b).expand(n))
                    best = max(best, val)
    return best


def bisection_threshold(expr, psi, config, tolerance):
    """Oracle: bisection on p, re-optimizing the angles at every visibility.

    Each midpoint is warm-started from the angles of the last violating one.
    """
    value, warm = maximize_violation(expr, NoisyState(psi, 1.0), config)
    assert value > VIOLATION_TOL
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        value, angles = maximize_violation(expr, NoisyState(psi, mid), config, extra_starts=(warm,))
        if value > VIOLATION_TOL:
            hi, warm = mid, angles
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSymmetricAngles:
    def test_expand(self):
        angles = SymmetricAngles(0.1, 0.2, 0.3, 0.4).expand(4)
        assert angles.theta_a == (0.1, 0.3, 0.3, 0.3)
        assert angles.theta_b == (0.2, 0.4, 0.4, 0.4)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymmetricAngles(0.0, float("nan"), 0.0, 0.0)


class TestGridEvaluation:
    @pytest.mark.parametrize(
        "n,m,family,p,seed",
        [(3, 2, "random", 0.8, 51), (4, 2, "w", 1.0, None), (4, 3, "random", 0.6, 53)],
        ids=["random-n3", "w-n4", "random-n4"],
    )
    def test_separable_grid_max_equals_brute_force(self, n, m, family, p, seed):
        # a random complex state has all 2^n amplitudes nonzero, so the
        # kernel runs over a full support with complex arithmetic; W over n
        # real amplitudes.  At seed 53 the two party-1 angles of the maximum
        # differ, so the angle check also sees which half each came from.
        if family == "random":
            psi = random_state(n, np.random.default_rng(seed))
        else:
            psi = state_for_family(family, n)
        expr = build_hierarchy_inequality(n, m, 1)
        state = NoisyState(psi, p)
        brute = brute_force_symmetric_max(expr, state, 6)
        fast, angles = exhaustive_symmetric_max(expr, state, 6)
        assert fast == pytest.approx(brute, abs=1e-12)
        # the reported angle tuple reproduces the reported value
        assert evaluate_lhs(expr, state, angles.expand(n)) == pytest.approx(fast, abs=1e-12)

    def test_separable_grid_max_ghz(self):
        expr = build_hierarchy_inequality(4, 4, 1)
        state = NoisyState(ghz_state(4), 1.0)
        brute = brute_force_symmetric_max(expr, state, 7)
        fast, _ = exhaustive_symmetric_max(expr, state, 7)
        assert fast == pytest.approx(brute, abs=1e-12)

    def test_full_grid_equals_brute_force(self):
        # the coarse grid of the non-symmetric search: all 4^4 points of the
        # product grid over the 2n = 4 angles, in itertools.product order
        rng = np.random.default_rng(53)
        expr = build_hierarchy_inequality(2, 2, 1)
        state = NoisyState(random_state(2, rng), 0.7)
        axis = np.arange(4) * 2 * np.pi / 4
        brute_points = list(itertools.product(axis, repeat=4))
        brute = [
            evaluate_lhs(expr, state, MeasurementAngles(x[:2], x[2:])) for x in brute_points
        ]
        points, values = search._full_grid(expr, state, 4)
        np.testing.assert_array_equal(points, brute_points)
        np.testing.assert_allclose(values, brute, rtol=0, atol=1e-14)
        config = OptimizerConfig(grid_resolution=4, restarts=1, refinement_rounds=1)
        value, _ = maximize_violation(expr, state, config, symmetric=False)
        assert value >= max(brute) - 1e-15


class TestCompassSearch:
    def test_converges_on_smooth_objective(self):
        target = np.array([1.0, 2.5])

        def fn(x):
            return -np.sum((x - target) ** 2)

        x, fx = compass_search(fn, [0.5, 2.0], step=0.5, tol=1e-8, max_rounds=500)
        assert np.allclose(x, target, atol=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-10)

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(3)

        def fn(x):
            return float(np.cos(x).sum())

        for _ in range(10):
            start = rng.uniform(0, 2 * np.pi, 3)
            _, fx = compass_search(fn, start, step=0.3, tol=1e-4, max_rounds=100)
            assert fx >= fn(start % (2 * np.pi)) - 1e-15


class TestMaximizeViolation:
    def test_fully_mixed_value_is_angle_independent(self):
        # coefficient sum over 2^n: (1 - n - binomial(n-1, m-1)) / 2^n
        expr = build_hierarchy_inequality(4, 4, 1)
        state = NoisyState(ghz_state(4), 0.0)
        value, _ = maximize_violation(expr, state, QUICK)
        assert value == pytest.approx(-4 / 16, abs=1e-12)
        expr = build_hierarchy_inequality(4, 2, 1)
        value, _ = maximize_violation(expr, state, QUICK)
        assert value == pytest.approx(-6 / 16, abs=1e-12)

    def test_ghz_genuine_nonlocality_violation(self):
        expr = build_hierarchy_inequality(4, 2, 1)
        value, angles = maximize_violation(expr, NoisyState(ghz_state(4), 1.0))
        assert value > 0
        # optimizer value is reproduced by a direct evaluation at its angles
        assert evaluate_lhs(expr, NoisyState(ghz_state(4), 1.0), angles.expand(4)) == pytest.approx(
            value, abs=1e-12
        )

    def test_two_qubit_maximum_matches_known_constant(self):
        # for two qubits the m=2 expression is of Clauser-Horne type: the
        # maximally entangled state reaches (sqrt(2)-1)/2
        expr = build_hierarchy_inequality(2, 2, 1)
        value, _ = maximize_violation(expr, NoisyState(ghz_state(2), 1.0))
        assert value == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-7)

    def test_refinement_not_below_coarse_grid(self):
        expr = build_hierarchy_inequality(4, 3, 1)
        state = NoisyState(ghz_state(4), 1.0)
        grid_best, _ = search._best_candidates(expr, state, QUICK.grid_resolution, 1)
        value, _ = maximize_violation(expr, state, QUICK)
        assert value >= grid_best - 1e-12

    def test_symmetric_bounded_by_full_parametrization(self):
        expr = build_hierarchy_inequality(3, 2, 1)
        state = NoisyState(ghz_state(3), 1.0)
        sym_val, sym_angles = maximize_violation(expr, state, QUICK, symmetric=True)
        full_val, full_angles = maximize_violation(
            expr, state, QUICK, symmetric=False, extra_starts=(sym_angles,)
        )
        assert isinstance(full_angles, MeasurementAngles)
        assert full_val >= sym_val - 1e-9

    def test_monotone_in_p_beyond_violation(self):
        expr = build_hierarchy_inequality(4, 4, 1)
        psi = ghz_state(4)
        values = [
            maximize_violation(expr, NoisyState(psi, p), QUICK)[0] for p in (0.85, 0.92, 1.0)
        ]
        assert values[0] > 0
        assert values[0] < values[1] < values[2]

    def test_deterministic_given_config(self):
        expr = build_hierarchy_inequality(4, 2, 1)
        state = NoisyState(ghz_state(4), 1.0)
        first = maximize_violation(expr, state, QUICK)
        second = maximize_violation(expr, state, QUICK)
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestThresholds:
    def test_hardy_threshold_ghz_n4(self):
        result = find_threshold(4, 4, "ghz")
        assert abs(result.p_threshold - 0.822) < 0.005
        assert result.max_lhs_at_p1 > 0
        assert result.state_family == "ghz"

    def test_two_qubit_threshold_is_inverse_sqrt2(self):
        result = find_threshold(2, 2, "ghz")
        assert abs(result.p_threshold - 1 / math.sqrt(2)) < 1e-3

    @pytest.mark.parametrize("family,n,m", [("ghz", 2, 2), ("ghz", 4, 4), ("w", 3, 3)])
    def test_lhs_changes_sign_at_threshold(self, family, n, m):
        result = find_threshold(n, m, family, QUICK)
        expr = build_hierarchy_inequality(n, m, 1)
        psi = state_for_family(family, n)
        angles = result.best_angles.expand(n)

        def lhs(p):
            return evaluate_lhs(expr, NoisyState(psi, p), angles)

        assert lhs(result.p_threshold) == pytest.approx(0.0, abs=1e-12)
        assert lhs(result.p_threshold - 1e-3) < 0
        assert lhs(result.p_threshold + 1e-3) > 0

    @pytest.mark.parametrize("family,n,m", [("ghz", 2, 2), ("w", 3, 3)])
    def test_closed_form_matches_bisection_oracle(self, family, n, m):
        expr = build_hierarchy_inequality(n, m, 1)
        psi = state_for_family(family, n)
        oracle = bisection_threshold(expr, psi, QUICK, tolerance=5e-4)
        assert find_threshold(n, m, family, QUICK).p_threshold == pytest.approx(oracle, abs=5e-4)

    def test_one_optimization_per_threshold(self, monkeypatch):
        calls = []
        original = search.maximize_violation

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(search, "maximize_violation", counting)
        find_threshold(4, 3, "ghz", QUICK)
        assert len(calls) == 1

    def test_no_violation_raises(self, monkeypatch):
        def no_violation(expr, state, config=None, symmetric=True, extra_starts=()):
            return 0.0, SymmetricAngles(0.0, 0.0, 0.0, 0.0)

        monkeypatch.setattr(search, "maximize_violation", no_violation)
        with pytest.raises(NoViolationError):
            find_threshold(4, 2, "ghz")

    def test_threshold_result_validation(self):
        with pytest.raises(ValueError):
            ThresholdResult(4, 2, "ghz", 1.4, SymmetricAngles(0, 0, 0, 0), 0.1)

    def test_state_family_validation(self):
        with pytest.raises(ValueError):
            state_for_family("cluster", 4)


class TestTable:
    def test_structure_and_rough_values(self):
        results = reproduce_table("ghz", [4], config=QUICK)
        assert [(r.n, r.m) for r in results] == [(4, 2), (4, 3), (4, 4)]
        for r, expected in zip(results, (0.948, 0.914, 0.822)):
            assert abs(r.p_threshold - expected) < 0.02

    def test_csv_rendering(self):
        angles = SymmetricAngles(0.1, 0.2, 0.3, 0.4)
        rows = [ThresholdResult(4, 2, "ghz", 0.9475, angles, 0.0208)]
        text = thresholds_to_csv(rows, seed=99)
        lines = text.strip().split("\n")
        assert lines[0] == "family,n,i,m,p_i,max_lhs_at_p1,theta_a1,theta_b1,theta_a,theta_b,seed"
        assert lines[1].startswith("ghz,4,1,2,0.947500,0.0208,")
        assert lines[1].endswith(",99")


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(grid_resolution=1)
        with pytest.raises(ValueError):
            OptimizerConfig(local_tolerance=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(rng_seed=-1)
        # numpy takes any nonnegative seed
        assert OptimizerConfig(rng_seed=0).rng_seed == 0
