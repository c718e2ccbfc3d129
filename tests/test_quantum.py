"""Tests for state construction, projective settings, and LHS evaluation."""

import math

import numpy as np
import pytest

from mlocality.inequality import (
    DimensionMismatchError,
    ParameterDomainError,
    Term,
    build_hierarchy_inequality,
)
import mlocality.quantum as quantum
from mlocality.lhv import check_nonsignaling, distribution_lhs
from mlocality.quantum import (
    MeasurementAngles,
    NoisyState,
    StateVector,
    dense_density_oracle,
    density_matrix,
    evaluate_lhs,
    ghz_state,
    measurement_projectors,
    mixed_state_lhs,
    orthogonal_vector,
    quantum_behavior,
    setting_vector,
    term_probability,
    w_state,
)
from mlocality.search import exhaustive_symmetric_max


def random_state(n, rng):
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, amp / np.linalg.norm(amp))


def random_angles(n, rng):
    theta = rng.uniform(0.0, 2.0 * np.pi, 2 * n)
    return MeasurementAngles(tuple(theta[:n]), tuple(theta[n:]))


class TestStates:
    def test_ghz_amplitudes(self):
        s = ghz_state(2)
        np.testing.assert_allclose(s.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
        s4 = ghz_state(4)
        assert set(np.flatnonzero(s4.amplitudes)) == {0, 15}

    def test_w_amplitudes(self):
        s = w_state(3)
        assert set(np.flatnonzero(s.amplitudes)) == {1, 2, 4}
        np.testing.assert_allclose(s.amplitudes[[1, 2, 4]], 1 / math.sqrt(3))
        s4 = w_state(4)
        assert np.count_nonzero(s4.amplitudes) == 4
        np.testing.assert_allclose(s4.amplitudes[[1, 2, 4, 8]], 0.5)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_norms(self, n):
        for s in (ghz_state(n), w_state(n)):
            assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) < 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ghz_state(1)
        with pytest.raises(ValueError):
            w_state(1)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            StateVector(2, np.ones(4))
        with pytest.raises(ValueError):
            StateVector(3, np.ones(4) / 2.0)
        with pytest.raises(ValueError):
            NoisyState(ghz_state(2), 1.5)


class TestSettingVectors:
    def test_poles_and_equator(self):
        np.testing.assert_allclose(setting_vector(0.0), [1, 0], atol=1e-15)
        np.testing.assert_allclose(setting_vector(math.pi), [0, 1], atol=1e-15)
        np.testing.assert_allclose(setting_vector(math.pi / 2), [1 / math.sqrt(2)] * 2)

    def test_orthogonality(self):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-10, 10, 20):
            assert abs(np.dot(setting_vector(theta), orthogonal_vector(theta))) < 1e-14


class TestTermProbability:
    def test_ghz_all_zero_outcome(self):
        st = NoisyState(ghz_state(4), 1.0)
        angles = MeasurementAngles((0.0,) * 4, (0.0,) * 4)
        assert term_probability(st, Term(+1, "aaaa", "0000"), angles) == pytest.approx(0.5)

    def test_fully_mixed_is_uniform(self):
        rng = np.random.default_rng(3)
        st = NoisyState(random_state(3, rng), 0.0)
        angles = random_angles(3, rng)
        for term in build_hierarchy_inequality(3, 2, 1).terms:
            assert term_probability(st, term, angles) == pytest.approx(1 / 8)

    def test_w_has_no_all_zero_component(self):
        st = NoisyState(w_state(4), 1.0)
        angles = MeasurementAngles((0.0,) * 4, (0.0,) * 4)
        assert term_probability(st, Term(+1, "aaaa", "0000"), angles) == pytest.approx(0.0)

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            st = NoisyState(random_state(n, rng), float(rng.uniform()))
            angles = random_angles(n, rng)
            settings = "".join(rng.choice(["a", "b"], n))
            outcomes = "".join(rng.choice(["0", "1"], n))
            p = term_probability(st, Term(+1, settings, outcomes), angles)
            assert -1e-15 <= p <= 1.0 + 1e-15

    def test_completeness_over_outcomes(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            st = NoisyState(random_state(n, rng), float(rng.uniform()))
            angles = random_angles(n, rng)
            settings = "".join(rng.choice(["a", "b"], n))
            total = sum(
                term_probability(st, Term(+1, settings, format(r, f"0{n}b")), angles)
                for r in range(2**n)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        st = NoisyState(ghz_state(3), 1.0)
        with pytest.raises(DimensionMismatchError):
            term_probability(st, Term(+1, "aaaa", "0000"), MeasurementAngles((0,) * 4, (0,) * 4))


class TestEvaluateLhs:
    def test_ghz_zero_angles(self):
        expr = build_hierarchy_inequality(4, 2, 1)
        st = NoisyState(ghz_state(4), 1.0)
        angles = MeasurementAngles((0.0,) * 4, (0.0,) * 4)
        assert evaluate_lhs(expr, st, angles) == pytest.approx(-1.5)

    @pytest.mark.parametrize("n,m", [(2, 2), (4, 2), (4, 4), (5, 3), (6, 4)])
    def test_fully_mixed_closed_form(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        expr = build_hierarchy_inequality(n, m, 1)
        st = NoisyState(random_state(n, rng), 0.0)
        value = evaluate_lhs(expr, st, random_angles(n, rng))
        expected = (1 - n - math.comb(n - 1, m - 1)) / 2**n
        assert value == pytest.approx(expected, abs=1e-14)
        assert mixed_state_lhs(n, m) == expected

    def test_affine_in_visibility(self):
        rng = np.random.default_rng(29)
        for n in (2, 3, 4, 5, 6):
            m = int(rng.integers(2, n + 1))
            expr = build_hierarchy_inequality(n, m, 1)
            psi = random_state(n, rng)
            angles = random_angles(n, rng)
            v0 = evaluate_lhs(expr, NoisyState(psi, 0.0), angles)
            v_half = evaluate_lhs(expr, NoisyState(psi, 0.5), angles)
            v1 = evaluate_lhs(expr, NoisyState(psi, 1.0), angles)
            assert abs(v_half - 0.5 * (v0 + v1)) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        n, m = 4, 3
        expr = build_hierarchy_inequality(n, m, 1)
        psi = random_state(n, rng)
        angles = random_angles(n, rng)
        reference = evaluate_lhs(expr, NoisyState(psi, 0.9), angles)
        for _ in range(5):
            perm = rng.permutation(n)
            amp = psi.amplitudes.reshape((2,) * n).transpose(perm).reshape(-1)
            p_psi = StateVector(n, amp)
            p_angles = MeasurementAngles(
                tuple(angles.theta_a[j] for j in perm), tuple(angles.theta_b[j] for j in perm)
            )
            new_k = int(np.flatnonzero(perm == 0)[0]) + 1
            p_terms = tuple(
                Term(
                    t.coefficient,
                    "".join(t.settings[j] for j in perm),
                    "".join(t.outcomes[j] for j in perm),
                )
                for t in expr.terms
            )
            p_expr = type(expr)(n, m, new_k, p_terms)
            value = evaluate_lhs(p_expr, NoisyState(p_psi, 0.9), p_angles)
            assert value == pytest.approx(reference, abs=1e-12)

    def test_term_chunks_equal_one_gather(self, monkeypatch):
        # a cap of a few entries puts every term in a chunk of its own
        rng = np.random.default_rng(59)
        n = 5
        state = NoisyState(random_state(n, rng), 0.8)
        angles = random_angles(n, rng)
        exprs = [build_hierarchy_inequality(n, m, 1) for m in range(2, n + 1)]
        whole = [evaluate_lhs(expr, state, angles) for expr in exprs]
        grid_whole, _ = exhaustive_symmetric_max(exprs[1], state, 6)
        monkeypatch.setattr(quantum, "_BATCH_ELEMENTS", 7)
        chunked = [evaluate_lhs(expr, state, angles) for expr in exprs]
        grid_chunked, _ = exhaustive_symmetric_max(exprs[1], state, 6)
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)
        assert grid_chunked == pytest.approx(grid_whole, abs=1e-12)


class TestDenseOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_fast_path_on_random_draws(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            m = int(rng.integers(2, n + 1))
            expr = build_hierarchy_inequality(n, m, 1)
            st = NoisyState(random_state(n, rng), float(rng.uniform()))
            angles = random_angles(n, rng)
            fast = evaluate_lhs(expr, st, angles)
            dense = dense_density_oracle(expr, density_matrix(st), measurement_projectors(angles))
            assert abs(fast - dense) < 1e-10

    @pytest.mark.parametrize("n", [7, 8])
    def test_agreement_holds_up_to_the_size_guard(self, n):
        rng = np.random.default_rng(200 + n)
        expr = build_hierarchy_inequality(n, 3, 1)
        st = NoisyState(random_state(n, rng), float(rng.uniform()))
        angles = random_angles(n, rng)
        fast = evaluate_lhs(expr, st, angles)
        dense = dense_density_oracle(expr, density_matrix(st), measurement_projectors(angles))
        assert abs(fast - dense) < 1e-10

    def test_mixed_and_ghz_special_cases(self):
        expr = build_hierarchy_inequality(4, 2, 1)
        angles = MeasurementAngles((0.0,) * 4, (0.0,) * 4)
        mixed = NoisyState(ghz_state(4), 0.0)
        assert dense_density_oracle(
            expr, density_matrix(mixed), measurement_projectors(angles)
        ) == pytest.approx(-0.375)
        pure = NoisyState(ghz_state(4), 1.0)
        assert dense_density_oracle(
            expr, density_matrix(pure), measurement_projectors(angles)
        ) == pytest.approx(-1.5)

    def test_size_guard(self):
        expr = build_hierarchy_inequality(9, 2, 1)
        with pytest.raises(ParameterDomainError):
            dense_density_oracle(expr, np.eye(2**9) / 2**9, [])


class TestQuantumBehavior:
    def test_behavior_is_nonsignaling_and_consistent(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            m = int(rng.integers(2, n + 1))
            expr = build_hierarchy_inequality(n, m, 1)
            st = NoisyState(random_state(n, rng), float(rng.uniform()))
            angles = random_angles(n, rng)
            behavior = quantum_behavior(st, angles)
            ok, violation = check_nonsignaling(behavior)
            assert ok, violation
            assert distribution_lhs(expr, behavior) == pytest.approx(
                evaluate_lhs(expr, st, angles), abs=1e-10
            )

    def test_angle_normalization(self):
        angles = MeasurementAngles((7.0, -1.0), (2.0, 9.0))
        norm = angles.normalized()
        assert all(0.0 <= t < 2 * math.pi for t in norm.theta_a + norm.theta_b)
        assert norm.theta_a[0] == pytest.approx(7.0 - 2 * math.pi)
