"""Tests for the deterministic bound, partitions, nonsignaling sampling, and certification."""

import json
import math

import numpy as np
import pytest

import mlocality.lhv as lhv
from mlocality.inequality import ParameterDomainError, build_hierarchy_inequality
from mlocality.lhv import (
    CertificationError,
    ConditionalDistribution,
    Partition,
    PartitionMismatchError,
    certify_m_local_bound,
    check_nonsignaling,
    distribution_lhs,
    enumerate_partitions,
    max_strategy_lhs,
    nonsignaling_vertex_pool,
    product_distribution,
    sample_nonsignaling_block,
)
from oracles import (
    DeterministicStrategy,
    enumerate_strategies,
    lp_vertex_pool,
    nonsignaling_constraints,
    sample_nonsignaling_vertex,
    strategy_distribution,
    strategy_lhs,
    sweep_max_strategy_lhs,
)


# ---------------------------------------------------------------------------
# Independent constructions of the bipartite polytope vertices (test oracle)


def local_deterministic_tables():
    """All 16 bipartite local boxes a = alpha*x ^ beta, b = gamma*y ^ delta."""
    tables = []
    for alpha, beta, gamma, delta in np.ndindex(2, 2, 2, 2):
        t = np.zeros((4, 4))
        for x in (0, 1):
            for y in (0, 1):
                a = (alpha * x) ^ beta
                b = (gamma * y) ^ delta
                t[2 * x + y, 2 * a + b] = 1.0
        tables.append(t)
    return tables


def pr_box_tables():
    """The 8 PR-box variants a ^ b = x*y ^ alpha*x ^ beta*y ^ gamma."""
    tables = []
    for alpha, beta, gamma in np.ndindex(2, 2, 2):
        t = np.zeros((4, 4))
        for x in (0, 1):
            for y in (0, 1):
                for a in (0, 1):
                    b = a ^ (x * y) ^ (alpha * x) ^ (beta * y) ^ gamma
                    t[2 * x + y, 2 * a + b] = 0.5
        tables.append(t)
    return tables


class TestStrategies:
    @pytest.mark.parametrize("n,count", [(2, 16), (3, 64), (4, 256)])
    def test_enumeration_count(self, n, count):
        strategies = list(enumerate_strategies(n))
        assert len(strategies) == count
        assert len(set(strategies)) == count

    def test_size_guard(self):
        with pytest.raises(ParameterDomainError):
            next(enumerate_strategies(13))

    def test_hardy_examples(self):
        expr = build_hierarchy_inequality(4, 4, 1)
        both_zero = DeterministicStrategy(((0, 0),) * 4)
        assert strategy_lhs(expr, both_zero) == 1 - 4
        saturating = DeterministicStrategy(((0, 1),) * 4)
        assert strategy_lhs(expr, saturating) == 0

    def test_hardy_bound_by_enumeration(self):
        expr = build_hierarchy_inequality(4, 4, 1)
        assert max(strategy_lhs(expr, s) for s in enumerate_strategies(4)) == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_vectorized_max_matches_loop(self, n):
        for m in range(2, n + 1):
            expr = build_hierarchy_inequality(n, m, 1)
            loop_max = max(strategy_lhs(expr, s) for s in enumerate_strategies(n))
            assert max_strategy_lhs(expr) == loop_max

    @pytest.mark.parametrize("n", range(2, 10))
    def test_count_equals_sweep_oracle(self, n):
        for m in range(2, n + 1):
            for k_prime in {1, n}:
                expr = build_hierarchy_inequality(n, m, k_prime)
                assert max_strategy_lhs(expr) == sweep_max_strategy_lhs(expr), (n, m, k_prime)

    @pytest.mark.parametrize("n,k_prime", [(n, k) for n in range(2, 7) for k in sorted({1, n})])
    def test_response_type_lhs_equals_each_strategy(self, n, k_prime):
        exprs = [build_hierarchy_inequality(n, m, k_prime) for m in range(2, n + 1)]
        for s in enumerate_strategies(n):
            others = s.responses[: k_prime - 1] + s.responses[k_prime:]
            counts = [others.count(pair) for pair in ((0, 0), (0, 1), (1, 0), (1, 1))]
            for expr in exprs:
                got = lhv._response_type_lhs(expr.m, *s.responses[k_prime - 1], *counts)
                assert got == strategy_lhs(expr, s), (s, expr.m)

    @pytest.mark.parametrize("n", [50, 200])
    def test_count_is_zero_at_large_n(self, n):
        for m in (2, n):
            assert max_strategy_lhs(build_hierarchy_inequality(n, m, 1)) == 0
        # m = n//2 has 10^13 terms or more, too many to build; the count needs only (n, m)
        assert lhv._response_count_max(n, n // 2) == 0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_indicator_distribution_matches_strategy_exhaustively(self, n):
        expr = build_hierarchy_inequality(n, min(3, n), 1)
        for s in enumerate_strategies(n):
            assert distribution_lhs(expr, strategy_distribution(s)) == pytest.approx(
                strategy_lhs(expr, s)
            )


def stirling(n, m):
    # independent recurrence S(n,m) = m*S(n-1,m) + S(n-1,m-1)
    if n == 0:
        return 1 if m == 0 else 0
    if m == 0:
        return 0
    return m * stirling(n - 1, m) + stirling(n - 1, m - 1)


class TestPartitions:
    def test_three_into_two(self):
        parts = list(enumerate_partitions(3, 2))
        blocks = {p.blocks for p in parts}
        assert blocks == {
            ((1,), (2, 3)),
            ((2,), (1, 3)),
            ((3,), (1, 2)),
        }

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_singletons(self, n):
        parts = list(enumerate_partitions(n, n))
        assert len(parts) == 1
        assert parts[0].blocks == tuple((k,) for k in range(1, n + 1))

    def test_four_into_two(self):
        assert len(list(enumerate_partitions(4, 2))) == 7

    @pytest.mark.parametrize("n", range(2, 9))
    def test_counts_match_stirling(self, n):
        for m in range(2, n + 1):
            parts = list(enumerate_partitions(n, m))
            assert len(parts) == stirling(n, m)
            assert len(set(parts)) == len(parts)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_form_count_matches_recurrence(self, n):
        for m in range(2, n + 1):
            assert lhv._partition_count(n, m) == stirling(n, m)

    def test_canonical_order(self):
        for p in enumerate_partitions(5, 3):
            sizes = [len(b) for b in p.blocks]
            assert sizes == sorted(sizes)
            for prev, cur in zip(p.blocks, p.blocks[1:]):
                if len(prev) == len(cur):
                    assert prev[0] < cur[0]

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition(((1, 2), (2, 3)))
        with pytest.raises(ValueError):
            Partition(((1,), (3,)))
        assert Partition(((3, 1), (2,))).blocks == ((2,), (1, 3))

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            list(enumerate_partitions(3, 1))
        with pytest.raises(ParameterDomainError):
            list(enumerate_partitions(3, 4))


class TestNonsignalingCheck:
    def test_product_of_singletons_passes(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            marginals = rng.uniform(0.0, 1.0, (3, 2))
            singles = []
            for k in range(3):
                t = np.array(
                    [
                        [marginals[k, 0], 1 - marginals[k, 0]],
                        [marginals[k, 1], 1 - marginals[k, 1]],
                    ]
                )
                singles.append(ConditionalDistribution((k + 1,), t))
            part = Partition(((1,), (2,), (3,)))
            full = product_distribution(part, singles)
            ok, violation = check_nonsignaling(full)
            assert ok and violation < 1e-12

    def test_pr_box_is_nonsignaling(self):
        for t in pr_box_tables():
            ok, violation = check_nonsignaling(ConditionalDistribution((1, 2), t))
            assert ok and violation < 1e-12

    def test_signaling_box_detected_with_unit_violation(self):
        # party 1 outputs party 2's setting; party 2 outputs 0
        t = np.zeros((4, 4))
        for x in (0, 1):
            for y in (0, 1):
                t[2 * x + y, 2 * y + 0] = 1.0
        ok, violation = check_nonsignaling(ConditionalDistribution((1, 2), t))
        assert not ok
        assert violation == pytest.approx(1.0)

    def test_single_party_vacuous(self):
        d = ConditionalDistribution((1,), np.array([[0.3, 0.7], [1.0, 0.0]]))
        assert check_nonsignaling(d) == (True, 0.0)


class TestSampling:
    def test_bipartite_pool_is_exactly_the_24_boxes(self):
        pool = nonsignaling_vertex_pool(2)
        got = {np.round(t, 10).tobytes() for t in pool}
        expected = {
            np.round(t, 10).tobytes() for t in local_deterministic_tables() + pr_box_tables()
        }
        assert got == expected

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_pool_tables_are_pairwise_distinct(self, size):
        # compared by value, so a -0.0 entry equals a 0.0 one
        pool = np.round(np.stack(nonsignaling_vertex_pool(size)), 10).reshape(-1, 4**size)
        gaps = np.abs(pool[:, None] - pool[None]).max(axis=-1)
        assert (gaps[~np.eye(len(pool), dtype=bool)] > 0).all()

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_pools_match_lp_enumeration(self, size):
        # the stored pools are the seeded LP enumeration's output, in its order
        stored = nonsignaling_vertex_pool(size)
        found = lp_vertex_pool(size)
        assert len(stored) == len(found)
        for want, got in zip(found, stored):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_stored_tables_are_exact_vertices(self, size):
        a, _ = nonsignaling_constraints(size)
        for table in nonsignaling_vertex_pool(size):
            assert (table.sum(axis=1) == 1.0).all()
            assert check_nonsignaling(ConditionalDistribution(tuple(range(1, size + 1)), table))[1] == 0.0
            # a feasible point of {Ax = b, x >= 0} is a vertex iff the
            # columns of A on its support are linearly independent
            support = a[:, table.ravel() > 0]
            assert np.linalg.matrix_rank(support) == support.shape[1]

    def test_sampled_vertices_are_known_boxes(self):
        rng = np.random.default_rng(23)
        known = {np.round(t, 10).tobytes() for t in local_deterministic_tables() + pr_box_tables()}
        for _ in range(40):
            v = sample_nonsignaling_vertex(2, rng)
            assert np.round(v, 10).tobytes() in known

    def test_vertex_guard(self):
        with pytest.raises(ParameterDomainError):
            sample_nonsignaling_vertex(4, np.random.default_rng(0))

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_samples_are_valid_distributions(self, size):
        rng = np.random.default_rng(29)
        for _ in range(200):
            d = sample_nonsignaling_block(size, rng)
            assert d.parties == tuple(range(1, size + 1))
            assert d.table.min() >= 0.0
            np.testing.assert_allclose(d.table.sum(axis=1), 1.0, atol=1e-9)
            ok, violation = check_nonsignaling(d)
            assert ok, violation

    def test_thousand_bipartite_samples_nonsignaling(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(1000):
            d = sample_nonsignaling_block(2, rng)
            _, violation = check_nonsignaling(d)
            worst = max(worst, violation)
        assert worst < 1e-9

    @pytest.mark.parametrize("size", [4, 5])
    def test_large_blocks_fall_back_to_products(self, size):
        rng = np.random.default_rng(37)
        for _ in range(25):
            d = sample_nonsignaling_block(size, rng)
            ok, violation = check_nonsignaling(d)
            assert ok, violation

    def test_seeded_reproducibility(self):
        d1 = sample_nonsignaling_block(2, 123)
        d2 = sample_nonsignaling_block(2, 123)
        np.testing.assert_array_equal(d1.table, d2.table)


class TestProductsAndEvaluation:
    def test_uniform_distribution_closed_form(self):
        for n, m in [(3, 2), (4, 2), (4, 4)]:
            expr = build_hierarchy_inequality(n, m, 1)
            uniform = ConditionalDistribution(
                tuple(range(1, n + 1)), np.full((2**n, 2**n), 1.0 / 2**n)
            )
            expected = (1 - n - math.comb(n - 1, m - 1)) / 2**n
            assert distribution_lhs(expr, uniform) == pytest.approx(expected)

    def test_product_preserves_normalization_and_nonsignaling(self):
        rng = np.random.default_rng(43)
        for part in enumerate_partitions(4, 2):
            blocks = [
                sample_nonsignaling_block(len(b), rng).relabel(b) for b in part.blocks
            ]
            full = product_distribution(part, blocks)
            np.testing.assert_allclose(full.table.sum(axis=1), 1.0, atol=1e-9)
            ok, violation = check_nonsignaling(full)
            assert ok, violation

    def test_partition_mismatch(self):
        part = Partition(((1,), (2, 3)))
        rng = np.random.default_rng(3)
        wrong = [sample_nonsignaling_block(1, rng), sample_nonsignaling_block(2, rng)]
        with pytest.raises(PartitionMismatchError):
            product_distribution(part, wrong)

    def test_singleton_product_equals_strategy_indicator(self):
        part = Partition(((1,), (2,), (3,)))
        strategy = DeterministicStrategy(((0, 1), (1, 0), (0, 0)))
        singles = []
        for k in range(3):
            t = np.zeros((2, 2))
            t[0, strategy.outcome(k, "a")] = 1.0
            t[1, strategy.outcome(k, "b")] = 1.0
            singles.append(ConditionalDistribution((k + 1,), t))
        full = product_distribution(part, singles)
        np.testing.assert_array_equal(full.table, strategy_distribution(strategy).table)


class TestCertification:
    def test_small_runs_stay_below_tolerance(self):
        for n, m in [(3, 2), (4, 2), (4, 4), (5, 3)]:
            expr = build_hierarchy_inequality(n, m, 1)
            worst = certify_m_local_bound(expr, 400, seed=7)
            assert worst <= 1e-9

    def test_seeded_reproducibility(self):
        expr = build_hierarchy_inequality(4, 3, 1)
        assert certify_m_local_bound(expr, 100, 11) == certify_m_local_bound(expr, 100, 11)

    def test_violating_sampler_triggers_failure_dump(self, monkeypatch):
        # signaling pool: a block outputs all ones as soon as any of its
        # parties measures b, otherwise all zeros.  Certification reads the
        # pools, not sample_nonsignaling_block, so the rig sits there.
        def rigged(size):
            dim = 2**size
            t = np.zeros((dim, dim))
            for m_idx in range(dim):
                t[m_idx, dim - 1 if m_idx else 0] = 1.0
            return (t,)

        monkeypatch.setattr(lhv, "nonsignaling_vertex_pool", rigged)
        expr = build_hierarchy_inequality(4, 2, 1)
        with pytest.raises(CertificationError) as err:
            certify_m_local_bound(expr, 50, seed=1)
        report = err.value.report
        assert report["kind"] == "certification_failure"
        assert report["observed_lhs"] > 1e-9
        assert len(report["partition"]) == 2
        assert {p for b in report["partition"] for p in b} == {1, 2, 3, 4}
        assert len(report["blocks"]) == 2
        json.dumps(report)  # must be serializable as-is

        # the materialised path fails first at the same sample, with the same tables
        index, blocks, value = next(
            (i, blocks, value)
            for i, (_, blocks, value) in enumerate(materialised_samples(expr, 50, 1))
            if value > lhv.CERT_TOL
        )
        assert report["sample_index"] == index
        assert report["observed_lhs"] == value
        assert report["blocks"] == [{"parties": list(d.parties), "table": d.table.tolist()} for d in blocks]

    def test_size_guard(self, monkeypatch):
        # a failing sample is reported with its 2^n x 2^n product table, so
        # the guard fires before sampling starts
        monkeypatch.setattr(lhv, "_sampled_models", lambda *args: pytest.fail("sampling started"))
        expr = build_hierarchy_inequality(13, 2, 1)
        with pytest.raises(ParameterDomainError):
            certify_m_local_bound(expr, 1, seed=1)

    @pytest.mark.parametrize("n,m", [(12, 4), (12, 6), (12, 7)])
    def test_partition_count_guard(self, monkeypatch, n, m):
        # S(12, m) for m = 4..7 is over CERTIFY_MAX_PARTITIONS; the guard
        # fires before the partitions are built
        monkeypatch.setattr(lhv, "_partitions_tuple", lambda *args: pytest.fail("partitions built"))
        expr = build_hierarchy_inequality(n, m, 1)
        with pytest.raises(ParameterDomainError, match="partitions"):
            certify_m_local_bound(expr, 1, seed=1)

    def test_partition_count_guard_passes_the_largest_cell_below_twelve(self):
        counts = {(n, m): lhv._partition_count(n, m) for n in range(2, 12) for m in range(2, n + 1)}
        assert max(counts.values()) == counts[(11, 5)] == 246_730 <= lhv.CERTIFY_MAX_PARTITIONS
        refused = [m for m in range(2, 13) if lhv._partition_count(12, m) > lhv.CERTIFY_MAX_PARTITIONS]
        assert refused == [4, 5, 6, 7]

    def test_sample_count_validation(self):
        expr = build_hierarchy_inequality(3, 2, 1)
        with pytest.raises(ValueError):
            certify_m_local_bound(expr, 0, 1)

    @pytest.mark.parametrize(
        "n,m",
        [(n, m) for n in range(3, 7) for m in range(2, n + 1)] + [(7, 2), (7, 4), (8, 2), (8, 5)],
    )
    def test_each_sample_equals_materialised_product(self, n, m):
        expr = build_hierarchy_inequality(n, m, 1)
        fast = lhv._sampled_models(expr, 40, 19)
        largest = 0
        for (part, _, value), (want_part, _, want) in zip(fast, materialised_samples(expr, 40, 19)):
            assert part == want_part
            assert value == pytest.approx(want, abs=1e-12)
            largest = max(largest, max(len(b) for b in part.blocks))
        if n - m >= 3:
            assert largest >= 4  # products of several pool vertices were read too

    def test_sample_protocol_golden(self):
        # the seed -> sample map is what lets a failure report's sample_index
        # be replayed: sample i draws from the i-th seed spawned from the run's
        # seed.  These values were recorded from the implementation; a
        # deliberate change to the vertex pools or to the draws must update them.
        golden = [
            ([(3,), (1, 2), (4, 5)], [[[1], [0], [2]], [[20], [4], [14]], [[16], [16]]], 0.0),
            ([(2,), (1, 3), (4, 5)], [[[2], [0]], [[8], [7], [1]], [[18], [22], [9]]], 0.0),
            ([(2,), (3,), (1, 4, 5)], [[[2]], [[1], [1]], [[37], [43]]], 0.0),
            ([(3,), (5,), (1, 2, 4)], [[[2], [2], [3]], [[3], [3]], [[62]]], -0.2669611794663497),
            ([(3,), (5,), (1, 2, 4)], [[[3]], [[0]], [[24], [51]]], 0.0),
            ([(5,), (1, 4), (2, 3)], [[[0], [1], [2]], [[7], [19], [11]], [[11], [7]]], -0.053620400276221836),
        ]
        samples = list(lhv._sampled_models(build_hierarchy_inequality(5, 3, 1), 6, 19))
        assert len(samples) == len(golden)
        for (part, draws, value), (blocks, ids, lhs) in zip(samples, golden):
            assert list(part.blocks) == blocks
            assert [d[1].tolist() for d in draws] == ids
            assert value == pytest.approx(lhs, abs=1e-12)

    def test_passing_run_builds_no_tables(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("a table was built on the success path")

        monkeypatch.setattr(lhv, "_product_table", refuse)
        monkeypatch.setattr(lhv, "ConditionalDistribution", refuse)
        for n, m in [(4, 2), (6, 3), (8, 2)]:
            assert certify_m_local_bound(build_hierarchy_inequality(n, m, 1), 100, 23) <= 1e-9


def materialised_samples(expr, samples, seed):
    """Yield (partition, block distributions, LHS) of each sample, built as full tables."""
    partitions = list(enumerate_partitions(expr.n, expr.m))
    for child in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(child)
        part = partitions[int(rng.integers(len(partitions)))]
        blocks = [sample_nonsignaling_block(len(b), rng).relabel(b) for b in part.blocks]
        yield part, blocks, distribution_lhs(expr, product_distribution(part, blocks))
