"""Tests for the deterministic bound, partitions, nonsignaling sampling, and certification."""

import itertools
import json
import math

import numpy as np
import pytest

import mlocality.lhv as lhv
from mlocality.inequality import ParameterDomainError, build_hierarchy_inequality
from mlocality.lhv import CertificationError, certify_m_local_bound, max_strategy_lhs, nonsignaling_vertex_pool
from oracles import (
    ConditionalDistribution,
    DeterministicStrategy,
    Partition,
    PartitionMismatchError,
    block_sample,
    check_nonsignaling,
    distribution_lhs,
    enumerate_partitions,
    enumerate_strategies,
    failure_report_product,
    lp_vertex_pool,
    nonsignaling_constraints,
    product_distribution,
    sample_nonsignaling_block,
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

    @pytest.mark.parametrize("n", range(2, 8))
    def test_order_is_restricted_growth_order(self, n):
        # party i joins block a_i, a new block taking the next label, with
        # the label strings in lexicographic order; each partition is then
        # put in canonical block order
        for m in range(2, n + 1):
            want = []
            for labels in itertools.product(*(range(min(i + 1, m)) for i in range(n))):
                grows = all(a <= max(labels[:i], default=-1) + 1 for i, a in enumerate(labels))
                if grows and max(labels) == m - 1:
                    blocks = [[p + 1 for p in range(n) if labels[p] == b] for b in range(m)]
                    want.append(Partition(tuple(map(tuple, blocks))))
            assert list(enumerate_partitions(n, m)) == want

    def test_unranking_at_twelve_parties(self):
        # ranks 0, S - 1 and evenly spaced ones between unrank to valid
        # partitions whose restricted growth strings strictly increase
        count = lhv._partition_count(12, 5)
        strings = []
        for index in sorted({0, count - 1, *range(0, count, count // 300)}):
            part = Partition(lhv._partition(12, 5, index))
            assert part.m == 5 and part.n == 12
            labels = {p: j for j, b in enumerate(sorted(part.blocks)) for p in b}
            strings.append([labels[p] for p in range(1, 13)])
        assert len(strings) > 300
        assert all(a < b for a, b in zip(strings, strings[1:]))

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
        # each pool holds its first stored vertex and a signaling one: a block
        # outputs all ones as soon as any of its parties measures b, otherwise
        # all zeros.  Certification reads the pools, so the rig sits there.
        # At seed 5 sample 11 fails first, with both vertices in its mixtures.
        # The seed comes as np.int64 and is reported as a Python int.
        stored = lhv.nonsignaling_vertex_pool

        def rigged(size):
            dim = 2**size
            t = np.zeros((dim, dim))
            for m_idx in range(dim):
                t[m_idx, dim - 1 if m_idx else 0] = 1.0
            return (stored(size)[0], t)

        monkeypatch.setattr(lhv, "nonsignaling_vertex_pool", rigged)
        expr = build_hierarchy_inequality(4, 2, 1)
        with pytest.raises(CertificationError) as err:
            certify_m_local_bound(expr, 50, seed=np.int64(5))
        report = err.value.report
        assert type(report["seed"]) is int and report["seed"] == 5
        assert report["sample_index"] == 11
        assert report["kind"] == "certification_failure"
        assert (report["n"], report["m"], report["k_prime"]) == (4, 2, 1)
        assert report["observed_lhs"] > 1e-9
        assert len(report["blocks"]) == 2
        assert {p for b in report["blocks"] for p in b["parties"]} == {1, 2, 3, 4}
        json.dumps(report)  # must be serializable as-is

        # the report alone replays the sample: default_rng(seed), advance(i * D),
        # random(D) gives a row whose draws and LHS are the report's
        reader = lhv._TermReader(expr)
        rng = np.random.default_rng(report["seed"])
        rng.bit_generator.advance(report["sample_index"] * reader.width)
        row = rng.random((1, reader.width))
        index, weights, ids, _ = reader.draws(row)
        part = lhv._partition(4, 2, index[0])
        assert [list(b) for b in part] == [b["parties"] for b in report["blocks"]]
        for b, w, i, block in zip(part, weights[0], ids[0], report["blocks"]):
            assert w[w > 0].tolist() == block["weights"]
            assert i[w > 0, : len(lhv._atoms(b))].tolist() == block["vertices"]
        assert reader.values(row)[0] == report["observed_lhs"]

        # the dense product rebuilt from the report and the pools has that LHS
        rebuilt, product = failure_report_product(report)
        assert rebuilt == expr
        assert distribution_lhs(rebuilt, product) == pytest.approx(report["observed_lhs"], abs=1e-12)

        # and the materialised path fails first at the same sample
        index = next(i for i, (_, _, value) in enumerate(materialised_samples(expr, 50, 5)) if value > lhv.CERT_TOL)
        assert report["sample_index"] == index

    def test_size_guard(self, monkeypatch):
        # the term reader's stack grows as C(n, 3) times the size-3 pool,
        # so the guard fires before the reader is built
        monkeypatch.setattr(lhv, "_TermReader", lambda *args: pytest.fail("the reader was built"))
        expr = build_hierarchy_inequality(13, 2, 1)
        with pytest.raises(ParameterDomainError):
            certify_m_local_bound(expr, 1, seed=1)

    @pytest.mark.parametrize("seed", [np.random.default_rng(5), 5.0], ids=["generator", "float"])
    def test_non_integer_seed_raises_before_any_draw(self, monkeypatch, seed):
        # a report must replay from its seed and serialize, so only integers
        # are taken; the samples are drawn after the reader is built
        monkeypatch.setattr(lhv, "_TermReader", lambda *args: pytest.fail("the reader was built"))
        with pytest.raises(TypeError):
            certify_m_local_bound(build_hierarchy_inequality(4, 2, 1), 50, seed)

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
        u, values = sampled(expr, 40, 19)
        index = lhv._TermReader(expr).draws(u)[0]
        largest = 0
        for i, (part, _, want) in enumerate(materialised_samples(expr, 40, 19)):
            assert part.blocks == lhv._partition(n, m, index[i])
            assert values[i] == pytest.approx(want, abs=1e-12)
            largest = max(largest, max(len(b) for b in part.blocks))
        if n - m >= 3:
            assert largest >= 4  # products of several pool vertices were read too

    def test_sample_protocol_golden(self):
        # the seed -> sample map is what lets a failure report's sample_index
        # be replayed: sample i reads row i of the uniforms of the run's seed.
        # These values were recorded from the implementation; a deliberate
        # change to the vertex pools or to the row protocol must update them.
        # Per block: the ids of the k mixed slots and their weights.
        golden = [
            ([(2,), (1, 3), (4, 5)], [[[1], [0], [1]], [[21]], [[10], [10]]],
             [[0.355886084052, 0.426703611723, 0.217410304225], [1.0], [0.980716310923, 0.019283689077]],
             -0.25),
            ([(3,), (1, 5), (2, 4)], [[[3], [2]], [[2], [4]], [[20], [10], [3]]],
             [[0.870295406967, 0.129704593033], [0.394333948792, 0.605666051208],
              [0.541540599916, 0.210612994863, 0.247846405221]],
             -0.515025005446),
            ([(1,), (5,), (2, 3, 4)], [[[2]], [[2], [2]], [[3]]],
             [[1.0], [0.060950418764, 0.939049581236], [1.0]], 0.0),
            ([(5,), (1, 4), (2, 3)], [[[0], [2], [3]], [[4], [9], [20]], [[10], [7]]],
             [[0.058809157554, 0.719641411864, 0.221549430582], [0.444150019341, 0.221266142176, 0.334583838483],
              [0.525017121643, 0.474982878357]],
             -0.154556138271),
            ([(1,), (2,), (3, 4, 5)], [[[2], [0], [3]], [[3], [3], [3]], [[6]]],
             [[0.543226889369, 0.072609254828, 0.384163855803], [0.153777301778, 0.339385396515, 0.506837301707],
              [1.0]],
             0.0),
            ([(2,), (3,), (1, 4, 5)], [[[3]], [[3], [3], [1]], [[15]]],
             [[1.0], [0.265189626748, 0.404087415116, 0.330722958135], [1.0]], -1.330722958135),
        ]
        expr = build_hierarchy_inequality(5, 3, 1)
        u, values = sampled(expr, 6, 19)
        index, weights, ids, _ = lhv._TermReader(expr).draws(u)
        assert len(values) == len(golden)
        for i, (blocks, want_ids, want_weights, lhs) in enumerate(golden):
            part = lhv._partition(5, 3, index[i])
            assert list(part) == blocks
            for j, b in enumerate(part):
                k = len(want_weights[j])
                assert (weights[i, j, k:] == 0).all()
                assert weights[i, j, :k] == pytest.approx(want_weights[j], abs=1e-12)
                assert ids[i, j, :k, : len(lhv._atoms(b))].tolist() == want_ids[j]
            assert values[i] == pytest.approx(lhs, abs=1e-12)

    def test_fewer_samples_are_a_prefix(self):
        expr = build_hierarchy_inequality(5, 3, 1)
        np.testing.assert_array_equal(sampled(expr, 500, 3)[1], sampled(expr, 10_000, 3)[1][:500])

    @pytest.mark.parametrize("n,m", [(4, 2), (6, 3), (7, 2)])
    def test_chunk_size_leaves_values_unchanged(self, monkeypatch, n, m):
        expr = build_hierarchy_inequality(n, m, 1)
        chunked = sampled(expr, 60, 8)
        monkeypatch.setattr(lhv, "_GATHER_CAP", 7)  # one sample per chunk
        assert len(list(lhv._sampled_models(lhv._TermReader(expr), 60, 8))) == 60
        u, values = sampled(expr, 60, 8)
        np.testing.assert_array_equal(u, chunked[0])
        np.testing.assert_array_equal(values, chunked[1])

    def test_stack_is_allocated_once(self):
        # every atom's matrix is written into rows set aside up front, so no
        # chunk of samples copies the stack of the atoms drawn before it
        expr = build_hierarchy_inequality(12, 6, 1)
        reader = lhv._TermReader(expr)
        stack = reader._stack
        u = np.random.default_rng(5).random((200, reader.width))
        for row in u:
            reader.values(row[None])
        assert reader._stack is stack
        assert reader._height > 1

    @pytest.mark.parametrize("n,m", [(5, 3), (7, 2)])
    def test_sample_is_replayed_from_its_row(self, n, m):
        # default_rng(seed), advance(i * D), random(D) gives sample i's row;
        # it is read here one uniform at a time, as the protocol states
        expr = build_hierarchy_inequality(n, m, 1)
        atoms = -(-(n - m + 1) // 3)
        width = 1 + 3 * atoms + 3
        u, values = sampled(expr, 300, 23)
        index, weights, ids, _ = lhv._TermReader(expr).draws(u)
        count = lhv._partition_count(n, m)
        for i in (0, 1, 150, 299):
            rng = np.random.default_rng(23)
            rng.bit_generator.advance(i * (1 + m * width))
            row = rng.random(1 + m * width)
            np.testing.assert_array_equal(row, u[i])
            assert lhv._TermReader(expr).values(row[None])[0] == values[i]
            assert index[i] == math.floor(row[0] * count)
            for j, b in enumerate(lhv._partition(n, m, index[i])):
                cols = row[1 + j * width : 1 + (j + 1) * width]
                k = 1 + math.floor(3 * cols[0])
                e = [-math.log1p(-x) for x in cols[-3:][:k]]
                want = [x / sum(e) for x in e] + [0.0] * (3 - k)
                assert weights[i, j].tolist() == pytest.approx(want, abs=1e-15)
                for slot in range(k):
                    for a, parties in enumerate(lhv._atoms(b)):
                        pool = len(nonsignaling_vertex_pool(len(parties)))
                        assert ids[i, j, slot, a] == math.floor(cols[1 + slot * atoms + a] * pool)

    def test_uniform_index_stays_below_its_length(self):
        # u <= 1 - 2^-53 and floor(u * L) < L for every L < 2^53
        u = np.nextafter(1.0, 0.0)
        # the largest S(n, m) at n <= 12 is S(12, 5)
        largest = max(lhv._partition_count(n, m) for n in range(2, 13) for m in range(2, n + 1))
        assert largest == lhv._partition_count(12, 5) == 1_379_400
        lengths = np.arange(1, largest + 1)
        assert (lhv._uniform_index(u, lengths) == lengths - 1).all()
        pools = np.array([len(nonsignaling_vertex_pool(s)) for s in (1, 2, 3)])
        weights, ids = lhv._mixtures(np.full(1 + 3 * (len(pools) + 1), u), pools)
        assert (ids == pools - 1).all()
        assert (weights > 0).all()  # k = 3


def sampled(expr, samples, seed):
    """The rows of uniforms and the LHS values of certification's samples."""
    chunks = list(lhv._sampled_models(lhv._TermReader(expr), samples, seed))
    return np.concatenate([u for _, u, _ in chunks]), np.concatenate([v for _, _, v in chunks])


def materialised_samples(expr, samples, seed):
    """Yield (partition, block distributions, LHS) of each sample, built as full tables.

    The rows come from one `random((samples, D))` call, and each block's
    columns are read on their own, with pool length 1 for absent atoms.
    """
    count = lhv._partition_count(expr.n, expr.m)
    atoms = -(-(expr.n - expr.m + 1) // 3)
    width = 1 + 3 * (atoms + 1)
    for row in np.random.default_rng(seed).random((samples, 1 + expr.m * width)):
        part = Partition(lhv._partition(expr.n, expr.m, int(row[0] * count)))
        blocks = []
        for b, cols in zip(part.blocks, row[1:].reshape(expr.m, width)):
            pools = [len(lhv.nonsignaling_vertex_pool(len(a))) for a in lhv._atoms(b)]
            weights, ids = lhv._mixtures(cols, np.array(pools + [1] * (atoms - len(pools))))
            blocks.append(block_sample(len(b), weights, ids[:, : len(pools)]).relabel(b))
        yield part, blocks, distribution_lhs(expr, product_distribution(part, blocks))
