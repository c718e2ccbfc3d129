"""Structural tests for the inequality family and its serialization."""

import dataclasses
import json
import math
from itertools import combinations

import numpy as np
import pytest

import mlocality.inequality as inequality
from mlocality.inequality import (
    OUTCOMES,
    SETTINGS,
    BellExpression,
    ParameterDomainError,
    Term,
    build_hierarchy_inequality,
    parse_expression,
    serialize_expression,
    term_count,
)
from mlocality.quantum import mixed_state_lhs
from oracles import b_parties, canonical_terms, serialize_terms, tabulate_terms


def test_binary_alphabets():
    assert len(SETTINGS) == 2
    assert len(OUTCOMES) == 2


class TestTermCount:
    def test_known_values(self):
        assert term_count(4, 2) == 8
        assert term_count(4, 3) == 8
        assert term_count(4, 4) == 6

    @pytest.mark.parametrize("n", range(2, 11))
    def test_hardy_case(self, n):
        assert term_count(n, n) == n + 2

    def test_six_four_against_subset_enumeration(self):
        # independent count: (m-1)-subsets of the other n-1 parties
        subsets = len(list(combinations(range(5), 3)))
        assert subsets == 10
        assert term_count(6, 4) == 1 + 6 + subsets == 17

    @pytest.mark.parametrize("n,m", [(1, 2), (4, 1), (4, 5), (3, 0)])
    def test_domain_errors(self, n, m):
        with pytest.raises(ParameterDomainError):
            term_count(n, m)


class TestSizeGuard:
    def test_oversized_expression_is_refused_before_building(self):
        # C(59, 29) = 5.9e16 terms; building even a fraction would not finish
        assert term_count(60, 30) > 5e16
        with pytest.raises(ParameterDomainError, match="more than the 100000"):
            build_hierarchy_inequality(60, 30, 1)
        with pytest.raises(ParameterDomainError):
            BellExpression(60, 30, 1)

    def test_limit_counts_terms(self, monkeypatch):
        monkeypatch.setattr(inequality, "MAX_TERMS", term_count(5, 3))
        inequality._canonical_table.cache_clear()
        assert len(build_hierarchy_inequality(5, 3, 2)) == 12
        with pytest.raises(ParameterDomainError):
            build_hierarchy_inequality(6, 3, 2)  # 17 terms
        inequality._canonical_table.cache_clear()

    def test_sizes_in_use_are_below_the_limit(self):
        assert term_count(200, 2) == 400
        assert term_count(20, 10) <= inequality.MAX_TERMS


class TestBuildExpression:
    def test_n4_m2_matches_pair_pattern(self):
        expr = build_hierarchy_inequality(4, 2, 1)
        rendered = [str(t) for t in expr.terms]
        assert rendered == [
            "+P(0000|aaaa)",
            "-P(0000|baaa)",
            "-P(0000|abaa)",
            "-P(0000|aaba)",
            "-P(0000|aaab)",
            "-P(1100|bbaa)",
            "-P(1010|baba)",
            "-P(1001|baab)",
        ]

    def test_n4_m3_matches_triple_pattern(self):
        expr = build_hierarchy_inequality(4, 3, 1)
        second = {str(t) for t in expr.terms[5:]}
        assert second == {"-P(1110|bbba)", "-P(1101|bbab)", "-P(1011|babb)"}
        assert len(expr) == 8

    def test_n4_m4_is_hardy_form(self):
        expr = build_hierarchy_inequality(4, 4, 1)
        assert len(expr) == 6
        assert str(expr.terms[-1]) == "-P(1111|bbbb)"

    def test_m_equals_n_second_sum_single_term(self):
        for n in (2, 3, 5, 7):
            expr = build_hierarchy_inequality(n, n, 1)
            tail = expr.terms[1 + n :]
            assert len(tail) == 1
            assert tail[0].settings == "b" * n and tail[0].outcomes == "1" * n

    def test_m2_pairs_all_contain_k_prime(self):
        expr = build_hierarchy_inequality(5, 2, 3)
        pairs = [b_parties(t) for t in expr.terms[6:]]
        assert pairs == [(1, 3), (2, 3), (3, 4), (3, 5)]

    @pytest.mark.parametrize("n,m,k", [(4, 2, 1), (5, 3, 2), (6, 4, 6), (7, 5, 3), (2, 2, 1)])
    def test_structural_invariants(self, n, m, k):
        expr = build_hierarchy_inequality(n, m, k)
        assert len(expr) == term_count(n, m)
        assert len(set(expr.terms)) == len(expr.terms)
        positive = [t for t in expr.terms if t.coefficient == +1]
        assert len(positive) == 1
        assert positive[0].settings == "a" * n and positive[0].outcomes == "0" * n
        single_b = [t for t in expr.terms if len(b_parties(t)) == 1]
        assert sorted(b_parties(t)[0] for t in single_b) == list(range(1, n + 1))
        second = [t for t in expr.terms if len(b_parties(t)) == m and t.coefficient == -1]
        subsets = {frozenset(b_parties(t)) - {k} for t in second if k in b_parties(t)}
        assert len(subsets) == math.comb(n - 1, m - 1)
        assert expr.table.coefficients.sum() == 2**n * mixed_state_lhs(n, m)

    def test_k_prime_changes_only_second_sum(self):
        base = build_hierarchy_inequality(5, 3, 1)
        for k in range(2, 6):
            other = build_hierarchy_inequality(5, 3, k)
            assert other.terms[: 1 + 5] == base.terms[: 1 + 5]
            assert set(other.terms[6:]) != set(base.terms[6:])
            assert all(k in b_parties(t) for t in other.terms[6:])

    @pytest.mark.parametrize("n,m,k", [(1, 2, 1), (4, 1, 1), (4, 5, 1), (4, 2, 0), (4, 2, 5)])
    def test_domain_errors(self, n, m, k):
        with pytest.raises(ParameterDomainError):
            build_hierarchy_inequality(n, m, k)


def _document_4_2_1():
    """The structured document of the (4, 2, 1) expression, as a dict."""
    return json.loads(serialize_expression(build_hierarchy_inequality(4, 2, 1)))


class TestExpressionValidation:
    def test_rejects_duplicate_terms(self):
        doc = _document_4_2_1()
        doc["terms"][-1] = doc["terms"][-2]
        with pytest.raises(ValueError, match="missing term"):
            parse_expression(json.dumps(doc))

    def test_rejects_wrong_term_count(self):
        doc = _document_4_2_1()
        del doc["terms"][-1]
        with pytest.raises(ValueError, match="missing term"):
            parse_expression(json.dumps(doc))

    def test_rejects_foreign_k_prime(self):
        doc = _document_4_2_1()
        doc["k_prime"] = 2
        with pytest.raises(ValueError, match="missing term"):
            parse_expression(json.dumps(doc))

    def test_same_parameters_share_one_read_only_table(self):
        first, second = build_hierarchy_inequality(6, 3, 2), BellExpression(6, 3, 2)
        assert first.table is second.table
        for array in (first.table.settings, first.table.coefficients, first.table.slots):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_identity_is_n_m_k_prime(self):
        assert [f.name for f in dataclasses.fields(BellExpression)] == ["n", "m", "k_prime"]
        assert BellExpression(5, 3, 2) == build_hierarchy_inequality(5, 3, 2)
        assert hash(BellExpression(5, 3, 2)) == hash(build_hierarchy_inequality(5, 3, 2))
        assert BellExpression(5, 3, 2) != BellExpression(5, 3, 1)
        assert BellExpression(5, 3, 2) != BellExpression(5, 2, 2)

    def test_term_validation(self):
        with pytest.raises(ValueError):
            Term(2, "aa", "00")
        with pytest.raises(ValueError):
            Term(1, "ac", "00")
        with pytest.raises(ValueError):
            Term(1, "aa", "02")
        with pytest.raises(ValueError):
            Term(1, "aab", "00")


class TestSerialization:
    @pytest.mark.parametrize("n,m,k", [(2, 2, 1), (4, 2, 1), (4, 4, 1), (6, 3, 5), (8, 5, 2)])
    def test_round_trip(self, n, m, k):
        expr = build_hierarchy_inequality(n, m, k)
        assert parse_expression(serialize_expression(expr)) == expr

    def test_text_contains_hardy_term(self):
        expr = build_hierarchy_inequality(4, 4, 1)
        text = serialize_expression(expr, "text").decode()
        assert "-P(1111|bbbb)" in text
        assert "<= 0" in text

    def test_structured_document_fields(self):
        expr = build_hierarchy_inequality(4, 2, 1)
        doc = json.loads(serialize_expression(expr).decode())
        assert doc["n"] == 4 and doc["m"] == 2 and doc["k_prime"] == 1
        assert len(doc["terms"]) == 8
        assert doc["terms"][0] == {"coefficient": 1, "settings": "aaaa", "outcomes": "0000"}

    def test_parse_rejects_tampered_documents(self):
        expr = build_hierarchy_inequality(4, 2, 1)
        doc = json.loads(serialize_expression(expr).decode())
        doc["terms"][3]["outcomes"] = "1111"
        with pytest.raises(ValueError):
            parse_expression(json.dumps(doc))

    def test_unknown_format(self):
        expr = build_hierarchy_inequality(4, 2, 1)
        with pytest.raises(ValueError):
            serialize_expression(expr, "yaml")


@pytest.mark.parametrize("n", range(2, 10))
def test_table_matches_term_oracle(n):
    for m in range(2, n + 1):
        for k in range(1, n + 1):
            expr = build_hierarchy_inequality(n, m, k)
            terms = canonical_terms(n, m, k)
            assert expr.terms == terms
            oracle = tabulate_terms(terms)
            for field in ("settings", "coefficients", "slots"):
                got, want = getattr(expr.table, field), getattr(oracle, field)
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)
            for format in ("structured", "text"):
                assert serialize_expression(expr, format) == serialize_terms(n, m, k, terms, format)


def test_structured_bytes_equal_json_dumps_at_the_largest_size():
    # the structured rows are written directly, not by json.dumps; at the
    # largest expression in use they must still be its bytes exactly
    expr = build_hierarchy_inequality(20, 10, 1)
    want = serialize_terms(20, 10, 1, expr.terms, "structured")
    assert serialize_expression(expr, "structured") == want
