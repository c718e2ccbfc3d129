"""Property tests (hypothesis) of identities the rest of the package rests on."""

import itertools
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import mlocality.lhv as lhv
from mlocality.inequality import (
    Term,
    build_hierarchy_inequality,
    parse_expression,
    serialize_expression,
)
from mlocality.lhv import nonsignaling_vertex_pool
from mlocality.quantum import (
    MeasurementAngles,
    NoisyState,
    StateVector,
    evaluate_lhs,
    mixed_state_lhs,
)
from oracles import (
    Partition,
    block_sample,
    check_nonsignaling,
    distribution_lhs,
    product_distribution,
    term_probability,
    vertex_product,
)

unit = st.floats(-1.0, 1.0, allow_nan=False)
angle = st.floats(0.0, 2.0 * np.pi, allow_nan=False)


def states(draw, n):
    """A random normalized complex n-qubit state."""
    re = np.array(draw(st.lists(unit, min_size=2**n, max_size=2**n)))
    im = np.array(draw(st.lists(unit, min_size=2**n, max_size=2**n)))
    amp = re + 1j * im
    hypothesis.assume(np.linalg.norm(amp) > 1e-3)
    return StateVector(n, amp / np.linalg.norm(amp))


def angle_sets(draw, n):
    theta = draw(st.lists(angle, min_size=2 * n, max_size=2 * n))
    return MeasurementAngles(tuple(theta[:n]), tuple(theta[n:]))


@st.composite
def lhs_cases(draw):
    """A random normalized n-qubit state, an inequality (n, m), angles and p."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, n))
    psi, angles = states(draw, n), angle_sets(draw, n)
    return n, m, psi, angles, draw(st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def setting_cases(draw):
    """A random noisy n-qubit state, angles and one setting string."""
    n = draw(st.integers(2, 4))
    p = draw(st.floats(0.0, 1.0, allow_nan=False))
    setting = "".join(draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n)))
    return NoisyState(states(draw, n), p), angle_sets(draw, n), setting


@settings(deadline=None, max_examples=200)
@given(lhs_cases())
def test_lhs_is_affine_in_visibility(case):
    # LHS(p) = p*LHS(1) + (1-p)*C with C angle-independent: the identity
    # behind the closed-form threshold p* = C/(C - Q*)
    n, m, psi, angles, p = case
    expr = build_hierarchy_inequality(n, m, 1)
    at_p1 = evaluate_lhs(expr, NoisyState(psi, 1.0), angles)
    expected = p * at_p1 + (1.0 - p) * mixed_state_lhs(n, m)
    assert evaluate_lhs(expr, NoisyState(psi, p), angles) == pytest.approx(expected, abs=1e-12)


@settings(deadline=None, max_examples=200)
@given(setting_cases())
def test_term_probabilities_are_complete_over_outcomes(case):
    # for one setting string the 2^n outcome strings exhaust the probability
    state, angles, setting = case
    n = state.n
    total = sum(
        term_probability(state, Term(+1, setting, format(r, f"0{n}b")), angles)
        for r in range(2**n)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


@st.composite
def hierarchy_parameters(draw):
    n = draw(st.integers(2, 7))
    return n, draw(st.integers(2, n)), draw(st.integers(1, n))


@settings(deadline=None, max_examples=100)
@given(hierarchy_parameters())
def test_serialize_parse_round_trip(case):
    n, m, k_prime = case
    expr = build_hierarchy_inequality(n, m, k_prime)
    data = serialize_expression(expr)
    again = parse_expression(data)
    assert again == expr
    assert serialize_expression(again) == data


def _flip(text, position, alphabet):
    """text with the character at position replaced by the other letter of alphabet."""
    return text[:position] + alphabet[1 - alphabet.index(text[position])] + text[position + 1 :]


@st.composite
def broken_term_tuples(draw):
    """Canonical terms with one term dropped, duplicated, sign-flipped or
    with one settings or outcomes character flipped, in a random order."""
    n, m, k_prime = draw(hierarchy_parameters())
    terms = list(build_hierarchy_inequality(n, m, k_prime).terms)
    i = draw(st.integers(0, len(terms) - 1))
    k = draw(st.integers(0, n - 1))
    t = terms[i]
    kind = draw(st.sampled_from(["drop", "duplicate", "sign", "setting", "outcome"]))
    if kind == "drop":
        del terms[i]
    elif kind == "duplicate":
        terms.append(t)
    elif kind == "sign":
        terms[i] = Term(-t.coefficient, t.settings, t.outcomes)
    elif kind == "setting":
        terms[i] = Term(t.coefficient, _flip(t.settings, k, "ab"), t.outcomes)
    else:
        terms[i] = Term(t.coefficient, t.settings, _flip(t.outcomes, k, "01"))
    return n, m, k_prime, draw(st.permutations(terms))


@st.composite
def shuffled_canonical_terms(draw):
    n, m, k_prime = draw(hierarchy_parameters())
    return n, m, k_prime, draw(st.permutations(build_hierarchy_inequality(n, m, k_prime).terms))


def _document(n, m, k_prime, terms):
    """The structured document of the (n, m, k') expression with its terms replaced."""
    doc = json.loads(serialize_expression(build_hierarchy_inequality(n, m, k_prime)))
    doc["terms"] = [{"coefficient": t.coefficient, "settings": t.settings, "outcomes": t.outcomes} for t in terms]
    return json.dumps(doc)


@settings(deadline=None, max_examples=100)
@given(shuffled_canonical_terms())
def test_any_order_of_the_canonical_terms_is_accepted(case):
    n, m, k_prime, terms = case
    assert parse_expression(_document(n, m, k_prime, terms)) == build_hierarchy_inequality(n, m, k_prime)


@settings(deadline=None, max_examples=300)
@given(broken_term_tuples())
def test_one_broken_term_is_rejected(case):
    n, m, k_prime, terms = case
    with pytest.raises(ValueError, match="(missing|unexpected) term"):
        parse_expression(_document(n, m, k_prime, terms))


@st.composite
def block_models(draw):
    """A random partition of 2..6 parties and, per block, the (slot, atom)
    vertex ids and weights of a mixture of 1 to 3 pool-vertex products."""
    n = draw(st.integers(2, 6))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, list[int]] = {}
    for party, label in enumerate(labels, 1):
        groups.setdefault(label, []).append(party)
    part = Partition(tuple(tuple(g) for g in groups.values()))
    mixtures = []
    for b in part.blocks:
        pools = [len(nonsignaling_vertex_pool(len(a))) for a in lhv._atoms(b)]
        k = draw(st.integers(1, 3))
        ids = np.array([[draw(st.integers(0, p - 1)) for p in pools] for _ in range(k)])
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
        mixtures.append((weights / weights.sum(), ids))
    return part, mixtures


def mixed_blocks(part, mixtures):
    """Each block's mixture as one table on its parties."""
    return [block_sample(len(b), w, ids).relabel(b) for b, (w, ids) in zip(part.blocks, mixtures)]


@settings(max_examples=60, deadline=None)
@given(block_models())
def test_products_of_nonsignaling_blocks_are_nonsignaling(model):
    # the multilinear evaluation of sampled m-local models rests on this closure
    part, mixtures = model
    blocks = mixed_blocks(part, mixtures)
    assert all(check_nonsignaling(d)[0] for d in blocks)
    ok, worst = check_nonsignaling(product_distribution(part, blocks))
    assert ok, worst


@st.composite
def mixed_models(draw):
    """An expression on 2..6 parties and a product of pool-vertex mixtures."""
    part, mixtures = draw(block_models())
    m = draw(st.integers(2, part.n))
    return build_hierarchy_inequality(part.n, m, draw(st.integers(1, part.n))), part, mixtures


@settings(max_examples=60, deadline=None)
@given(mixed_models())
def test_mixtures_never_beat_their_best_pure_product(model):
    # certification draws one vertex product per block and no mixtures: the
    # LHS is linear in each block, so a product of mixtures has the convex
    # combination of its pure slot choices' LHS values, and never more
    # than the best of them
    expr, part, mixtures = model
    lhs = distribution_lhs(expr, product_distribution(part, mixed_blocks(part, mixtures)))
    pure, weights = [], []
    for slots in itertools.product(*(range(len(w)) for w, _ in mixtures)):
        blocks = [vertex_product(len(b), ids[j]).relabel(b) for b, (_, ids), j in zip(part.blocks, mixtures, slots)]
        pure.append(distribution_lhs(expr, product_distribution(part, blocks)))
        weights.append(np.prod([w[j] for (w, _), j in zip(mixtures, slots)]))
    assert lhs <= max(pure) + 1e-12
    assert lhs == pytest.approx(np.dot(weights, pure), abs=1e-12)
