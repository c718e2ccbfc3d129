"""Property tests (hypothesis) of identities the rest of the package rests on."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from mlocality.inequality import (
    Term,
    build_hierarchy_inequality,
    parse_expression,
    serialize_expression,
)
from mlocality.quantum import (
    MeasurementAngles,
    NoisyState,
    StateVector,
    evaluate_lhs,
    mixed_state_lhs,
    term_probability,
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
