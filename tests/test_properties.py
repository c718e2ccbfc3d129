"""Property tests (hypothesis) of identities the rest of the package rests on."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from mlocality.inequality import build_hierarchy_inequality
from mlocality.quantum import MeasurementAngles, NoisyState, StateVector, evaluate_lhs, mixed_state_lhs

unit = st.floats(-1.0, 1.0, allow_nan=False)
angle = st.floats(0.0, 2.0 * np.pi, allow_nan=False)


@st.composite
def lhs_cases(draw):
    """A random normalized n-qubit state, an inequality (n, m), angles and p."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, n))
    re = np.array(draw(st.lists(unit, min_size=2**n, max_size=2**n)))
    im = np.array(draw(st.lists(unit, min_size=2**n, max_size=2**n)))
    amp = re + 1j * im
    hypothesis.assume(np.linalg.norm(amp) > 1e-3)
    theta = draw(st.lists(angle, min_size=2 * n, max_size=2 * n))
    angles = MeasurementAngles(tuple(theta[:n]), tuple(theta[n:]))
    p = draw(st.floats(0.0, 1.0, allow_nan=False))
    return n, m, StateVector(n, amp / np.linalg.norm(amp)), angles, p


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
