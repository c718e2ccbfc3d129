"""n-qubit states, X-Z-plane projective settings, and expression evaluation.

Conventions
-----------
- Party 1 is the most significant bit of the computational-basis index, so
  for n=4 the index 8 is |1000> (party 1 excited).
- Measurement directions lie in the X-Z plane of the Bloch sphere and carry
  no phase: |v(theta)> = cos(theta/2)|0> + sin(theta/2)|1>.
- Outcome 0 under any setting projects onto the setting vector; outcome 1
  onto its orthogonal complement.
- Noisy states are pure states mixed with white noise at visibility p; term
  probabilities decompose as p*<psi|Pi|psi> + (1-p)/2^n, the noise part
  being exact because every local projector has unit trace.

Evaluation
----------
Every value rests on the amplitude <v_t|psi> of each term t, v_t being the
product of one vector per party.  One kernel, `_term_amplitudes`, computes
it for every term of a table at a batch of angle points of any leading
shape: it gathers each party's vector component at each nonzero amplitude
of the state (its support), multiplies across parties and sums over the
support.  A dense state is a support of size 2^n.  `evaluate_lhs`,
`term_probability` and the angle grids of the search module all call it;
`dense_density_oracle` and `quantum_behavior` stay independent of it as
test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._bits import bit_matrix, index_to_bits
from .inequality import (
    SETTING_A,
    SETTING_B,
    BellExpression,
    DimensionMismatchError,
    ParameterDomainError,
    Term,
    TermTable,
    tabulate_terms,
)
from .lhv import ConditionalDistribution

NORM_TOL = 1e-12
DENSE_ORACLE_MAX_PARTIES = 8

_BATCH_ELEMENTS = 1 << 20  # array entries per chunk of gathered factors, about 8 MB of float64


@dataclass
class StateVector:
    """Pure n-qubit state; amplitudes indexed party-1-first (see module docs).

    The amplitudes are not to be changed after construction: `support` is
    derived from them once.
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.n < 2:
            raise ValueError(f"need at least 2 parties, got n={self.n}")
        if self.amplitudes.shape != (2**self.n,):
            raise ValueError(f"amplitude vector must have length 2^{self.n}")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |amp|^2 = {norm!r}")

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Bits (one row per basis state, party 1 first) and amplitudes of the nonzero entries.

        The amplitudes are real when no entry has an imaginary part.
        """
        nonzero = np.flatnonzero(self.amplitudes)
        amplitudes = self.amplitudes[nonzero]
        if not amplitudes.imag.any():
            amplitudes = amplitudes.real
        return bit_matrix(nonzero, self.n), amplitudes


@dataclass
class NoisyState:
    """White-noise mixture p*|psi><psi| + (1-p)*I/2^n."""

    psi: StateVector
    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.p}")

    @property
    def n(self) -> int:
        return self.psi.n


@dataclass(frozen=True)
class MeasurementAngles:
    """Per-party polar angles (radians) for the two settings a and b."""

    theta_a: tuple[float, ...]
    theta_b: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_a", tuple(float(t) for t in self.theta_a))
        object.__setattr__(self, "theta_b", tuple(float(t) for t in self.theta_b))
        if len(self.theta_a) != len(self.theta_b) or not self.theta_a:
            raise ValueError("theta_a and theta_b must be nonempty and equally long")
        if not all(math.isfinite(t) for t in self.theta_a + self.theta_b):
            raise ValueError("angles must be finite")

    @property
    def n(self) -> int:
        return len(self.theta_a)

    def normalized(self) -> "MeasurementAngles":
        """Canonical representative with every angle reduced to [0, 2*pi)."""
        two_pi = 2.0 * math.pi
        return MeasurementAngles(
            tuple(t % two_pi for t in self.theta_a),
            tuple(t % two_pi for t in self.theta_b),
        )


def ghz_state(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError(f"need at least 2 parties, got n={n}")
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return StateVector(n, amp)


def w_state(n: int) -> StateVector:
    """Equal superposition of the n single-excitation basis states."""
    if n < 2:
        raise ValueError(f"need at least 2 parties, got n={n}")
    amp = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amp[1 << k] = 1.0 / math.sqrt(n)
    return StateVector(n, amp)


def setting_vector(theta: float) -> np.ndarray:
    """Qubit state with Bloch vector (sin theta, 0, cos theta)."""
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)])


def orthogonal_vector(theta: float) -> np.ndarray:
    """The state orthogonal to setting_vector(theta)."""
    return np.array([-math.sin(theta / 2.0), math.cos(theta / 2.0)])


# A party's vector for outcome 0 is (c, s) and for outcome 1 is (-s, c),
# with (c, s) = (cos(theta/2), sin(theta/2)): both are linear in (c, s).
_OUTCOME_VECTORS = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0]])


def _half_angle_pairs(theta) -> np.ndarray:
    """(cos(theta/2), sin(theta/2)) along a new last axis, for angles of any shape."""
    half = np.asarray(theta, dtype=float) * 0.5
    pairs = np.empty(half.shape + (2,))
    np.cos(half, out=pairs[..., 0])
    np.sin(half, out=pairs[..., 1])
    return pairs


def _term_amplitudes(table: TermTable, psi: StateVector, pairs: np.ndarray) -> np.ndarray:
    """Amplitude <v_t|psi> of every term t at a batch of angle points.

    pairs has shape (..., 2, n, 2): the (c, s) pair of every setting (a,
    then b) of every party at every point.  The factor of term t at basis
    state z is the component, picked by the party's bit of z, of the
    party's vector for its setting and outcome in t.  The factors are
    gathered over the support of psi, multiplied across parties and summed
    against the amplitudes.  The terms are taken in chunks that keep the
    gathered factors within _BATCH_ELEMENTS entries.  Returns shape (..., T).
    """
    bits, amplitudes = psi.support
    vectors = (pairs @ _OUTCOME_VECTORS).reshape(pairs.shape[:-3] + (-1, 2))
    slots = table.slots[:, None, :]
    per_term = bits.size * pairs.size // (4 * psi.n)  # factor entries per term; pairs holds 4n a point
    if per_term * len(slots) <= _BATCH_ELEMENTS:
        return vectors[..., slots, bits].prod(axis=-1) @ amplitudes
    step = max(1, _BATCH_ELEMENTS // per_term)
    parts = [vectors[..., slots[i : i + step], bits].prod(axis=-1) @ amplitudes
             for i in range(0, len(slots), step)]
    return np.concatenate(parts, axis=-1)


def _lhs_values(expr: BellExpression, state: NoisyState, theta: np.ndarray) -> np.ndarray:
    """LHS at a batch of angle points; theta has shape (..., 2, n), rows theta_a and theta_b."""
    table = expr.table
    amp = _term_amplitudes(table, state.psi, _half_angle_pairs(theta))
    pure = np.abs(amp) ** 2 @ table.coefficients
    return state.p * pure + expr.coefficient_sum() * (1.0 - state.p) / 2**expr.n


def term_probability(state: NoisyState, term: Term, angles: MeasurementAngles) -> float:
    """Probability assigned to one term by the noisy state under the angles."""
    n = state.n
    if term.n != n or angles.n != n:
        raise DimensionMismatchError(
            f"term/angles cover {term.n}/{angles.n} parties, state has {n}"
        )
    pairs = _half_angle_pairs((angles.theta_a, angles.theta_b))
    (amp,) = _term_amplitudes(tabulate_terms((term,)), state.psi, pairs)
    return float(state.p * abs(amp) ** 2 + (1.0 - state.p) / 2**n)


def evaluate_lhs(expr: BellExpression, state: NoisyState, angles: MeasurementAngles) -> float:
    """Signed sum of term probabilities; positive values witness nonlocality."""
    if expr.n != state.n:
        raise DimensionMismatchError(f"expression has n={expr.n}, state has n={state.n}")
    if angles.n != expr.n:
        raise DimensionMismatchError(f"angles cover {angles.n} parties, expression has {expr.n}")
    return float(_lhs_values(expr, state, (angles.theta_a, angles.theta_b)))


def mixed_state_lhs(n: int, m: int) -> float:
    """Closed-form LHS at p=0: (1 - n - binomial(n-1, m-1)) / 2^n."""
    return (1 - n - math.comb(n - 1, m - 1)) / 2**n


def density_matrix(state: NoisyState) -> np.ndarray:
    """Dense 2^n x 2^n density matrix of the noisy state."""
    dim = 2**state.n
    psi = state.psi.amplitudes
    return state.p * np.outer(psi, psi.conj()) + (1.0 - state.p) * np.eye(dim) / dim


def measurement_projectors(angles: MeasurementAngles) -> list[dict[tuple[str, str], np.ndarray]]:
    """Per-party rank-1 projectors keyed by (setting, outcome) characters."""
    sets = []
    for k in range(angles.n):
        per_party = {}
        for setting, theta in ((SETTING_A, angles.theta_a[k]), (SETTING_B, angles.theta_b[k])):
            for outcome in ("0", "1"):
                v = setting_vector(theta) if outcome == "0" else orthogonal_vector(theta)
                per_party[(setting, outcome)] = np.outer(v, v.conj())
        sets.append(per_party)
    return sets


def dense_density_oracle(
    expr: BellExpression,
    rho: np.ndarray,
    projectors: Sequence[dict[tuple[str, str], np.ndarray]],
) -> float:
    """Evaluate the LHS as sum of trace(rho @ Pi) with explicit Kronecker products.

    Verification path only; O(4^n) memory, guarded at n > 8.
    """
    n = expr.n
    if n > DENSE_ORACLE_MAX_PARTIES:
        raise ParameterDomainError(
            f"dense oracle supports n <= {DENSE_ORACLE_MAX_PARTIES}, got n={n}"
        )
    if rho.shape != (2**n, 2**n) or len(projectors) != n:
        raise DimensionMismatchError("density matrix or projector sets do not match n")
    total = 0.0
    for term in expr.terms:
        proj = np.array([[1.0]])
        for k in range(n):
            proj = np.kron(proj, projectors[k][(term.settings[k], term.outcomes[k])])
        total += term.coefficient * float(np.trace(rho @ proj).real)
    return total


def quantum_behavior(state: NoisyState, angles: MeasurementAngles) -> ConditionalDistribution:
    """Full conditional distribution P(r|M) induced by measuring the state."""
    n = state.n
    if angles.n != n:
        raise DimensionMismatchError(f"angles cover {angles.n} parties, state has {n}")
    table = np.empty((2**n, 2**n))
    mixed = (1.0 - state.p) / 2**n
    for m_idx in range(2**n):
        setting_bits = index_to_bits(m_idx, n)
        amp = state.psi.amplitudes.reshape((2,) * n)
        for k, bit in enumerate(setting_bits):
            theta = angles.theta_a[k] if bit == 0 else angles.theta_b[k]
            basis = np.stack([setting_vector(theta), orthogonal_vector(theta)])
            amp = np.moveaxis(np.tensordot(basis, amp, axes=(1, k)), 0, k)
        table[m_idx] = state.p * np.abs(amp.reshape(-1)) ** 2 + mixed
    return ConditionalDistribution(tuple(range(1, n + 1)), table)
