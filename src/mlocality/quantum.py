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
support.  A dense state is a support of size 2^n.  `evaluate_lhs` calls
it, and the search module calls it once per search, on a small sample
grid, and reads both its grid and its refinement from the trigonometric
polynomials fitted to those samples.  The tests check the kernel against
a dense density-matrix oracle that shares none of its code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .inequality import BellExpression, DimensionMismatchError, ParameterDomainError, TermTable

NORM_TOL = 1e-12

# Array entries per chunk of gathered factors, about 8 MB of float64: the
# kernel's terms are chunked by it, also when it samples the symmetric
# search's Fourier forms.  The grid's cells go in far smaller blocks of beta
# rows (search._GRID_BLOCK_CELLS).
_BATCH_ELEMENTS = 1 << 20
# Most parties of a GHZ or W state: its dense amplitude vector then takes
# 2^24 * 16 bytes, 268 MB.
MAX_FAMILY_PARTIES = 24


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
        return (nonzero[:, None] >> np.arange(self.n - 1, -1, -1)) & 1, amplitudes


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


def _check_family_parties(n: int) -> None:
    """Refuse a party count outside [2, MAX_FAMILY_PARTIES] before any vector is allocated."""
    if n < 2:
        raise ValueError(f"need at least 2 parties, got n={n}")
    if n > MAX_FAMILY_PARTIES:
        raise ParameterDomainError(
            f"a state on n={n} parties has 2^{n} amplitudes; at most {MAX_FAMILY_PARTIES} parties are built"
        )


def ghz_state(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2)."""
    _check_family_parties(n)
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return StateVector(n, amp)


def w_state(n: int) -> StateVector:
    """Equal superposition of the n single-excitation basis states."""
    _check_family_parties(n)
    amp = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amp[1 << k] = 1.0 / math.sqrt(n)
    return StateVector(n, amp)


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
    step = max(1, _BATCH_ELEMENTS // per_term)
    parts = [vectors[..., slots[i : i + step], bits].prod(axis=-1) @ amplitudes
             for i in range(0, len(slots), step)]
    return np.concatenate(parts, axis=-1)


def _lhs_values(expr: BellExpression, state: NoisyState, theta: np.ndarray) -> np.ndarray:
    """LHS at a batch of angle points; theta has shape (..., 2, n), rows theta_a and theta_b."""
    table = expr.table
    amp = _term_amplitudes(table, state.psi, _half_angle_pairs(theta))
    pure = np.abs(amp) ** 2 @ table.coefficients
    return state.p * pure + mixed_state_lhs(expr.n, expr.m) * (1.0 - state.p)


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
