"""Test oracles for the classical bound: explicit deterministic strategies.

These enumerate the 4^n strategies one by one (or as one vectorized sweep)
and so stay independent of the response-type count in
`mlocality.lhv.max_strategy_lhs`.  Enumeration is guarded at n <= 12.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from mlocality._bits import index_to_bits
from mlocality.inequality import (
    SETTING_A,
    SETTING_B,
    BellExpression,
    DimensionMismatchError,
    ParameterDomainError,
)
from mlocality.lhv import ConditionalDistribution

STRATEGY_MAX_PARTIES = 12


@dataclass(frozen=True)
class DeterministicStrategy:
    """Per-party response table: (outcome under a, outcome under b)."""

    responses: tuple[tuple[int, int], ...]

    def outcome(self, position: int, setting: str) -> int:
        pair = self.responses[position]
        return pair[0] if setting == SETTING_A else pair[1]

    @property
    def n(self) -> int:
        return len(self.responses)


def enumerate_strategies(n: int) -> Iterator[DeterministicStrategy]:
    """All 4^n deterministic local strategies, guarded at n <= 12."""
    if not 1 <= n <= STRATEGY_MAX_PARTIES:
        raise ParameterDomainError(
            f"strategy enumeration supports 1 <= n <= {STRATEGY_MAX_PARTIES}, got n={n}"
        )
    for combo in itertools.product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=n):
        yield DeterministicStrategy(combo)


def strategy_lhs(expr: BellExpression, strategy: DeterministicStrategy) -> int:
    """LHS under a deterministic strategy; every term probability is 0 or 1."""
    n = expr.n
    if strategy.n != n:
        raise DimensionMismatchError(f"strategy has {strategy.n} parties, expression {n}")
    total = 0
    for t in expr.terms:
        if all(strategy.outcome(k, t.settings[k]) == int(t.outcomes[k]) for k in range(n)):
            total += t.coefficient
    return total


def sweep_max_strategy_lhs(expr: BellExpression, chunk: int = 1 << 18) -> int:
    """Max of strategy_lhs over all 4^n strategies as one vectorized sweep.

    Strategies are encoded as base-4 digit strings, one digit (2*out_a +
    out_b) per party; the sweep is chunked to bound memory at large n.
    """
    n = expr.n
    if n > STRATEGY_MAX_PARTIES:
        raise ParameterDomainError(
            f"strategy enumeration supports n <= {STRATEGY_MAX_PARTIES}, got n={n}"
        )
    digit_ok = []
    for t in expr.terms:
        per_party = []
        for k in range(n):
            o = int(t.outcomes[k])
            if t.settings[k] == SETTING_A:
                per_party.append(np.array([(d >> 1) == o for d in range(4)]))
            else:
                per_party.append(np.array([(d & 1) == o for d in range(4)]))
        digit_ok.append(per_party)

    best = None
    total = 4**n
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = [(idx // 4 ** (n - 1 - k)) % 4 for k in range(n)]
        acc = np.zeros(idx.size, dtype=np.int32)
        for t, per_party in zip(expr.terms, digit_ok):
            match = per_party[0][digits[0]].copy()
            for k in range(1, n):
                match &= per_party[k][digits[k]]
            acc += t.coefficient * match
        top = int(acc.max())
        best = top if best is None else max(best, top)
    return best


def strategy_distribution(strategy: DeterministicStrategy) -> ConditionalDistribution:
    """Indicator behavior of a deterministic strategy (full n-party table)."""
    n = strategy.n
    dim = 1 << n
    table = np.zeros((dim, dim))
    for m_idx in range(dim):
        r_idx = 0
        for k, bit in enumerate(index_to_bits(m_idx, n)):
            r_idx = (r_idx << 1) | strategy.outcome(k, SETTING_B if bit else SETTING_A)
        table[m_idx, r_idx] = 1.0
    return ConditionalDistribution(tuple(range(1, n + 1)), table)
