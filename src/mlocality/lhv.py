"""Classical side of the hierarchy: deterministic strategies, set partitions,
nonsignaling block distributions, and numerical certification of the m-local
bound.

A conditional distribution over a block of parties is stored as a dense
table P(r|M) with one row per setting combination and one column per outcome
string (both indexed party-ascending, first party of the block = most
significant bit).  Nonsignaling block samples are vertices of the block's
nonsignaling polytope, obtained by maximizing random linear objectives with
the dense simplex solver, plus convex mixtures of such vertices to cover the
interior.  Vertex pools are enumerated once per block size from a fixed
internal seed, so all sampling is reproducible given the caller's seed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from ._bits import bit_extract_map, index_to_bits, insert_bit, outcomes_to_index, settings_to_index
from .inequality import (
    SETTING_A,
    SETTING_B,
    BellExpression,
    DimensionMismatchError,
    ParameterDomainError,
    Term,
    serialize_expression,
)
from .simplex import solve_lp_max

NS_TOL = 1e-9
CLAMP_TOL = -1e-12
CERT_TOL = 1e-9
STRATEGY_MAX_PARTIES = 12
VERTEX_MAX_BLOCK = 3

_POOL_SEED = 331190
_POOL_DRAWS = {1: None, 2: None, 3: 384}  # None: enumerate until closure
_POOL_STALL = 300


class PartitionMismatchError(ValueError):
    """Block distributions do not line up with the partition's blocks."""


class CertificationError(RuntimeError):
    """A sampled nonsignaling m-local model exceeded the bound; see .report."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Deterministic strategies


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


def max_strategy_lhs(expr: BellExpression, chunk: int = 1 << 18) -> int:
    """Exact max of strategy_lhs over all 4^n strategies (vectorized sweep).

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


# ---------------------------------------------------------------------------
# Partitions


@dataclass(frozen=True)
class Partition:
    """Division of {1..n} into disjoint nonempty blocks, canonically ordered
    by block size then smallest element."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(sorted(int(p) for p in b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: (len(b), b[0])))
        object.__setattr__(self, "blocks", blocks)
        flat = [p for b in blocks for p in b]
        if not blocks or any(not b for b in blocks):
            raise ValueError("blocks must be nonempty")
        if sorted(flat) != list(range(1, len(flat) + 1)):
            raise ValueError(f"blocks must partition 1..n exactly, got {blocks}")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)


def enumerate_partitions(n: int, m: int) -> Iterator[Partition]:
    """All S(n, m) set partitions of {1..n} into exactly m nonempty blocks."""
    yield from _partitions_tuple(n, m)


@lru_cache(maxsize=None)
def _partitions_tuple(n: int, m: int) -> tuple[Partition, ...]:
    if not 2 <= m <= n:
        raise ParameterDomainError(f"need 2 <= m <= n, got m={m}, n={n}")

    out: list[Partition] = []
    blocks: list[list[int]] = []

    def assign(item: int) -> None:
        remaining = n - item + 1
        if remaining == 0:
            if len(blocks) == m:
                out.append(Partition(tuple(tuple(b) for b in blocks)))
            return
        if len(blocks) + remaining < m:
            return
        for b in blocks:
            b.append(item)
            assign(item + 1)
            b.pop()
        if len(blocks) < m:
            blocks.append([item])
            assign(item + 1)
            blocks.pop()

    assign(1)
    return tuple(out)


# ---------------------------------------------------------------------------
# Conditional distributions


@dataclass
class ConditionalDistribution:
    """Dense table P(r|M) for a block of parties; rows are setting combos."""

    parties: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        self.parties = tuple(int(p) for p in self.parties)
        if not self.parties or any(p < 1 for p in self.parties):
            raise ValueError("parties must be positive 1-based indices")
        if self.parties != tuple(sorted(set(self.parties))):
            raise ValueError("parties must be strictly ascending")
        dim = 2 ** len(self.parties)
        table = np.asarray(self.table, dtype=float)
        if table.shape != (dim, dim):
            raise ValueError(f"table must have shape ({dim}, {dim}), got {table.shape}")
        if float(table.min()) < CLAMP_TOL:
            raise ValueError(f"negative entry {table.min()!r} beyond clamp tolerance")
        table = np.clip(table, 0.0, None)
        sums = table.sum(axis=1)
        if float(np.max(np.abs(sums - 1.0))) > 1e-9:
            raise ValueError("outcome probabilities must sum to 1 for every setting")
        self.table = table / sums[:, None]

    @property
    def size(self) -> int:
        return len(self.parties)

    def relabel(self, parties: Sequence[int]) -> "ConditionalDistribution":
        """Same table attached to a different (equally sized) party set."""
        return ConditionalDistribution(tuple(parties), self.table)


def check_nonsignaling(dist: ConditionalDistribution, tol: float = NS_TOL) -> tuple[bool, float]:
    """Whether each party's removal leaves marginals independent of its setting.

    Returns (verdict, worst marginal deviation); vacuously true for one party.
    """
    s = dist.size
    if s == 1:
        return True, 0.0
    t = dist.table.reshape((2,) * (2 * s))
    worst = 0.0
    for j in range(s):
        marg = t.sum(axis=s + j)
        diff = np.abs(np.take(marg, 0, axis=j) - np.take(marg, 1, axis=j))
        worst = max(worst, float(diff.max()))
    return worst <= tol, worst


# ---------------------------------------------------------------------------
# Nonsignaling polytope sampling


@lru_cache(maxsize=None)
def nonsignaling_constraints(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Equality system (A, b) cutting out the nonsignaling polytope.

    Variables are table entries x[M, r] flattened row-major; rows impose
    per-setting normalization and equality of each party's deleted-outcome
    marginals across its two settings.
    """
    dim = 1 << size
    n_vars = dim * dim
    rows = []
    rhs = []
    for m_idx in range(dim):
        row = np.zeros(n_vars)
        row[m_idx * dim : (m_idx + 1) * dim] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for j in range(size):
        for m_rest in range(1 << (size - 1)):
            m0 = insert_bit(m_rest, j, 0, size)
            m1 = insert_bit(m_rest, j, 1, size)
            for r_rest in range(1 << (size - 1)):
                row = np.zeros(n_vars)
                for r_j in (0, 1):
                    r = insert_bit(r_rest, j, r_j, size)
                    row[m0 * dim + r] += 1.0
                    row[m1 * dim + r] -= 1.0
                rows.append(row)
                rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def sample_nonsignaling_vertex(size: int, rng) -> np.ndarray:
    """One vertex of the size-party nonsignaling polytope (random objective LP)."""
    if size > VERTEX_MAX_BLOCK:
        raise ParameterDomainError(
            f"vertex sampling supports block size <= {VERTEX_MAX_BLOCK}, got {size}"
        )
    rng = np.random.default_rng(rng)
    a, b = nonsignaling_constraints(size)
    c = rng.standard_normal(a.shape[1])
    x = solve_lp_max(c, a, b)
    dim = 1 << size
    return x.reshape(dim, dim)


@lru_cache(maxsize=None)
def nonsignaling_vertex_pool(size: int) -> tuple[np.ndarray, ...]:
    """Deduplicated vertices gathered from random objectives (fixed seed).

    For sizes 1 and 2 objectives are drawn until no new vertex appears for
    a stall window, which recovers the complete vertex set (24 boxes at
    size 2: 16 local deterministic + 8 PR variants).  Size 3 uses a fixed
    number of draws; its polytope is far too large to close over.
    """
    rng = np.random.default_rng(np.random.SeedSequence(_POOL_SEED + size))
    seen: dict[bytes, np.ndarray] = {}
    draws = _POOL_DRAWS[size]
    if draws is None:
        stall = 0
        while stall < _POOL_STALL:
            v = sample_nonsignaling_vertex(size, rng)
            key = np.round(v, 10).tobytes()
            if key in seen:
                stall += 1
            else:
                seen[key] = v
                stall = 0
    else:
        for _ in range(draws):
            v = sample_nonsignaling_vertex(size, rng)
            seen.setdefault(np.round(v, 10).tobytes(), v)
    return tuple(seen.values())


def _chunk_sizes(size: int) -> list[int]:
    sizes = []
    left = size
    while left > VERTEX_MAX_BLOCK:
        sizes.append(VERTEX_MAX_BLOCK)
        left -= VERTEX_MAX_BLOCK
    sizes.append(left)
    return sizes


def _product_table(groups: Sequence[tuple[int, ...]], tables: Sequence[np.ndarray], width: int) -> np.ndarray:
    dim = 1 << width
    full = np.ones((dim, dim))
    for positions, t in zip(groups, tables):
        sub = bit_extract_map(tuple(positions), width)
        full *= t[np.ix_(sub, sub)]
    return full


def _draw_table(size: int, rng) -> np.ndarray:
    if size <= VERTEX_MAX_BLOCK:
        pool = nonsignaling_vertex_pool(size)
        return pool[int(rng.integers(len(pool)))]
    chunks = _chunk_sizes(size)
    groups = []
    tables = []
    start = 0
    for c in chunks:
        groups.append(tuple(range(start, start + c)))
        pool = nonsignaling_vertex_pool(c)
        tables.append(pool[int(rng.integers(len(pool)))])
        start += c
    return _product_table(groups, tables, size)


def sample_nonsignaling_block(size: int, rng, mixture: bool = True) -> ConditionalDistribution:
    """Random nonsignaling distribution on `size` parties (labeled 1..size).

    Draws polytope vertices for blocks up to size 3; larger blocks are
    products of sub-block vertices (nonsignaling is closed under products).
    With `mixture`, convex combinations of up to three draws are emitted so
    the interior of the polytope is exercised too.
    """
    if size < 1:
        raise ParameterDomainError(f"block size must be positive, got {size}")
    rng = np.random.default_rng(rng)
    k = int(rng.integers(1, 4)) if mixture else 1
    table = _draw_table(size, rng)
    if k > 1:
        weights = rng.dirichlet(np.ones(k))
        table = weights[0] * table
        for w in weights[1:]:
            table = table + w * _draw_table(size, rng)
    return ConditionalDistribution(tuple(range(1, size + 1)), table)


# ---------------------------------------------------------------------------
# Products and evaluation


def product_distribution(
    partition: Partition, blocks: Sequence[ConditionalDistribution]
) -> ConditionalDistribution:
    """Combine per-block distributions into the full n-party table."""
    if len(blocks) != len(partition.blocks):
        raise PartitionMismatchError(
            f"partition has {len(partition.blocks)} blocks, got {len(blocks)} distributions"
        )
    for want, dist in zip(partition.blocks, blocks):
        if tuple(want) != dist.parties:
            raise PartitionMismatchError(f"block {want} does not match distribution over {dist.parties}")
    n = partition.n
    groups = [tuple(p - 1 for p in b) for b in partition.blocks]
    full = _product_table(groups, [d.table for d in blocks], n)
    return ConditionalDistribution(tuple(range(1, n + 1)), full)


@lru_cache(maxsize=None)
def _term_index(term: Term) -> tuple[int, int]:
    return settings_to_index(term.settings), outcomes_to_index(term.outcomes)


def distribution_lhs(expr: BellExpression, dist: ConditionalDistribution) -> float:
    """LHS of the expression on an explicit behavior table."""
    if dist.parties != tuple(range(1, expr.n + 1)):
        raise DimensionMismatchError(
            f"distribution covers parties {dist.parties}, expression needs 1..{expr.n}"
        )
    table = dist.table
    total = 0.0
    for t in expr.terms:
        m_idx, r_idx = _term_index(t)
        total += t.coefficient * table[m_idx, r_idx]
    return total


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


# ---------------------------------------------------------------------------
# Certification


def certification_failure_report(
    expr: BellExpression,
    partition: Partition,
    blocks: Sequence[ConditionalDistribution],
    value: float,
    seed,
    sample_index: int,
) -> dict:
    """Structured dump of a bound violation, suitable for JSON output."""
    return {
        "kind": "certification_failure",
        "seed": seed,
        "sample_index": sample_index,
        "observed_lhs": value,
        "tolerance": CERT_TOL,
        "expression": json.loads(serialize_expression(expr).decode()),
        "partition": [list(b) for b in partition.blocks],
        "blocks": [{"parties": list(d.parties), "table": d.table.tolist()} for d in blocks],
    }


def _certify_range(expr: BellExpression, samples: int, rng_seed, start: int, stop: int):
    """Run sample indices [start, stop); returns (max LHS, failure or None)."""
    partitions = _partitions_tuple(expr.n, expr.m)
    seeds = np.random.SeedSequence(rng_seed).spawn(samples)[start:stop]
    worst = -math.inf
    for offset, child in enumerate(seeds):
        rng = np.random.default_rng(child)
        part = partitions[int(rng.integers(len(partitions)))]
        blocks = [sample_nonsignaling_block(len(b), rng).relabel(b) for b in part.blocks]
        dist = product_distribution(part, blocks)
        value = distribution_lhs(expr, dist)
        if value > CERT_TOL:
            report = certification_failure_report(
                expr, part, blocks, value, rng_seed, start + offset
            )
            return worst, report
        worst = max(worst, value)
    return worst, None


def _certify_chunk(args):
    return _certify_range(*args)


def certify_m_local_bound(
    expr: BellExpression, samples: int, rng_seed, workers: int = 1
) -> float:
    """Sample nonsignaling m-local product models and check LHS <= tolerance.

    Each sample draws a partition of the parties into m blocks (uniform over
    the enumerated list), independent nonsignaling distributions per block,
    and evaluates the product.  Returns the maximum observed LHS; any value
    above the tolerance raises CertificationError with a full dump.  Samples
    are seeded independently (spawned seeds) and distributed over a process
    pool when workers > 1, with a fixed reduction order, so the outcome is
    reproducible regardless of worker count.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if workers <= 1:
        worst, failure = _certify_range(expr, samples, rng_seed, 0, samples)
        outcomes = [(worst, failure)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        step = -(-samples // workers)
        ranges = [
            (expr, samples, rng_seed, lo, min(lo + step, samples))
            for lo in range(0, samples, step)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_certify_chunk, ranges))
    failures = [f for _, f in outcomes if f is not None]
    if failures:
        report = min(failures, key=lambda f: f["sample_index"])
        raise CertificationError(
            f"m-local bound violated at sample {report['sample_index']}: "
            f"LHS = {report['observed_lhs']!r}",
            report,
        )
    return max(worst for worst, _ in outcomes)
