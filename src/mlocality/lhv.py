"""Classical side of the hierarchy: the deterministic bound, set partitions,
nonsignaling block distributions, and numerical certification of the m-local
bound.

The deterministic bound is found by counting response types.  Whether a
term fires under a deterministic strategy depends only on the response
pair (out_a, out_b) of the distinguished party k' and on how many of the
other parties hold each of the four pairs, so the maximum over the 4^n
strategies is a maximum over the O(n^3) vectors of those counts (see
`max_strategy_lhs`).

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

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from ._bits import bit_extract_map, insert_bit, outcomes_to_index, settings_to_index
from .inequality import (
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
CERTIFY_MAX_PARTIES = 12
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


def max_strategy_lhs(expr: BellExpression) -> int:
    """Exact maximum of the LHS over all 4^n deterministic strategies.

    A deterministic strategy gives every party a response pair (out_a,
    out_b), and whether a term fires depends only on the pair of k' and on
    how many of the other parties hold each pair (see `_response_type_lhs`).
    The maximum thus runs over k''s 4 pairs and the O(n^3) vectors of those
    counts instead of the 4^n strategies, for any n.  The count is exact for
    every expression, since `BellExpression` accepts only the canonical terms
    of its (n, m, k').
    """
    return _response_count_max(expr.n, expr.m)


def _response_count_max(n: int, m: int) -> int:
    """max_strategy_lhs from (n, m) alone, also where the terms are too many to build."""
    others = n - 1
    return max(
        _response_type_lhs(m, alpha, beta, others - c01 - c10 - c11, c01, c10, c11)
        for c10 in range(others + 1)
        for c11 in range(others - c10 + 1)
        for c01 in range(others - c10 - c11 + 1)
        for alpha in (0, 1)
        for beta in (0, 1)
    )


def _response_type_lhs(m: int, alpha: int, beta: int, c00: int, c01: int, c10: int, c11: int) -> int:
    """LHS of a deterministic strategy in which k' answers (alpha, beta) and
    c_xy of the other parties answer x under a and y under b.

    * ``+P(0...0|a...a)`` fires iff alpha = 0 and c10 + c11 = 0;
    * the single-b term of k' fires iff beta = 0 and c10 + c11 = 0;
    * when alpha = 0 and c11 = 0, the single-b terms of the other parties
      fire c00 times if c10 = 0, once if c10 = 1 and never if c10 >= 2;
    * when beta = 1, c10 = 0 and c11 <= m-1, the second-sum terms fire
      whose subset holds every (1, 1) party and m-1-c11 of the (0, 1)
      parties: C(c01, m-1-c11) of them.
    """
    a_all_zero = int(c10 + c11 == 0)
    value = 0
    if alpha == 0:
        value += a_all_zero
        if c11 == 0:
            value -= c00 if c10 == 0 else int(c10 == 1)
    if beta == 0:
        value -= a_all_zero
    elif c10 == 0 and c11 <= m - 1:
        value -= math.comb(c01, m - 1 - c11)
    return value


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


def check_nonsignaling(dist: ConditionalDistribution) -> tuple[bool, float]:
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
    return worst <= NS_TOL, worst


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


def sample_nonsignaling_block(size: int, rng) -> ConditionalDistribution:
    """Random nonsignaling distribution on `size` parties (labeled 1..size).

    Draws polytope vertices for blocks up to size 3; larger blocks are
    products of sub-block vertices (nonsignaling is closed under products).
    Convex combinations of up to three draws are emitted so the interior of
    the polytope is exercised too.
    """
    if size < 1:
        raise ParameterDomainError(f"block size must be positive, got {size}")
    rng = np.random.default_rng(rng)
    k = int(rng.integers(1, 4))
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
    if expr.n > CERTIFY_MAX_PARTIES:
        raise ParameterDomainError(
            f"sampled certification builds 2^n x 2^n tables, so it supports "
            f"n <= {CERTIFY_MAX_PARTIES}, got n={expr.n}"
        )
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
