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
nonsignaling polytope, plus convex mixtures of such vertices to cover the
interior.  The vertices come from fixed pools for blocks of 1 to 3 parties,
stored as exact tables in `_vertices` (all 4 and all 24 vertices at sizes 1
and 2, 79 at size 3), so all sampling is reproducible given the caller's
seed.

Certification reads only the entries the terms touch.  A block sample is
a mixture sum_j w_j of products of pool vertices, one per atom (a run of
at most 3 consecutive parties of the block), and a term reads the product
model at one entry.  So its value is
``coefficients . prod_blocks sum_j w_j prod_atoms touched_atom[vertex_j]``,
where ``touched_atom`` is the (V, T) matrix of the entries the T terms read
from the V vertices of the atom's pool (`_TermReader`).  No 2^n x 2^n
table is built unless a sample exceeds the bound and is reported.

Sample i reads row i of D = 1 + m (1 + K A + K) uniforms of
`default_rng(seed)`, K = 3 the largest mixture and A = ceil((n - m + 1) / 3)
the most atoms in a block: the partition, then per block its mixture size,
K A vertex ids and K weights (`_mixtures`), used or not.  The partition is
the one of rank floor(u S(n, m)) in the lexicographic order of restricted
growth strings, unranked on its own (`_partition`).  So
`default_rng(seed)`, `bit_generator.advance(i * D)`, `random(D)` replays it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from ._bits import bit_extract_map
from ._vertices import SIXTHS
from .inequality import (
    BellExpression,
    DimensionMismatchError,
    ParameterDomainError,
    TermTable,
    serialize_expression,
)

NS_TOL = 1e-9
CLAMP_TOL = -1e-12
CERT_TOL = 1e-9
CERTIFY_MAX_PARTIES = 12
VERTEX_MAX_BLOCK = 3
MIXTURE_MAX = 3
# Entries gathered per chunk of samples; keeps a chunk's temporaries near 0.5 MB.
_GATHER_CAP = 1 << 16


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
    counts instead of the 4^n strategies, for any n; all but O(n^2) of the
    vectors are known to give 0 (see `_response_count_max`).  The count is
    exact for every expression, since (n, m, k') determine its terms.
    """
    return _response_count_max(expr.n, expr.m)


def _response_count_max(n: int, m: int) -> int:
    """max_strategy_lhs from (n, m) alone, also where the terms are too many to build.

    alpha and beta enter separate rules of `_response_type_lhs`, so the LHS
    is a part that reads alpha plus a part that reads beta, and each is
    maximized on its own for every count vector.  No term fires when
    c10 >= 2, so every such vector gives exactly 0 and only c10 <= 1 is run
    through the rules.
    """
    others = n - 1
    best = 0 if others >= 2 else -math.inf  # the vectors with c10 >= 2, if any
    for c10 in range(min(others, 1) + 1):
        for c11 in range(others - c10 + 1):
            for c01 in range(others - c10 - c11 + 1):
                counts = (others - c01 - c10 - c11, c01, c10, c11)
                base = _response_type_lhs(m, 0, 0, *counts)
                best = max(
                    best,
                    max(base, _response_type_lhs(m, 1, 0, *counts))
                    + max(base, _response_type_lhs(m, 0, 1, *counts))
                    - base,
                )
    return best


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


@lru_cache(maxsize=None)
def _ways(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """ways[i][j]: the ways to place parties i+1..n, with j blocks open after
    the first i, so that exactly m blocks end up open."""
    if not 2 <= m <= n:
        raise ParameterDomainError(f"need 2 <= m <= n, got m={m}, n={n}")
    ways = [tuple(int(j == m) for j in range(m + 2))]
    for _ in range(n):
        after = ways[0]
        ways.insert(0, tuple(j * after[j] + after[j + 1] for j in range(m + 1)) + (0,))
    return tuple(ways)


def _partition_count(n: int, m: int) -> int:
    """S(n, m), the number of partitions of n parties into m nonempty blocks."""
    return _ways(n, m)[0][0]


def enumerate_partitions(n: int, m: int) -> Iterator[Partition]:
    """All S(n, m) set partitions of {1..n} into exactly m nonempty blocks,
    in the order of `_partition`'s ranks."""
    for index in range(_partition_count(n, m)):
        yield Partition(_partition.__wrapped__(n, m, index))


# bounded, so that a long run at n = 12 does not hold every partition it drew
@lru_cache(maxsize=1 << 12)
def _partition(n: int, m: int, index: int) -> tuple[tuple[int, ...], ...]:
    """The blocks of the partition of rank `index`, in `Partition`'s canonical
    order and unvalidated.  Ranks follow the lexicographic order of restricted
    growth strings: party i joins an open block, by label, or opens the next one.
    """
    ways = _ways(n, m)
    blocks: list[list[int]] = []
    for party in range(1, n + 1):
        rest = ways[party][len(blocks)]
        if index < len(blocks) * rest:
            blocks[index // rest].append(party)
            index %= rest
        else:
            index -= len(blocks) * rest
            blocks.append([party])
    # blocks are built in order of their smallest element, each ascending
    return tuple(sorted(map(tuple, blocks), key=len))


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
def nonsignaling_vertex_pool(size: int) -> tuple[np.ndarray, ...]:
    """The stored vertices of the size-party nonsignaling polytope, size 1 to 3.

    All 4 vertices at size 1, all 24 boxes at size 2 (16 local deterministic
    + 8 PR variants) and 79 of the 53,856 vertices at size 3.  Samples name
    a vertex by its position in the pool, so the order is fixed (see
    `_vertices`).
    """
    dim = 1 << size
    return tuple((np.frombuffer(s.encode(), np.uint8) - 48).reshape(dim, dim) / 6.0 for s in SIXTHS[size])


def _atoms(parties: Sequence[int]) -> list[Sequence[int]]:
    """A block's parties in consecutive runs of VERTEX_MAX_BLOCK, the last one shorter."""
    return [parties[i : i + VERTEX_MAX_BLOCK] for i in range(0, len(parties), VERTEX_MAX_BLOCK)]


def _product_table(groups: Sequence[tuple[int, ...]], tables: Sequence[np.ndarray], width: int) -> np.ndarray:
    dim = 1 << width
    full = np.ones((dim, dim))
    for positions, t in zip(groups, tables):
        sub = bit_extract_map(tuple(positions), width)
        full *= t[np.ix_(sub, sub)]
    return full


def _uniform_index(u, length):
    """floor(u * length): uniform over 0..length-1 for u uniform in [0, 1 - 2^-53]."""
    return np.floor(u * length).astype(np.intp)


def _mixtures(u: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., K) weights and (..., K, A) vertex ids of blocks from their 1 + K A + K uniforms.

    k = 1 + floor(3 u) slots are mixed, vertex (j, a) is floor(u lengths[a])
    and the weights are -log1p(-u), normalised over the first k slots (a
    flat Dirichlet) and 0 past them.
    """
    k = 1 + _uniform_index(u[..., :1], MIXTURE_MAX)
    ids = _uniform_index(u[..., 1:-MIXTURE_MAX].reshape(u.shape[:-1] + (MIXTURE_MAX, -1)), lengths[..., None, :])
    weights = np.where(np.arange(MIXTURE_MAX) < k, -np.log1p(-u[..., -MIXTURE_MAX:]), 0.0)
    return weights / weights.sum(axis=-1, keepdims=True), ids


def _block_sample(size: int, weights: np.ndarray, ids: np.ndarray) -> ConditionalDistribution:
    """The distribution on parties 1..size of a block's mixture weights and vertex ids."""
    groups = _atoms(range(size))
    tables = [
        w * _product_table(groups, [nonsignaling_vertex_pool(len(g))[v] for g, v in zip(groups, row)], size)
        for w, row in zip(weights, ids) if w > 0
    ]
    return ConditionalDistribution(tuple(range(1, size + 1)), sum(tables))


def sample_nonsignaling_block(size: int, rng) -> ConditionalDistribution:
    """Random nonsignaling distribution on `size` parties (labeled 1..size).

    Draws polytope vertices for blocks up to size 3; larger blocks are
    products of sub-block vertices (nonsignaling is closed under products).
    Convex combinations of up to three draws are emitted so the interior of
    the polytope is exercised too.  Its uniforms are mapped as a block's
    columns of a certification sample are (`_mixtures`).
    """
    if size < 1:
        raise ParameterDomainError(f"block size must be positive, got {size}")
    lengths = np.array([len(nonsignaling_vertex_pool(len(a))) for a in _atoms(range(size))])
    u = np.random.default_rng(rng).random(1 + MIXTURE_MAX * (len(lengths) + 1))
    return _block_sample(size, *_mixtures(u, lengths))


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


def _term_entries(table: TermTable, cols: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The packed settings and outcome indices each term reads on the
    0-based parties `cols`, the first of them the most significant bit."""
    place = 1 << np.arange(len(cols) - 1, -1, -1)
    return table.settings[:, cols] @ place, (table.slots[:, cols] & 1) @ place


def distribution_lhs(expr: BellExpression, dist: ConditionalDistribution) -> float:
    """LHS of the expression on an explicit behavior table."""
    if dist.parties != tuple(range(1, expr.n + 1)):
        raise DimensionMismatchError(
            f"distribution covers parties {dist.parties}, expression needs 1..{expr.n}"
        )
    rows, outcomes = _term_entries(expr.table, list(range(expr.n)))
    return float(expr.table.coefficients @ dist.table[rows, outcomes])


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


class _TermReader:
    """The entries that the terms of one expression read from product models.

    Term t reads the n-party table at its settings and outcomes.  In a
    product of block samples that entry is, block by block, the mixture over
    the slots of the product over the block's atoms of each vertex's entry
    at t's settings and outcomes on the atom.  The (V, T) matrices of those
    entries for the V vertices of each atom's pool fill a stack allocated
    once, below a row of ones that absent atoms read, with room for the
    1 + sum_s C(n, s) |pool_s| rows of every atom the parties can form; an
    atom's rows are written when a sample first draws it.  The stored tables
    are exact, nonnegative and with rows that sum to exactly 1, so they are
    read as they stand.
    """

    def __init__(self, expr: BellExpression):
        self._expr = expr
        self._count = _partition_count(expr.n, expr.m)
        self.atoms = -(-(expr.n - expr.m + 1) // VERTEX_MAX_BLOCK)
        self.width = 1 + expr.m * (1 + MIXTURE_MAX * (self.atoms + 1))
        sizes = range(1, min(VERTEX_MAX_BLOCK, expr.n - expr.m + 1) + 1)
        self._pools = {s: np.stack(nonsignaling_vertex_pool(s)) for s in sizes}
        height = 1 + sum(math.comb(expr.n, s) * len(pool) for s, pool in self._pools.items())
        self._stack = np.empty((height, len(expr.table.coefficients)))
        self._stack[0] = 1.0
        self._height = 1  # rows of the stack written so far
        self._first: dict[tuple[int, ...], int] = {}
        self._blocks: dict[tuple[int, ...], np.ndarray] = {}

    def _block(self, block: tuple[int, ...]) -> np.ndarray:
        """The (A, 2) first rows in the stack and pool lengths of a block's atoms."""
        if block not in self._blocks:
            layout = self._blocks[block] = np.array([[0, 1]] * self.atoms)  # absent atoms read row 0
            for a, parties in enumerate(_atoms(block)):
                pool = self._pools[len(parties)]
                if parties not in self._first:
                    rows, outcomes = _term_entries(self._expr.table, [p - 1 for p in parties])
                    self._first[parties] = self._height
                    self._height += len(pool)
                    self._stack[self._first[parties] : self._height] = pool[:, rows, outcomes]
                layout[a] = self._first[parties], len(pool)
        return self._blocks[block]

    def draws(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Partition indices, weights, vertex ids and the atoms' first rows
        in the stack of the samples of a (rows, width) array of uniforms."""
        n, m = self._expr.n, self._expr.m
        index = _uniform_index(u[:, 0], self._count)
        drawn, inverse = np.unique(index, return_inverse=True)
        layout = np.stack([self._block(b) for p in drawn.tolist() for b in _partition(n, m, p)])
        layout = layout.reshape(len(drawn), m, self.atoms, 2)[inverse]
        weights, ids = _mixtures(u[:, 1:].reshape(len(u), m, -1), layout[..., 1])
        return index, weights, ids, layout[..., 0]

    def values(self, u: np.ndarray) -> np.ndarray:
        """LHS of the sample of each row of uniforms, from one gather."""
        _, weights, ids, first = self.draws(u)
        # atoms, slots and blocks lead: no product or sum order depends on the chunk's size
        reads = self._stack[(ids + first[:, :, None, :]).T].prod(axis=0)
        weights = weights.T[..., None]
        # the weights sum to 1 only up to rounding; ConditionalDistribution
        # divides a block's mixture by its row sums, and this by their sum
        blocks = (weights * reads).sum(axis=0) / weights.sum(axis=0)
        return (blocks.prod(axis=0) * self._expr.table.coefficients).sum(axis=1)


def _sampled_models(expr: BellExpression, samples: int, seed):
    """Yield (first sample, uniforms, LHS values) per chunk; no row depends on the chunk size."""
    reader = _TermReader(expr)
    rows = max(1, _GATHER_CAP // (expr.m * MIXTURE_MAX * reader.atoms * len(expr.table.coefficients)))
    rng = np.random.default_rng(seed)
    for start in range(0, samples, rows):
        u = rng.random((min(rows, samples - start), reader.width))
        yield start, u, reader.values(u)


def certify_m_local_bound(expr: BellExpression, samples: int, seed) -> float:
    """Sample nonsignaling m-local product models and check LHS <= tolerance.

    Sample i reads row i of D uniforms of `default_rng(seed)` (see the
    module docstring): a partition into m blocks, unranked from a rank
    uniform over 0..S(n, m)-1 (`_partition`), and a nonsignaling
    distribution per block.  A chunk of samples is evaluated with one gather
    of the T entries its terms read (see `_TermReader`), without building
    product tables.  Returns the maximum observed LHS.  The first sample
    above the tolerance raises CertificationError with a full dump, whose
    block tables and LHS are rebuilt as `sample_nonsignaling_block` and
    `product_distribution` would give them; its sample_index i is replayed
    by `default_rng(seed)`, `bit_generator.advance(i * D)`, `random(D)`.
    Refuses n > CERTIFY_MAX_PARTIES before sampling starts.
    """
    if expr.n > CERTIFY_MAX_PARTIES:
        raise ParameterDomainError(
            f"a failing sample is reported with its block tables and their 2^n x 2^n "
            f"product, so sampled certification supports n <= {CERTIFY_MAX_PARTIES}, got n={expr.n}"
        )
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    worst = -math.inf
    for start, u, values in _sampled_models(expr, samples, seed):
        over = np.flatnonzero(values > CERT_TOL)
        if over.size:
            index = start + int(over[0])
            drawn, weights, ids, _ = _TermReader(expr).draws(u[over[0], None])
            part = Partition(_partition(expr.n, expr.m, int(drawn[0])))
            blocks = [
                _block_sample(len(b), w, i[:, : len(_atoms(b))]).relabel(b)
                for b, w, i in zip(part.blocks, weights[0], ids[0])
            ]
            value = distribution_lhs(expr, product_distribution(part, blocks))
            raise CertificationError(
                f"m-local bound violated at sample {index}: LHS = {value!r}",
                certification_failure_report(expr, part, blocks, value, seed, index),
            )
        worst = max(worst, float(values.max()))
    return worst
