"""Classical side of the hierarchy: the deterministic bound, set partitions,
nonsignaling block samples, and numerical certification of the m-local
bound.

The deterministic bound is found by counting response types.  Whether a
term fires under a deterministic strategy depends only on the response
pair (out_a, out_b) of the distinguished party k' and on how many of the
other parties hold each of the four pairs, so the maximum over the 4^n
strategies is a maximum over the O(n^3) vectors of those counts (see
`max_strategy_lhs`).

A nonsignaling m-local model is a partition of the n parties into m
blocks with a nonsignaling distribution on each block.  The LHS is linear
in each block's table, so over a product of polytopes it is largest at a
product of vertices: the LHS of a mixture is the mixture of its
components' LHS values, and never exceeds the best of them.  A sample
therefore gives each block one product of polytope vertices, one per atom
(a run of at most 3 consecutive parties of the block).  The vertices come
from fixed pools for atoms of 1 to 3 parties, stored as exact tables in
`_vertices` (all 4 and all 24 vertices at sizes 1 and 2, 79 at size 3), so
all sampling is reproducible given the caller's seed.

Certification reads only the entries the terms touch: a term reads the
product model at one entry, so its value is
``coefficients . prod_blocks prod_atoms touched_atom[vertex]``, where
``touched_atom`` is the (V, T) matrix of the entries the T terms read from
the V vertices of the atom's pool (`_TermReader`).  No table of a block or
of the product is built.

Sample i reads row i of D = 1 + m A uniforms of `default_rng(seed)`, A =
ceil((n - m + 1) / 3) the most atoms in a block: the partition, then per
block A vertex ids, used or not.  The partition is the one of rank
floor(u S(n, m)) in the lexicographic order of restricted growth strings,
unranked on its own (`_partition`), and vertex a of a block is
floor(u |pool|) of its atom's pool.  So `default_rng(seed)`,
`bit_generator.advance(i * D)`, `random(D)` replays it.

A sample whose LHS is above the bound, or not a number, is reported by its
draws, in `CertificationError.report`: ``kind``, ``seed``,
``sample_index``, ``tolerance``, the expression's ``n``, ``m`` and
``k_prime``, the ``observed_lhs`` and, per block of the partition, its
``parties`` and ``vertices``, one pool position per atom.  With the stored
pools that is enough to rebuild every table of the model.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._vertices import SIXTHS
from .inequality import BellExpression, ParameterDomainError, TermTable

CERT_TOL = 1e-9
CERTIFY_MAX_PARTIES = 12
VERTEX_MAX_BLOCK = 3
# Entries gathered per chunk of samples; keeps a chunk's temporaries near 0.5 MB.
_GATHER_CAP = 1 << 16


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


# bounded, so that a long run at n = 12 does not hold every partition it drew
@lru_cache(maxsize=1 << 12)
def _partition(n: int, m: int, index: int) -> tuple[tuple[int, ...], ...]:
    """The blocks of the partition of rank `index`, ordered by size, then by
    smallest party.  Ranks follow the lexicographic order of restricted
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


def _uniform_index(u, length):
    """floor(u * length): uniform over 0..length-1 for u uniform in [0, 1 - 2^-53]."""
    return np.floor(u * length).astype(np.intp)


def _term_entries(table: TermTable, cols: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The packed settings and outcome indices each term reads on the
    0-based parties `cols`, the first of them the most significant bit."""
    place = 1 << np.arange(len(cols) - 1, -1, -1)
    return table.settings[:, cols] @ place, (table.slots[:, cols] & 1) @ place


# ---------------------------------------------------------------------------
# Certification


class _TermReader:
    """The entries that the terms of one expression read from product models.

    Term t reads the n-party table at its settings and outcomes.  In a
    product of vertices that entry is the product, over the atoms of every
    block, of the atom's vertex's entry at t's settings and outcomes on the
    atom.  The (V, T) matrices of those entries for the V vertices of each
    atom's pool fill a stack allocated once, below a row of ones that
    absent atoms read, with room for the 1 + sum_s C(n, s) |pool_s| rows of
    every atom the parties can form; an atom's rows are written when a
    sample first draws it.  The stored tables are exact, so they are read
    as they stand.
    """

    def __init__(self, expr: BellExpression):
        self._expr = expr
        self._count = _partition_count(expr.n, expr.m)
        self.atoms = -(-(expr.n - expr.m + 1) // VERTEX_MAX_BLOCK)
        self.width = 1 + expr.m * self.atoms
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

    def _layout(self, index: np.ndarray) -> np.ndarray:
        """The (rows, m, A, 2) `_block` layouts of the partitions of the given ranks."""
        n, m = self._expr.n, self._expr.m
        drawn, inverse = np.unique(index, return_inverse=True)
        layout = np.stack([self._block(b) for p in drawn.tolist() for b in _partition(n, m, p)])
        return layout.reshape(len(drawn), m, self.atoms, 2)[inverse]

    def draws(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The partitions' ranks, the (rows, m, A) vertex ids and the atoms'
        first rows in the stack of the samples of a (rows, width) array of uniforms."""
        index = _uniform_index(u[:, 0], self._count)
        layout = self._layout(index)
        ids = _uniform_index(u[:, 1:].reshape(layout.shape[:-1]), layout[..., 1])
        return index, ids, layout[..., 0]

    def values(self, index: np.ndarray, ids: np.ndarray, first: np.ndarray | None = None) -> np.ndarray:
        """LHS of the products of vertices `ids` on the partitions of ranks
        `index`, from one gather.  `first`, the atoms' first rows in the
        stack, is found from `index` unless given, as `draws` gives it."""
        if first is None:
            first = self._layout(index)[..., 0]
        # atoms and blocks lead: no product or sum order depends on the chunk's size
        reads = self._stack[(ids + first).T].prod(axis=0).prod(axis=0)
        return (reads * self._expr.table.coefficients).sum(axis=1)


def _sampled_models(reader: _TermReader, samples: int, seed):
    """Yield (first sample, uniforms, LHS values) per chunk; no row depends on the chunk size."""
    expr = reader._expr
    rows = max(1, _GATHER_CAP // (expr.m * reader.atoms * len(expr.table.coefficients)))
    rng = np.random.default_rng(seed)
    for start in range(0, samples, rows):
        u = rng.random((min(rows, samples - start), reader.width))
        yield start, u, reader.values(*reader.draws(u))


def _failure_report(reader: _TermReader, row: np.ndarray, value: float, seed, index: int) -> dict:
    """The report of sample `index`, whose uniforms are `row` and LHS `value`, by its draws."""
    expr = reader._expr
    drawn, ids, _ = reader.draws(row[None])
    blocks = [
        {"parties": list(b), "vertices": v[: len(_atoms(b))].tolist()}
        for b, v in zip(_partition(expr.n, expr.m, int(drawn[0])), ids[0])
    ]
    return {
        "kind": "certification_failure",
        "seed": seed,
        "sample_index": index,
        "tolerance": CERT_TOL,
        "n": expr.n,
        "m": expr.m,
        "k_prime": expr.k_prime,
        "observed_lhs": value,
        "blocks": blocks,
    }


def certify_m_local_bound(expr: BellExpression, samples: int, seed: int) -> float:
    """Sample nonsignaling m-local product models and check LHS <= tolerance.

    Sample i reads row i of D = 1 + m A uniforms of `default_rng(seed)`
    (see the module docstring): a partition into m blocks, unranked from a
    rank uniform over 0..S(n, m)-1 (`_partition`), and per block one product
    of pool vertices, one per atom.  Mixtures are not drawn: the LHS is
    linear in each block, so a mixture's LHS never exceeds that of its best
    component.  A chunk of samples is evaluated with one gather of the T
    entries its terms read (see `_TermReader`).  Returns the maximum
    observed LHS.  The first sample whose LHS is above the tolerance, or
    NaN, raises CertificationError; its report gives the sample's draws and
    LHS as the run's reader read them (fields in the module docstring), and
    its sample_index i is replayed by `default_rng(seed)`,
    `bit_generator.advance(i * D)`, `random(D)`.  So the seed must be an
    integer: a Generator or a float raises TypeError before any draw, and an
    integer such as np.int64 is stored as a Python int, so the report
    replays and serializes.

    Refuses n > CERTIFY_MAX_PARTIES before sampling starts: the reader's
    stack has 1 + sum_s C(n, s) |pool_s| rows of T entries, 19,013 x 475
    (72 MB) at n=12 m=6.
    """
    if expr.n > CERTIFY_MAX_PARTIES:
        raise ParameterDomainError(
            f"the term reader stacks every atom's pool entries, so sampled certification "
            f"supports n <= {CERTIFY_MAX_PARTIES}, got n={expr.n}"
        )
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    seed = operator.index(seed)
    reader = _TermReader(expr)
    worst = -math.inf
    for start, u, values in _sampled_models(reader, samples, seed):
        over = np.flatnonzero(~(values <= CERT_TOL))  # NaN fails too
        if over.size:
            index, value = start + int(over[0]), float(values[over[0]])
            raise CertificationError(
                f"m-local bound violated at sample {index}: LHS = {value!r}",
                _failure_report(reader, u[over[0]], value, seed, index),
            )
        worst = max(float(values.max()), worst)  # max(nan, x) keeps the nan
    return worst
