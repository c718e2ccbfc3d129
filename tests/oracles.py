"""Test oracles: the terms built one by one, dense behavior tables, explicit
deterministic strategies, LP-found nonsignaling vertices, dense quantum
behaviors and reference searches.

`canonical_terms` builds an expression's terms as `Term` objects, one
string at a time, and so stays independent of the numpy table of
`mlocality.inequality.BellExpression`; `serialize_terms` writes them in
both serialization formats from those objects, `tabulate_terms` tabulates
any sequence of them, and `term_probability` evaluates one of them with
the package's amplitude kernel.

The dense layer lives here, not in the package: `ConditionalDistribution`
is a 2^s x 2^s table P(r|M) of a block of s parties (`check_nonsignaling`
tests it), `Partition` and `enumerate_partitions` list the partitions in
the order of `mlocality.lhv._partition`'s ranks, `vertex_product` builds
a block's product of pool vertices, one per atom, as one table,
`block_sample` and `sample_nonsignaling_block` build mixtures of them
(certification draws none: a mixture's LHS never exceeds its best
component's), `product_distribution` multiplies the blocks into
the 2^n x 2^n table of an m-local model, and `distribution_lhs` reads the
LHS off it.  `mlocality.lhv.certify_m_local_bound` builds none of these
tables: it reads only the entries the terms touch, and these tables check
it.  `failure_report_product` rebuilds the model of a certification
failure from its report's draws.

The strategy oracles enumerate the 4^n strategies one by one (or as one
vectorized sweep) and so stay independent of the response-type count in
`mlocality.lhv.max_strategy_lhs`.  Enumeration is guarded at n <= 12.

The vertex oracles find vertices of the nonsignaling polytope of a block
with the package's simplex solver and so stay independent of the stored
pools of `mlocality.lhv.nonsignaling_vertex_pool`: `nonsignaling_constraints`
is the equality system {Ax = b, x >= 0} of the polytope,
`sample_nonsignaling_vertex` maximizes one random objective over it, and
`lp_vertex_pool` is the seeded enumeration whose output the pools store.

The dense oracles build the quantum side from explicit matrices and so stay
independent of the amplitude kernel of `mlocality.quantum`:
`dense_density_oracle` sums trace(rho Pi) over Kronecker-product
projectors (`density_matrix`, `measurement_projectors`, built from
`setting_vector` and `orthogonal_vector`), guarded at n <= 8 by
DENSE_ORACLE_MAX_PARTIES, and `quantum_behavior` gives the full 2^n x 2^n
table P(r|M) of a measured state.

`full_angle_search` frees all 2n angles, against the four symmetric angles
of `mlocality.search.maximize_violation`, to check that ansatz.  It
refines with `compass_search`, a derivative-free pattern search, and so
needs neither the package's Fourier forms nor their gradient.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from mlocality import lhv, quantum, search
from mlocality.inequality import (
    SETTING_A,
    SETTING_B,
    BellExpression,
    DimensionMismatchError,
    ParameterDomainError,
    Term,
    TermTable,
)
from mlocality.lhv import VERTEX_MAX_BLOCK
from mlocality.quantum import MeasurementAngles, NoisyState
from mlocality.search import OptimizerConfig, SymmetricAngles
from mlocality.simplex import solve_lp_max

STRATEGY_MAX_PARTIES = 12
MIXTURE_MAX = 3  # products of pool vertices mixed by sample_nonsignaling_block
DENSE_ORACLE_MAX_PARTIES = 8
NS_TOL = 1e-9
CLAMP_TOL = -1e-12
TWO_PI = 2.0 * math.pi

POOL_SEED = 331190
POOL_DRAWS = {1: None, 2: None, 3: 384}  # None: enumerate until closure
POOL_STALL = 300


def index_to_bits(index: int, width: int) -> tuple[int, ...]:
    """Bits of index, most significant (party 1) first."""
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))


def insert_bit(index: int, pos: int, bit: int, width: int) -> int:
    """Insert `bit` at position pos of a (width-1)-bit index, giving a width-bit index."""
    shift = width - 1 - pos
    high, low = divmod(index, 1 << shift)
    return ((high << 1 | bit) << shift) | low


def canonical_terms(n: int, m: int, k_prime: int) -> tuple[Term, ...]:
    """The terms of the (n, m, k') expression in their serialization order:
    the all-a term, the single-b terms by party, then k' plus each
    (m-1)-subset of the other parties in lexicographic order."""
    all_zero = "0" * n
    terms = [Term(+1, SETTING_A * n, all_zero)]
    for k in range(1, n + 1):
        settings = "".join(SETTING_B if j == k else SETTING_A for j in range(1, n + 1))
        terms.append(Term(-1, settings, all_zero))
    others = [k for k in range(1, n + 1) if k != k_prime]
    for subset in itertools.combinations(others, m - 1):
        b_set = {k_prime, *subset}
        settings = "".join(SETTING_B if j in b_set else SETTING_A for j in range(1, n + 1))
        outcomes = "".join("1" if j in b_set else "0" for j in range(1, n + 1))
        terms.append(Term(-1, settings, outcomes))
    return tuple(terms)


def serialize_terms(n: int, m: int, k_prime: int, terms: Sequence[Term], format: str) -> bytes:
    """The bytes `serialize_expression` writes for these terms, built from the Term objects."""
    if format == "structured":
        rows = [{"coefficient": t.coefficient, "settings": t.settings, "outcomes": t.outcomes} for t in terms]
        doc = {"n": n, "m": m, "k_prime": k_prime, "terms": rows}
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    lines = [f"# Bell-type inequality: n={n}, m={m}, k'={k_prime}", *map(str, terms), "<= 0"]
    return ("\n".join(lines) + "\n").encode()


def tabulate_terms(terms: Sequence[Term]) -> TermTable:
    """The TermTable of a nonempty sequence of terms over the same parties."""
    n = terms[0].n
    settings = np.array([[c == SETTING_B for c in t.settings] for t in terms], dtype=np.int64)
    outcomes = np.array([[int(c) for c in t.outcomes] for t in terms], dtype=np.int64)
    coefficients = np.array([float(t.coefficient) for t in terms])
    return TermTable(settings, coefficients, 2 * (n * settings + np.arange(n)) + outcomes)


def term_probability(state: NoisyState, term: Term, angles: MeasurementAngles) -> float:
    """Probability assigned to one term by the noisy state under the angles."""
    n = state.n
    if term.n != n or angles.n != n:
        raise DimensionMismatchError(
            f"term/angles cover {term.n}/{angles.n} parties, state has {n}"
        )
    pairs = quantum._half_angle_pairs((angles.theta_a, angles.theta_b))
    (amp,) = quantum._term_amplitudes(tabulate_terms((term,)), state.psi, pairs)
    return float(state.p * abs(amp) ** 2 + (1.0 - state.p) / 2**n)


class PartitionMismatchError(ValueError):
    """Block distributions do not line up with the partition's blocks."""


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
    """All S(n, m) set partitions of {1..n} into exactly m nonempty blocks,
    in the order of `lhv._partition`'s ranks."""
    for index in range(lhv._partition_count(n, m)):
        yield Partition(lhv._partition.__wrapped__(n, m, index))


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


@functools.lru_cache(maxsize=None)
def bit_extract_map(positions: tuple[int, ...], width: int) -> np.ndarray:
    """Map each width-bit index to the sub-index read off at `positions`
    (position 0, party 1, the most significant bit)."""
    index = np.arange(1 << width)[:, None]
    bits = (index >> (width - 1 - np.array(positions))) & 1
    return bits @ (1 << np.arange(len(positions) - 1, -1, -1))


def product_table(groups: Sequence[tuple[int, ...]], tables: Sequence[np.ndarray], width: int) -> np.ndarray:
    """The width-party table of a product of tables on the 0-based party groups."""
    dim = 1 << width
    full = np.ones((dim, dim))
    for positions, t in zip(groups, tables):
        sub = bit_extract_map(tuple(positions), width)
        full *= t[np.ix_(sub, sub)]
    return full


def vertex_product(size: int, ids: Sequence[int]) -> ConditionalDistribution:
    """The distribution on parties 1..size of one vertex per atom, by
    position in `lhv.nonsignaling_vertex_pool`."""
    groups = lhv._atoms(range(size))
    tables = [lhv.nonsignaling_vertex_pool(len(g))[v] for g, v in zip(groups, ids)]
    return ConditionalDistribution(tuple(range(1, size + 1)), product_table(groups, tables, size))


def block_sample(size: int, weights: np.ndarray, ids: np.ndarray) -> ConditionalDistribution:
    """The mixture on parties 1..size of the vertex products of the rows of
    (slot, atom) ids, with the given weights."""
    tables = [w * vertex_product(size, row).table for w, row in zip(weights, ids) if w > 0]
    return ConditionalDistribution(tuple(range(1, size + 1)), sum(tables))


def sample_nonsignaling_block(size: int, rng) -> ConditionalDistribution:
    """Random nonsignaling distribution on `size` parties (labeled 1..size).

    Mixes 1 to MIXTURE_MAX products of pool vertices, one vertex per atom,
    with flat Dirichlet weights; nonsignaling is closed under products and
    mixtures.
    """
    if size < 1:
        raise ParameterDomainError(f"block size must be positive, got {size}")
    rng = np.random.default_rng(rng)
    lengths = [len(lhv.nonsignaling_vertex_pool(len(a))) for a in lhv._atoms(range(size))]
    k = int(rng.integers(1, MIXTURE_MAX + 1))
    return block_sample(size, rng.dirichlet(np.ones(k)), rng.integers(0, lengths, (k, len(lengths))))


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
    full = product_table(groups, [d.table for d in blocks], n)
    return ConditionalDistribution(tuple(range(1, n + 1)), full)


def distribution_lhs(expr: BellExpression, dist: ConditionalDistribution) -> float:
    """LHS of the expression on an explicit behavior table."""
    if dist.parties != tuple(range(1, expr.n + 1)):
        raise DimensionMismatchError(
            f"distribution covers parties {dist.parties}, expression needs 1..{expr.n}"
        )
    place = 1 << np.arange(expr.n - 1, -1, -1)
    rows, outcomes = expr.table.settings @ place, (expr.table.slots & 1) @ place
    return float(expr.table.coefficients @ dist.table[rows, outcomes])


def failure_report_product(report: dict) -> tuple[BellExpression, ConditionalDistribution]:
    """The expression and the n-party product table of a certification
    failure report, rebuilt from its blocks' vertex ids and the pools."""
    expr = BellExpression(report["n"], report["m"], report["k_prime"])
    parties = [tuple(b["parties"]) for b in report["blocks"]]
    blocks = [vertex_product(len(p), b["vertices"]).relabel(p) for p, b in zip(parties, report["blocks"])]
    return expr, product_distribution(Partition(tuple(parties)), blocks)


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


@functools.lru_cache(maxsize=None)
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


def lp_vertex_pool(size: int) -> tuple[np.ndarray, ...]:
    """Distinct vertices gathered from random objectives (fixed seed), in the order found.

    For sizes 1 and 2 objectives are drawn until no new vertex appears for
    a stall window, which recovers the complete vertex set (24 boxes at
    size 2: 16 local deterministic + 8 PR variants).  Size 3 uses a fixed
    number of draws; its polytope is far too large to close over.
    """
    rng = np.random.default_rng(np.random.SeedSequence(POOL_SEED + size))
    seen: dict[bytes, np.ndarray] = {}
    draws = POOL_DRAWS[size]
    if draws is None:
        stall = 0
        while stall < POOL_STALL:
            v = sample_nonsignaling_vertex(size, rng)
            key = (np.round(v, 10) + 0.0).tobytes()  # + 0.0 turns -0.0 into 0.0
            if key in seen:
                stall += 1
            else:
                seen[key] = v
                stall = 0
    else:
        for _ in range(draws):
            v = sample_nonsignaling_vertex(size, rng)
            seen.setdefault((np.round(v, 10) + 0.0).tobytes(), v)
    return tuple(seen.values())


def setting_vector(theta: float) -> np.ndarray:
    """Qubit state with Bloch vector (sin theta, 0, cos theta)."""
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)])


def orthogonal_vector(theta: float) -> np.ndarray:
    """The state orthogonal to setting_vector(theta)."""
    return np.array([-math.sin(theta / 2.0), math.cos(theta / 2.0)])


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

    O(4^n) memory, guarded at n > 8.
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


def compass_search(fn, starts, step: float, tol: float, max_rounds: int):
    """Coordinate pattern search maximizing fn from many starts in lockstep (angles wrapped mod 2*pi).

    fn maps a (points, d) array to the (points,) values there; starts has
    shape (restarts, d).  Each round polls +/-step along every coordinate of
    every restart still refining, all in one fn call, and moves each
    restart to its best poll if that improves on it; a restart with no
    improving poll halves its step.  A restart stops when its step drops
    below tol, and all stop after max_rounds rounds.  Returns the end points
    and their values.
    """
    x = np.array(starts, dtype=float) % TWO_PI
    fx = fn(x)
    dims = x.shape[1]
    steps = np.full(len(x), float(step))
    polls = np.arange(2 * dims)
    coord, sign = polls // 2, np.where(polls % 2 == 0, 1.0, -1.0)
    for _ in range(max_rounds):
        live = np.flatnonzero(steps >= tol)
        if not live.size:
            break
        y = np.repeat(x[live, None, :], 2 * dims, axis=1)
        y[:, polls, coord] = (x[live][:, coord] + sign * steps[live, None]) % TWO_PI
        fy = fn(y.reshape(-1, dims)).reshape(len(live), 2 * dims)
        best = fy.argmax(axis=1)
        best_f = fy[np.arange(len(live)), best]
        moved = best_f > fx[live]
        x[live[moved]] = y[moved, best[moved]]
        fx[live[moved]] = best_f[moved]
        steps[live[~moved]] *= 0.5
    return x, fx


def full_angle_search(expr: BellExpression, state: NoisyState, config: OptimizerConfig, seed=7, extra_starts=()):
    """Maximize the LHS over all 2n per-party angles; returns (max LHS, MeasurementAngles).

    The coarse grid covers every point of the product grid over the 2n
    angles (theta_a then theta_b), at most 250,000 points.  Its best
    `config.restarts` points, as many uniform random starts drawn with
    `seed`, and the extra starts (SymmetricAngles or MeasurementAngles) are
    then refined by one lockstep compass search, each round one call of the
    quantum module's kernel on all 2n angles.  The best end point wins, ties
    going to the smaller angle tuple, and the result is never below the best
    grid point.
    """
    if expr.n != state.n:
        raise DimensionMismatchError(f"expression has n={expr.n}, state has n={state.n}")
    n = expr.n
    dims = 2 * n
    resolution = max(2, int(min(config.grid_resolution**4, 250_000) ** (1.0 / dims)))
    points = np.indices((resolution,) * dims).reshape(dims, -1).T * (TWO_PI / resolution)
    values = quantum._lhs_values(expr, state, points.reshape(-1, 2, n))
    rng = np.random.default_rng(seed)
    starts = [points[int(i)] for i in np.argsort(values, kind="stable")[::-1][: config.restarts]]
    starts += [rng.uniform(0.0, TWO_PI, dims) for _ in range(config.restarts)]
    for s in extra_starts:
        angles = s.expand(n) if isinstance(s, SymmetricAngles) else s
        starts.append(angles.theta_a + angles.theta_b)
    ends, end_values = compass_search(
        lambda vecs: quantum._lhs_values(expr, state, vecs.reshape(-1, 2, n)), starts,
        TWO_PI / resolution, config.local_tolerance, config.refinement_rounds,
    )
    best_val, best_vec = -np.inf, None
    for x, fx in zip(ends, end_values.tolist()):
        if fx > best_val or (fx == best_val and tuple(x) < tuple(best_vec)):
            best_val, best_vec = fx, x
    return max(best_val, float(values.max())), MeasurementAngles(tuple(best_vec[:n]), tuple(best_vec[n:]))


def full_grid_totals(expr: BellExpression, state: NoisyState, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's total on the symmetric 4-angle grid, with no cell pruned.

    Takes every cell's S, Z_a and Z_b from `search._grid_forms` in the
    blocks the search uses (their last bits depend on the width of a
    block's matrix product), and runs `search._party1_maxima` on every
    (alpha, beta) cell.  Returns the totals, shape (R*R,), and the party-1
    grid indices of each half, shape (2, R*R), cells in row-major order.
    """
    _, blocks = search._grid_forms(search._symmetric_forms(expr, state), resolution, search._GRID_BLOCK_CELLS)
    _, s, z = zip(*blocks)
    s, z = np.concatenate(s), np.concatenate(z)  # beta rows first
    arg, value = search._party1_maxima(z.transpose(1, 2, 0).reshape(2, -1), resolution)
    return s.T.ravel() + value[0] + value[1], arg


def full_grid_selection(
    expr: BellExpression, state: NoisyState, resolution: int, top_k: int
) -> tuple[float, list[SymmetricAngles]]:
    """The top_k cells of a full stable argsort of `full_grid_totals`, reversed:
    descending total, the higher cell index first among ties.  Returns the
    best total and each cell's SymmetricAngles, as `search._best_candidates` does."""
    total, arg = full_grid_totals(expr, state, resolution)
    order = np.argsort(total, kind="stable")[::-1][:top_k]
    axis = search._grid_axis(resolution)
    alpha_beta = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    candidates = [SymmetricAngles(*axis[arg[:, i]].tolist(), *alpha_beta[i].tolist()) for i in order]
    return float(total[order[0]]), candidates
