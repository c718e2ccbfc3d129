"""Angle optimization and visibility-threshold search.

The search space follows the symmetry of the inequality family: party 1
keeps its own pair of X-Z angles while parties 2..n share one pair, giving
four free angles.  Every term measures party 1 with exactly one of its two
settings, so on a product grid the LHS splits as Sa[x, a, b] + Sb[y, a, b]
with x, y the two party-1 angles, and the maximum over (x, y) is separable.
Each half is a quadratic form in (cos(x/2), sin(x/2)) whose coefficients
come from the term amplitudes with party 1 left open.  Every other party's
vector is linear in the half-angle pair of a or b, so each coefficient is a
trigonometric polynomial in (a, b) of degree at most D_a in a and D_b in b,
the most parties 2..n that one term measures with each setting.  Their
Fourier coefficients come from one kernel call on a (2*D_a+1) x (2*D_b+1)
sample grid, and the forms at all (a, b) grid cells are two small matrix
products per block, O(R*D_b*(D_a + R)) for R points per angle whatever the
number of terms.  Each form is a sinusoid a + r*cos(x - phi) in x whose
grid maximum lies at one of the two grid points bracketing its peak, so no
scan over x is needed, and lies in [a + r*cos(pi/R), a + r], so it is
bounded without locating the peak.

The (a, b) cells are streamed in cache-sized blocks of a rows.  Each block's
bounds are checked against the running top-k-th largest lower bound, and
only the few cells whose upper bound reaches it are kept; the exact party-1
maxima are taken on those at the end, so no array over all R^2 cells is
built and the best cells come out as if every cell had been evaluated.

The best grid cells are then refined by a compass search run on all
restarts in lockstep: each round gathers the +/-step polls of every restart
still refining and evaluates them in one batched call of the quantum
module's kernel, taken in chunks of points that bound its memory, with
the 4 angles placed in the kernel's (points, 2, n) angle array.

For fixed angles the LHS is affine in the visibility p,
LHS(p, theta) = p*Q(theta) + (1-p)*C, and C = (1-n-C(n-1,m-1))/2^n does not
depend on theta.  The angles that maximize Q therefore maximize the LHS at
every p > 0, and the threshold where the optimized LHS changes sign is
p* = C/(C - Q*), with Q* the optimum at p=1: one optimization per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .inequality import BellExpression, DimensionMismatchError, build_hierarchy_inequality
from .quantum import MeasurementAngles, NoisyState, StateVector, mixed_state_lhs
from .quantum import _BATCH_ELEMENTS, _half_angle_pairs, _lhs_values, _term_amplitudes, ghz_state, w_state

VIOLATION_TOL = 1e-9
TWO_PI = 2.0 * math.pi

# Cells per block of the symmetric grid (11 alpha rows at 360 points per
# angle), so a block's six forms and their bounds stay in a core's cache.
# Blocks of 2k-8k cells ran fastest on a 360-point grid, 1k and 32k+ slower.
_GRID_BLOCK_CELLS = 1 << 12
# Rounding allowance of the grid bounds, per unit of the size of a cell's
# forms: a party-1 maximum lies within 2 ulps of that size of its bounds in
# exact arithmetic, and the bounds and totals add a few roundings more.
_BOUND_SLACK = 64 * np.finfo(float).eps


class NoViolationError(RuntimeError):
    """The optimizer found no violation at p=1; the threshold is undefined."""


@dataclass(frozen=True)
class SymmetricAngles:
    """Four-angle parametrization: party 1 separate, parties 2..n shared."""

    theta_a1: float
    theta_b1: float
    theta_a_rest: float
    theta_b_rest: float

    def __post_init__(self) -> None:
        for t in self.as_tuple():
            if not math.isfinite(t):
                raise ValueError("angles must be finite")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.theta_a1, self.theta_b1, self.theta_a_rest, self.theta_b_rest)

    def expand(self, n: int) -> MeasurementAngles:
        return MeasurementAngles(
            (self.theta_a1,) + (self.theta_a_rest,) * (n - 1),
            (self.theta_b1,) + (self.theta_b_rest,) * (n - 1),
        )


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget of maximize_violation.

    The coarse grid has grid_resolution points per angle; its best
    `restarts` cells are refined for at most refinement_rounds compass
    rounds, each restart stopping once its step drops below
    local_tolerance.  The search is deterministic, so there is no seed.
    """

    grid_resolution: int = 24
    refinement_rounds: int = 200
    local_tolerance: float = 1e-5
    restarts: int = 8

    def __post_init__(self) -> None:
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.refinement_rounds < 1 or self.restarts < 1:
            raise ValueError("refinement_rounds and restarts must be positive")
        if not self.local_tolerance > 0:
            raise ValueError("local_tolerance must be positive")


@dataclass(frozen=True)
class ThresholdResult:
    n: int
    m: int
    state_family: str
    p_threshold: float
    best_angles: SymmetricAngles
    max_lhs_at_p1: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


def state_for_family(family: str, n: int) -> StateVector:
    key = family.strip().lower()
    if key == "ghz":
        return ghz_state(n)
    if key == "w":
        return w_state(n)
    raise ValueError(f"unknown state family {family!r}; expected 'ghz' or 'w'")


# ---------------------------------------------------------------------------
# Angle grids


def _grid_axis(resolution: int) -> np.ndarray:
    return np.arange(resolution) * (TWO_PI / resolution)


def _chunks(total: int, width: int):
    """Slices of at most _BATCH_ELEMENTS // width rows covering range(total)."""
    step = max(1, _BATCH_ELEMENTS // max(1, width))
    return (slice(start, start + step) for start in range(0, total, step))


def _party1_maxima(
    q00: np.ndarray, q01: np.ndarray, q11: np.ndarray, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grid maximum over party 1's angle x of u(x)^T Q u(x), Q = [[q00, q01], [q01, q11]].

    features holds the rows (c^2, cs, sc, s^2) of u = (c, s) at the grid
    angles.  The value is (q00+q11)/2 + (q00-q11)/2*cos x + q01*sin x, a
    sinusoid peaking at atan2(2*q01, q00-q11), so its grid maximum lies at
    one of the two grid points bracketing that peak.  Both are evaluated
    with their features rows, and a tie goes to the smaller index, as it
    does in argmax.  Returns the indices and the values there, in the
    shape of the q arrays.
    """
    resolution = len(features)
    twice = q01 + q01
    peak = np.arctan2(twice, q00 - q11) % TWO_PI
    low = np.floor(peak * (resolution / TWO_PI)).astype(np.int64) % resolution
    high = (low + 1) % resolution
    cc, cs, _, ss = features.T
    at_low = q00 * cc[low] + twice * cs[low] + q11 * ss[low]
    at_high = q00 * cc[high] + twice * cs[high] + q11 * ss[high]
    up = (at_high > at_low) | ((at_high == at_low) & (high < low))
    return np.where(up, high, low), np.where(up, at_high, at_low)


def _trig_basis(theta: np.ndarray, degree: int) -> np.ndarray:
    """Rows (1, cos x, sin x, cos 2x, sin 2x, ..., cos Dx, sin Dx) at the angles x, shape (len(x), 2D+1)."""
    multiples = np.multiply.outer(theta, np.arange(1, degree + 1))
    basis = np.ones((len(theta), 2 * degree + 1))
    basis[:, 1::2] = np.cos(multiples)
    basis[:, 2::2] = np.sin(multiples)
    return basis


def _form_degrees(expr: BellExpression) -> tuple[int, int]:
    """Degrees (D_a, D_b) of party 1's forms in alpha and beta: the most parties
    2..n that one term measures with setting a, and with setting b."""
    rest = expr.table.settings[:, 1:]
    return int((rest == 0).sum(axis=1).max()), int((rest == 1).sum(axis=1).max())


def _form_coefficients(expr: BellExpression, state: NoisyState, degrees: tuple[int, int]) -> np.ndarray:
    """Fourier coefficients of party 1's forms in (alpha, beta), shape (3, 2, 2*D_a+1, 2*D_b+1).

    The forms are sampled on the (2*D_a+1) x (2*D_b+1) equispaced grid by
    `_term_amplitudes`, with party 1's (cos, sin) pair set to (1, 0) and to
    (0, 1) under both settings: its amplitudes M_{t,h}, h = 0, 1.  On such a
    grid the sampled trig basis F of degree D has orthogonal columns, F^T F
    = diag(N, N/2, ..., N/2) with N = 2D+1, so F^-1 is a scaled transpose
    and the coefficients are F_a^-1 S F_b^-T with no solve.  Entry [i, half]
    holds q00, q01 or q11 of that half; a degree above the forms' own gives
    zeros in the extra coefficients.
    """
    table = expr.table
    alpha, beta = (_half_angle_pairs(_grid_axis(2 * d + 1)) for d in degrees)
    pairs = np.empty((len(alpha), len(beta), 2, 2, expr.n, 2))  # (alpha, beta, h, setting, party, (c, s))
    pairs[..., 0, :] = np.eye(2)[:, None, :]
    pairs[..., 0, 1:, :] = alpha[:, None, None, None, :]
    pairs[..., 1, 1:, :] = beta[None, :, None, None, :]
    amp = _term_amplitudes(table, state.psi, pairs)
    m0, m1 = amp[..., 0, :], amp[..., 1, :]
    # weights[t, half] = p*c_t when term t measures party 1 with setting half
    weights = state.p * table.coefficients[:, None] * (table.settings[:, :1] == [0, 1])
    samples = np.stack([(m0 * m0.conj()).real, (m0 * m1.conj()).real, (m1 * m1.conj()).real]) @ weights
    sampled_a, sampled_b = (_trig_basis(_grid_axis(2 * d + 1), d) for d in degrees)
    # F^-1 = (F^T F)^-1 F^T, and F^T F is the diagonal of F's squared column norms
    inverse_a, inverse_b = (f / (f * f).sum(axis=0) for f in (sampled_a, sampled_b))
    return inverse_a.T @ np.moveaxis(samples, -1, 1) @ inverse_b


def _grid_forms(expr: BellExpression, state: NoisyState, resolution: int, block_cells: int):
    """Party 1's quadratic form at every (alpha, beta) cell of the grid, in blocks of alpha rows.

    Party 1's vectors are linear in u(x) = (cos(x/2), sin(x/2)), so with
    party 1 opened on basis vector h every term's amplitude is a number
    M_{t,h}, and A_t(x) = u(x).M_t.  The terms measuring party 1 with one
    setting sum to the form Q = p*sum_t c_t Re(M_t M_t^*) of that half of
    the LHS, u(x)^T Q u(x).  Every other party's vector is linear in the
    half-angle pair of alpha or beta, so M_{t,h} is homogeneous of degree
    d_a(t) in u(alpha) and d_b(t) in u(beta), the numbers of parties 2..n
    that t measures with a and with b, and each product M M^* is a
    trigonometric polynomial of degree d_a(t) in alpha and d_b(t) in beta.
    Q's entries are therefore fixed by their Fourier coefficients C up to
    degree (D_a, D_b) = `_form_degrees`, taken once from (2*D_a+1) x
    (2*D_b+1) samples (`_form_coefficients`), and a block of alpha rows is
    (B_a[block] @ C) @ B_b^T with B_a, B_b the trig bases at the grid
    angles: O(R*D_b*(D_a + R)) for the whole grid, whatever the number of
    terms.

    A block holds at most block_cells cells, and at least one alpha row.
    Yields the block's first alpha row and q of shape (3, 2, cells): the
    entries q00, q01 and q11 of each half's form, cells in row-major
    (alpha, beta) order.
    """
    degrees = _form_degrees(expr)
    coefficients = _form_coefficients(expr, state, degrees)
    axis = _grid_axis(resolution)
    basis_a, basis_b = (_trig_basis(axis, d) for d in degrees)
    step = max(1, block_cells // resolution)
    for start in range(0, resolution, step):
        q = basis_a[start : start + step] @ coefficients @ basis_b.T
        yield start, q.reshape(3, 2, -1)


def _best_candidates(
    expr: BellExpression,
    state: NoisyState,
    resolution: int,
    top_k: int,
) -> tuple[float, list[SymmetricAngles]]:
    """Coarse-grid maximum and the top-k grid cells as refinement starts.

    A cell's total is the sum of its two halves' grid maxima over party 1's
    angle x, plus the mixed part.  Each half u(x)^T Q u(x) is the sinusoid
    a + r*cos(x - phi), with a = (q00+q11)/2 and r = |((q00-q11)/2, q01)|,
    and the grid point nearest its peak lies within pi/R of it, so its grid
    maximum lies in [a + r*cos(pi/R), a + r].  Summing these over the halves
    bounds the total from both sides, with no arctan2 and no gather.

    The blocks of `_grid_forms` stream past a floor, the top_k-th largest
    lower bound so far.  A cell whose upper bound is below the floor cannot
    be among the top_k; the floor only rises, so it could not be at the end
    either, and is dropped.  The cells left at the end, the few that can
    reach the top, get their exact party-1 maxima (`_party1_maxima`), so no
    array over all R^2 cells is built.  The bounds carry a rounding
    allowance (_BOUND_SLACK), so the result is bit for bit the one every
    cell evaluated exactly would give.  The top_k cells come in descending
    order of value, the higher (alpha, beta) index first among ties.
    """
    axis = _grid_axis(resolution)
    u = _half_angle_pairs(axis)
    features = (u[:, :, None] * u[:, None, :]).reshape(resolution, 4)
    mixed = mixed_state_lhs(expr.n, expr.m) * (1.0 - state.p)
    shortfall = 1.0 - math.cos(math.pi / resolution)
    # the bounds are on twice a cell's total less the mixed part: the sum of 2a + 2r over the halves
    lows = np.empty(0)  # the top_k largest lower bounds so far
    floor = -np.inf
    kept = []  # per block: flat indices, upper bounds and forms of the cells that can still win
    for start, q in _grid_forms(expr, state, resolution, _GRID_BLOCK_CELLS):
        diff, cross = q[0] - q[2], q[1] + q[1]
        radius = np.sqrt(diff * diff + cross * cross)
        top = (q[0] + q[2] + radius).sum(axis=0)
        # 12*max|q| bounds the sum of |2a| + 2r over the halves
        slack = _BOUND_SLACK * (12.0 * max(q.max(), -q.min()) + 2.0 * abs(mixed))
        keep = np.flatnonzero(top >= floor - slack)
        lower = top[keep] - shortfall * radius[:, keep].sum(axis=0) - slack
        lows = np.concatenate([lows, lower[lower > floor]])
        if len(lows) >= top_k:
            lows = np.partition(lows, len(lows) - top_k)[len(lows) - top_k :]
            floor = lows[0]
        keep = keep[top[keep] >= floor - slack]
        kept.append((start * resolution + keep, top[keep] + slack, q[..., keep]))
    cells, upper, q = (np.concatenate(parts, axis=-1) for parts in zip(*kept))
    live = upper >= floor
    cells = cells[live]
    arg, best = _party1_maxima(*q[..., live], features)
    total = best.sum(axis=0) + mixed
    # a stable argsort reversed; cells are in ascending order, so ties go to the higher index
    order = np.argsort(total, kind="stable")[::-1][:top_k]
    angles = axis[np.vstack([arg[:, order], *np.divmod(cells[order], resolution)])]
    return float(total[order[0]]), [SymmetricAngles(*a) for a in angles.T.tolist()]


def exhaustive_symmetric_max(
    expr: BellExpression, state: NoisyState, resolution: int
) -> tuple[float, SymmetricAngles]:
    """Exact maximum of the LHS over the full 4-angle product grid.

    Brute-force oracle: every grid cell is bounded, and each one whose
    bound can reach the maximum is evaluated exactly (the party-1 maxima
    separate, so no 4-dimensional array is ever materialized).
    """
    value, candidates = _best_candidates(expr, state, resolution, top_k=1)
    return value, candidates[0]


# ---------------------------------------------------------------------------
# Derivative-free refinement


def compass_search(fn, starts, step: float, tol: float, max_rounds: int):
    """Coordinate pattern search maximizing fn from many starts in lockstep (angles wrapped mod 2*pi).

    fn maps a (points, d) array to the (points,) values there; starts has
    shape (restarts, d).  Each round polls +/-step along every coordinate of
    every restart still refining, all in one fn call, and moves each
    restart to its best poll if that improves on it (the first best poll,
    coordinate by coordinate and + before -, wins a tie); a restart with no
    improving poll halves its step.  A restart stops when its step drops
    below tol, and all stop after max_rounds rounds: every restart still
    refining has taken part in every round, so that is its own round count
    too.  Returns the end points and their values.
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
        # only the polled coordinate is moved and wrapped, the others are copied
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


def _lhs_batch(expr: BellExpression, state: NoisyState, theta: np.ndarray) -> np.ndarray:
    """LHS at a (points, 2, n) angle array, in chunks of points that keep the gathered factors small."""
    width = expr.table.slots.size * len(state.psi.support[1])
    parts = _chunks(len(theta), width)
    return np.concatenate([_lhs_values(expr, state, theta[part]) for part in parts])


def maximize_violation(
    expr: BellExpression,
    state: NoisyState,
    config: OptimizerConfig | None = None,
) -> tuple[float, SymmetricAngles]:
    """Maximize the LHS over the four symmetric measurement angles.

    Deterministic given the configuration.  Coarse grid first, then one
    lockstep compass search refining the best `restarts` grid cells
    together.  `layout` places the 4 angles of a search point in the
    kernel's (2, n) angle array, so every round of polls is one batched
    evaluation.  The best end point wins, ties going to the smaller angle
    tuple, and refinement never returns less than the best coarse-grid
    point.
    """
    config = config or OptimizerConfig()
    if expr.n != state.n:
        raise DimensionMismatchError(f"expression has n={expr.n}, state has n={state.n}")
    n = expr.n
    grid_best, candidates = _best_candidates(expr, state, config.grid_resolution, config.restarts)
    # (theta_a1, theta_b1, theta_a_rest, theta_b_rest) -> rows theta_a, theta_b
    layout = np.array([[0] + [2] * (n - 1), [1] + [3] * (n - 1)])
    ends, values = compass_search(
        lambda vecs: _lhs_batch(expr, state, vecs[:, layout]), [c.as_tuple() for c in candidates],
        TWO_PI / config.grid_resolution, config.local_tolerance, config.refinement_rounds,
    )
    best_val, best_vec = -np.inf, None
    for x, fx in zip(ends, values.tolist()):
        if fx > best_val or (fx == best_val and tuple(x) < tuple(best_vec)):
            best_val, best_vec = fx, x
    return max(best_val, grid_best), SymmetricAngles(*best_vec.tolist())


# ---------------------------------------------------------------------------
# Threshold search


def find_threshold(
    n: int,
    m: int,
    state_family: str,
    config: OptimizerConfig | None = None,
) -> ThresholdResult:
    """Smallest violating visibility p_{m-1}, in closed form.

    For fixed angles LHS(p) = p*Q + (1-p)*C with C = mixed_state_lhs(n, m)
    the same for all angles, so for p > 0 the maximum over angles is
    p*Q* + (1-p)*C with Q* the optimum at p=1: the argmax does not move with
    p.  That line crosses 0 exactly at p* = C/(C - Q*), which lies in (0, 1)
    since C < 0 < Q*.  A Q* short of the true optimum gives a p* above the
    true threshold.  Raises NoViolationError when even p=1 shows no
    violation.
    """
    family = state_family.strip().lower()
    expr = build_hierarchy_inequality(n, m, 1)
    psi = state_for_family(family, n)

    value_p1, angles_p1 = maximize_violation(expr, NoisyState(psi, 1.0), config)
    if value_p1 <= VIOLATION_TOL:
        raise NoViolationError(
            f"no violation at p=1 for (n={n}, m={m}, family={family}); threshold undefined"
        )
    mixed = mixed_state_lhs(n, m)
    return ThresholdResult(
        n=n,
        m=m,
        state_family=family,
        p_threshold=mixed / (mixed - value_p1),
        best_angles=angles_p1,
        max_lhs_at_p1=value_p1,
    )


def reproduce_table(
    state_family: str,
    n_list: Sequence[int],
    config: OptimizerConfig | None = None,
) -> list[ThresholdResult]:
    """Thresholds p_i for every requested n, i = m-1 running over 1..n-1."""
    return [find_threshold(n, m, state_family, config) for n in n_list for m in range(2, n + 1)]

