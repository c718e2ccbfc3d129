"""Angle optimization and visibility-threshold search.

The search space follows the symmetry of the inequality family: party 1
keeps its own pair of X-Z angles while parties 2..n share one pair, giving
four free angles.  Every term measures party 1 with exactly one of its two
settings, so on a product grid the LHS splits as Sa[x, a, b] + Sb[y, a, b]
with x, y the two party-1 angles, and the maximum over (x, y) is separable.
Each half is a quadratic form in (cos(x/2), sin(x/2)) whose coefficients
come from the term amplitudes with party 1 left open, so the grid costs one
kernel call per chunk of (a, b) points plus one small matrix product over
all x.  The coarse grid of the non-symmetric search and every refinement
step evaluate the LHS through the same kernel in the quantum module.

For fixed angles the LHS is affine in the visibility p,
LHS(p, theta) = p*Q(theta) + (1-p)*C, and C = (1-n-C(n-1,m-1))/2^n does not
depend on theta.  The angles that maximize Q therefore maximize the LHS at
every p > 0, and the threshold where the optimized LHS changes sign is
p* = C/(C - Q*), with Q* the optimum at p=1: one optimization per cell.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .inequality import BellExpression, DimensionMismatchError, build_hierarchy_inequality
from .quantum import MeasurementAngles, NoisyState, StateVector, evaluate_lhs, mixed_state_lhs
from .quantum import _BATCH_ELEMENTS, _half_angle_pairs, _lhs_values, _term_amplitudes, ghz_state, w_state

VIOLATION_TOL = 1e-9
TWO_PI = 2.0 * math.pi


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

    rng_seed (any nonnegative integer, as numpy takes) seeds only the
    random restarts of the non-symmetric search; the symmetric search
    behind find_threshold and the threshold and table commands never reads
    it, so those commands only record the seed.
    """

    grid_resolution: int = 24
    refinement_rounds: int = 200
    local_tolerance: float = 1e-5
    restarts: int = 8
    rng_seed: int = 7

    def __post_init__(self) -> None:
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.refinement_rounds < 1 or self.restarts < 1:
            raise ValueError("refinement_rounds and restarts must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")
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


def _best_candidates(
    expr: BellExpression,
    state: NoisyState,
    resolution: int,
    top_k: int,
) -> tuple[float, list[SymmetricAngles]]:
    """Coarse-grid maximum and the top-k grid cells as refinement starts.

    For each point (alpha, beta) of the shared angles the kernel runs with
    party 1's (cos, sin) pair set to (1, 0) and to (0, 1), which gives every
    term's amplitude with party 1 left open: A_t(x) = u(x).M_t with
    u(x) = (cos(x/2), sin(x/2)), since party 1's vectors are linear in u.
    The terms measuring party 1 with one setting then sum to the quadratic
    form u(x)^T Q u(x), Q = p*sum_t c_t Re(M_t M_t^*), so the LHS half of
    each party-1 setting over all x is one product of the (x, 4) table of
    u(x) u(x)^T with the 4 entries of Q.
    """
    n = expr.n
    table = expr.table
    axis = _grid_axis(resolution)
    u = _half_angle_pairs(axis)
    features = (u[:, :, None] * u[:, None, :]).reshape(resolution, 4)
    # weights[t, h] = p*c_t when term t measures party 1 with setting h
    weights = state.p * table.coefficients[:, None] * (table.settings[:, :1] == [0, 1])
    alpha_beta = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    rest = _half_angle_pairs(alpha_beta)  # (point, setting, pair)
    best = np.empty((len(rest), 2))
    arg = np.empty((len(rest), 2), dtype=np.int64)
    width = max(2 * resolution, 2 * table.slots.size * len(state.psi.support[1]))
    for part in _chunks(len(rest), width):
        # batch axes: (alpha, beta) point, then the basis vector party 1 gets
        pairs = np.empty((len(rest[part]), 2, 2, n, 2))
        pairs[..., 1:, :] = rest[part][:, None, :, None, :]
        pairs[..., 0, :] = np.eye(2)[:, None, :]
        amp = _term_amplitudes(table, state.psi, pairs).swapaxes(1, 2)  # (point, term, 2)
        outer = (amp[..., :, None] * amp[..., None, :].conj()).real
        forms = weights.T @ outer.reshape(outer.shape[:2] + (4,))  # (point, half, 4)
        values = forms @ features.T  # (point, half, x)
        arg[part] = values.argmax(axis=-1)
        best[part] = np.take_along_axis(values, arg[part][..., None], axis=-1)[..., 0]
    total = best.sum(axis=1) + expr.coefficient_sum() * (1.0 - state.p) / 2**n
    order = np.argsort(total, kind="stable")[::-1][:top_k]
    candidates = [SymmetricAngles(*axis[arg[i]].tolist(), *alpha_beta[i].tolist()) for i in order]
    return float(total[order[0]]), candidates


def exhaustive_symmetric_max(
    expr: BellExpression, state: NoisyState, resolution: int
) -> tuple[float, SymmetricAngles]:
    """Exact maximum of the LHS over the full 4-angle product grid.

    Brute-force oracle: every grid point is covered (the party-1 maxima
    separate, so no 4-dimensional array is ever materialized).
    """
    value, candidates = _best_candidates(expr, state, resolution, top_k=1)
    return value, candidates[0]


# ---------------------------------------------------------------------------
# Derivative-free refinement


def compass_search(fn, start: Sequence[float], step: float, tol: float, max_rounds: int):
    """Coordinate pattern search maximizing fn over angles (wrapped mod 2*pi).

    Each round polls +/-step along every coordinate and moves to the best
    improving point; a round with no improvement halves the step.  Stops
    when the step drops below tol or the round budget is exhausted.
    """
    x = np.asarray(start, dtype=float) % TWO_PI
    fx = fn(x)
    rounds = 0
    while step >= tol and rounds < max_rounds:
        rounds += 1
        best_f, best_x = fx, None
        for d in range(x.size):
            for sign in (1.0, -1.0):
                y = x.copy()
                y[d] = (y[d] + sign * step) % TWO_PI
                fy = fn(y)
                if fy > best_f:
                    best_f, best_x = fy, y
        if best_x is None:
            step *= 0.5
        else:
            x, fx = best_x, best_f
    return x, fx


def _full_grid(
    expr: BellExpression, state: NoisyState, resolution: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every point of the product grid over all 2n angles, theta_a then theta_b, and the LHS there."""
    dims = 2 * expr.n
    points = np.indices((resolution,) * dims).reshape(dims, -1).T * (TWO_PI / resolution)
    theta = points.reshape(-1, 2, expr.n)
    width = expr.table.slots.size * len(state.psi.support[1])
    parts = _chunks(len(points), width)
    return points, np.concatenate([_lhs_values(expr, state, theta[part]) for part in parts])


def maximize_violation(
    expr: BellExpression,
    state: NoisyState,
    config: OptimizerConfig | None = None,
    symmetric: bool = True,
    extra_starts: Iterable = (),
):
    """Maximize the LHS over measurement angles.

    Returns (max LHS, angles); angles are SymmetricAngles when symmetric,
    otherwise MeasurementAngles over all 2n per-party angles.  Deterministic
    given the configuration.  Coarse grid first, then compass refinement
    from the best `restarts` grid cells (plus any extra starts); refinement
    never returns less than the best coarse-grid point.
    """
    config = config or OptimizerConfig()
    if expr.n != state.n:
        raise DimensionMismatchError(f"expression has n={expr.n}, state has n={state.n}")
    n = expr.n

    if symmetric:
        grid_best, candidates = _best_candidates(
            expr, state, config.grid_resolution, config.restarts
        )
        starts = [c.as_tuple() for c in candidates] + [s.as_tuple() for s in extra_starts]
        step0 = TWO_PI / config.grid_resolution

        def to_angles(vec: np.ndarray):
            return SymmetricAngles(*vec)

        def objective(vec: np.ndarray) -> float:
            return evaluate_lhs(expr, state, to_angles(vec).expand(n))

    else:
        dims = 2 * n
        budget = min(config.grid_resolution**4, 250_000)
        resolution = max(2, int(budget ** (1.0 / dims)))
        points, values = _full_grid(expr, state, resolution)
        grid_best = float(values.max())
        order = np.argsort(values, kind="stable")[::-1][: config.restarts]
        rng = np.random.default_rng(config.rng_seed)
        starts = [points[int(i)] for i in order]
        starts += [rng.uniform(0.0, TWO_PI, dims) for _ in range(config.restarts)]
        for s in extra_starts:
            angles = s.expand(n) if isinstance(s, SymmetricAngles) else s
            starts.append(angles.theta_a + angles.theta_b)
        step0 = TWO_PI / resolution

        def to_angles(vec: np.ndarray):
            return MeasurementAngles(tuple(vec[:n]), tuple(vec[n:]))

        def objective(vec: np.ndarray) -> float:
            return evaluate_lhs(expr, state, to_angles(vec))

    best_val, best_vec = -np.inf, None
    for s in starts:
        x, fx = compass_search(objective, s, step0, config.local_tolerance, config.refinement_rounds)
        if fx > best_val or (fx == best_val and tuple(x) < tuple(best_vec)):
            best_val, best_vec = fx, x
    return max(best_val, grid_best), to_angles(best_vec)


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
    config = config or OptimizerConfig()
    family = state_family.strip().lower()
    expr = build_hierarchy_inequality(n, m, 1)
    psi = state_for_family(family, n)

    value_p1, angles_p1 = maximize_violation(expr, NoisyState(psi, 1.0), config, symmetric=True)
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


def _threshold_cell(args) -> ThresholdResult:
    return find_threshold(*args)


def reproduce_table(
    state_family: str,
    n_list: Sequence[int],
    config: OptimizerConfig | None = None,
    workers: int = 1,
) -> list[ThresholdResult]:
    """Thresholds p_i for every requested n, i = m-1 running over 1..n-1.

    Cells are independent; with workers > 1 they are distributed over a
    process pool and reduced in fixed cell order, so the output does not
    depend on the worker count.
    """
    cells = [(n, m, state_family, config) for n in n_list for m in range(2, n + 1)]
    if workers <= 1:
        return [_threshold_cell(c) for c in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_threshold_cell, cells))


def thresholds_to_csv(results: Sequence[ThresholdResult], seed: int) -> str:
    """CSV rendering with one row per threshold cell."""
    lines = ["family,n,i,m,p_i,max_lhs_at_p1,theta_a1,theta_b1,theta_a,theta_b,seed"]
    for r in results:
        ang = r.best_angles
        lines.append(
            f"{r.state_family},{r.n},{r.m - 1},{r.m},{r.p_threshold:.6f},"
            f"{r.max_lhs_at_p1:.12g},{ang.theta_a1:.12g},{ang.theta_b1:.12g},"
            f"{ang.theta_a_rest:.12g},{ang.theta_b_rest:.12g},{seed}"
        )
    return "\n".join(lines) + "\n"
