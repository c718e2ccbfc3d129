"""Angle optimization and visibility-threshold search.

The search space follows the symmetry of the inequality family: party 1
keeps its own pair of X-Z angles while parties 2..n share one pair, giving
four free angles.  Every term measures party 1 with exactly one of its two
settings, so on a product grid the LHS splits as Sa[x, a, b] + Sb[y, a, b]
with x, y the two party-1 angles; the maximum over (x, y) is separable,
which keeps even very fine exhaustive grids affordable.

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

from .inequality import (
    SETTING_A,
    SETTING_B,
    BellExpression,
    DimensionMismatchError,
    build_hierarchy_inequality,
)
from .quantum import MeasurementAngles, NoisyState, StateVector, evaluate_lhs, mixed_state_lhs
from .quantum import ghz_state, w_state

VIOLATION_TOL = 1e-9
TWO_PI = 2.0 * math.pi

_AX_P1, _AX_A, _AX_B = 30, 31, 32  # einsum grid-axis labels, clear of party axes


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

    rng_seed seeds only the random restarts of the non-symmetric search;
    the symmetric search behind find_threshold and the threshold and table
    commands never reads it, so those commands only record the seed.
    """

    grid_resolution: int = 24
    refinement_rounds: int = 200
    local_tolerance: float = 1e-5
    restarts: int = 8
    rng_seed: int = 7

    def __post_init__(self) -> None:
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.refinement_rounds < 1 or self.restarts < 1 or self.rng_seed < 1:
            raise ValueError("refinement_rounds, restarts and rng_seed must be positive")
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
# Vectorized evaluation on symmetric-angle grids


def _component_matrix(thetas: np.ndarray, outcome: str) -> np.ndarray:
    half = np.asarray(thetas, dtype=float) / 2.0
    if outcome == "0":
        return np.stack([np.cos(half), np.sin(half)])
    return np.stack([-np.sin(half), np.cos(half)])


def _state_tensor(state: NoisyState) -> np.ndarray:
    psi = state.psi.amplitudes
    if np.abs(psi.imag).max() < 1e-15:
        psi = psi.real
    return psi.reshape((2,) * state.n)


def _half_grid_table(
    expr: BellExpression,
    state: NoisyState,
    party1_setting: str,
    p1_grid: np.ndarray,
    rest_a: np.ndarray,
    rest_b: np.ndarray,
) -> np.ndarray:
    """Sum of signed term probabilities for terms with the given party-1 setting.

    Returns an array over (party-1 angle, shared a angle, shared b angle).
    The full LHS on the product grid is the broadcast sum of the two halves.
    """
    n = expr.n
    psi_t = _state_tensor(state)
    mixed = (1.0 - state.p) / 2**n
    p1_grid = np.asarray(p1_grid, dtype=float)
    rest_a = np.asarray(rest_a, dtype=float)
    rest_b = np.asarray(rest_b, dtype=float)
    acc = np.zeros((p1_grid.size, rest_a.size, rest_b.size))
    for term in expr.terms:
        if term.settings[0] != party1_setting:
            continue
        operands: list = [psi_t, list(range(n))]
        used = {_AX_P1}
        operands += [_component_matrix(p1_grid, term.outcomes[0]), [0, _AX_P1]]
        for k in range(1, n):
            if term.settings[k] == SETTING_A:
                axis, grid = _AX_A, rest_a
            else:
                axis, grid = _AX_B, rest_b
            operands += [_component_matrix(grid, term.outcomes[k]), [k, axis]]
            used.add(axis)
        out_axes = [ax for ax in (_AX_P1, _AX_A, _AX_B) if ax in used]
        amp = np.einsum(*operands, out_axes, optimize=True)
        prob = state.p * np.abs(amp) ** 2 + mixed
        if _AX_A not in used:
            prob = np.expand_dims(prob, 1)
        if _AX_B not in used:
            prob = np.expand_dims(prob, 2)
        acc += term.coefficient * prob
    return acc


def _grid_axis(resolution: int) -> np.ndarray:
    return np.arange(resolution) * (TWO_PI / resolution)


def _best_candidates(
    expr: BellExpression,
    state: NoisyState,
    resolution: int,
    top_k: int,
    p1_chunk: int | None = None,
) -> tuple[float, list[SymmetricAngles]]:
    """Coarse-grid maximum and the top-k grid cells as refinement starts."""
    axis = _grid_axis(resolution)
    if p1_chunk is None:
        p1_chunk = max(1, 6_000_000 // max(1, resolution * resolution))
    maxima = {}
    argmax = {}
    for which in (SETTING_A, SETTING_B):
        best = np.full((resolution, resolution), -np.inf)
        arg = np.zeros((resolution, resolution), dtype=np.int64)
        for start in range(0, resolution, p1_chunk):
            part = _half_grid_table(expr, state, which, axis[start : start + p1_chunk], axis, axis)
            local_max = part.max(axis=0)
            local_arg = part.argmax(axis=0) + start
            update = local_max > best
            best[update] = local_max[update]
            arg[update] = local_arg[update]
        maxima[which] = best
        argmax[which] = arg
    total = maxima[SETTING_A] + maxima[SETTING_B]
    order = np.argsort(total.ravel(), kind="stable")[::-1][:top_k]
    candidates = []
    for flat in order:
        ia, ib = np.unravel_index(int(flat), total.shape)
        candidates.append(
            SymmetricAngles(
                float(axis[argmax[SETTING_A][ia, ib]]),
                float(axis[argmax[SETTING_B][ia, ib]]),
                float(axis[ia]),
                float(axis[ib]),
            )
        )
    return float(total.max()), candidates


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


def _full_grid_points(resolution: int, dims: int) -> np.ndarray:
    grid = np.indices((resolution,) * dims).reshape(dims, -1).T
    return grid * (TWO_PI / resolution)


def _batch_lhs(
    expr: BellExpression, state: NoisyState, theta_a: np.ndarray, theta_b: np.ndarray
) -> np.ndarray:
    """LHS at a batch of full angle assignments; rows are grid points."""
    n = expr.n
    psi_t = _state_tensor(state)
    comps = []
    for k in range(n):
        per_setting = {}
        for setting, column in ((SETTING_A, theta_a[:, k]), (SETTING_B, theta_b[:, k])):
            per_setting[setting] = {o: _component_matrix(column, o) for o in ("0", "1")}
        comps.append(per_setting)
    total = np.zeros(theta_a.shape[0])
    for term in expr.terms:
        amp = np.tensordot(psi_t, comps[0][term.settings[0]][term.outcomes[0]], axes=([0], [0]))
        for k in range(1, n):
            w = comps[k][term.settings[k]][term.outcomes[k]]
            amp = np.einsum("i...p,ip->...p", amp, w)
        total += term.coefficient * state.p * np.abs(amp) ** 2
    total += expr.coefficient_sum() * (1.0 - state.p) / 2**n
    return total


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
        starts = [np.array(c.as_tuple()) for c in candidates]
        starts += [np.array(s.as_tuple()) for s in extra_starts]

        def objective(vec: np.ndarray) -> float:
            return evaluate_lhs(expr, state, SymmetricAngles(*vec).expand(n))

        step0 = TWO_PI / config.grid_resolution
        best_val, best_vec = -np.inf, None
        for s in starts:
            x, fx = compass_search(objective, s, step0, config.local_tolerance, config.refinement_rounds)
            key = tuple(x)
            if fx > best_val or (fx == best_val and key < tuple(best_vec)):
                best_val, best_vec = fx, x
        return max(best_val, grid_best), SymmetricAngles(*best_vec)

    dims = 2 * n
    budget = min(config.grid_resolution**4, 250_000)
    resolution = max(2, int(budget ** (1.0 / dims)))
    points = _full_grid_points(resolution, dims)
    values = _batch_lhs(expr, state, points[:, :n], points[:, n:])
    order = np.argsort(values, kind="stable")[::-1][: config.restarts]
    rng = np.random.default_rng(config.rng_seed)
    starts = [points[int(i)] for i in order]
    starts += [rng.uniform(0.0, TWO_PI, dims) for _ in range(config.restarts)]
    for s in extra_starts:
        angles = s.expand(n) if isinstance(s, SymmetricAngles) else s
        starts.append(np.array(angles.theta_a + angles.theta_b))

    def objective_full(vec: np.ndarray) -> float:
        return evaluate_lhs(expr, state, MeasurementAngles(tuple(vec[:n]), tuple(vec[n:])))

    grid_best = float(values.max())
    step0 = TWO_PI / resolution
    best_val, best_vec = -np.inf, None
    for s in starts:
        x, fx = compass_search(objective_full, s, step0, config.local_tolerance, config.refinement_rounds)
        key = tuple(x)
        if fx > best_val or (fx == best_val and key < tuple(best_vec)):
            best_val, best_vec = fx, x
    return max(best_val, grid_best), MeasurementAngles(tuple(best_vec[:n]), tuple(best_vec[n:]))


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
