"""Angle optimization and visibility-threshold search.

The search space follows the symmetry of the inequality family: party 1
keeps its own pair of X-Z angles while parties 2..n share one pair, giving
four free angles.  Every term measures party 1 with exactly one of its two
settings, so on a product grid the LHS splits as Sa[x, a, b] + Sb[y, a, b]
with x, y the two party-1 angles, and the maximum over (x, y) is separable.
Each half is a quadratic form in (cos(x/2), sin(x/2)), a mean plus a
sinusoid a_h + Re(Z_h*e^(-ix)), so a cell is three numbers: the sum S of
the means and the complex amplitudes Z_a and Z_b.  Every other party's
vector is linear in the half-angle pair of a or b, so each is a
trigonometric polynomial in (a, b) of degree at most D_a in a and D_b in b,
the most parties 2..n that one term measures with each setting.  Their
Fourier coefficients come from one kernel call on a (2*D_a+1) x (2*D_b+1)
sample grid; with the a side contracted once, each block of b rows is one
real matrix product, O(R*D_b*(D_a + R)) for R points per angle whatever
the number of terms.  A sinusoid's grid maximum lies at one of the two grid
points bracketing its peak angle(Z), and in [|Z|*cos(pi/R), |Z|], so it is
bounded without locating the peak.

The (a, b) cells are streamed in cache-sized blocks of b rows.  Over x a
half peaks at a_h + |Z_h|, so with party 1 at its best angles the LHS is
Q(alpha, beta) = S + |Z_a| + |Z_b|.  The search keeps one Q per cell and
refines the best cells by Q with BFGS ascent over (alpha, beta) alone, all
restarts in lockstep; party 1's angles are angle(Z_a) and angle(Z_b) at the
end points.  Q and its analytic gradient come from one small matrix product
per line-search trial, so after the sampling no term amplitude is computed
again.  Each restart keeps a 2 x 2 inverse-Hessian estimate and stops on its
own once the rise it predicts is within the forms' rounding, once its line
search finds no rise, or once its step is below the tolerance; the search
reports whether every restart stopped so before the iteration budget ran out.

The exhaustive oracle keeps party 1 on the grid as well.  It checks each
block's bounds against the largest lower bound so far and keeps the few
cells that can reach it, so no array over all R^2 cells is built and the
maximum comes out as if every cell had been evaluated.

For fixed angles the LHS is affine in the visibility p,
LHS(p, theta) = p*Q(theta) + (1-p)*C, and C = (1-n-C(n-1,m-1))/2^n does not
depend on theta.  The angles that maximize Q therefore maximize the LHS at
every p > 0, and the threshold where the optimized LHS changes sign is
p* = C/(C - Q*), with Q* the optimum at p=1: one optimization per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .inequality import BellExpression, DimensionMismatchError, build_hierarchy_inequality
from .quantum import MeasurementAngles, NoisyState, StateVector, mixed_state_lhs
from .quantum import _half_angle_pairs, _term_amplitudes, ghz_state, w_state

VIOLATION_TOL = 1e-9
TWO_PI = 2.0 * math.pi

# Cells per block of the symmetric grid (11 beta rows, 3,960 cells, at 360
# points per angle), so a block's five numbers per cell and bounds stay in a
# core's cache; blocks of 8k-32k cells ran slower on a 360-point grid.
_GRID_BLOCK_CELLS = 1 << 12
# Rounding allowance of the grid bounds, per unit of the grid's sum of
# absolute Fourier coefficients, which bounds |S| + |Z_a| + |Z_b|.  A cell's
# bounds and exact total come from the same computed (S, Z_a, Z_b), so it
# covers only: |Z| and the sums of each bound and of the total (1 ulp each),
# the cos/sin table and products of a party-1 value (3 ulps), and the grid
# angles' and angle(Z)'s errors (~16 ulps of radians): 32 ulps, doubled.
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

    The coarse grid has grid_resolution points per angle in (alpha, beta);
    its best `restarts` cells by Q = S + |Z_a| + |Z_b| are refined by BFGS
    ascent for at most _REFINEMENT_ROUNDS iterations, each step at most one
    grid spacing long, and a restart stops once a step, in radians, is
    shorter than _LOCAL_TOLERANCE.  A restart that reaches the iteration
    budget has not converged.  The search is deterministic, so there is no
    seed.  Each field's help is the help of its CLI flag.
    """

    grid_resolution: int = field(default=24, metadata={"help": "coarse grid points per angle"})
    restarts: int = field(default=8, metadata={"help": "best grid cells refined"})

    def __post_init__(self) -> None:
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True)
class ThresholdResult:
    n: int
    m: int
    state_family: str
    p_threshold: float
    best_angles: SymmetricAngles
    max_lhs_at_p1: float
    converged: bool

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


def _party1_maxima(z: np.ndarray, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid maximum over party 1's angle x of Re(z*e^(-ix)), a half's form less its mean.

    u(x)^T Q u(x) with u = (cos(x/2), sin(x/2)) is (q00+q11)/2 + Re(Z*e^(-ix)),
    Z = (q00-q11)/2 + i*q01.  The sinusoid Re(z)*cos x + Im(z)*sin x peaks
    at angle(z), so its grid maximum lies at one of the two grid points
    bracketing that peak.  Both are evaluated, and a tie goes to the smaller
    index, as it does in argmax.  Returns the indices and the values there,
    in the shape of z.
    """
    axis = _grid_axis(resolution)
    cos, sin = np.cos(axis), np.sin(axis)
    low = np.floor(np.angle(z) % TWO_PI * (resolution / TWO_PI)).astype(np.int64) % resolution
    high = (low + 1) % resolution
    at_low = z.real * cos[low] + z.imag * sin[low]
    at_high = z.real * cos[high] + z.imag * sin[high]
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


def _symmetric_forms(expr: BellExpression, state: NoisyState) -> np.ndarray:
    """Fourier coefficients of S, Re Z_a, Im Z_a, Re Z_b and Im Z_b, shape (5, 2*D_a+1, 2*D_b+1).

    The terms measuring party 1 with one setting sum to the form Q of that
    half of the LHS, u(x)^T Q u(x) = a + Re(Z*e^(-ix)) with u(x) =
    (cos(x/2), sin(x/2)), a = (q00+q11)/2 and Z = (q00-q11)/2 + i*q01.  Each
    entry of Q is a trigonometric polynomial of degree at most (D_a, D_b) =
    `_form_degrees` in (alpha, beta), and so are S = a_a + a_b + the mixed
    part, Re Z_h and Im Z_h: their coefficients are linear combinations of
    `_form_coefficients`, the mixed part going into S's constant one.
    """
    q00, q01, q11 = _form_coefficients(expr, state, _form_degrees(expr))
    half = (q00 - q11) / 2
    coefficients = np.stack([(q00 + q11).sum(axis=0) / 2, half[0], q01[0], half[1], q01[1]])
    coefficients[0, 0, 0] += mixed_state_lhs(expr.n, expr.m) * (1.0 - state.p)
    return coefficients


def _grid_forms(coefficients: np.ndarray, resolution: int):
    """Every (alpha, beta) cell's S, Z_a and Z_b on the grid, in blocks of beta rows.

    coefficients are `_symmetric_forms`, C of degree (D_a, D_b).  As D_b <=
    D_a (the all-a term has D_a = n-1), the alpha side is contracted once,
    W = (B_a @ C)^T of shape (N_b, 5R) with B_a, B_b the trig bases at the
    grid angles, and a block of beta rows is one product B_b[block] @ W:
    O(R*D_b*(D_a + R)) for the whole grid, whatever the number of terms.

    Returns the rounding allowance, _BOUND_SLACK times the sum of absolute
    coefficients (basis entries are at most 1 in magnitude), and the blocks,
    of at most _GRID_BLOCK_CELLS cells and at least one beta row: the first
    beta row, S of shape (rows, R) and (Z_a, Z_b) of shape (rows, 2, R),
    alpha last.
    """
    basis_a, basis_b = (_trig_basis(_grid_axis(resolution), size // 2) for size in coefficients.shape[1:])
    wide = np.moveaxis(basis_a @ coefficients, -1, 0)  # beta x (S, Re Z_a, Im Z_a, Re Z_b, Im Z_b) x alpha
    # C-order columns (twice as fast as a transpose): S at each alpha, then Z_a and Z_b as (re, im) pairs
    amplitudes = wide[:, 1:].reshape(len(wide), 2, 2, resolution).swapaxes(2, 3)
    columns = np.concatenate([wide[:, 0], amplitudes.reshape(len(wide), -1)], axis=1)
    step = max(1, _GRID_BLOCK_CELLS // resolution)

    def blocks():
        for start in range(0, resolution, step):
            out = basis_b[start : start + step] @ columns
            z = out[:, resolution:].view(complex).reshape(len(out), 2, resolution)
            yield start, out[:, :resolution], z

    return _BOUND_SLACK * np.abs(coefficients).sum(), blocks()


def exhaustive_symmetric_max(
    expr: BellExpression, state: NoisyState, resolution: int
) -> tuple[float, SymmetricAngles]:
    """Exact maximum of the LHS over the full 4-angle product grid, and its angles.

    Brute-force oracle.  A cell's total is S plus the grid maxima over x of
    Re(Z_a*e^(-ix)) and Re(Z_b*e^(-ix)); the grid point nearest a peak lies
    within pi/R of it, so the total lies in [S + (|Z_a|+|Z_b|)*cos(pi/R),
    S + |Z_a| + |Z_b|].  The blocks of `_grid_forms` stream past a floor, the
    largest lower bound so far, which only rises: a cell whose upper bound is
    below it cannot win and is dropped.  The few cells left get their exact
    party-1 maxima (`_party1_maxima`) from the same S and Z, and the bounds
    carry the grid's rounding allowance, so the result is bit for bit the one
    every cell evaluated exactly gives, the higher cell index winning a tie.
    """
    shortfall = 1.0 - math.cos(math.pi / resolution)
    slack, blocks = _grid_forms(_symmetric_forms(expr, state), resolution)
    floor, kept = -np.inf, []  # kept: per block, the indices, tops, S and Z of the cells that can win
    for start, s, z in blocks:
        magnitude = np.abs(z)
        radius = magnitude[:, 0] + magnitude[:, 1]
        top = (s + radius).ravel()
        if top.max() < floor - slack:  # most blocks, once the floor is near the top
            continue
        keep = np.flatnonzero(top >= floor - slack)
        floor = max(floor, (top[keep] - shortfall * radius.ravel()[keep] - slack).max())
        keep = keep[top[keep] >= floor - slack]
        beta, alpha = np.divmod(keep, resolution)
        kept.append((alpha * resolution + start + beta, top[keep], s[beta, alpha], z[beta, :, alpha]))
    cells, top, s, z = (np.concatenate(parts) for parts in zip(*kept))
    cells, s, z = (x[top >= floor - slack] for x in (cells, s, z))
    arg, value = _party1_maxima(z.T, resolution)
    total = s + value[0] + value[1]
    best = np.lexsort((cells, total))[-1]  # the largest total, the higher cell index among ties
    angles = _grid_axis(resolution)[[*arg[:, best], *divmod(cells[best], resolution)]]
    return float(total[best]), SymmetricAngles(*angles.tolist())


def _grid_starts(coefficients: np.ndarray, resolution: int, restarts: int) -> np.ndarray:
    """The `restarts` best (alpha, beta) grid cells by Q = S + |Z_a| + |Z_b|, at most R^2 of them.

    Q is the function the refinement climbs, at least the cell's four-angle
    grid value.  Rows (alpha, beta) in descending Q, the higher alpha-major
    cell index first among ties.
    """
    _, blocks = _grid_forms(coefficients, resolution)
    q = np.concatenate([s + np.abs(z).sum(axis=1) for _, s, z in blocks]).T.ravel()  # alpha-major
    cells = np.argsort(q, kind="stable")[::-1][:restarts]
    return _grid_axis(resolution)[np.column_stack(np.divmod(cells, resolution))]


# ---------------------------------------------------------------------------
# Quasi-Newton refinement

# Sufficient rise of a line-search step, as a share of the rise its gradient predicts.
_ARMIJO = 1e-4
# BFGS iterations per restart before it counts as not converged; over every
# default cell with n <= 10 the most any search takes is 15 (W n=10 m=9).
_REFINEMENT_ROUNDS = 200
# A restart stops once its step is shorter than this, in radians.
_LOCAL_TOLERANCE = 1e-5


def _derivative_basis(basis: np.ndarray) -> np.ndarray:
    """d/dx of `_trig_basis` rows: d/dx cos kx = -k*sin kx and d/dx sin kx = k*cos kx."""
    k = np.arange(1, basis.shape[1] // 2 + 1)
    out = np.zeros_like(basis)
    out[:, 1::2], out[:, 2::2] = -k * basis[:, 2::2], k * basis[:, 1::2]
    return out


def _forms_at(forms: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S, Re Z_a, Im Z_a, Re Z_b and Im Z_b at (points, 2) angles (alpha, beta), and their
    derivatives in alpha and in beta, each of shape (5, points).

    forms is `_symmetric_forms` with its alpha axis first, shape (2*D_a+1,
    5, 2*D_b+1).  The cost depends on neither the number of terms nor the
    state's support.
    """
    alpha, beta = points.T
    basis_a = _trig_basis(alpha, len(forms) // 2)
    basis_b = _trig_basis(beta, forms.shape[2] // 2)
    wide = np.concatenate([basis_a, _derivative_basis(basis_a)]) @ forms.reshape(len(forms), -1)
    bases_b = np.stack([basis_b, _derivative_basis(basis_b)])
    (at, d_beta), (d_alpha, _) = np.einsum("apkj,bpj->abkp", wide.reshape(2, len(points), 5, -1), bases_b)
    return at, d_alpha, d_beta


def _symmetric_lhs(forms: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q = S + |Z_a| + |Z_b|, the LHS at party 1's best angles, and its gradient, of shapes
    (points,) and (points, 2), at (points, 2) angles (alpha, beta).

    d|Z| = Re(conj(Z)*dZ)/|Z|, and a half with Z = 0 adds nothing to it.
    """
    at, d_alpha, d_beta = _forms_at(forms, points)
    re, im = at[1::2], at[2::2]  # halves a and b
    magnitude = np.hypot(re, im)
    inverse = np.divide(1.0, magnitude, out=np.zeros_like(magnitude), where=magnitude > 0)
    gradients = [d[0] + ((re * d[1::2] + im * d[2::2]) * inverse).sum(0) for d in (d_alpha, d_beta)]
    return at[0] + magnitude.sum(0), np.stack(gradients, axis=1)


@dataclass(frozen=True)
class SearchTrace:
    """How the refinement of maximize_violation ended.

    iterations is the most BFGS iterations any restart took, objective_calls
    the `_symmetric_lhs` calls of the whole search, and converged is False
    when some restart was still rising after _REFINEMENT_ROUNDS iterations
    with no step shorter than _LOCAL_TOLERANCE.
    """

    iterations: int
    objective_calls: int
    converged: bool


def _lockstep_bfgs(fn, starts: np.ndarray, max_step: float, tol: float, max_iterations: int, allowance: float):
    """BFGS ascent maximizing fn from many starts in lockstep (angles wrapped mod 2*pi).

    fn maps a (points, d) array to the values, shape (points,), and the
    gradients, shape (points, d), there; starts has shape (restarts, d).
    Each restart keeps its own d x d inverse-Hessian estimate H of -fn, the
    identity scaled by s.y/y.y at its first update.  An iteration steps
    along H*g, at most max_step long, with a backtracking line search: one
    fn call per halving tries every restart, and a mask keeps the trials of
    those still searching, until each rises by at least _ARMIJO of the rise
    the gradient predicts.  A restart stops, converged, when its predicted
    rise g.H.g is at most allowance, when its line search finds no rise
    before the step is shorter than tol, or when it takes a step shorter
    than tol; its point and value then stay fixed.  A restart still rising
    after max_iterations iterations has not converged; maximize_violation
    passes tol = _LOCAL_TOLERANCE and max_iterations = _REFINEMENT_ROUNDS.
    Returns the end points, their values and the SearchTrace.
    """
    x = np.array(starts, dtype=float) % TWO_PI
    fx, gx = fn(x)
    calls, iterations = 1, 0
    restarts, dims = x.shape
    inverse = np.tile(np.eye(dims), (restarts, 1, 1))
    updated, live = np.zeros(restarts, dtype=bool), np.ones(restarts, dtype=bool)
    while True:
        direction = np.einsum("rij,rj->ri", inverse, gx)
        rise = np.einsum("ri,ri->r", gx, direction)
        live &= rise > allowance
        if not live.any() or iterations == max_iterations:
            break
        iterations += 1
        length = np.linalg.norm(direction, axis=1)
        shrink = max_step / np.maximum(length, max_step)  # min(1, max_step/length), 1 at length 0
        step, rise, length = direction * shrink[:, None], rise * shrink, length * shrink
        scale, found, start_g, searching = np.ones(restarts), np.zeros(restarts, dtype=bool), gx, live.copy()
        while searching.any():
            trial = (x + scale[:, None] * step) % TWO_PI
            f, g = fn(trial)
            calls += 1
            up = searching & (f > fx + _ARMIJO * scale * rise)
            x, fx, gx = np.where(up[:, None], trial, x), np.where(up, f, fx), np.where(up[:, None], g, gx)
            found |= up
            searching &= ~up
            scale[searching] *= 0.5
            searching &= scale * length >= tol
        # BFGS update for -fn, from the step taken and the fall of the gradient,
        # where the fall along the step is positive (else H is kept: rho = 0)
        s, y = scale[:, None] * step, start_g - gx
        sy, yy = np.einsum("ri,ri->r", s, y), np.einsum("ri,ri->r", y, y)
        curved = found & (sy > 0)
        inverse *= np.divide(sy, yy, out=np.ones(restarts), where=curved & ~updated)[:, None, None]
        updated |= curved
        hy = np.einsum("rij,rj->ri", inverse, y)
        rho = np.divide(1.0, sy, out=np.zeros(restarts), where=curved)
        inverse += (
            (rho + rho**2 * np.einsum("ri,ri->r", y, hy))[:, None, None] * s[:, :, None] * s[:, None, :]
            - rho[:, None, None] * (s[:, :, None] * hy[:, None, :] + hy[:, :, None] * s[:, None, :])
        )
        live &= found & (scale * length >= tol)
    return x, fx, SearchTrace(iterations, calls, not live.any())


def maximize_violation(
    expr: BellExpression,
    state: NoisyState,
    config: OptimizerConfig | None = None,
) -> tuple[float, SymmetricAngles, SearchTrace]:
    """Maximize the LHS over the four symmetric measurement angles.

    Deterministic given the configuration.  Coarse grid first, then one
    lockstep BFGS ascent over (alpha, beta) from the best `restarts` grid
    cells by Q (`_grid_starts`), both on the Fourier coefficients of party
    1's forms, sampled once: every line-search trial of every restart is one
    `_symmetric_lhs` call, which gives the gradient with the value.  A step
    is at most one grid spacing long, and a restart stops once a step is
    shorter than _LOCAL_TOLERANCE radians; one still rising after
    _REFINEMENT_ROUNDS iterations leaves the search not converged.  Party
    1's angles at an end point are angle(Z_a) and angle(Z_b) mod 2*pi.  The
    best end point wins, ties going to the smaller angle tuple, and the
    value returned is the objective at the angles returned.  The
    SearchTrace says how it ended.
    """
    config = config or OptimizerConfig()
    if expr.n != state.n:
        raise DimensionMismatchError(f"expression has n={expr.n}, state has n={state.n}")
    coefficients = _symmetric_forms(expr, state)
    forms = np.ascontiguousarray(np.moveaxis(coefficients, 1, 0))  # so each call's reshape is a view
    ends, values, trace = _lockstep_bfgs(
        lambda points: _symmetric_lhs(forms, points),
        _grid_starts(coefficients, config.grid_resolution, config.restarts),
        TWO_PI / config.grid_resolution, _LOCAL_TOLERANCE, _REFINEMENT_ROUNDS,
        # the forms' rounding: a predicted rise below it is noise
        np.finfo(float).eps * np.abs(coefficients).sum(),
    )
    at = _forms_at(forms, ends)[0]
    angles = np.column_stack([np.arctan2(at[2], at[1]) % TWO_PI, np.arctan2(at[4], at[3]) % TWO_PI, ends])
    value, best = min(zip(values.tolist(), angles.tolist()), key=lambda end: (-end[0], end[1]))
    return value, SymmetricAngles(*best), trace


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

    value_p1, angles_p1, trace = maximize_violation(expr, NoisyState(psi, 1.0), config)
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
        converged=trace.converged,
    )


def reproduce_table(
    state_family: str,
    n_list: Sequence[int],
    config: OptimizerConfig | None = None,
) -> list[ThresholdResult]:
    """Thresholds p_i for every requested n, i = m-1 running over 1..n-1."""
    return [find_threshold(n, m, state_family, config) for n in n_list for m in range(2, n + 1)]

