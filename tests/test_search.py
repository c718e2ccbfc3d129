"""Tests for the angle optimizer and the closed-form visibility threshold.

The threshold p* = C/(C - Q*) is checked three ways: the LHS at the
reported angles changes sign exactly at p*, a bisection oracle that
re-optimizes the angles at every p agrees with it, and it costs a single
optimization.
"""

import dataclasses
import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import mlocality.quantum as quantum
import mlocality.search as search
from oracles import full_angle_search, full_grid_peaks, full_grid_selection, full_grid_totals
from mlocality.inequality import build_hierarchy_inequality
from mlocality.quantum import MeasurementAngles, NoisyState, StateVector, evaluate_lhs, ghz_state, w_state
from mlocality.quantum import _half_angle_pairs, _term_amplitudes, mixed_state_lhs
from mlocality.search import (
    VIOLATION_TOL,
    NoViolationError,
    OptimizerConfig,
    SymmetricAngles,
    ThresholdResult,
    exhaustive_symmetric_max,
    find_threshold,
    maximize_violation,
    reproduce_table,
    state_for_family,
)

QUICK = OptimizerConfig(grid_resolution=12, restarts=4)


def random_state(n, rng):
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, amp / np.linalg.norm(amp))


def brute_force_symmetric_values(expr, state, resolution):
    """evaluate_lhs at every point of the symmetric 4-angle product grid, axes in SymmetricAngles order."""
    axis = np.arange(resolution) * 2 * np.pi / resolution
    n = expr.n
    return np.array([
        evaluate_lhs(expr, state, SymmetricAngles(*point).expand(n))
        for point in itertools.product(axis, repeat=4)
    ]).reshape((resolution,) * 4)


def party1_best(forms, points):
    """Party 1's best angles angle(Z_a) and angle(Z_b) at (points, 2) angles (alpha, beta), shape (points, 2).

    forms is `_symmetric_forms` with its alpha axis first.
    """
    at = search._forms_at(forms, points)[0]
    return np.column_stack([np.angle(at[1] + 1j * at[2]), np.angle(at[3] + 1j * at[4])])


def grid_features(resolution):
    """Rows (c^2, cs, sc, s^2) of u = (cos(x/2), sin(x/2)) at the grid angles x."""
    axis = search._grid_axis(resolution)
    u = np.stack([np.cos(axis / 2), np.sin(axis / 2)], axis=-1)
    return (u[:, :, None] * u[:, None, :]).reshape(resolution, 4)


def w_with_phases(n, rng):
    """W with a random phase on every amplitude: a sparse complex state."""
    amp = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amp[1 << k] = np.exp(1j * rng.uniform(0, 2 * np.pi)) / math.sqrt(n)
    return StateVector(n, amp)


def make_state(family, n, seed):
    """A random complex full-support state, W with random phases, or the named family."""
    if family == "random":
        return random_state(n, np.random.default_rng(seed))
    if family == "w-phases":
        return w_with_phases(n, np.random.default_rng(seed))
    return state_for_family(family, n)


def kernel_forms(expr, state, resolution):
    """Party 1's forms at every (alpha, beta) cell from the amplitude kernel, shape (3, 2, R*R).

    Party 1 is opened on basis vector h by setting its (cos, sin) pair to
    e_h under both settings; q = p * sum_t c_t Re(M_{t,h} M_{t,h'}^*) over
    the terms measuring party 1 with each setting.
    """
    table, n = expr.table, expr.n
    u = _half_angle_pairs(search._grid_axis(resolution))
    pairs = np.empty((resolution, resolution, 2, 2, n, 2))
    pairs[..., 0, :] = np.eye(2)[:, None, :]
    pairs[..., 0, 1:, :] = u[:, None, None, None, :]
    pairs[..., 1, 1:, :] = u[None, :, None, None, :]
    amp = _term_amplitudes(table, state.psi, pairs)
    m0, m1 = amp[..., 0, :], amp[..., 1, :]
    forms = np.empty((3, 2, resolution, resolution))
    for half in (0, 1):
        weights = state.p * table.coefficients * (table.settings[:, 0] == half)
        forms[0, half] = np.abs(m0) ** 2 @ weights
        forms[1, half] = (m0 * m1.conj()).real @ weights
        forms[2, half] = np.abs(m1) ** 2 @ weights
    return forms.reshape(3, 2, -1)


def bisection_threshold(expr, psi, config, tolerance):
    """Oracle: bisection on p, re-optimizing the angles at every visibility.

    LHS(p, theta) = p*Q(theta) + (1-p)*C with C independent of theta, so the
    search ranks angles the same at every p > 0 and needs no warm start.
    """
    value, _, _ = maximize_violation(expr, NoisyState(psi, 1.0), config)
    assert value > VIOLATION_TOL
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        value, _, _ = maximize_violation(expr, NoisyState(psi, mid), config)
        if value > VIOLATION_TOL:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSymmetricAngles:
    def test_expand(self):
        angles = SymmetricAngles(0.1, 0.2, 0.3, 0.4).expand(4)
        assert angles.theta_a == (0.1, 0.3, 0.3, 0.3)
        assert angles.theta_b == (0.2, 0.4, 0.4, 0.4)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymmetricAngles(0.0, float("nan"), 0.0, 0.0)


class TestGridEvaluation:
    @pytest.mark.parametrize(
        "n,m,k_prime,family,p,seed",
        [
            (3, 2, 1, "random", 0.8, 51),
            (4, 2, 1, "w", 1.0, None),
            (4, 3, 1, "random", 0.6, 53),
            (4, 3, 3, "w", 1.0, None),
            (4, 3, 1, "w-phases", 0.9, 55),
        ],
        ids=["random-n3", "w-n4", "random-n4", "w-n4-k3", "w-phases-n4"],
    )
    def test_separable_grid_max_equals_brute_force(self, n, m, k_prime, family, p, seed):
        # a random complex state has all 2^n amplitudes nonzero, so the
        # grid runs over a full support with complex arithmetic; W over n
        # real amplitudes, and W with random phases over n complex ones.
        # At seed 53 the two party-1 angles of the maximum differ, so the
        # angle check also sees which half each came from.  With k' = 3
        # the expression is not symmetric in parties 2..n.
        expr = build_hierarchy_inequality(n, m, k_prime)
        state = NoisyState(make_state(family, n, seed), p)
        brute = brute_force_symmetric_values(expr, state, 6)
        fast, angles = exhaustive_symmetric_max(expr, state, 6)
        assert fast == pytest.approx(brute.max(), abs=1e-12)
        # the reported angle tuple reproduces the reported value
        assert evaluate_lhs(expr, state, angles.expand(n)) == pytest.approx(fast, abs=1e-12)
        # the 10 refinement starts are the 10 best (alpha, beta) cells by Q,
        # best first; each, at party 1's best angles angle(Z_a) and
        # angle(Z_b), reproduces its Q, which is at least the cell's
        # four-angle grid maximum
        coefficients = search._symmetric_forms(expr, state)
        forms = np.moveaxis(coefficients, 1, 0)
        starts = search._grid_starts(coefficients, 6, 10)
        q, _ = search._symmetric_lhs(forms, starts)
        values = [
            evaluate_lhs(expr, state, SymmetricAngles(*x, *ab).expand(n))
            for x, ab in zip(party1_best(forms, starts).tolist(), starts.tolist())
        ]
        assert len(starts) == 10
        np.testing.assert_allclose(values, q, rtol=0, atol=1e-12)
        cells = np.stack(np.meshgrid(search._grid_axis(6), search._grid_axis(6), indexing="ij"), -1).reshape(-1, 2)
        every_q = np.sort(search._symmetric_lhs(forms, cells)[0])[::-1]
        np.testing.assert_allclose(q, every_q[:10], rtol=0, atol=1e-12)
        index = np.rint(starts * (6 / (2 * np.pi))).astype(int)
        assert np.all(q >= brute.max(axis=(0, 1))[index[:, 0], index[:, 1]] - 1e-12)

    def test_separable_grid_max_ghz(self):
        expr = build_hierarchy_inequality(4, 4, 1)
        state = NoisyState(ghz_state(4), 1.0)
        brute = brute_force_symmetric_values(expr, state, 7).max()
        fast, _ = exhaustive_symmetric_max(expr, state, 7)
        assert fast == pytest.approx(brute, abs=1e-12)

    def test_top_cells_keep_the_order_of_a_full_sort(self):
        # GHZ n=4 m=2 ties at many grid values.  The refinement's starts must
        # come in the order of a full stable argsort of the cells' Q,
        # reversed: descending, the higher (alpha, beta) cell index first
        # among ties, and the exhaustive maximum must be the last cell of a
        # stable argsort of the four-angle totals.  Q and the totals are the
        # unpruned oracle's, one per cell.  At 48 points about 620 of the 2304
        # Q and 410 of the totals tie exactly.
        resolution = 48
        expr = build_hierarchy_inequality(4, 2, 1)
        state = NoisyState(ghz_state(4), 1.0)
        cell = {x: i for i, x in enumerate(search._grid_axis(resolution).tolist())}
        q = full_grid_peaks(expr, state, resolution)
        total, _ = full_grid_totals(expr, state, resolution)
        assert q.size - len(np.unique(q)) > 100  # many exact ties
        assert total.size - len(np.unique(total)) > 100
        forms = search._symmetric_forms(expr, state)
        for restarts in (1, 2, 4, 5, 8, 100, resolution**2 - 1, resolution**2, resolution**2 + 3):
            starts = search._grid_starts(forms, resolution, restarts)
            want = np.argsort(q, kind="stable")[::-1][:restarts]
            assert [cell[a] * resolution + cell[b] for a, b in starts.tolist()] == want.tolist()
        value, angles = exhaustive_symmetric_max(expr, state, resolution)
        best = np.argsort(total, kind="stable")[-1]
        assert value == total[best]
        assert cell[angles.theta_a_rest] * resolution + cell[angles.theta_b_rest] == best

    @pytest.mark.parametrize("p", [1.0, 0.6])
    @pytest.mark.parametrize(
        "family,n,m,k_prime,seed",
        [
            ("random", 3, 2, 1, 61),
            ("random", 4, 3, 3, 62),
            ("w-phases", 4, 3, 1, 63),
            ("w-phases", 5, 4, 3, 64),
            ("ghz", 4, 2, 1, None),
        ],
        ids=["random-n3", "random-n4-k3", "w-phases-n4", "w-phases-n5-k3", "ghz-n4"],
    )
    def test_pruned_grid_equals_full_grid(self, monkeypatch, family, n, m, k_prime, seed, p):
        # pruning drops only cells that cannot reach the maximum, so the
        # value and its angles equal those of the unpruned selection bit for
        # bit, ties included (GHZ has many).  With one beta row per block the
        # floor rises across blocks; by default one block holds the grid.
        # The refinement's starts, streamed from the same blocks, are the
        # best of a full stable sort of the cells' Q.
        state = NoisyState(make_state(family, n, seed), p)
        expr = build_hierarchy_inequality(n, m, k_prime)
        forms = search._symmetric_forms(expr, state)

        def bits(selection):
            value, angles = selection
            return value.hex(), [x.hex() for x in angles.as_tuple()]

        for block_cells in (1, search._GRID_BLOCK_CELLS):
            monkeypatch.setattr(search, "_GRID_BLOCK_CELLS", block_cells)
            for resolution in (2, 3, 6, 7, 24):
                pruned = exhaustive_symmetric_max(expr, state, resolution)
                assert bits(pruned) == bits(full_grid_selection(expr, state, resolution))
                cells = np.argsort(full_grid_peaks(expr, state, resolution), kind="stable")[::-1][:8]
                want = search._grid_axis(resolution)[np.column_stack(np.divmod(cells, resolution))]
                assert search._grid_starts(forms, resolution, 8).tolist() == want.tolist()

    def test_grid_holds_no_array_over_all_cells(self):
        # the 360-point grid has 129,600 cells; blocks of them are streamed
        # and only those that can win are kept, so the traced peak stays
        # far below the 25 MiB that arrays over every cell took
        expr = build_hierarchy_inequality(6, 6, 1)
        state = NoisyState(w_state(6), 1.0)
        tracemalloc.start()
        try:
            exhaustive_symmetric_max(expr, state, 360)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    @pytest.mark.parametrize(
        "family,n,m,k_prime,seed",
        [
            ("random", 3, 2, 1, 71),
            ("random", 5, 3, 3, 72),
            ("w-phases", 6, 4, 3, 73),
            ("w-phases", 10, 5, 1, 74),
            ("w-phases", 10, 10, 3, 75),
            ("w", 10, 10, 1, None),
            ("ghz", 10, 2, 1, None),
        ],
        ids=["random-n3", "random-n5-k3", "w-phases-n6-k3", "w-phases-n10", "w-phases-n10-k3", "w-n10", "ghz-n10"],
    )
    def test_forms_equal_kernel_forms_cell_by_cell(self, family, n, m, k_prime, seed):
        # the cells' S, Z_a and Z_b interpolated from (2*D_a+1) x (2*D_b+1)
        # samples equal those of the forms computed from the amplitude kernel
        # at every cell; each is two sums over the samples of one axis, hence
        # (N_a + N_b) ulps of their largest magnitude
        state = NoisyState(make_state(family, n, seed), 0.8)
        expr = build_hierarchy_inequality(n, m, k_prime)
        size = sum(2 * d + 1 for d in search._form_degrees(expr))
        mixed = mixed_state_lhs(n, m) * (1 - state.p)
        coefficients = search._symmetric_forms(expr, state)
        for resolution in (2, 3, 7, 24):
            _, blocks = search._grid_forms(coefficients, resolution)
            _, s, z = zip(*blocks)
            s, z = np.concatenate(s).T.ravel(), np.concatenate(z).transpose(1, 2, 0).reshape(2, -1)
            forms = np.stack([s, z[0].real, z[0].imag, z[1].real, z[1].imag])
            q00, q01, q11 = kernel_forms(expr, state, resolution)
            half = (q00 - q11) / 2
            want = np.stack([(q00 + q11).sum(axis=0) / 2 + mixed, half[0], q01[0], half[1], q01[1]])
            scale = np.abs(want).max()
            np.testing.assert_allclose(forms, want, rtol=0, atol=size * np.finfo(float).eps * scale)

    @pytest.mark.parametrize(
        "family,n,m,k_prime,seed",
        [
            ("random", 3, 2, 3, 91),
            ("random", 5, 3, 3, 92),
            ("w-phases", 5, 4, 3, 93),
            ("w-phases", 7, 3, 3, 94),
            ("ghz", 4, 2, 3, None),
        ],
        ids=["random-n3-k3", "random-n5-k3", "w-phases-n5-k3", "w-phases-n7-k3", "ghz-n4-k3"],
    )
    def test_every_cell_lies_in_its_screen_window(self, family, n, m, k_prime, seed):
        # the screen keeps a cell only if its window [S + (|Z_a|+|Z_b|)*cos(pi/R),
        # S + |Z_a| + |Z_b|], widened by the grid's rounding allowance, can
        # reach the top; every cell's exact total must lie in that window
        state = NoisyState(make_state(family, n, seed), 0.7)
        expr = build_hierarchy_inequality(n, m, k_prime)
        coefficients = search._symmetric_forms(expr, state)
        for resolution in (2, 3, 7, 24):
            slack, blocks = search._grid_forms(coefficients, resolution)
            for _, s, z in blocks:
                _, value = search._party1_maxima(z, resolution)
                total = s + value[:, 0] + value[:, 1]
                magnitude = np.abs(z)
                radius = magnitude[:, 0] + magnitude[:, 1]
                assert np.all(total <= s + radius + slack)
                assert np.all(total >= s + radius * math.cos(math.pi / resolution) - slack)

    @pytest.mark.parametrize(
        "family,n,m,k_prime,seed",
        [
            ("random", 4, 2, 1, 81),
            ("random", 5, 4, 3, 82),
            ("w-phases", 7, 3, 1, 83),
            ("w-phases", 10, 6, 3, 84),
            ("ghz", 6, 6, 1, None),
        ],
        ids=["random-n4", "random-n5-k3", "w-phases-n7", "w-phases-n10-k3", "ghz-n6"],
    )
    def test_form_degrees_bound_the_forms(self, family, n, m, k_prime, seed):
        # two more sample points per axis give the same coefficients, and the
        # extra ones are zero: the forms have no term above (D_a, D_b)
        state = NoisyState(make_state(family, n, seed), 0.9)
        expr = build_hierarchy_inequality(n, m, k_prime)
        degree_a, degree_b = search._form_degrees(expr)
        low = search._form_coefficients(expr, state, (degree_a, degree_b))
        high = search._form_coefficients(expr, state, (degree_a + 1, degree_b + 1))
        assert high.shape == (3, 2, 2 * degree_a + 3, 2 * degree_b + 3)
        atol = high.shape[2] + high.shape[3]
        atol *= np.finfo(float).eps * np.abs(low).max()
        np.testing.assert_allclose(high[..., : 2 * degree_a + 1, : 2 * degree_b + 1], low, rtol=0, atol=atol)
        high[..., : 2 * degree_a + 1, : 2 * degree_b + 1] = 0.0
        np.testing.assert_allclose(high, 0.0, rtol=0, atol=atol)

    def test_form_degrees_of_k_prime_1(self):
        # the all-a term measures parties 2..n with a; with k' = 1 the
        # second-sum terms measure m-1 of them with b, a single-b term one
        for n, m in [(2, 2), (3, 2), (4, 3), (7, 7), (12, 6)]:
            assert search._form_degrees(build_hierarchy_inequality(n, m, 1)) == (n - 1, max(1, m - 1))

    @pytest.mark.parametrize("resolution", [2, 3, 6, 7, 24, 360])
    def test_party1_maximum_lies_within_its_bounds(self, resolution):
        # a + r*cos(x - phi) peaks within pi/R of a grid point, so its grid
        # maximum lies in [a + r*cos(pi/R), a + r]; a peak on a grid point
        # reaches the upper end and one halfway between reaches the lower
        rng = np.random.default_rng(resolution)
        step = 2 * np.pi / resolution
        peaks = np.concatenate([rng.uniform(0, 2 * np.pi, 2000), np.arange(2 * resolution) * step / 2])
        peaks = np.tile(peaks, 3)
        size = 10.0 ** rng.uniform(-8, 2, (2, len(peaks)))
        mean, amplitude = rng.uniform(-1, 1, len(peaks)) * size[0], rng.uniform(0, 1, len(peaks)) * size[1]
        q00 = mean + amplitude * np.cos(peaks)
        q11 = mean - amplitude * np.cos(peaks)
        q01 = amplitude * np.sin(peaks)
        a, z = (q00 + q11) / 2, (q00 - q11) / 2 + 1j * q01
        value = a + search._party1_maxima(z, resolution)[1]
        r = np.hypot((q00 - q11) / 2, q01)
        ulps = 4 * np.finfo(float).eps * (np.abs(a) + r)
        assert np.all(value <= a + r + ulps)
        assert np.all(value >= a + r * math.cos(math.pi / resolution) - ulps)

    @pytest.mark.parametrize("resolution", [2, 3, 6, 7, 24, 360])
    def test_party1_maximum_equals_full_scan(self, resolution):
        # the closed form evaluates only the two grid points bracketing the
        # peak; the scan evaluates u(x)^T Q u(x) at every grid angle
        rng = np.random.default_rng(resolution)
        step = 2 * np.pi / resolution
        forms = [rng.uniform(-1, 1, (2, 2)) for _ in range(200)]
        forms = [(q + q.T) / 2 for q in forms] + [np.zeros((2, 2))]
        for r in range(resolution):
            for peak in (r * step, (r + 0.5) * step):
                # a sinusoid whose maximum is exactly on, or halfway between, grid points
                amplitude, mean = rng.uniform(0.1, 1), rng.uniform(-1, 1)
                q00 = mean + amplitude * math.cos(peak)
                q11 = mean - amplitude * math.cos(peak)
                q01 = amplitude * math.sin(peak)
                forms.append(np.array([[q00, q01], [q01, q11]]))
        forms = np.array(forms)
        features = grid_features(resolution)
        scan = forms.reshape(-1, 4) @ features.T
        q00, q01, q11 = forms[:, 0, 0], forms[:, 0, 1], forms[:, 1, 1]
        index, value = search._party1_maxima((q00 - q11) / 2 + 1j * q01, resolution)
        value = (q00 + q11) / 2 + value
        np.testing.assert_allclose(value, scan.max(axis=1), rtol=0, atol=1e-15)
        top_two = np.sort(scan, axis=1)[:, -2:]
        clear = top_two[:, 1] - top_two[:, 0] > 1e-12
        np.testing.assert_array_equal(index[clear], scan.argmax(axis=1)[clear])
        assert clear.sum() > len(forms) // 2
        # all-zero form: every grid value ties at 0, so the first index wins
        assert (index[200], value[200]) == (0, 0.0)

    def test_party1_tie_across_the_wrap_goes_to_index_0(self):
        # at 2 points the peak of this amplitude (3*pi/2) lies between index
        # 1 and index 0, where both values are exactly 0 (Im(z)*sin(pi)
        # underflows): argmax keeps 0
        index, value = search._party1_maxima(np.array([-1e-310j]), 2)
        assert (index[0], value[0]) == (0, 0.0)


def trig_objective(seed, dims):
    """A random trigonometric objective on (points, dims) arrays, with its gradient."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, (3, dims))
    phases = rng.uniform(0, 2 * np.pi, (3, dims))
    k = np.arange(1, 4)[:, None]

    def fn(x):
        arg = k * np.asarray(x)[:, None, :] - phases
        return (weights * np.cos(arg)).sum(axis=(1, 2)), -(k * weights * np.sin(arg)).sum(axis=1)

    return fn


def lockstep(fn, starts, max_step=0.5, tol=1e-8, max_iterations=200, allowance=1e-14):
    return search._lockstep_bfgs(fn, np.asarray(starts, dtype=float), max_step, tol, max_iterations, allowance)


class TestLockstepBfgs:
    def test_converges_on_a_separable_objective(self):
        # sum of cos(x_i - c_i) peaks at x = c, where it equals the dimension
        target = np.array([1.0, 2.5, 4.0])

        def fn(x):
            return np.cos(x - target).sum(axis=1), -np.sin(x - target)

        x, fx, trace = lockstep(fn, [[0.5, 2.0, 3.5], [1.5, 3.0, 4.4]])
        np.testing.assert_allclose(x, [target, target], atol=1e-7)
        np.testing.assert_allclose(fx, 3.0, rtol=0, atol=1e-14)
        assert trace.converged and 0 < trace.iterations < 50

    def test_never_below_its_start_and_one_call_per_trial(self):
        fn = trig_objective(3, 4)
        starts = np.random.default_rng(4).uniform(-1.0, 8.0, (10, 4))  # some outside [0, 2*pi)
        calls = []

        def counting(points):
            calls.append(len(points))
            return fn(points)

        x, fx, trace = lockstep(counting, starts)
        assert np.all(fx >= fn(starts % (2 * np.pi))[0])
        np.testing.assert_array_equal(fx, fn(x)[0])  # each value is the objective at its end point
        assert np.all((0 <= x) & (x < 2 * np.pi))
        assert trace.converged and trace.objective_calls == len(calls)
        assert set(calls) == {len(starts)}  # every call evaluates every restart

    def test_a_stopped_restart_stays_fixed(self):
        # the first i iterations do not depend on the budget, so a budget of i
        # shows the points after iteration i.  A restart whose step in an
        # iteration was shorter than tol (or none) has stopped, yet every
        # later call still evaluates it: its point and value must stay fixed
        fn, tol = trig_objective(3, 4), 1e-2
        starts = np.random.default_rng(4).uniform(-1.0, 8.0, (10, 4)) % (2 * np.pi)
        _, _, trace = lockstep(fn, starts, tol=tol)
        runs = [(starts, fn(starts)[0])]
        runs += [lockstep(fn, starts, tol=tol, max_iterations=i)[:2] for i in range(1, trace.iterations + 1)]
        stopped_at = np.zeros(len(starts), dtype=int)  # 0: still moving
        for i, ((x, fx), (later_x, later_fx)) in enumerate(zip(runs, runs[1:]), start=1):
            step = np.linalg.norm((later_x - x + np.pi) % (2 * np.pi) - np.pi, axis=1)
            stopped = stopped_at > 0
            np.testing.assert_array_equal(later_x[stopped], x[stopped])
            np.testing.assert_array_equal(later_fx[stopped], fx[stopped])
            stopped_at[~stopped & (step < tol)] = i
        assert trace.converged and np.all(stopped_at > 0)
        assert len(set(stopped_at.tolist())) > 1  # restarts stopped after different iteration counts

    def test_budget_of_one_iteration_has_not_converged(self):
        x, fx, trace = lockstep(trig_objective(5, 4), [[0.3, 1.0, 2.0, 5.0]], max_iterations=1)
        assert (trace.iterations, trace.converged) == (1, False)

    def test_flat_objective_stops_at_once(self):
        # a zero gradient predicts no rise: nothing moves, one call, converged
        starts = [[0.5, 7.0], [1.0, 2.0]]
        x, fx, trace = lockstep(lambda p: (np.zeros(len(p)), np.zeros(p.shape)), starts)
        np.testing.assert_array_equal(x, np.array(starts) % (2 * np.pi))
        assert (trace.iterations, trace.objective_calls, trace.converged) == (0, 1, True)

    def test_a_step_below_tolerance_stops_its_restart(self):
        # with the tolerance above the step cap every restart stops after one iteration
        x, fx, trace = lockstep(trig_objective(6, 3), [[0.2, 0.4, 0.6], [3.0, 2.0, 1.0]], max_step=0.1, tol=0.2)
        assert (trace.iterations, trace.converged) == (1, True)


def oracle_objective(expr, state):
    return lambda v: evaluate_lhs(expr, state, SymmetricAngles(*v).expand(expr.n))


def symmetric_lhs_values(expr, state, points):
    """The kernel's LHS at a batch of (points, 4) symmetric angles (x, y, alpha, beta)."""
    x, y, alpha, beta = np.asarray(points).T
    rest = np.ones(expr.n - 1)
    theta = np.stack([np.column_stack([x, np.multiply.outer(alpha, rest)]),
                      np.column_stack([y, np.multiply.outer(beta, rest)])], axis=1)
    return quantum._lhs_values(expr, state, theta)


ORACLE_CASES = [
    ("ghz-n3", lambda: NoisyState(ghz_state(3), 1.0), 3),
    ("w-n4", lambda: NoisyState(state_for_family("w", 4), 1.0), 2),
    ("w-n5", lambda: NoisyState(state_for_family("w", 5), 1.0), 4),
    ("random-n3", lambda: NoisyState(random_state(3, np.random.default_rng(67)), 0.9), 2),
]
ORACLE_IDS = [c[0] for c in ORACLE_CASES]

# Q* of every n <= 7 cell at the default config as the earlier compass
# refinement returned it, rows by n = 2..7, m = 2..n.  It stopped early in
# some cells (W n=7 m=6 by 7e-5), so a converged search may only rise above these.
COMPASS_Q_STAR = {
    "ghz": (
        [0.20710678118654768],
        [0.05901699437392156, 0.10421031540029463],
        [0.02085263610634111, 0.035539721381304165, 0.05449883525536535],
        [0.009569940470767473, 0.0159003517682579, 0.02095961398994677, 0.028261681972303013],
        [0.0046772911691324096, 0.007678031043829502, 0.009841195274489005, 0.011611384829837123,
         0.014533158455486063],
        [0.0023202674813592, 0.0037908247572174536, 0.004817285498766469, 0.005576850463486525,
         0.006223114349212499, 0.0074288627928841685],
    ),
    "w": (
        [0.20710678118654768],
        [0.07868932583189531, 0.1926076336283005],
        [0.04056941504064426, 0.11422147051984022, 0.18675536552284797],
        [0.02481586094373306, 0.08333348316078859, 0.1157305564479012, 0.18355058532352042],
        [0.01859526689833141, 0.06594697271577299, 0.09237301420952027, 0.10925679618115958,
         0.1815224340319418],
        [0.015324332892253212, 0.05470507586774409, 0.07736705707602853, 0.09137821559913295,
         0.10113708702324165, 0.1801220087705171],
    ),
}


class TestMaximizeViolationEqualsOracle:
    @pytest.mark.parametrize("case,make_state,m", ORACLE_CASES, ids=ORACLE_IDS)
    def test_same_optimum_as_scipy_bfgs_from_the_same_cells(self, case, make_state, m):
        # SciPy's BFGS, on evaluate_lhs point by point with finite-difference
        # gradients, from the grid cells the refinement starts from
        optimize = pytest.importorskip("scipy.optimize")
        state = make_state()
        expr = build_hierarchy_inequality(state.n, m, 1)
        coefficients = search._symmetric_forms(expr, state)
        starts = search._grid_starts(coefficients, QUICK.grid_resolution, QUICK.restarts)
        party1 = party1_best(np.moveaxis(coefficients, 1, 0), starts)
        fn = oracle_objective(expr, state)
        oracle = max(
            -optimize.minimize(lambda v: -fn(v), [*x, *ab], method="BFGS", options={"gtol": 1e-11}).fun
            for x, ab in zip(party1.tolist(), starts.tolist())
        )
        value, angles, trace = maximize_violation(expr, state, QUICK)
        assert trace.converged
        assert value == pytest.approx(oracle, rel=0, abs=1e-10)
        assert fn(angles.as_tuple()) == pytest.approx(value, rel=0, abs=1e-12)

    @pytest.mark.parametrize("family", ["ghz", "w"])
    def test_no_cell_falls_below_the_compass_refinement(self, family):
        for n, row in enumerate(COMPASS_Q_STAR[family], start=2):
            for m, compass in enumerate(row, start=2):
                expr = build_hierarchy_inequality(n, m, 1)
                value, _, trace = maximize_violation(expr, NoisyState(state_for_family(family, n), 1.0))
                assert trace.converged
                assert value >= compass - 1e-12, (n, m)

    @pytest.mark.parametrize("k_prime", [1, 3])
    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("family,seed", [("random", 101), ("w-phases", 102)])
    def test_objective_equals_evaluate_lhs_off_the_grid(self, family, seed, n, k_prime):
        # the refinement's objective reads the grid's Fourier coefficients;
        # at random (alpha, beta), none of them on a sample grid and some
        # outside [0, 2*pi), it must give the kernel's LHS at party 1's best
        # angles angle(Z_a) and angle(Z_b) for every m, no less than the LHS
        # at 32 random party-1 angles, and its gradient the kernel's central
        # differences in alpha and beta with party 1 held at its optimum
        # (envelope theorem)
        rng = np.random.default_rng(seed + n)
        state = NoisyState(make_state(family, n, seed + n), 0.7)
        points = rng.uniform(-2 * np.pi, 4 * np.pi, (16, 2))
        party1 = rng.uniform(0, 2 * np.pi, (32, 2))
        shift = 1e-5 * np.eye(2)
        for m in range(2, n + 1):
            expr = build_hierarchy_inequality(n, m, k_prime)
            forms = np.moveaxis(search._symmetric_forms(expr, state), 1, 0)
            fn = oracle_objective(expr, state)
            values, gradients = search._symmetric_lhs(forms, points)
            best = party1_best(forms, points)
            np.testing.assert_allclose(
                values, [fn(np.concatenate([x, point])) for x, point in zip(best, points)], rtol=0, atol=1e-12
            )
            for value, point in zip(values, points):
                others = np.column_stack([party1, np.broadcast_to(point, party1.shape)])
                assert value >= symmetric_lhs_values(expr, state, others).max() - 1e-12
            differences = [
                [(fn(np.concatenate([x, point + h])) - fn(np.concatenate([x, point - h]))) / 2e-5 for h in shift]
                for x, point in zip(best, points)
            ]
            np.testing.assert_allclose(gradients, differences, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 3), (5, 5)])
    def test_a_zero_amplitude_half_adds_its_mean_alone(self, n, m):
        # with Z_a's coefficients zeroed, |Z_a| = 0 exactly at every point:
        # the value and gradient must be finite, with no divide by zero,
        # and equal those of S + |Z_b|
        state = NoisyState(make_state("random", n, 103), 0.8)
        forms = np.moveaxis(search._symmetric_forms(build_hierarchy_inequality(n, m, 1), state), 1, 0).copy()
        forms[:, 1:3] = 0.0
        points = np.random.default_rng(104).uniform(0, 2 * np.pi, (16, 2))

        def s_plus_z_b(points):
            at = search._forms_at(forms, points)[0]
            return at[0] + np.hypot(at[3], at[4])

        values, gradients = search._symmetric_lhs(forms, points)
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(gradients))
        np.testing.assert_allclose(values, s_plus_z_b(points), rtol=0, atol=1e-15)
        shift = 1e-5 * np.eye(2)
        differences = np.stack([(s_plus_z_b(points + h) - s_plus_z_b(points - h)) / 2e-5 for h in shift], axis=1)
        np.testing.assert_allclose(gradients, differences, rtol=0, atol=1e-8)

    def test_one_kernel_call_and_one_objective_call_per_round(self, monkeypatch):
        # the amplitude kernel runs once, to sample party 1's forms; every
        # objective call after it is one line-search trial of an iteration,
        # or the first evaluation of the starts
        kernel_callers, objective_calls = [], []
        kernel, objective = quantum._term_amplitudes, search._symmetric_lhs

        def counting_kernel(*args):
            kernel_callers.append(inspect.stack()[1].function)
            return kernel(*args)

        def counting_objective(forms, points):
            objective_calls.append(points.shape)
            return objective(forms, points)

        monkeypatch.setattr(quantum, "_term_amplitudes", counting_kernel)
        monkeypatch.setattr(search, "_term_amplitudes", counting_kernel)
        monkeypatch.setattr(search, "_symmetric_lhs", counting_objective)
        expr = build_hierarchy_inequality(4, 3, 1)
        _, _, trace = maximize_violation(expr, NoisyState(ghz_state(4), 1.0), QUICK)
        assert kernel_callers == ["_form_coefficients"]
        # a line search halves a step of at most one grid spacing until it drops below the tolerance
        trials = 1 + math.floor(math.log2(2 * math.pi / QUICK.grid_resolution / search._LOCAL_TOLERANCE))
        assert 1 < len(objective_calls) == trace.objective_calls <= 1 + trace.iterations * trials
        assert trace.iterations <= search._REFINEMENT_ROUNDS
        assert all(shape[1:] == (2,) for shape in objective_calls)


# p_i of every n = 7..10 cell at the default config, as `table --family F
# --n-list 7,8,9,10 --format csv` printed it with the four-angle refinement,
# rows by n, m = 2..n.
LARGE_N_THRESHOLDS = {
    "ghz": (
        "0.975848 0.977416 0.976834 0.967125 0.937752 0.880404",
        "0.979286 0.983046 0.985656 0.983522 0.973075 0.943553 0.892059",
        "0.981845 0.986785 0.990579 0.991119 0.988161 0.977709 0.948431 0.901587",
        "0.983831 0.989403 0.993511 0.994869 0.994383 0.991320 0.981317 0.952567 0.909530",
    ),
    "w": (
        "0.859506 0.749937 0.724156 0.642262 0.480872 0.232902",
        "0.805867 0.700317 0.710857 0.675199 0.556429 0.369326 0.148564",
        "0.729135 0.632066 0.680337 0.686505 0.619257 0.461226 0.265881 0.089734",
        "0.628243 0.547068 0.633791 0.679290 0.657132 0.552733 0.363150 0.180185 0.052094",
    ),
}


class TestConvergence:
    @pytest.mark.parametrize("family", ["ghz", "w"])
    def test_n7_to_10_thresholds_are_pinned_and_converge(self, family):
        results = reproduce_table(family, [7, 8, 9, 10])
        assert all(r.converged for r in results)
        printed = [" ".join(f"{r.p_threshold:.6f}" for r in results if r.n == n) for n in range(7, 11)]
        assert tuple(printed) == LARGE_N_THRESHOLDS[family]

    @pytest.mark.parametrize("family,n,m", [("ghz", 3, 2), ("ghz", 3, 3), ("w", 3, 2), ("w", 3, 3), ("ghz", 4, 4)])
    def test_threshold_table_cells_converge(self, family, n, m):
        assert find_threshold(n, m, family).converged

    @pytest.mark.parametrize("family,m,config,printed", [
        ("ghz", 2, OptimizerConfig(grid_resolution=96, restarts=16), "0.986721"),
        ("w", 6, OptimizerConfig(grid_resolution=96), "0.669846"),
    ], ids=["ghz-m2", "w-m6"])
    def test_ci_cells_converge(self, family, m, config, printed):
        result = find_threshold(12, m, family, config)
        assert result.converged
        assert f"{result.p_threshold:.6f}" == printed

    def test_one_iteration_has_not_converged(self, monkeypatch):
        monkeypatch.setattr(search, "_REFINEMENT_ROUNDS", 1)
        result = find_threshold(3, 3, "w")
        assert not result.converged


class TestMaximizeViolation:
    def test_fully_mixed_value_is_angle_independent(self):
        # coefficient sum over 2^n: (1 - n - binomial(n-1, m-1)) / 2^n
        expr = build_hierarchy_inequality(4, 4, 1)
        state = NoisyState(ghz_state(4), 0.0)
        value, _, _ = maximize_violation(expr, state, QUICK)
        assert value == pytest.approx(-4 / 16, abs=1e-12)
        expr = build_hierarchy_inequality(4, 2, 1)
        value, _, _ = maximize_violation(expr, state, QUICK)
        assert value == pytest.approx(-6 / 16, abs=1e-12)

    def test_ghz_genuine_nonlocality_violation(self):
        expr = build_hierarchy_inequality(4, 2, 1)
        value, angles, _ = maximize_violation(expr, NoisyState(ghz_state(4), 1.0))
        assert value > 0
        # optimizer value is reproduced by a direct evaluation at its angles
        assert evaluate_lhs(expr, NoisyState(ghz_state(4), 1.0), angles.expand(4)) == pytest.approx(
            value, abs=1e-12
        )

    def test_two_qubit_maximum_matches_known_constant(self):
        # for two qubits the m=2 expression is of Clauser-Horne type: the
        # maximally entangled state reaches (sqrt(2)-1)/2
        expr = build_hierarchy_inequality(2, 2, 1)
        value, _, _ = maximize_violation(expr, NoisyState(ghz_state(2), 1.0))
        assert value == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-7)

    @pytest.mark.parametrize(
        "family,n,m,k_prime,seed,p",
        [("random", 4, 3, 3, 111, 0.8), ("w-phases", 5, 3, 1, 112, 1.0), ("ghz", 4, 3, 1, None, 1.0)],
        ids=["random-n4-k3", "w-phases-n5", "ghz-n4"],
    )
    def test_refinement_not_below_coarse_grid(self, family, n, m, k_prime, seed, p):
        # every start's Q is at least its cell's four-angle grid value, and
        # the refinement only rises from its starts
        expr = build_hierarchy_inequality(n, m, k_prime)
        state = NoisyState(make_state(family, n, seed), p)
        grid_best, _ = exhaustive_symmetric_max(expr, state, QUICK.grid_resolution)
        value, _, _ = maximize_violation(expr, state, QUICK)
        assert value >= grid_best - 1e-12

    def test_symmetric_bounded_by_full_parametrization(self):
        expr = build_hierarchy_inequality(3, 2, 1)
        state = NoisyState(ghz_state(3), 1.0)
        sym_val, sym_angles, _ = maximize_violation(expr, state, QUICK)
        full_val, full_angles = full_angle_search(expr, state, QUICK, extra_starts=(sym_angles,))
        assert isinstance(full_angles, MeasurementAngles)
        assert full_val >= sym_val - 1e-9

    def test_monotone_in_p_beyond_violation(self):
        expr = build_hierarchy_inequality(4, 4, 1)
        psi = ghz_state(4)
        values = [
            maximize_violation(expr, NoisyState(psi, p), QUICK)[0] for p in (0.85, 0.92, 1.0)
        ]
        assert values[0] > 0
        assert values[0] < values[1] < values[2]

    def test_deterministic_given_config(self):
        expr = build_hierarchy_inequality(4, 2, 1)
        state = NoisyState(ghz_state(4), 1.0)
        first = maximize_violation(expr, state, QUICK)
        second = maximize_violation(expr, state, QUICK)
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestThresholds:
    def test_hardy_threshold_ghz_n4(self):
        result = find_threshold(4, 4, "ghz")
        assert abs(result.p_threshold - 0.822) < 0.005
        assert result.max_lhs_at_p1 > 0
        assert result.state_family == "ghz"

    def test_two_qubit_threshold_is_inverse_sqrt2(self):
        result = find_threshold(2, 2, "ghz")
        assert abs(result.p_threshold - 1 / math.sqrt(2)) < 1e-3

    @pytest.mark.parametrize("family,n,m", [("ghz", 2, 2), ("ghz", 4, 4), ("w", 3, 3)])
    def test_lhs_changes_sign_at_threshold(self, family, n, m):
        result = find_threshold(n, m, family, QUICK)
        expr = build_hierarchy_inequality(n, m, 1)
        psi = state_for_family(family, n)
        angles = result.best_angles.expand(n)

        def lhs(p):
            return evaluate_lhs(expr, NoisyState(psi, p), angles)

        assert lhs(result.p_threshold) == pytest.approx(0.0, abs=1e-12)
        assert lhs(result.p_threshold - 1e-3) < 0
        assert lhs(result.p_threshold + 1e-3) > 0

    @pytest.mark.parametrize("family,n,m", [("ghz", 2, 2), ("w", 3, 3)])
    def test_closed_form_matches_bisection_oracle(self, family, n, m):
        expr = build_hierarchy_inequality(n, m, 1)
        psi = state_for_family(family, n)
        oracle = bisection_threshold(expr, psi, QUICK, tolerance=5e-4)
        assert find_threshold(n, m, family, QUICK).p_threshold == pytest.approx(oracle, abs=5e-4)

    def test_one_optimization_per_threshold(self, monkeypatch):
        calls = []
        original = search.maximize_violation

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(search, "maximize_violation", counting)
        find_threshold(4, 3, "ghz", QUICK)
        assert len(calls) == 1

    def test_no_violation_raises(self, monkeypatch):
        def no_violation(expr, state, config=None):
            return 0.0, SymmetricAngles(0.0, 0.0, 0.0, 0.0), search.SearchTrace(0, 1, True)

        monkeypatch.setattr(search, "maximize_violation", no_violation)
        with pytest.raises(NoViolationError):
            find_threshold(4, 2, "ghz")

    def test_threshold_result_validation(self):
        with pytest.raises(ValueError):
            ThresholdResult(4, 2, "ghz", 1.4, SymmetricAngles(0, 0, 0, 0), 0.1, True)

    def test_state_family_validation(self):
        with pytest.raises(ValueError):
            state_for_family("cluster", 4)


class TestTable:
    def test_structure_and_rough_values(self):
        results = reproduce_table("ghz", [4], config=QUICK)
        assert [(r.n, r.m) for r in results] == [(4, 2), (4, 3), (4, 4)]
        for r, expected in zip(results, (0.948, 0.914, 0.822)):
            assert abs(r.p_threshold - expected) < 0.02
            # the value reported is the LHS at the angles reported
            expr, state = build_hierarchy_inequality(4, r.m, 1), NoisyState(ghz_state(4), 1.0)
            assert evaluate_lhs(expr, state, r.best_angles.expand(4)) == pytest.approx(r.max_lhs_at_p1, abs=1e-12)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(grid_resolution=1)
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)

    def test_only_the_grid_settings_are_fields(self):
        # the refinement's iteration budget and step tolerance are constants
        assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["grid_resolution", "restarts"]
