import contextlib
import dataclasses
import hashlib
import io
import os
import re
import select
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from impulsesim import _workers, analysis, integrate, kickmap
from impulsesim.analysis import (
    fit_loglog_slope,
    run_convergence_study,
    write_report_csv,
)
from impulsesim import Model, affine_kick_model, pendulum_model
from impulsesim.integrate import (
    CadlagTrajectory,
    build_grid,
    integrate_coupled,
    integrate_deterministic,
    sample_brownian,
)

from test_integrate import (
    constant_model,
    linear_model,
    multiplicative_model,
    state_dependent_pendulum,
)


def sup_error(a, b, shift=None, shift_scale=1.0):
    """Per-coordinate sup over grid nodes and left limits of
    |a - b - shift_scale*shift|, one path at a time: the per-path reference
    of the study's sups.  All three must live on one grid."""
    if b.grid != a.grid or (shift is not None and shift.grid != a.grid):
        raise ValueError("trajectories live on different grids")
    diff = np.concatenate((a.values, a.left)) - np.concatenate((b.values, b.left))
    if shift is not None:
        diff = diff - shift_scale * np.concatenate((shift.values, shift.left))
    return np.max(np.abs(diff), axis=0)


def force_workers(mp, workers):
    """Have every study and kick table run on `workers` processes, forking
    all but the calling one, however little work it has (a study with fewer
    paths on one per path, a kick table on no more than the total holds its
    largest row)."""
    mp.setattr(analysis, "_MIN_WORK_PER_WORKER", 1)
    mp.setattr(kickmap, "_MIN_SUBSTEPS_PER_WORKER", 1)
    mp.setattr(_workers, "_usable_cpus", lambda: workers)


def normal_equation_fit(xs, ys):
    """Independent OLS oracle via the closed-form normal equations."""
    xs = np.asarray(xs, float)
    ly = np.log2(np.asarray(ys, float))
    n = len(xs)
    sx, sy = xs.sum(), ly.sum()
    sxx, sxy = (xs * xs).sum(), (xs * ly).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return slope, intercept


class TestSupError:
    def _traj(self, grid, values, left=None):
        # without explicit left limits the trajectory is continuous at impulses
        values = np.asarray(values, float)
        left = values[list(grid.impulse_nodes)] if left is None else left
        return CadlagTrajectory(grid=grid, values=values, left=np.asarray(left, float))

    def test_identical_trajectories(self):
        grid = build_grid(2.0, 2, 1.0)
        m = pendulum_model()
        t = integrate_deterministic(m, grid, np.array([0.5, 0.5]))
        assert np.all(sup_error(t, t) == 0.0)

    def test_constant_versus_zero(self):
        grid = build_grid(1.0, 1, 1.0)
        v = np.array([2.0, -3.0])
        a = self._traj(grid, np.tile(v, (3, 1)))
        b = self._traj(grid, np.zeros((3, 2)))
        assert np.array_equal(sup_error(a, b), np.abs(v))

    def test_left_limits_participate(self):
        # trajectories equal on all nodes but differing in a left limit
        grid = build_grid(2.0, 1, 1.0)
        vals = np.zeros((5, 1))
        a = self._traj(grid, vals, left=[[0.9], [0.0]])
        b = self._traj(grid, vals, left=[[0.0], [0.0]])
        assert sup_error(a, b)[0] == pytest.approx(0.9)

    def test_shift_applied(self):
        grid = build_grid(1.0, 1, 1.0)
        a = self._traj(grid, np.full((3, 1), 5.0))
        b = self._traj(grid, np.full((3, 1), 1.0))
        shift = self._traj(grid, np.full((3, 1), 2.0))
        assert sup_error(a, b, shift=shift, shift_scale=2.0)[0] == pytest.approx(0.0)

    def test_grid_mismatch_rejected(self):
        g1 = build_grid(1.0, 1, 1.0)
        g2 = build_grid(1.0, 2, 1.0)
        a = self._traj(g1, np.zeros((3, 1)))
        b = self._traj(g2, np.zeros((5, 1)))
        with pytest.raises(ValueError):
            sup_error(a, b)
        # same T and m, impulses at other nodes; b and shift are both checked
        c = self._traj(build_grid(1.0, 1, 0.5), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="different grids"):
            sup_error(a, c)
        with pytest.raises(ValueError, match="different grids"):
            sup_error(a, a, shift=c)


class TestFitLoglogSlope:
    def test_exact_quadratic(self):
        xs = np.array([-1.0, -2.0, -3.0, -4.0])
        ys = 2.0 ** (2 * xs)
        slope, _, r2 = fit_loglog_slope(xs, ys)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_linear_with_prefactor(self):
        xs = np.array([-1.0, -2.0, -5.0])
        ys = 3.7 * 2.0**xs
        slope, intercept, _ = fit_loglog_slope(xs, ys)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(np.log2(3.7), abs=1e-12)

    def test_matches_normal_equation_oracle(self):
        xs = [-1.0, -2.0, -3.0]
        ys = [0.41, 0.19, 0.11]
        slope, intercept, _ = fit_loglog_slope(xs, ys)
        os_, oi = normal_equation_fit(xs, ys)
        assert slope == pytest.approx(os_, abs=1e-12)
        assert intercept == pytest.approx(oi, abs=1e-12)

    def test_r_squared_is_at_most_one(self):
        """slope * sxy / syy rounds to 1.0000000000000002 on the exact power
        law y = 3.7 * 2^(x/2) at x = -1, -2, -3; the fit clamps it to 1."""
        xs = [-1.0, -2.0, -3.0]
        for a in (0.5, 1.0, 3.7):
            for s in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
                r2 = fit_loglog_slope(xs, [a * 2.0 ** (s * x) for x in xs])[2]
                assert r2 <= 1.0, (a, s, r2)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0], [1.0, -1.0])
        with pytest.raises(ValueError, match="distinct"):
            fit_loglog_slope([-3.0, -3.0, -3.0], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="equal length"):
            fit_loglog_slope([-1.0, -2.0, -3.0], [0.1, 0.2])
        for xs, ys in (([1.0, 2.0], [1.0, np.nan]), ([1.0, np.nan], [1.0, 2.0]),
                       ([1.0, 2.0], [1.0, np.inf])):
            with pytest.raises(ValueError, match="finite"):
                fit_loglog_slope(xs, ys)

    @pytest.mark.parametrize("order", [list(range(9, -1, -1)), [3, 7, 0, 9, 5, 1, 8, 2, 6, 4]],
                             ids=["reversed", "shuffled"])
    def test_order_of_the_pairs_keeps_the_bits(self, order):
        xs = [-float(i) for i in range(1, 11)]
        ys = [2.0**x * (1 + 0.1 * np.sin(x)) for x in xs]
        fit = fit_loglog_slope(xs, ys)
        assert fit_loglog_slope([xs[k] for k in order], [ys[k] for k in order]) == fit


class TestConvergenceStudy:
    def small_grid(self):
        return build_grid(4.0, 6, 1.0)

    def test_linear_model_clt_error_vanishes(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        M = np.array([[1.0, 0.0], [0.1, 1.0]])
        m = linear_model(A, M)
        grid = build_grid(4.0, 6, 1.0)
        rep = run_convergence_study(m, grid, np.array([0.5, 0.5]), [1, 2, 3], 4, 17)
        assert np.all(rep.mean[1] <= 1e-9)

    def test_determinism_and_seed_sensitivity(self):
        m = pendulum_model()
        grid = self.small_grid()
        x0 = np.array([0.5, 0.5])
        a = run_convergence_study(m, grid, x0, [1, 2, 3], 2, 5)
        b = run_convergence_study(m, grid, x0, [1, 2, 3], 2, 5)
        c = run_convergence_study(m, grid, x0, [1, 2, 3], 2, 6)
        assert a.mean.tobytes() == b.mean.tobytes()
        assert not np.array_equal(a.mean[0], c.mean[0])

    def test_error_monotone_in_eps(self):
        m = pendulum_model()
        rep = run_convergence_study(
            m, self.small_grid(), np.array([0.5, 0.5]),
            range(1, 11), 60, 3,
        )
        assert np.all(rep.mean[:, 0] > rep.mean[:, -1])

    def test_correction_strictly_helps_per_path(self):
        # first-order correction beats the raw deviation for eps <= 2^-2
        m = pendulum_model()
        rep = run_convergence_study(
            m, self.small_grid(), np.array([0.5, 0.5]),
            [2, 3, 4, 5, 6], 40, 29,
        )
        assert np.all(rep.paths[1] < rep.paths[0])

    def test_validation(self, monkeypatch):
        # every check runs before the deterministic pass
        def no_pass(*args):
            raise AssertionError("the deterministic pass ran")

        monkeypatch.setattr(analysis, "integrate_deterministic", no_pass)
        m = pendulum_model()
        grid = self.small_grid()
        x0 = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            run_convergence_study(m, grid, x0, [1, 2], 1, 0)
        with pytest.raises(ValueError):
            run_convergence_study(m, grid, x0, [0, 1], 4, 0)
        for exps in ([5], [3, 3], []):
            with pytest.raises(ValueError, match="distinct eps"):
                run_convergence_study(m, grid, x0, exps, 4, 0)
        with pytest.raises(ValueError, match="eps exponent 1 is repeated"):
            run_convergence_study(m, grid, x0, [1, 1, 2], 4, 0)

    @staticmethod
    def traced_peak(model, T, eps_exps, n_paths):
        """Traced peak in bytes of one in-process study at dt = 2^-10, above
        what was allocated when it began."""
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()  # a no-op when already tracing
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_convergence_study(model, build_grid(T, 10, 1.0), np.array([0.5, 0.5]),
                                  eps_exps, n_paths, 0)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    @pytest.fixture
    def warm(self, monkeypatch):
        """One process, and a first, small study that loads numpy.random and
        warms numpy's caches."""
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
        run_convergence_study(pendulum_model(), build_grid(1.0, 2, 1.0), np.array([0.5, 0.5]),
                              [1, 2], 2, 0)

    def test_memory_budget(self, warm):
        """A chunk draws, forms and steps its noise one 64-step block at a
        time, and takes Db along x a block at a time: 100 paths at dt =
        2^-10, T = 8 and 10 eps, in process, peak below 1.3 MB of traced
        allocations (1.02 MB measured; 1.16 MB with 256-step draws, 1.46 MB
        with Db held for the whole path as well)."""
        peak = self.traced_peak(pendulum_model(), 8.0, range(1, 11), 100)
        assert peak < 1.3e6, f"traced peak {peak / 1e6:.3f} MB"

    @pytest.mark.parametrize("build_model", [pendulum_model, state_dependent_pendulum],
                             ids=["pendulum", "state_dependent_pendulum"])
    def test_memory_does_not_grow_with_the_horizon(self, warm, build_model):
        """Beyond x's own 8 d bytes a step, a study's traced peak does not
        grow with its steps: from T = 2 to T = 8 at dt = 2^-10 it grows by
        16 B a step (48 with Db held for the whole path, 147 with a
        state-dependent sigma held as well); the bound leaves 8 B a step."""
        model = build_model()
        short, long = (self.traced_peak(model, T, [1, 2], 16) for T in (2.0, 8.0))
        steps = 6 * 2**10
        assert long - short < (8 * model.d + 8) * steps, \
            f"the peak grew by {(long - short) / steps:.1f} B a step"


class TestMultiplicativeNoiseOracle:
    """The study's per-path sups against the closed form of
    multiplicative_model: the one exact oracle of X's flow through a
    state-dependent sigma(X_n) dW_n.  With N(t) impulses up to t (one fewer
    at a left limit) and W the path's Brownian motion, per coordinate

        x(t) = x0 kappa^N(t) e^(a t)
        X(t) = x(t) exp(eps s W(t) - eps^2 s^2 t / 2)
        Z(t) = s W(t) x(t),

    since d(s W x) = a (s W x) dt + s x dW, and a reset maps both by kappa.
    Euler-Maruyama has strong order 1/2 in dt with multiplicative noise, so
    the per-path error of the CLT sups halves every two levels of m."""

    EXPS = list(range(2, 9))
    N_PATHS = 200

    def exact_sups(self, grid, a, s, kappa, x0, W):
        """(2, n_eps, d + 1) sups of |X - x| and |X - x - eps Z| over the nodes
        and left limits, per coordinate and of the norm, on W (n_steps + 1, d)
        from W_0 = 0; the differences go through expm1, so no O(eps^2)
        residual loses its digits."""
        nodes = np.array(grid.impulse_nodes)
        n_impulses = np.concatenate((np.searchsorted(nodes, np.arange(grid.n_steps + 1),
                                                    side="right"), np.arange(len(nodes))))
        t = np.concatenate((grid.times(), grid.times()[nodes]))[:, None]
        W = np.concatenate((W, W[nodes]))
        x = x0 * kappa ** n_impulses[:, None] * np.exp(a * t)
        sups = np.empty((2, len(self.EXPS), len(a) + 1))
        for e, i in enumerate(self.EXPS):
            noise = 2.0**-i * s * W  # eps Z / x
            growth = np.expm1(noise - (2.0**-i * s) ** 2 * t / 2)  # (X - x) / x
            for k, diff in enumerate((x * growth, x * (growth - noise))):
                sups[k, e, :-1] = np.abs(diff).max(axis=0)
                sups[k, e, -1] = np.sqrt((diff**2).sum(axis=1).max())
        return sups

    def relative_errors(self, m, a, s, kappa, x0):
        """The study at dt = 2^-m, and its per-path sups' relative errors
        against the closed form on each path's own increments."""
        a, s, kappa, x0 = (np.asarray(v, float) for v in (a, s, kappa, x0))
        grid = build_grid(4.0, m, 1.0)
        rep = run_convergence_study(multiplicative_model(a, s, kappa), grid, x0,
                                    self.EXPS, self.N_PATHS, 0)
        exact = np.empty_like(rep.paths)
        for j in range(self.N_PATHS):
            W = np.cumsum(sample_brownian(grid, len(a), 0, j).increments, axis=0)
            exact[:, :, j] = self.exact_sups(grid, a, s, kappa, x0,
                                             np.vstack((np.zeros(len(a)), W)))
        return rep, rep.paths / exact - 1

    @pytest.mark.parametrize("a, s, kappa, x0", [
        ([0.3], [1.0], [0.8], [1.0]),
        ([0.3, -0.2], [1.0, 0.5], [0.8, 1.25], [1.0, 0.5]),
    ], ids=["scalar", "diagonal-d2"])
    def test_study_converges_to_the_closed_form(self, a, s, kappa, x0):
        rms = {}
        for m in (6, 8):
            rep, rel = self.relative_errors(m, a, s, kappa, x0)
            rms[m] = np.sqrt(np.mean(rel**2, axis=(1, 2)))  # (2, d + 1): per statistic, column
            assert np.all((0.85 <= rep.slope[0]) & (rep.slope[0] <= 1.15)), rep.slope
            assert np.all((1.75 <= rep.slope[1]) & (rep.slope[1] <= 2.25)), rep.slope
            assert np.all(rms[m][0] < 0.02), rms[m]  # LLN: 1.2% scalar at m = 6
        # strong order 1/2: two levels of m halve the CLT sups' per-path error
        ratio = rms[6][1] / rms[8][1]
        assert np.all((1.6 <= ratio) & (ratio <= 2.5)), (rms, ratio)


def three_state_model():
    """3 states, 2 noises, state-dependent sigma; finite-difference Jacobians."""

    def drift(x):
        x = np.asarray(x, float)
        return np.stack((x[..., 1], 0.2 * x[..., 2] - np.sin(x[..., 0]),
                         0.1 * x[..., 0] * x[..., 1] - 0.5 * x[..., 2]), axis=-1)

    def diffusion(x):
        x = np.asarray(x, float)
        s, c = np.sin(x[..., 0]), np.cos(x[..., 2])
        return np.stack((np.stack((1.0 + 0.3 * s, 0.2 * c), axis=-1),
                         np.stack((0.1 * c, 0.8 + 0.2 * s), axis=-1),
                         np.stack((0.3 * s * c, 0.5 + 0.0 * s), axis=-1)), axis=-2)

    def reset(x):
        x = np.asarray(x, float)
        return np.stack((x[..., 0], x[..., 1] + 0.1 * np.sin(x[..., 0]),
                         0.9 * x[..., 2] + 0.05 * x[..., 1]), axis=-1)

    return Model(3, 2, drift=drift, diffusion=diffusion, reset=reset)


def one_state_model():
    """1 state, 1 noise, state-dependent sigma; finite-difference Jacobians."""
    return Model(1, 1, drift=lambda x: -np.sin(x),
                 diffusion=lambda x: (1.0 + 0.5 * np.cos(x))[..., None],
                 reset=lambda x: x + 0.3 * np.sin(x))


def unbatched_drift_model():
    """A constant drift returned unbatched, shape (d,); the stepper broadcasts it."""
    return dataclasses.replace(state_dependent_pendulum(),
                               drift=lambda x: np.array([0.3, -0.2]),
                               drift_jacobian=lambda x: np.zeros((2, 2)))


def per_state_sigma(model):
    """model with its sigma returned per state, (..., d, r), never as one
    (d, r): the stepper then calls diffusion at every step."""
    return dataclasses.replace(model, diffusion=lambda x: np.broadcast_to(
        model.diffusion(x), np.shape(x)[:-1] + (model.d, model.r)))


def sup_sq_norm(a, b, shift=None, shift_scale=1.0):
    """Sup over grid nodes and left limits of |a - b - shift_scale*shift|^2,
    the squares summed in component order."""
    def rows(t):
        return np.concatenate((t.values, t.left))

    diff = rows(a) - rows(b)
    if shift is not None:
        diff = diff - shift_scale * rows(shift)
    sq = diff[:, 0] * diff[:, 0]
    for j in range(1, diff.shape[1]):
        sq = sq + diff[:, j] * diff[:, j]
    return sq.max()


def sin_mix(M, x):
    """y_i = sum_j M_ij sin x_j, summed in column order: without BLAS a
    state's bits do not depend on the batch around it."""
    s = np.sin(x)
    y = M[:, 0] * s[..., :1]
    for j in range(1, M.shape[1]):
        y = y + M[:, j] * s[..., j:j + 1]
    return y


@st.composite
def random_models(draw):
    """d, r in {1, 2}: drift sin_mix(A, x), reset x + sin_mix(K, x) with
    analytic batched Jacobians, and sigma S (1 + cos x_i / 2), or a constant
    S returned as one (d, r) or per state."""
    d, r = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    away_from_0 = st.floats(-1.0, 1.0).filter(lambda v: abs(v) >= 0.25)
    A = draw(arrays(float, (d, d), elements=away_from_0))
    K = draw(arrays(float, (d, d), elements=st.floats(-0.5, 0.5)))
    S = draw(arrays(float, (d, r), elements=away_from_0))
    eye = np.eye(d)
    diffusion = draw(st.sampled_from([
        lambda x: S * (1.0 + 0.5 * np.cos(x))[..., :, None],
        lambda x: S,
        lambda x: np.broadcast_to(S, np.shape(x)[:-1] + (d, r)),
    ]))
    return Model(
        d, r, drift=lambda x: sin_mix(A, x), diffusion=diffusion,
        reset=lambda x: x + sin_mix(K, x),
        drift_jacobian=lambda x: A * np.cos(x)[..., None, :],
        reset_jacobian=lambda x: eye + K * np.cos(x)[..., None, :],
    )


class TestStudyMatchesPerPath:
    """The study's per-path sups equal, bitwise, sup_error over the
    integrate_coupled trajectories fed the same increments (left limits
    included), and its per-path norms the root of sup_sq_norm, from squares
    summed in component order; so do its norm means and standard errors."""

    @pytest.mark.parametrize("model, alpha", [
        (pendulum_model(), 1.0),
        (pendulum_model(), 0.5),
        (state_dependent_pendulum(), 0.5),
        (three_state_model(), 0.5),
        (unbatched_drift_model(), 1.0),
        (affine_kick_model([[-0.5, 1.0], [-1.0, -0.5]], [1.0, 0.0]), 1.0),
        (affine_kick_model([[-0.5, 1.0], [-1.0, -0.5]], [1.0, 0.0]), 0.5),
    ], ids=["pendulum-alpha1", "pendulum-alpha0.5", "sigma-of-x-alpha0.5",
            "d3-sigma-of-x-alpha0.5", "unbatched-drift-alpha1", "affine-kick-alpha1",
            "affine-kick-alpha0.5"])
    def test_bitwise_equal(self, model, alpha):
        grid = build_grid(4.0, 8, alpha)
        x0 = np.full(model.d, 0.5)
        exps, n_paths, seed = [1, 3, 5], 6, 11
        rep = run_convergence_study(model, grid, x0, exps, n_paths, seed)
        n2 = np.empty((2, len(exps), n_paths))
        for j in range(n_paths):
            path = sample_brownian(grid, model.r, seed, j)
            for e, eps in enumerate(2.0**-i for i in rep.eps_exponents):
                det, noisy, fluct = integrate_coupled(model, grid, x0, eps, path)
                n2[0, e, j] = sup_sq_norm(noisy, det)
                n2[1, e, j] = sup_sq_norm(noisy, det, fluct, eps)
                lln = [*sup_error(noisy, det), np.sqrt(n2[0, e, j])]
                clt = [*sup_error(noisy, det, shift=fluct, shift_scale=eps), np.sqrt(n2[1, e, j])]
                assert np.array(lln).tobytes() == rep.paths[0, e, j].tobytes(), (e, j)
                assert np.array(clt).tobytes() == rep.paths[1, e, j].tobytes(), (e, j)
        for norm, mean, sem in zip(np.sqrt(n2), rep.mean[..., -1], rep.sem[..., -1]):
            assert norm.mean(axis=1).tobytes() == mean.tobytes()
            se = norm.std(axis=1, ddof=1) / np.sqrt(n_paths)
            assert se.tobytes() == sem.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(model=random_models(), alpha=st.sampled_from([0.5, 1.0]),
           seed=st.integers(0, 2**16))
    def test_random_models_match_coupled(self, model, alpha, seed):
        grid = build_grid(2.0, 4, alpha)
        x0 = np.full(model.d, 0.5)
        n_paths = 3
        rep = run_convergence_study(model, grid, x0, [1, 3], n_paths, seed)
        for j in range(n_paths):
            path = sample_brownian(grid, model.r, seed, j)
            for e, eps in enumerate(2.0**-i for i in rep.eps_exponents):
                det, noisy, fluct = integrate_coupled(model, grid, x0, eps, path)
                lln = [*sup_error(noisy, det), np.sqrt(sup_sq_norm(noisy, det))]
                clt = [*sup_error(noisy, det, shift=fluct, shift_scale=eps),
                       np.sqrt(sup_sq_norm(noisy, det, fluct, eps))]
                assert np.array(lln).tobytes() == rep.paths[0, e, j].tobytes(), (e, j)
                assert np.array(clt).tobytes() == rep.paths[1, e, j].tobytes(), (e, j)


class TestCoupledMatchesPasses:
    """integrate_coupled gives bitwise the deterministic flow of
    integrate_deterministic and the same Z at every eps, 0 included; at
    eps = 0 its X is x.  Its triple keeps its bits when sigma is returned
    per state."""

    @pytest.mark.parametrize("model, eps", [
        (pendulum_model(), 2**-4),
        (pendulum_model(), 0.0),
        (state_dependent_pendulum(), 2**-3),
        (three_state_model(), 2**-3),
        (three_state_model(), 0.0),
    ], ids=["pendulum", "pendulum-eps0", "sigma-of-x", "d3-sigma-of-x",
            "d3-sigma-of-x-eps0"])
    def test_bitwise_equal(self, model, eps):
        grid = build_grid(4.0, 7, 0.5)
        x0 = np.linspace(0.5, -0.25, model.d)
        path = sample_brownian(grid, model.r, 4, 2)
        det, noisy, fluct = integrate_coupled(model, grid, x0, eps, path)
        pairs = [(det, integrate_deterministic(model, grid, x0))]
        # Z does not depend on eps, and at eps = 0 X is x
        pairs += [(fluct, integrate_coupled(model, grid, x0, e, path)[2]) for e in (0.0, 0.5)]
        if eps == 0.0:
            pairs.append((noisy, det))
        pairs += zip((det, noisy, fluct),
                     integrate_coupled(per_state_sigma(model), grid, x0, eps, path))
        for got, ref in pairs:
            assert got.grid == ref.grid == grid
            assert got.values.tobytes() == ref.values.tobytes()
            assert got.left.tobytes() == ref.left.tobytes()

    def test_negative_zero_kept_at_eps0(self):
        # X = x bitwise at eps = 0, signed zeros included: X is x itself, not
        # x + 0.0 * noise, which would turn -0.0 into +0.0
        m = Model(1, 1, drift=lambda x: -np.asarray(x, float) ** 2,
                  diffusion=lambda x: np.ones(np.shape(x)[:-1] + (1, 1)),
                  reset=lambda x: np.asarray(x, float),
                  drift_jacobian=lambda x: -2.0 * x[..., None],
                  reset_jacobian=lambda x: np.eye(1))
        grid = build_grid(2.0, 2, 1.0)
        path = sample_brownian(grid, 1, 0)
        det, noisy, _ = integrate_coupled(m, grid, np.array([-0.0]), 0.0, path)
        assert np.signbit(det.values).all()
        assert noisy.values.tobytes() == det.values.tobytes()
        assert noisy.left.tobytes() == det.left.tobytes()


class TestBatchingInvariance:
    """Worker count, chunk size, Brownian block length and a constant sigma
    returned per state change no bit of the report; the streamed draws are
    bitwise those of sample_brownian."""

    @settings(max_examples=15, deadline=None)
    @given(model=st.sampled_from([pendulum_model(), state_dependent_pendulum()]),
           m=st.integers(2, 4), n_paths=st.integers(2, 9),
           chunk=st.sampled_from([1, 3, 7]), block=st.sampled_from([1, 3, 5, 7]),
           workers=st.sampled_from([1, 2, 3]), per_state=st.booleans())
    # two workers with one chunk each, and three with uneven shares (2, 2, 3)
    @example(model=pendulum_model(), m=3, n_paths=6, chunk=3, block=5, workers=2,
             per_state=True)
    @example(model=state_dependent_pendulum(), m=4, n_paths=7, chunk=1, block=3,
             workers=3, per_state=False)
    # 512 steps in 73 blocks of 7 steps and a last one of 1 step
    @example(model=pendulum_model(), m=8, n_paths=3, chunk=3, block=7, workers=1,
             per_state=False)
    # 256 steps in 8 blocks of 32, and in 3 blocks of 96, 96 and 64 steps
    @example(model=state_dependent_pendulum(), m=7, n_paths=3, chunk=2, block=32,
             workers=1, per_state=False)
    @example(model=pendulum_model(), m=7, n_paths=4, chunk=3, block=96, workers=2,
             per_state=True)
    def test_report_bytes(self, model, m, n_paths, chunk, block, workers, per_state):
        grid = build_grid(2.0, m, 0.5)  # 8, 16 or 32 steps, or 256 or 512 in an example
        seed = 5
        args = (grid, np.array([0.5, 0.5]), [1, 3], n_paths, seed)
        ref = run_convergence_study(model, *args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_CHUNK_SIZE", chunk)
            mp.setattr(integrate, "_BLOCK_STEPS", block)
            force_workers(mp, workers)
            rep = run_convergence_study(per_state_sigma(model) if per_state else model, *args)
            draws = np.concatenate([b.copy() for b in
                                    integrate._brownian_blocks(grid, model.r, seed,
                                                               range(n_paths))])
        for f in dataclasses.fields(ref):
            a, b = np.asarray(getattr(rep, f.name)), np.asarray(getattr(ref, f.name))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        for j in range(n_paths):
            expected = sample_brownian(grid, model.r, seed, j).increments
            assert draws[:, :, j].tobytes() == expected.tobytes(), j


STUDY, TABLE = analysis._MIN_WORK_PER_WORKER, kickmap._MIN_SUBSTEPS_PER_WORKER
HALVING = [2**i for i in range(1, 18)]  # the substeps of deltas 2^-1..2^-17


class TestWorkers:
    @pytest.mark.parametrize("cpus, weights, min_work, bounds", [
        # the benchmark's paper and desk studies fork one worker on two CPUs
        pytest.param(2, [10 * 2**15] * 250, STUDY, [0, 125, 250], id="paper-study"),
        pytest.param(2, [10 * 2**13] * 200, STUDY, [0, 100, 200], id="desk-study"),
        pytest.param(2, [5 * 10**11] * 2, STUDY, [0, 1, 2], id="two-paths"),
        pytest.param(2, [STUDY // 260] * 260, STUDY, [0, 260], id="study-below-floor"),
        pytest.param(64, [3 * 256] * 260, STUDY, [0, 260], id="small-study"),
        pytest.param(1, [10**9] * 1000, STUDY, [0, 1000], id="one-cpu"),
        # the last row of 2^-1..2^-17 holds as many substeps as all the others;
        # deltas 0.1, 0.05, ... and 0.1, 0.09, 0.08 round up to 16, 32, ... substeps
        pytest.param(2, HALVING, TABLE, [0, 16, 17], id="benchmark-table-2-cpus"),
        pytest.param(3, HALVING, TABLE, [0, 16, 17], id="benchmark-table-3-cpus"),
        pytest.param(64, HALVING, TABLE, [0, 16, 17], id="benchmark-table-64-cpus"),
        pytest.param(64, [16, 32, 64, 128], TABLE, [0, 4], id="small-table"),
        pytest.param(64, HALVING[:8], TABLE, [0, 8], id="small-halving-table"),
        pytest.param(1, [16] * 3, 1, [0, 3], id="three-rows-1-cpu"),
        pytest.param(2, [16] * 3, 1, [0, 1, 3], id="three-rows-2-cpus"),
        pytest.param(3, [16] * 3, 1, [0, 1, 2, 3], id="three-rows-3-cpus"),
        pytest.param(2, HALVING[:12], 1, [0, 11, 12], id="halving-table-2-cpus"),
        # equal units end share k at floor(n_units * k / n)
        pytest.param(3, [7] * 10, 1, [0, 3, 6, 10], id="equal-units"),
        pytest.param(4, [5], 1, [0, 1], id="one-unit"),
        pytest.param(4, [], 1, [0], id="empty"),
    ])
    def test_split(self, monkeypatch, cpus, weights, min_work, bounds):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
        assert _workers._split(weights, min_work) == [
            range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def test_small_study_runs_in_process(self, monkeypatch):
        def no_fork(*args):
            raise AssertionError("a small study forked")

        monkeypatch.setattr(_workers, "_fork_shares", no_fork)
        run_convergence_study(pendulum_model(), build_grid(4.0, 6, 1.0),
                              np.array([0.5, 0.5]), [1, 2, 3], 260, 0)

    def test_without_fork_a_job_runs_in_process(self, monkeypatch):
        """On a platform without os.fork a job is one share, and a study
        forced onto two workers runs in process with the same report bytes."""
        def report():
            buf = io.StringIO()
            write_report_csv(run_convergence_study(pendulum_model(), build_grid(2.0, 4, 1.0),
                                                   np.array([0.5, 0.5]), [1, 2], 6, 3), buf)
            return buf.getvalue()

        def no_fork(*args):
            raise AssertionError("a job forked without os.fork")

        ref = report()
        force_workers(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(_workers, "_fork_shares", no_fork)
        assert _workers._split([5] * 10, 1) == [range(10)]
        assert report() == ref

    def test_usable_cpus_without_affinity(self, monkeypatch):
        """Without os.sched_getaffinity the CPU count is os.cpu_count(), or
        1 when that is unknown."""
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _workers._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _workers._usable_cpus() == 1

    def test_model_error_in_a_worker_comes_back(self, monkeypatch):
        """An exception a model raises in a worker reaches the caller with
        its type and message."""
        parent, base = os.getpid(), pendulum_model()

        def drift(x):
            if os.getpid() != parent:
                raise ValueError("drift refused outside the calling process")
            return base.drift(x)

        force_workers(monkeypatch, 2)
        with pytest.raises(ValueError) as info:
            run_convergence_study(dataclasses.replace(base, drift=drift),
                                  build_grid(2.0, 4, 1.0), np.array([0.5, 0.5]),
                                  [1, 2], 4, 0)
        assert type(info.value) is ValueError
        assert str(info.value) == "drift refused outside the calling process"

    def test_error_in_the_calling_share_ends_the_workers(self, monkeypatch):
        """An exception in the calling process's own share reaches the caller
        with its type and message at once, not after the workers have
        stepped their shares (8 s here), and no worker outlives the study."""
        parent, base = os.getpid(), pendulum_model()

        def drift(x):
            if os.getpid() != parent:
                time.sleep(0.5)
            elif np.shape(x)[:-1] != (1, 1):  # the coupled pass, not the deterministic one
                raise ValueError("drift refused in the calling process")
            return base.drift(x)

        force_workers(monkeypatch, 2)
        r, w = os.pipe()  # the forked worker inherits the write end
        try:
            start = time.monotonic()
            with pytest.raises(ValueError) as info:
                run_convergence_study(dataclasses.replace(base, drift=drift),
                                      build_grid(2.0, 3, 1.0), np.array([0.5, 0.5]),
                                      [1, 2], 4, 0)
            assert time.monotonic() - start < 2.0
            assert type(info.value) is ValueError
            assert str(info.value) == "drift refused in the calling process"
            os.close(w)
            w = None
            assert select.select([r], [], [], 2)[0], "a worker outlived its study"
            assert os.read(r, 1) == b""
        finally:
            os.close(r)
            if w is not None:
                os.close(w)

    def test_sigma_and_dh_are_taken_once_per_chunk(self, monkeypatch):
        """A study whose diffusion returns one (d, r) matrix probes it once per
        chunk, at the chunk's first state, and takes Dh once per chunk: not
        per step or per block (3 chunks of 256 steps in 4 blocks here)."""
        base, calls = pendulum_model(), {"diffusion": 0, "reset_jacobian": 0}

        def counted(name):
            def count(x):
                calls[name] += 1
                return getattr(base, name)(x)
            return count

        monkeypatch.setattr(analysis, "_CHUNK_SIZE", 2)
        force_workers(monkeypatch, 1)
        grid = build_grid(2.0, 7, 1.0)
        assert grid.n_steps == 4 * integrate._BLOCK_STEPS and len(grid.impulse_nodes) == 2
        run_convergence_study(dataclasses.replace(base, **{k: counted(k) for k in calls}),
                              grid, np.array([0.5, 0.5]), [1, 2], 6, 0)
        assert calls == {"diffusion": 3, "reset_jacobian": 3}

    def test_worker_exits_when_the_calling_process_dies(self):
        """A worker whose study process is killed exits too, and does not
        step on and then block for ever on a pipe that nobody reads."""
        code = (
            "import dataclasses, os, sys, time\n"
            "import numpy as np\n"
            "from impulsesim import _workers, analysis, build_grid, pendulum_model\n"
            "analysis._MIN_WORK_PER_WORKER, _workers._usable_cpus = 1, lambda: 2\n"
            "parent, base, fd = os.getpid(), pendulum_model(), int(sys.argv[1])\n"
            "def drift(x):\n"
            "    if os.getpid() != parent:\n"
            "        os.write(fd, b'w')\n"
            "        time.sleep(60)\n"
            "    return base.drift(x)\n"
            "analysis.run_convergence_study(dataclasses.replace(base, drift=drift),\n"
            "    build_grid(1.0, 2, 1.0), np.array([0.5, 0.5]), [1, 2], 4, 0)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        r, w = os.pipe()
        try:
            proc = subprocess.Popen([sys.executable, "-c", code, str(w)], pass_fds=(w,),
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                    env={**os.environ, "PYTHONPATH": src})
            os.close(w)
            # the worker holds the only other write end of the pipe
            assert select.select([r], [], [], 60)[0] and os.read(r, 1) == b"w"
            proc.kill()
            proc.wait(timeout=60)
            assert select.select([r], [], [], 10)[0], "the worker outlived its study"
            assert os.read(r, 1) == b""
        finally:
            os.close(r)


@contextlib.contextmanager
def no_hang(seconds=60):
    """Fail a block that runs over `seconds`, instead of hanging the suite."""
    def timeout(*_):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TwoArgError(Exception):
    """Pickles, but unpickling calls TwoArgError(message), which fails."""
    def __init__(self, unit, why):
        super().__init__(f"unit {unit} {why}")


def lost_units(shares):
    return "lost " + ", ".join(str(i) for share in shares for i in share)


class TestForkRunner:
    """_workers.run_shares on three units of work, forced onto one process
    per unit: units 1 and 2 run in forked workers."""

    @pytest.mark.parametrize("fault, unit, raises, message", [
        pytest.param(None, None, None, None, id="success"),
        pytest.param("exit", 2, ChildProcessError, "lost 2", id="last-worker-dies"),
        pytest.param("exit", 1, ChildProcessError, "lost 1, 2", id="first-worker-dies"),
        pytest.param("raise", 2, ValueError, "unit 2 refused", id="worker-raises"),
        pytest.param("raise", 0, ValueError, "unit 0 refused", id="calling-share-raises"),
        pytest.param("unpicklable", 2, ChildProcessError, "lost 2",
                     id="worker-raises-unpicklable"),
        pytest.param("unrebuildable", 1, ChildProcessError, "lost 1, 2",
                     id="worker-raises-unrebuildable"),
    ])
    def test_lost_shares_and_no_worker_left(self, monkeypatch, fault, unit, raises, message):
        """A worker that dies, or whose exception does not pickle or unpickle,
        loses its share and the shares after it, and only those: the message
        names no unit that came back.  No forked worker is left unreaped,
        whether the job returns or raises."""
        parent, fork, pids = os.getpid(), os.fork, []

        def logged_fork():  # logs the pid of each forked worker
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        def run_share(share):
            (i,) = share
            if i == unit and fault == "exit":
                os._exit(1)
            if i == unit and fault == "unrebuildable":
                raise TwoArgError(i, "refused")
            if i == unit:
                error = ValueError(f"unit {i} refused")
                if fault == "unpicklable":
                    error.callback = lambda: None  # a local object: pickling fails
                raise error
            return [(i, os.getpid() != parent)]

        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", logged_fork)
        with no_hang():
            if raises is None:
                assert _workers.run_shares(run_share, [1] * 3, 1, lost_units) == [
                    (0, False), (1, True), (2, True)]
            else:
                with pytest.raises(raises) as info:
                    _workers.run_shares(run_share, [1] * 3, 1, lost_units)
                assert type(info.value) is raises and str(info.value) == message
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ChildProcessError):  # reaped: no such child
                os.waitpid(pid, os.WNOHANG)


class TestStudyOverflow:
    def test_names_every_bad_eps_and_path(self):
        # x = 0 stays put; a noisy path explodes once it passes 1.  The study
        # and integrate_coupled raise, and no RuntimeWarning leaks out.
        eye = np.eye(1)
        m = Model(
            1, 1,
            drift=lambda x: 1e300 * np.asarray(x, float) ** 2 * (np.asarray(x) > 1.0),
            diffusion=lambda x: eye,
            reset=lambda x: np.asarray(x, float),
            drift_jacobian=lambda x: np.zeros((1, 1)),
            reset_jacobian=lambda x: eye,
        )
        grid = build_grid(4.0, 6, 1.0)
        x0 = np.zeros(1)
        exps, n_paths, seed = [1, 2, 3], 10, 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = set()
            for j in range(n_paths):
                path = sample_brownian(grid, 1, seed, j)
                for i in exps:
                    try:
                        integrate_coupled(m, grid, x0, 2.0**-i, path)
                    except FloatingPointError:
                        expected.add((2.0**-i, j))
            # more than one eps and more than one path blow up, not all of them;
            # one lies in a forked worker's share (from path 5 with two
            # workers, from path 3 with three)
            assert len({e for e, _ in expected}) > 1 and len({j for _, j in expected}) > 1
            assert len(expected) < len(exps) * n_paths
            assert max(j for _, j in expected) >= 5
            for workers in (1, 2, 3):
                with pytest.MonkeyPatch.context() as mp:
                    force_workers(mp, workers)
                    with pytest.raises(FloatingPointError,
                                       match="path overflow at eps") as info:
                        run_convergence_study(m, grid, x0, exps, n_paths, seed)
                named = {
                    (float(e), int(j))
                    for e, js in re.findall(r"eps=([0-9.e-]+), path index ([0-9, ]+)",
                                            str(info.value))
                    for j in js.split(", ")
                }
                assert named == expected, workers


class TestReportCsv:
    LAYOUTS = [
        (one_state_model(),
         "i,eps,e1_lln,norm_lln,e1_clt,norm_clt,se1_lln,se_norm_lln,se1_clt,se_norm_clt"),
        (pendulum_model(),
         "i,eps,e1_lln,e2_lln,norm_lln,e1_clt,e2_clt,norm_clt,"
         "se1_lln,se2_lln,se_norm_lln,se1_clt,se2_clt,se_norm_clt"),
    ]

    def test_layout(self):
        for model, header in self.LAYOUTS:
            self.check_layout(model, header)

    def check_layout(self, model, header):
        grid = build_grid(2.0, 5, 1.0)
        rep = run_convergence_study(model, grid, np.full(model.d, 0.5),
                                    [1, 2, 3], 4, 1)
        k = model.d + 1  # columns per table: e1..ed, norm
        assert rep.mean.shape == rep.sem.shape == (2, 3, k)
        assert rep.slope.shape == rep.r2.shape == (2, k)
        tables = (*rep.mean, *rep.sem)  # lln means, clt means, lln sems, clt sems
        buf = io.StringIO()
        write_report_csv(rep, buf)
        rows = [ln.split(",") for ln in buf.getvalue().splitlines()]
        assert ",".join(rows[0]) == header
        assert len(rows) == 1 + 3 + 4  # header, data rows, footer rows

        def fmt(v):
            return "%.17g" % v

        for e, (row, eps) in enumerate(zip(rows[1:4], ["0.5", "0.25", "0.125"])):
            assert row[:2] == [str(e + 1), eps]
            assert row[2:] == [fmt(v) for t in tables for v in t[e]]
        # each footer fills the mean block of its own statistic, nothing else
        for row, (label, block) in zip(rows[4:], [("slope_lln", 0), ("slope_clt", 1),
                                                  ("r2_lln", 0), ("r2_clt", 1)]):
            cells = [""] * (4 * k)
            table = rep.slope if label.startswith("slope") else rep.r2
            cells[block * k:(block + 1) * k] = [fmt(v) for v in table[block]]
            assert row == [label, ""] + cells

    def test_every_row_has_the_header_width_for_any_statistics(self, monkeypatch):
        """A third statistic widens the header by a mean and a sem block;
        each footer row pads to the same width."""
        monkeypatch.setattr(analysis, "STATISTICS", ("lln", "clt", "third"))
        d, n_eps = 2, 3
        paths = np.arange(1.0, 1 + 3 * n_eps * 2 * (d + 1)).reshape(3, n_eps, 2, d + 1)
        rep = analysis.ConvergenceReport(eps_exponents=(1, 2, 3), paths=paths)
        buf = io.StringIO()
        write_report_csv(rep, buf)
        rows = [ln.split(",") for ln in buf.getvalue().splitlines()]
        assert len(rows) == 1 + n_eps + 2 * 3
        assert {len(row) for row in rows} == {2 + 2 * 3 * (d + 1)}


def test_report_refuses_a_column_of_zero_mean():
    """A report built from per-path sups with a column of zeros at one eps
    names the statistic, the column and the eps, as a study does."""
    paths = np.ones((2, 3, 4, 3))
    paths[1, 1, :, 1] = 0.0
    with pytest.raises(ValueError, match=r"^clt mean error of column e2 is 0 at eps=0\.25: "):
        analysis.ConvergenceReport(eps_exponents=(1, 2, 3), paths=paths)


class TestReportRefuses:
    """The report is the one check of which per-path tables can be summarized:
    a hand-built table is refused as a study's is, before any reduction."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("col", [0, 2], ids=["coordinate", "norm"])
    def test_a_non_finite_sup_names_every_eps_and_path(self, bad, col):
        paths = np.ones((2, 3, 5, 3))
        paths[0, 0, 4, col] = bad
        paths[1, 2, (1, 3), col] = bad  # two paths at one eps, in the clt table
        paths[:, 2, 3, col] = bad  # both statistics of one path name it once
        with pytest.raises(FloatingPointError, match=(
                r"^path overflow at eps=0\.5, path index 4; "
                r"eps=0\.125, path index 1, 3$")):
            analysis.ConvergenceReport(eps_exponents=(1, 2, 3), paths=paths)

    def test_one_path(self):
        with pytest.raises(ValueError, match=r"^a report needs at least 2 paths, got 1$"):
            analysis.ConvergenceReport(eps_exponents=(1, 2), paths=np.ones((2, 2, 1, 2)))

    @pytest.mark.parametrize("exps, shape", [
        ((1, 2), (2, 3, 4, 3)),
        ((1, 2, 3, 4), (2, 3, 4, 3)),
        ((1, 2, 3), (2, 3, 4)),
        ((1, 2, 3), (2, 3, 4, 1)),
        ((1, 2, 3), (1, 3, 4, 3)),
    ], ids=["more-eps-rows-than-exponents", "fewer-eps-rows-than-exponents", "3-d",
            "no-coordinate-column", "one-statistic"])
    def test_a_table_of_the_wrong_shape(self, exps, shape):
        # a NaN in the last entry: the shape is refused before any other check,
        # so a NaN in an eps row with no exponent is not dropped unnamed
        paths = np.ones(shape)
        paths[(-1,) * len(shape)] = np.nan
        with pytest.raises(ValueError, match=(
                rf"^paths must have shape \(2, {len(exps)}, n_paths, d \+ 1\) with d >= 1 "
                rf"for {len(exps)} eps exponents, got {re.escape(str(shape))}$")):
            analysis.ConvergenceReport(eps_exponents=exps, paths=paths)


class TestReportIsAValue:
    def report(self):
        paths = np.arange(1.0, 1 + 2 * 3 * 4 * 3).reshape(2, 3, 4, 3)
        return analysis.ConvergenceReport(eps_exponents=(1, 2, 3), paths=paths)

    @pytest.mark.parametrize("name", ["paths", "mean", "sem", "slope", "r2"])
    def test_tables_are_read_only(self, name):
        rep = self.report()
        table = getattr(rep, name)
        before = table.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0.0
        assert getattr(rep, name).tobytes() == before

    def test_owns_a_copy_of_the_given_table(self):
        """Writing into the caller's array after construction leaves the
        report's table, and the tables derived from it, as they were."""
        p = np.arange(1.0, 73).reshape(2, 3, 4, 3)
        r = analysis.ConvergenceReport((1, 2, 3), p)
        p[...] = 0.0
        assert r.paths[0, 0, 0].tolist() == [1.0, 2.0, 3.0]
        assert r.mean[0, 0].tolist() == [5.5, 6.5, 7.5]
        assert np.array_equal(r.paths, np.arange(1.0, 73).reshape(2, 3, 4, 3))

    def test_fields_cannot_be_rebound(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.report().mean = np.zeros((2, 3, 3))

    def test_compares_and_hashes_by_identity(self):
        a, b = self.report(), self.report()
        assert np.array_equal(a.paths, b.paths)
        assert (a == b) is False and a != b
        assert (a == a) is True
        assert hash(a) == hash(a) and len({a, b}) == 2


class TestReportBytes:
    """sha256 of the report CSV of two small seeded studies, d = 2 and d = 1:
    a change to any byte of a report fails here.  No byte goes through BLAS,
    so the digests hold on any CPU (see the kernel guard in test_cli).
    16 paths, because from 8 paths on numpy sums a contiguous row pairwise,
    so reducing the norm column together with the coordinates would change
    its last bits."""

    @pytest.mark.parametrize("model, alpha, exps, digest", [
        (pendulum_model(), 1.0, [1, 2, 3, 4],
         "f5a7fd8108f74ba3ef5a6b00bddcdffd71f643f67d50f07d012c88ea18d4fdcb"),
        (one_state_model(), 0.5, [1, 2, 3],
         "4d7204f7187b48c0150e92fb25ab744bb30204cafb8e5a2eb6c41b3638122261"),
    ], ids=["pendulum", "one-state"])
    def test_digest(self, model, alpha, exps, digest):
        rep = run_convergence_study(model, build_grid(4.0, 6, alpha),
                                    np.full(model.d, 0.5), exps, 16, 7)
        buf = io.StringIO()
        write_report_csv(rep, buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
