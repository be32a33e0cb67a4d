import dataclasses
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from impulsesim import analysis, integrate
from impulsesim.analysis import (
    fit_loglog_slope,
    run_convergence_study,
    sup_error,
    write_report_csv,
)
from impulsesim.dynamics import Model, pendulum_model
from impulsesim.integrate import (
    CadlagTrajectory,
    IntegrationOverflowError,
    build_grid,
    integrate_coupled,
    integrate_deterministic,
    integrate_fluctuation,
    integrate_sde,
    path_seed,
    sample_brownian,
)

from test_integrate import constant_model, linear_model, state_dependent_pendulum


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

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0], [1.0, -1.0])
        with pytest.raises(ValueError, match="distinct"):
            fit_loglog_slope([-3.0, -3.0, -3.0], [0.1, 0.2, 0.3])


class TestConvergenceStudy:
    def small_grid(self):
        return build_grid(4.0, 6, 1.0)

    def test_linear_model_clt_error_vanishes(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        M = np.array([[1.0, 0.0], [0.1, 1.0]])
        m = linear_model(A, M)
        grid = build_grid(4.0, 6, 1.0)
        rep = run_convergence_study(m, grid, np.array([0.5, 0.5]), [1, 2, 3], 4, 17)
        assert np.all(rep.mean_clt <= 1e-9)

    def test_determinism_and_seed_sensitivity(self):
        m = pendulum_model()
        grid = self.small_grid()
        x0 = np.array([0.5, 0.5])
        a = run_convergence_study(m, grid, x0, [1, 2, 3], 2, 5)
        b = run_convergence_study(m, grid, x0, [1, 2, 3], 2, 5)
        c = run_convergence_study(m, grid, x0, [1, 2, 3], 2, 6)
        assert a.mean_lln.tobytes() == b.mean_lln.tobytes()
        assert a.mean_clt.tobytes() == b.mean_clt.tobytes()
        assert not np.array_equal(a.mean_lln, c.mean_lln)

    def test_error_monotone_in_eps(self):
        m = pendulum_model()
        rep = run_convergence_study(
            m, self.small_grid(), np.array([0.5, 0.5]),
            range(1, 11), 60, 3,
        )
        assert np.all(rep.mean_lln[0] > rep.mean_lln[-1])
        assert np.all(rep.mean_clt[0] > rep.mean_clt[-1])

    def test_correction_strictly_helps_per_path(self):
        # first-order correction beats the raw deviation for eps <= 2^-2
        m = pendulum_model()
        rep = run_convergence_study(
            m, self.small_grid(), np.array([0.5, 0.5]),
            [2, 3, 4, 5, 6], 40, 29,
        )
        assert np.all(rep.clt_paths < rep.lln_paths)

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

    return Model(3, 2, drift=drift, diffusion=diffusion, reset=reset,
                 name="three_state")


def unbatched_drift_model():
    """A constant drift returned unbatched, shape (d,); the stepper broadcasts it."""
    return dataclasses.replace(state_dependent_pendulum(),
                               drift=lambda x: np.array([0.3, -0.2]),
                               drift_jacobian=lambda x: np.zeros((2, 2)))


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
    analytic batched Jacobians, and sigma S constant or S (1 + cos x_i / 2)."""
    d, r = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    away_from_0 = st.floats(-1.0, 1.0).filter(lambda v: abs(v) >= 0.25)
    A = draw(arrays(float, (d, d), elements=away_from_0))
    K = draw(arrays(float, (d, d), elements=st.floats(-0.5, 0.5)))
    S = draw(arrays(float, (d, r), elements=away_from_0))
    eye = np.eye(d)
    if draw(st.booleans()):
        def diffusion(x):
            return S * (1.0 + 0.5 * np.cos(x))[..., :, None]
        constant = None
    else:
        def diffusion(x):
            return np.broadcast_to(S, np.shape(x)[:-1] + (d, r))
        constant = S
    return Model(
        d, r, drift=lambda x: sin_mix(A, x), diffusion=diffusion,
        reset=lambda x: x + sin_mix(K, x),
        drift_jacobian=lambda x: A * np.cos(x)[..., None, :],
        reset_jacobian=lambda x: eye + K * np.cos(x)[..., None, :],
        diffusion_constant=constant,
    )


class TestStudyMatchesPerPath:
    """The study's per-path sups equal, bitwise, sup_error over the per-path
    integrators fed the same increments (left limits included); so do its
    norm means and standard errors, from squares summed in component order."""

    @pytest.mark.parametrize("model, alpha", [
        (pendulum_model(), 1.0),
        (pendulum_model(), 0.5),
        (state_dependent_pendulum(), 0.5),
        (three_state_model(), 0.5),
        (unbatched_drift_model(), 1.0),
    ], ids=["pendulum-alpha1", "pendulum-alpha0.5", "sigma-of-x-alpha0.5",
            "d3-sigma-of-x-alpha0.5", "unbatched-drift-alpha1"])
    def test_bitwise_equal(self, model, alpha):
        grid = build_grid(4.0, 8, alpha)
        x0 = np.full(model.d, 0.5)
        exps, n_paths, seed = [1, 3, 5], 6, 11
        rep = run_convergence_study(model, grid, x0, exps, n_paths, seed)
        det = integrate_deterministic(model, grid, x0)
        n2 = np.empty((2, len(exps), n_paths))
        for j in range(n_paths):
            path = sample_brownian(grid, model.r, path_seed(seed, j))
            fluct = integrate_fluctuation(model, grid, det, path)
            for e, eps in enumerate(rep.eps_list):
                noisy = integrate_sde(model, grid, x0, eps, path)
                lln = sup_error(noisy, det)
                clt = sup_error(noisy, det, shift=fluct, shift_scale=eps)
                assert lln.tobytes() == rep.lln_paths[e, j].tobytes(), (e, j)
                assert clt.tobytes() == rep.clt_paths[e, j].tobytes(), (e, j)
                n2[0, e, j] = sup_sq_norm(noisy, det)
                n2[1, e, j] = sup_sq_norm(noisy, det, fluct, eps)
        norms = np.sqrt(n2)
        for norm, mean, sem in ((norms[0], rep.mean_lln_norm, rep.sem_lln_norm),
                                (norms[1], rep.mean_clt_norm, rep.sem_clt_norm)):
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
            path = sample_brownian(grid, model.r, path_seed(seed, j))
            for e, eps in enumerate(rep.eps_list):
                det, noisy, fluct = integrate_coupled(model, grid, x0, eps, path)
                lln = sup_error(noisy, det)
                clt = sup_error(noisy, det, shift=fluct, shift_scale=eps)
                assert lln.tobytes() == rep.lln_paths[e, j].tobytes(), (e, j)
                assert clt.tobytes() == rep.clt_paths[e, j].tobytes(), (e, j)


class TestCoupledMatchesPasses:
    """integrate_coupled, one pass for X and Z, gives bitwise the
    trajectories of the three separate integrators."""

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
        path = sample_brownian(grid, model.r, path_seed(4, 2))
        det, noisy, fluct = integrate_coupled(model, grid, x0, eps, path)
        ref_det = integrate_deterministic(model, grid, x0)
        refs = (ref_det, integrate_sde(model, grid, x0, eps, path),
                integrate_fluctuation(model, grid, ref_det, path))
        for got, ref in zip((det, noisy, fluct), refs):
            assert got.grid == grid
            assert got.values.tobytes() == ref.values.tobytes()
            assert got.left.tobytes() == ref.left.tobytes()
        if eps == 0.0:
            assert noisy.values.tobytes() == det.values.tobytes()

    def test_negative_zero_kept_at_eps0(self):
        # X = x bitwise at eps = 0, signed zeros included: the noise term
        # is left out, not multiplied by 0.0
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


class TestBatchingInvariance:
    """Chunk size and Brownian block length change no bit of the report;
    the streamed draws are bitwise those of sample_brownian."""

    @settings(max_examples=15, deadline=None)
    @given(model=st.sampled_from([pendulum_model(), state_dependent_pendulum()]),
           m=st.integers(2, 4), n_paths=st.integers(2, 9),
           chunk=st.sampled_from([1, 3, 7]), block=st.sampled_from([1, 3, 5, 7]))
    def test_report_bytes(self, model, m, n_paths, chunk, block):
        grid = build_grid(2.0, m, 0.5)  # 8, 16 or 32 steps
        seed = 5
        args = (model, grid, np.array([0.5, 0.5]), [1, 3], n_paths, seed)
        ref = run_convergence_study(*args)
        seeds = [path_seed(seed, j) for j in range(n_paths)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_CHUNK_SIZE", chunk)
            mp.setattr(integrate, "_BLOCK_STEPS", block)
            rep = run_convergence_study(*args)
            draws = np.concatenate([b.copy() for b in
                                    integrate._brownian_blocks(grid, model.r, seeds)])
        for f in dataclasses.fields(ref):
            a, b = np.asarray(getattr(rep, f.name)), np.asarray(getattr(ref, f.name))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        for j, s in enumerate(seeds):
            expected = sample_brownian(grid, model.r, s).increments
            assert draws[:, :, j].tobytes() == expected.tobytes(), j


class TestStudyOverflow:
    def test_names_every_bad_eps_and_path(self):
        # x = 0 stays put; a noisy path explodes once it passes 1.  The study
        # and the per-path integrator raise, and no RuntimeWarning leaks out.
        eye = np.eye(1)
        m = Model(
            1, 1,
            drift=lambda x: 1e300 * np.asarray(x, float) ** 2 * (np.asarray(x) > 1.0),
            diffusion=lambda x: np.broadcast_to(eye, np.shape(x)[:-1] + (1, 1)),
            reset=lambda x: np.asarray(x, float),
            drift_jacobian=lambda x: np.zeros((1, 1)),
            reset_jacobian=lambda x: eye,
            diffusion_constant=eye,
        )
        grid = build_grid(4.0, 6, 1.0)
        x0 = np.zeros(1)
        exps, n_paths, seed = [1, 2, 3], 10, 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = set()
            for j in range(n_paths):
                path = sample_brownian(grid, 1, path_seed(seed, j))
                for i in exps:
                    try:
                        integrate_sde(m, grid, x0, 2.0**-i, path)
                    except IntegrationOverflowError:
                        expected.add((2.0**-i, j))
            # more than one eps and more than one path blow up, not all of them
            assert len({e for e, _ in expected}) > 1 and len({j for _, j in expected}) > 1
            assert len(expected) < len(exps) * n_paths
            with pytest.raises(IntegrationOverflowError, match="path overflow at eps") as info:
                run_convergence_study(m, grid, x0, exps, n_paths, seed)
            named = {
                (float(e), int(j))
                for e, js in re.findall(r"eps=([0-9.e-]+), path index ([0-9, ]+)",
                                        str(info.value))
                for j in js.split(", ")
            }
            assert named == expected


class TestReportCsv:
    def test_layout(self):
        m = pendulum_model()
        grid = build_grid(2.0, 5, 1.0)
        rep = run_convergence_study(m, grid, np.array([0.5, 0.5]),
                                    [1, 2, 3], 4, 1)
        buf = io.StringIO()
        write_report_csv(rep, buf)
        lines = buf.getvalue().splitlines()
        header = lines[0].split(",")
        assert header[:8] == [
            "i", "eps", "e1_lln", "e2_lln", "norm_lln",
            "e1_clt", "e2_clt", "norm_clt",
        ]
        assert len(lines) == 1 + 3 + 4  # header, data rows, footer rows
        footers = [ln.split(",")[0] for ln in lines[4:]]
        assert footers == ["slope_lln", "slope_clt", "r2_lln", "r2_clt"]
        slope_row = lines[4].split(",")
        assert float(slope_row[2]) == pytest.approx(rep.slope_lln[0])
