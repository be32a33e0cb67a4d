import dataclasses
import hashlib
import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from impulsesim import integrate
from impulsesim.dynamics import Model, pendulum_model
from impulsesim.integrate import (
    BrownianPath,
    CadlagTrajectory,
    SampleGrid,
    build_grid,
    integrate_coupled,
    integrate_deterministic,
    sample_brownian,
    write_trajectory_csv,
)


def linear_model(A, M, d=2):
    """b(x) = Ax, h(x) = Mx, sigma = identity; exact-coupling test system."""
    A = np.asarray(A, float)
    M = np.asarray(M, float)
    eye = np.eye(d)
    return Model(
        d, d,
        drift=lambda x: np.asarray(x, float) @ A.T,
        diffusion=lambda x: eye,
        reset=lambda x: np.asarray(x, float) @ M.T,
        drift_jacobian=lambda x: A,
        reset_jacobian=lambda x: M,
    )


def constant_model(c=0.0, d=1):
    """b = 0, h(x) = x + c; the flow is the identity between impulses."""
    eye = np.eye(d)
    return Model(
        d, d,
        drift=lambda x: np.zeros_like(np.asarray(x, float)),
        diffusion=lambda x: eye,
        reset=lambda x: np.asarray(x, float) + c,
        drift_jacobian=lambda x: np.zeros((d, d)),
        reset_jacobian=lambda x: eye,
    )


def state_dependent_pendulum():
    """Pendulum drift and reset with a state-dependent 2x3 diffusion."""
    pend = pendulum_model()

    def diffusion(x):
        x = np.asarray(x, float)
        s, c = np.sin(x[..., 0]), np.cos(x[..., 1])
        row1 = np.stack((1.0 + 0.5 * s, 0.3 * c, 0.1 * s * c), axis=-1)
        row2 = np.stack((0.2 * c, 0.8 + 0.1 * s, -0.4 * s), axis=-1)
        return np.stack((row1, row2), axis=-2)

    return Model(
        2, 3, drift=pend.drift, diffusion=diffusion, reset=pend.reset,
        drift_jacobian=pend.drift_jacobian, reset_jacobian=pend.reset_jacobian,
    )


def multiplicative_model(a, s, kappa):
    """Per coordinate i, b = a_i x_i, sigma = s_i x_i on its own noise
    component and h = kappa_i x_i: a linear SDE with multiplicative noise,
    whose whole coupled triple has a pathwise closed form (see
    test_analysis.TestMultiplicativeNoiseOracle)."""
    a, s, kappa = (np.asarray(v, float) for v in (a, s, kappa))
    sigma = np.diag(s)
    return Model(
        len(a), len(a),
        drift=lambda x: a * x,
        diffusion=lambda x: x[..., None] * sigma,
        reset=lambda x: kappa * x,
        drift_jacobian=lambda x: np.diag(a),
        reset_jacobian=lambda x: np.diag(kappa),
    )


class TestBuildGrid:
    def test_paper_scale_grid(self):
        grid = build_grid(8.0, 12, 1.0)
        assert grid.n_steps == 32768
        assert grid.impulse_nodes == tuple(4096 * k for k in range(1, 9))
        assert grid.n_steps * grid.dt == 8.0

    def test_half_offset_grid(self):
        grid = build_grid(2.0, 1, 0.5)
        assert grid.n_steps == 4
        assert grid.impulse_nodes == (1, 3)

    def test_misaligned_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            build_grid(1.0, 0, 0.3)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            build_grid(0.0, 4, 1.0)
        with pytest.raises(ValueError):
            build_grid(1.1, 1, 1.0)
        for T in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"positive and finite, got {T}"):
                build_grid(T, 4, 1.0)
        # 2^m overflows a float; 2^1000 does not, but T * 2^1000 does
        for T, m in ((8.0, 2000), (2.0**30, 1000)):
            with pytest.raises(ValueError, match=f"m={m} is too large"):
                build_grid(T, m, 1.0)
        # T * 2^m is a finite float but above the largest index, 2^63 - 1
        for T in (1e300, 2.0**61):
            with pytest.raises(ValueError, match="^" + re.escape(f"T={T} and m=2 give T*2^m = ")):
                build_grid(T, 2, 1.0)
        with pytest.raises(ValueError, match="^dt exponent m must be >= 0, got -1$"):
            build_grid(1.0, -1, 1.0)

    def test_impulse_nodes_exact(self):
        grid = build_grid(5.0, 6, 0.25)
        times = grid.times()
        for i, idx in enumerate(grid.impulse_nodes):
            assert times[idx] == i + 0.25


class TestSampleBrownian:
    def test_seed_determinism(self):
        grid = build_grid(2.0, 5, 1.0)
        a = sample_brownian(grid, 2, 42)
        b = sample_brownian(grid, 2, 42)
        assert a.increments.tobytes() == b.increments.tobytes()
        # the default path index is 0; another index or seed is another path
        assert sample_brownian(grid, 2, 42, 0).increments.tobytes() == a.increments.tobytes()
        for other in (sample_brownian(grid, 2, 42, 1), sample_brownian(grid, 2, 43)):
            assert not np.array_equal(other.increments, a.increments)

    def test_terminal_variance(self):
        # Var(W_T) = T, estimated across 10^4 seeded paths
        grid = build_grid(2.0, 3, 1.0)
        totals = [
            sample_brownian(grid, 1, 7, j).increments.sum()
            for j in range(10_000)
        ]
        assert abs(np.var(totals) - 2.0) / 2.0 < 0.05

    def test_empty_grid(self):
        grid = SampleGrid(dt=1.0, n_steps=0, impulse_nodes=())
        path = sample_brownian(grid, 3, 0)
        assert path.increments.shape == (0, 3)

    def test_bad_dimension(self):
        grid = build_grid(1.0, 2, 1.0)
        with pytest.raises(ValueError):
            sample_brownian(grid, 0, 1)

    def test_negative_path_index_named(self):
        for grid in (build_grid(1.0, 2, 1.0), SampleGrid(dt=1.0, n_steps=0, impulse_nodes=())):
            with pytest.raises(ValueError, match=r"^path index must be >= 0, got -1$"):
                sample_brownian(grid, 2, 0, -1)

    def test_blocks_are_normals_bits_signed_zeros_included(self, monkeypatch):
        """A streamed block, and so a sampled path, is normal(0.0, sd)'s
        0.0 + sd * z of the same standard normals z, bit for bit: a -0.0,
        drawn or rounded to, comes out +0.0.  The generators are stubs that
        cycle through such z and have no normal method: the package draws
        through standard_normal alone."""
        cycle = np.array([-0.0, 1.5, 0.0, -2.25, -5e-324, 0.5, -1e-300])

        class Stub:
            def __init__(self, path):
                self.at = path  # each path starts at its own place in the cycle

            def take(self, shape):
                n = math.prod(shape)
                self.at += n
                return cycle[np.arange(self.at - n, self.at) % len(cycle)].reshape(shape)

            def standard_normal(self, out):
                out[...] = self.take(out.shape)

        monkeypatch.setattr(integrate, "_rng", lambda seed, j: Stub(j))
        grid = build_grid(2.5, 5, 0.5)  # 80 steps: one full block and a shorter one
        drawn = np.concatenate([b.copy() for b in
                                integrate._brownian_blocks(grid, 2, 0, range(3))])
        assert (drawn == 0).any()
        for j in range(3):
            # numpy's normal(loc, scale) is loc + scale * z
            expected = 0.0 + math.sqrt(grid.dt) * Stub(j).take((grid.n_steps, 2))
            assert drawn[:, :, j].tobytes() == expected.tobytes(), j
            assert sample_brownian(grid, 2, 0, j).increments.tobytes() == expected.tobytes(), j
        assert not np.signbit(drawn[drawn == 0]).any()

    @pytest.mark.parametrize("steps", [0, 1, 64, 200])
    def test_path_is_its_generators_normal(self, steps):
        """sample_brownian keeps the bits of one normal(0.0, sd) draw of the
        whole path from its (seed, path index) generator, over any number of
        blocks."""
        grid = SampleGrid(dt=2.0**-6, n_steps=steps, impulse_nodes=())
        for seed, j in ((0, 0), (3, 7)):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
            expected = rng.normal(0.0, math.sqrt(grid.dt), (steps, 2))
            assert sample_brownian(grid, 2, seed, j).increments.tobytes() == expected.tobytes()


class TestDeterministic:
    def test_fixed_point(self):
        m = constant_model(c=0.0, d=2)
        grid = build_grid(3.0, 3, 1.0)
        v = np.array([1.5, -2.5])
        traj = integrate_deterministic(m, grid, v)
        assert np.all(traj.values == v)
        assert traj.left.shape == (3, 2)
        assert np.all(traj.left == v)

    def test_translation_resets_accumulate(self):
        # flow is the identity; two impulses (t=1, 2) before T=2.5 add 2c
        c = 0.7
        m = constant_model(c=c, d=1)
        grid = build_grid(2.5, 1, 1.0)
        traj = integrate_deterministic(m, grid, np.array([0.0]))
        assert np.allclose(traj.values[-1], 2 * c)
        assert len(traj.left) == 2

    def test_pendulum_first_coordinate_continuous(self):
        m = pendulum_model()
        grid = build_grid(8.0, 6, 1.0)
        traj = integrate_deterministic(m, grid, np.array([0.5, 0.5]))
        for idx, pre in zip(grid.impulse_nodes, traj.left):
            post = traj.values[idx]
            assert post[0] == pre[0]
            assert post[1] == pre[1] + 0.1 * np.sin(pre[0])

    def test_overflow_diagnostic(self):
        # the stepper raises FloatingPointError and lets no RuntimeWarning out
        m = Model(
            1, 1,
            drift=lambda x: np.asarray(x, float) ** 3 * 1e150,
            diffusion=lambda x: np.ones(np.shape(x)[:-1] + (1, 1)),
            reset=lambda x: np.asarray(x, float),
        )
        grid = build_grid(1.0, 2, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="step"):
                integrate_deterministic(m, grid, np.array([10.0]))


class TestSde:
    """X, the noisy flow of integrate_coupled."""

    def test_zero_noise_bitwise_degenerate(self):
        m = pendulum_model()
        grid = build_grid(4.0, 5, 0.5)
        x0 = np.array([0.5, 0.5])
        det = integrate_deterministic(m, grid, x0)
        _, sde, _ = integrate_coupled(m, grid, x0, 0.0, sample_brownian(grid, 2, 0))
        assert det.values.tobytes() == sde.values.tobytes()

    def test_reduces_to_scaled_random_walk(self):
        m = constant_model(c=0.0, d=1)
        grid = build_grid(2.0, 4, 1.0)
        path = sample_brownian(grid, 1, 3)
        eps = 0.25
        _, traj, _ = integrate_coupled(m, grid, np.array([1.0]), eps, path)
        walk = 1.0 + eps * np.concatenate(([0.0], np.cumsum(path.increments[:, 0])))
        # impulse resets are the identity here, so the walk is undisturbed
        assert np.allclose(traj.values[:, 0], walk, atol=1e-14)

    def test_reproducible_across_runs(self):
        m = pendulum_model()
        grid = build_grid(8.0, 7, 1.0)
        x0 = np.array([0.5, 0.5])
        runs = []
        for _ in range(2):
            path = sample_brownian(grid, 2, 99)
            runs.append(integrate_coupled(m, grid, x0, 2**-4, path)[1])
        assert runs[0].values.tobytes() == runs[1].values.tobytes()

    def test_dimension_mismatch_rejected(self):
        m = pendulum_model()
        grid = build_grid(1.0, 3, 1.0)
        bad = BrownianPath(np.zeros((grid.n_steps, 1)), grid.dt)
        with pytest.raises(ValueError, match="increments shape"):
            integrate_coupled(m, grid, np.array([0.5, 0.5]), 0.1, bad)
        # a path drawn on another grid
        finer = sample_brownian(build_grid(1.0, 4, 1.0), 2, 0)
        with pytest.raises(ValueError, match="does not match grid dt"):
            integrate_coupled(m, grid, np.array([0.5, 0.5]), 0.1, finer)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_epsilon_rejected(self, eps):
        m = pendulum_model()
        grid = build_grid(1.0, 3, 1.0)
        with pytest.raises(ValueError, match=f"^epsilon must be finite, got {eps}$"):
            integrate_coupled(m, grid, np.array([0.5, 0.5]), eps, sample_brownian(grid, 2, 0))


class TestFluctuation:
    """Z, the fluctuation process of integrate_coupled."""

    def test_zero_path_gives_zero(self):
        m = pendulum_model()
        grid = build_grid(4.0, 4, 1.0)
        path = BrownianPath(np.zeros((grid.n_steps, 2)), grid.dt)
        _, _, fl = integrate_coupled(m, grid, np.array([0.5, 0.5]), 0.25, path)
        assert np.all(fl.values == 0.0)

    def test_linear_model_exact_coupling(self):
        # for linear drift/reset and constant sigma the discrete recursion for
        # X - x - eps*Z is identically zero
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        M = np.array([[1.0, 0.0], [0.1, 1.0]])
        m = linear_model(A, M)
        grid = build_grid(8.0, 8, 1.0)
        x0 = np.array([0.5, 0.5])
        path = sample_brownian(grid, 2, 5)
        eps = 0.125
        det, X, Z = integrate_coupled(m, grid, x0, eps, path)
        diff = X.values - det.values - eps * Z.values
        assert np.max(np.abs(diff)) <= 1e-10

    def test_pendulum_fluctuation_jump_structure(self):
        m = pendulum_model()
        grid = build_grid(8.0, 6, 1.0)
        path = sample_brownian(grid, 2, 8)
        _, _, fl = integrate_coupled(m, grid, np.array([0.5, 0.5]), 0.25, path)
        jumped = False
        for idx, pre in zip(grid.impulse_nodes, fl.left):
            post = fl.values[idx]
            # Dh is lower triangular with unit diagonal: Z1 is continuous
            assert post[0] == pre[0]
            jumped = jumped or post[1] != pre[1]
        assert jumped


class TestExactLinearCoupling:
    """For b(x) = Ax, h(x) = Mx and constant sigma the Euler schemes of x, X
    and Z are linear in the state, so X - x - eps*Z vanishes up to round-off,
    on the grid nodes and at the left limits."""

    @settings(max_examples=100, deadline=None)
    @given(A=arrays(float, (2, 2), elements=st.floats(-1, 1)),
           U=arrays(float, (2, 2), elements=st.floats(-0.3, 0.3)),
           x0=arrays(float, 2, elements=st.floats(-1, 1)),
           alpha=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
           T=st.integers(1, 3), m=st.integers(2, 5), eps_exp=st.integers(1, 6),
           seed=st.integers(0, 2**16))
    def test_residual_is_round_off(self, A, U, x0, alpha, T, m, eps_exp, seed):
        model = linear_model(A, np.eye(2) + U)
        grid = build_grid(float(T), m, alpha)
        eps = 2.0**-eps_exp
        path = sample_brownian(grid, 2, seed)
        det, X, Z = integrate_coupled(model, grid, x0, eps, path)
        assert len(X.left) == len(grid.impulse_nodes) >= T - 1
        dev = np.concatenate((X.values - det.values, X.left - det.left))
        res = dev - eps * np.concatenate((Z.values, Z.left))
        # round-off grows like n_steps * |x| * 2^-52, against |X - x| ~ eps |Z|;
        # a targeted search over 3000 examples reached 1.3e-11
        assert np.max(np.abs(res)) <= 1e-9 * np.max(np.abs(dev))


class TestPathwiseCoupling:
    def test_second_order_epsilon_ratio(self):
        # sup|X - x - eps*Z| should scale ~eps^2: quartering under halving
        m = pendulum_model()
        grid = build_grid(8.0, 8, 1.0)
        x0 = np.array([0.5, 0.5])
        path = sample_brownian(grid, 2, 21)

        def coupling_sup(eps):
            det, X, Z = integrate_coupled(m, grid, x0, eps, path)
            return np.max(np.abs(X.values - det.values - eps * Z.values))

        ratio = coupling_sup(2**-4) / coupling_sup(2**-5)
        assert 3.0 <= ratio <= 5.0


class TestTrajectoryCsv:
    def test_schema_and_row_counts(self):
        m = pendulum_model()
        grid = build_grid(3.0, 4, 1.0)
        x0 = np.array([0.5, 0.5])
        path = sample_brownian(grid, 2, 1)
        eps = 2**-4
        det, X, Z = integrate_coupled(m, grid, x0, eps, path)
        buf = io.StringIO()
        n_rows = write_trajectory_csv(buf, det, X, Z, eps)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,x1,x2,X1,X2,Z1,Z2,A1,A2,Y1,Y2,event"
        # 49 nodes plus one extra pre row per impulse (t=1,2,3)
        assert n_rows == grid.n_steps + 1 + 3
        assert len(lines) == n_rows + 1
        events = [ln.split(",")[-1] for ln in lines[1:]]
        assert events.count("pre") == 3
        assert events.count("post") == 3

    def test_pre_row_holds_left_limit(self):
        m = pendulum_model()
        grid = build_grid(2.0, 3, 1.0)
        x0 = np.array([0.5, 0.5])
        path = sample_brownian(grid, 2, 1)
        det, X, Z = integrate_coupled(m, grid, x0, 0.25, path)
        buf = io.StringIO()
        write_trajectory_csv(buf, det, X, Z, 0.25)
        rows = [ln.split(",") for ln in buf.getvalue().splitlines()[1:]]
        pre = next(r for r in rows if r[-1] == "pre")
        left = det.left[0]
        assert float(pre[1]) == left[0] and float(pre[2]) == left[1]
        # A = x + eps*Z and Y = (X - x)/eps hold on every row
        for r in rows:
            x = np.array([float(r[1]), float(r[2])])
            Xv = np.array([float(r[3]), float(r[4])])
            Zv = np.array([float(r[5]), float(r[6])])
            Av = np.array([float(r[7]), float(r[8])])
            Yv = np.array([float(r[9]), float(r[10])])
            assert np.allclose(Av, x + 0.25 * Zv, atol=1e-15)
            assert np.allclose(Yv, (Xv - x) / 0.25, atol=1e-12)


def reference_trajectory_csv(det, noisy, fluct, epsilon):
    """write_trajectory_csv cell by cell, in time order: an f-string per value."""
    grid = det.grid
    d = det.values.shape[1]
    lines = [",".join(["t"] + [f"{c}{j}" for c in "xXZAY" for j in range(1, d + 1)]
                      + ["event"])]

    def row(t, x, X, Z, event):
        A = x + epsilon * Z
        Y = (X - x) / epsilon if epsilon != 0.0 else np.zeros_like(x)
        cells = [f"{t:.17g}"] + [f"{v:.17g}" for arr in (x, X, Z, A, Y) for v in arr]
        lines.append(",".join(cells + [event]))

    times = grid.times()
    for n in range(grid.n_steps + 1):
        i = grid.impulse_nodes.index(n) if n in grid.impulse_nodes else None
        if i is not None:
            row(times[n], det.left[i], noisy.left[i], fluct.left[i], "pre")
        row(times[n], det.values[n], noisy.values[n], fluct.values[n],
            "flow" if i is None else "post")
    return "".join(line + "\n" for line in lines)


def written_csv(det, noisy, fluct, epsilon):
    buf = io.StringIO()
    n_rows = write_trajectory_csv(buf, det, noisy, fluct, epsilon)
    assert n_rows == det.grid.n_steps + 1 + len(det.grid.impulse_nodes)
    return buf.getvalue()


class TestTrajectoryCsvBytes:
    """The table writer gives the bytes of the cell-by-cell reference."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("eps", [2**-4, 0.3, 0.0])
    def test_hand_built(self, d, eps):
        rng = np.random.default_rng(d)
        special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -1.7976931348623157e308,
                            1e16, 0.1, -2.5e-300])

        def traj(grid):
            n = (grid.n_steps + 1 + len(grid.impulse_nodes)) * d
            cells = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
            cells[rng.permutation(n)[:len(special)]] = special
            cells = cells.reshape(-1, d)
            return CadlagTrajectory(grid=grid, values=cells[:grid.n_steps + 1],
                                    left=cells[grid.n_steps + 1:])

        # impulses at the first node, at two adjacent nodes and at the last; then none
        for nodes in ((0, 4, 5, 10), ()):
            grid = SampleGrid(dt=0.125, n_steps=10, impulse_nodes=nodes)
            det, noisy, fluct = traj(grid), traj(grid), traj(grid)
            with np.errstate(all="ignore"):
                expected = reference_trajectory_csv(det, noisy, fluct, eps)
                got = written_csv(det, noisy, fluct, eps)
            assert got == expected, nodes

    @pytest.mark.parametrize("eps, alpha", [(2**-4, 1.0), (0.1, 0.5), (0.0, 0.25)])
    def test_pendulum(self, eps, alpha):
        m = pendulum_model()
        grid = build_grid(3.0, 5, alpha)
        path = sample_brownian(grid, 2, 1)
        trajs = integrate_coupled(m, grid, np.array([0.5, 0.5]), eps, path)
        assert written_csv(*trajs, eps) == reference_trajectory_csv(*trajs, eps)


def test_state_dependent_sigma_bytes():
    """sha256 of a coupled trajectory whose X noise goes through diffusion(X)."""
    model = state_dependent_pendulum()
    grid = build_grid(3.0, 5, 0.5)
    path, eps = sample_brownian(grid, model.r, 1), 2**-4
    csv = written_csv(*integrate_coupled(model, grid, np.array([0.5, 0.5]), eps, path), eps)
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "8160318578e8e59cddb1d6bbed3d05824ee43160b365a605df2f22f3f64cdf70")


class TestBlockInvariance:
    """integrate_coupled feeds a path's increments in blocks of _BLOCK_STEPS
    steps, the last one shorter, and the stepper forms a block's sigma dW in
    one _matvec before it steps the block node by node; no block length
    changes a byte of the coupled trajectory."""

    @pytest.mark.parametrize("model", [pendulum_model(), state_dependent_pendulum()],
                             ids=["pendulum", "sigma-of-x"])
    @pytest.mark.parametrize("eps", [0.0, 0.25])
    def test_csv_bytes(self, model, eps, monkeypatch):
        grid = build_grid(3.0, 4, 0.5)
        x0 = np.array([0.5, 0.5])
        path = sample_brownian(grid, model.r, 6, 1)
        ref = written_csv(*integrate_coupled(model, grid, x0, eps, path), eps)
        for block in (1, 3, 7, grid.n_steps):
            monkeypatch.setattr(integrate, "_BLOCK_STEPS", block)
            got = written_csv(*integrate_coupled(model, grid, x0, eps, path), eps)
            assert got == ref, block


class TestCoupledOverflow:
    def overflow_model(self):
        """x = 0 is a fixed point of the drift, so the noise-free flow stays
        finite while the noisy one blows up."""
        return Model(
            1, 1,
            drift=lambda x: np.asarray(x, float) ** 3 * 1e150,
            diffusion=lambda x: np.ones(np.shape(x)[:-1] + (1, 1)),
            reset=lambda x: np.asarray(x, float),
            drift_jacobian=lambda x: 3e150 * x[..., None] ** 2,
            reset_jacobian=lambda x: np.eye(1),
        )

    def test_names_the_first_step(self):
        m = self.overflow_model()
        grid = build_grid(2.0, 4, 1.0)
        path = sample_brownian(grid, 1, 3)
        x0 = np.zeros(1)
        # the reference: the scalar Euler-Maruyama recursion of X, stepped by
        # hand (the resets are the identity); x and Z stay finite
        X, first = 0.0, None
        with np.errstate(over="ignore", invalid="ignore"):
            for n, dW in enumerate(path.increments[:, 0]):
                X = X + m.drift(np.array([X]))[0] * grid.dt + 0.5 * dW
                if first is None and not np.isfinite(X):
                    first = n + 1
        assert first is not None and first > 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError) as got:
                integrate_coupled(m, grid, x0, 0.5, path)
        assert str(got.value) == f"trajectory became non-finite at step {first}"

    def test_raises_before_the_z_pass(self):
        """An X that leaves the finite floats raises after the flow pass,
        before Z steps along x: neither Jacobian is called."""
        m, calls = self.overflow_model(), {"drift_jacobian": 0, "reset_jacobian": 0}

        def counted(name, jac):
            def counting(x):
                calls[name] += 1
                return jac(x)
            return counting

        m = dataclasses.replace(m, **{name: counted(name, getattr(m, name)) for name in calls})
        grid = build_grid(4.0, 6, 1.0)
        with pytest.raises(FloatingPointError) as got:
            integrate_coupled(m, grid, np.zeros(1), 0.5, sample_brownian(grid, 1, 3))
        assert str(got.value) == "trajectory became non-finite at step 3"
        assert calls == {"drift_jacobian": 0, "reset_jacobian": 0}


@pytest.mark.parametrize("epsilon, diffusion", [(0.25, 2), (0.0, 1)])
def test_coupled_model_call_budget(epsilon, diffusion):
    """The flow pass makes one drift call per step and one reset call per
    impulse for x and X together; the Z pass calls drift_jacobian once per
    Brownian block, on that block's nodes of x.  A constant sigma along x and
    the reset Jacobian at its left limits are taken once, and at eps > 0 the
    flow pass also probes sigma at the start state."""
    names = ("drift", "diffusion", "reset", "drift_jacobian", "reset_jacobian")
    m, calls = pendulum_model(), dict.fromkeys(names, 0)

    def counted(name, f):
        def counting(x):
            calls[name] += 1
            return f(x)
        return counting

    m = dataclasses.replace(m, **{name: counted(name, getattr(m, name)) for name in names})
    for dt_exp, n_steps, nodes, blocks in ((4, 32, (16, 32), 1), (7, 256, (128, 256), 4)):
        calls.update(dict.fromkeys(names, 0))
        grid = build_grid(2.0, dt_exp, 1.0)
        assert (grid.n_steps, grid.impulse_nodes) == (n_steps, nodes)
        integrate_coupled(m, grid, np.array([1.0, 0.0]), epsilon, sample_brownian(grid, m.r, 0))
        assert calls == {"drift": n_steps, "diffusion": diffusion, "reset": 2,
                         "drift_jacobian": blocks, "reset_jacobian": 1}, n_steps
