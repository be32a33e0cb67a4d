import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from impulsesim import dynamics
from impulsesim import affine_kick_model, pendulum_model
from impulsesim.integrate import (
    _BLOCK_STEPS,
    build_grid,
    integrate_coupled,
    sample_brownian,
)

from test_integrate import state_dependent_pendulum


def enumerate_impulse_count(alpha, t, k_max=10_000):
    """Independent oracle: count impulse times t_k <= t by direct enumeration."""
    return sum(1 for k in range(1, k_max + 1) if k - 1 + alpha <= t)


def impulse_times(grid):
    return [n * grid.dt for n in grid.impulse_nodes]


class TestSchedule:
    """The impulse schedule t_k = k - 1 + alpha, as build_grid lays it out."""

    def test_alpha_range(self):
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
                build_grid(4.0, 2, alpha)
        build_grid(4.0, 2, 1.0)

    def test_impulse_time_examples(self):
        assert impulse_times(build_grid(8.0, 1, 1.0))[0] == 1.0
        assert impulse_times(build_grid(8.0, 1, 0.5))[2] == 2.5
        assert impulse_times(build_grid(8.0, 1, 1.0))[7] == 8.0

    def test_impulse_count_examples(self):
        assert len(build_grid(0.5, 1, 1.0).impulse_nodes) == 0
        assert len(build_grid(1.0, 1, 1.0).impulse_nodes) == 1
        # frozen from the enumeration oracle: t_1=0.5, t_2=1.5 are <= 1.75
        assert enumerate_impulse_count(0.5, 1.75) == 2
        assert len(build_grid(1.75, 2, 0.5).impulse_nodes) == 2

    @given(
        j=st.integers(min_value=1, max_value=64),
        k=st.integers(min_value=1, max_value=100),
    )
    def test_count_of_time_roundtrip(self, j, k):
        # dyadic offsets land impulse times exactly on grid nodes
        alpha = j / 64.0
        t_k = k - 1 + alpha
        grid = build_grid(100.0, 6, alpha)
        assert grid.impulse_nodes[k - 1] * grid.dt == t_k
        assert len(build_grid(t_k, 6, alpha).impulse_nodes) == k

    def test_count_nondecreasing(self):
        nodes = build_grid(10.0, 4, 0.25).impulse_nodes
        assert all(b > a for a, b in zip(nodes, nodes[1:]))
        counts = [len(build_grid(T, 4, 0.25).impulse_nodes) for T in np.arange(1, 161) / 16]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_count_matches_enumeration(self):
        for alpha in (0.25, 0.5, 1.0):
            for T in np.arange(1, 97) / 8.0:
                grid = build_grid(T, 3, alpha)
                assert len(grid.impulse_nodes) == enumerate_impulse_count(alpha, T)


class TestPendulumModel:
    def test_reset_example(self):
        m = pendulum_model()
        out = m.reset(np.array([0.5, 0.5]))
        assert np.allclose(out, [0.5, 0.5 + 0.1 * math.sin(0.5)])

    def test_drift_at_zero_angle(self):
        m = pendulum_model(alpha_pend=2.3)
        for v in (-1.0, 0.0, 4.2):
            assert np.allclose(m.drift(np.array([0.0, v])), [v, 0.0])

    def test_reset_jacobian_at_origin(self):
        m = pendulum_model()
        assert np.allclose(m.reset_jacobian(np.zeros(2)), [[1, 0], [0.1, 1]])

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(ValueError):
            pendulum_model(alpha_pend=0.0)

    def test_drift_broadcasts(self):
        m = pendulum_model()
        xs = np.random.default_rng(0).normal(size=(5, 7, 2))
        batch = m.drift(xs)
        assert batch.shape == (5, 7, 2)
        assert np.allclose(batch[2, 3], m.drift(xs[2, 3]))


class TestAffineKickModel:
    def test_kick_only_system(self):
        m = affine_kick_model(np.eye(3), np.ones(3))
        x = np.arange(12.0).reshape(4, 3)
        assert (m.d, m.r) == (3, 3)
        assert np.array_equal(m.drift(x), np.zeros((4, 3)))
        assert np.array_equal(m.drift_jacobian(x[0]), np.zeros((3, 3)))
        assert np.array_equal(m.diffusion(x), np.eye(3))

    def test_zero_matrix_is_translation(self):
        m = affine_kick_model(np.zeros((2, 2)), np.array([1.0, -2.0]))
        r = np.array([0.3, 0.4])
        assert np.allclose(m.reset(r), r + [1.0, -2.0])

    def test_zero_kick_is_identity(self):
        m = affine_kick_model(np.zeros((2, 2)), np.zeros(2))
        r = np.array([0.3, 0.4])
        assert np.allclose(m.reset(r), r)
        assert np.allclose(m.reset_jacobian(r), np.eye(2))

    def test_log2_scalar_closed_form(self):
        # e^A r + e^A (int_0^1 e^{-sA} ds) c = 2r + 1/ln2 for A=ln2, c=1
        m = affine_kick_model(np.array([[math.log(2.0)]]), np.array([1.0]))
        r = np.array([0.7])
        assert np.allclose(m.reset(r), 2 * 0.7 + 1.0 / math.log(2.0), rtol=1e-12)
        assert np.allclose(m.reset_jacobian(r), [[2.0]], rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            affine_kick_model(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="square"):
            affine_kick_model(np.zeros((2, 3)), np.zeros(2))
        for dims in ({"d": 0}, {"r": 0}):
            with pytest.raises(ValueError, match="dimensions d and r must be positive"):
                dataclasses.replace(affine_kick_model(np.zeros((2, 2)), np.zeros(2)), **dims)


def jacobian_consistency(model, n_points, seed, tol=1e-5):
    """Max relative deviation of analytic vs central-FD Jacobians."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(-2.0, 2.0, size=model.d)
        for fn, jac_fn in ((model.drift, model.drift_jacobian),
                           (model.reset, model.reset_jacobian)):
            an = np.asarray(jac_fn(x), float)
            fd = dynamics.finite_difference_jacobian(fn, x)
            dev = np.max(np.abs(an - fd) / np.maximum(1.0, np.abs(an)))
            worst = max(worst, dev)
    assert worst <= tol, f"worst relative Jacobian deviation {worst}"
    return worst


def test_pendulum_jacobian_consistency():
    jacobian_consistency(pendulum_model(alpha_pend=1.7), 100, seed=11)


def test_reset_quadratic_remainder():
    # remainder of the first-order reset expansion quarters when v halves
    m = pendulum_model()
    x = np.array([0.9, -0.4])
    v_dir = np.array([0.6, 0.8])
    hx = m.reset(x)
    dh = m.reset_jacobian(x)

    def remainder(scale):
        v = scale * v_dir
        return np.linalg.norm(m.reset(x + v) - hx - dh @ v)

    scales = [1e-2 * 2.0**-i for i in range(7)]  # spans 1e-2 .. ~1e-4
    # normalized remainder stays bounded as v -> 0
    normalized = [remainder(s) / s**2 for s in scales]
    assert max(normalized) / min(normalized) < 1.1
    # halving v quarters the raw remainder
    ratios = [remainder(s) / remainder(s / 2) for s in scales]
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios


def test_finite_difference_fallback():
    def drift(x):
        return np.array([x[0] ** 2, x[0] * x[1]])

    m = dynamics.Model(
        2, 1,
        drift=drift,
        diffusion=lambda x: np.ones((2, 1)),
        reset=lambda x: np.asarray(x, float),
    )
    x = np.array([1.3, -0.7])
    expected = np.array([[2 * 1.3, 0.0], [-0.7, 1.3]])
    assert np.allclose(m.drift_jacobian(x), expected, atol=1e-7)
    assert np.allclose(m.reset_jacobian(x), np.eye(2), atol=1e-9)


def finite_difference_model():
    """Batched drift and reset without Jacobians: both fall back to central
    finite differences."""

    def drift(x):
        x = np.asarray(x, float)
        return np.stack((x[..., 0] * x[..., 1], np.sin(x[..., 0]) - x[..., 1] ** 2), axis=-1)

    def reset(x):
        x = np.asarray(x, float)
        return np.stack((x[..., 0] + 0.1 * x[..., 1] ** 2, 0.9 * x[..., 1]), axis=-1)

    eye = np.eye(2)
    return dynamics.Model(2, 2, drift=drift, reset=reset,
                          diffusion=lambda x: np.broadcast_to(eye, np.shape(x)[:-1] + (2, 2)))


JACOBIAN_MODELS = [
    pendulum_model(1.7),
    affine_kick_model(np.array([[0.2, 1.0, 0.0], [-1.0, 0.2, 0.0], [0.0, 0.0, -0.5]]),
                      np.array([1.0, 0.0, 0.5])),
    finite_difference_model(),
]
JACOBIAN_IDS = ["pendulum", "affine_kick", "finite_differences"]


def stacked(jac, states):
    """jac called on one state at a time, the results stacked in the batch's shape."""
    flat = states.reshape(-1, states.shape[-1])
    out = np.array([np.asarray(jac(x), float) for x in flat])
    return out.reshape(states.shape[:-1] + out.shape[1:])


class TestBatchedJacobians:
    """drift_jacobian and reset_jacobian take (..., d) batches, as drift does,
    and return (..., d, d) or one constant (d, d) that broadcasts."""

    @pytest.mark.parametrize("model", JACOBIAN_MODELS, ids=JACOBIAN_IDS)
    def test_batch_equals_single_states(self, model):
        xs = np.random.default_rng(4).uniform(-2.0, 2.0, size=(5, 7, model.d))
        for jac in (model.drift_jacobian, model.reset_jacobian):
            batch = np.broadcast_to(jac(xs), (5, 7, model.d, model.d))
            assert batch.tobytes() == stacked(jac, xs).tobytes()

    @pytest.mark.parametrize("model", JACOBIAN_MODELS + [state_dependent_pendulum()],
                             ids=JACOBIAN_IDS + ["state_dependent_sigma"])
    @pytest.mark.parametrize("T, m, alpha", [(2.5, 5, 0.5), (0.75, 7, 1.0)],
                             ids=["impulses", "none"])
    def test_coefficients_along_x(self, model, T, m, alpha):
        # the Z pass takes Db, and a sigma that is not constant, on each block
        # [lo, lo + _BLOCK_STEPS) of x's nodes, the last one shorter, with the
        # rows of one whole-path call; Dh is one call on all the left limits,
        # also for a constant Jacobian and for a grid without impulses
        names = ("drift_jacobian", "diffusion", "reset_jacobian")
        grid, calls = build_grid(T, m, alpha), {name: [] for name in names}

        def recorded(name, f):
            def record(x):
                calls[name].append((np.array(x), f(x)))
                return calls[name][-1][1]
            return record

        traced = dataclasses.replace(model, **{k: recorded(k, getattr(model, k)) for k in calls})
        det, _, _ = integrate_coupled(traced, grid, np.full(model.d, 0.5), 0.0,
                                      sample_brownian(grid, model.r, 0))
        n, d, x = grid.n_steps, model.d, det.values
        blocks = [x[lo:min(lo + _BLOCK_STEPS, n)] for lo in range(0, n, _BLOCK_STEPS)]
        assert [len(b) for b in blocks] == [_BLOCK_STEPS, n - _BLOCK_STEPS]
        (probe, sig), *per_block = calls["diffusion"]  # the first probes x's first node
        assert probe.tobytes() == x[:1].tobytes()
        checks = [(model.drift_jacobian, calls["drift_jacobian"], (d, d))]
        if np.ndim(model.diffusion(x[:2])) == 2:  # one constant sigma, not called again
            assert np.shape(sig) == (d, model.r) and per_block == []
        else:
            checks.append((model.diffusion, per_block, (d, model.r)))
        for f, got, shape in checks:
            assert [a.tobytes() for a, _ in got] == [b.tobytes() for b in blocks]
            rows = np.concatenate([np.broadcast_to(y, (len(a),) + shape) for a, y in got])
            assert rows.tobytes() == np.broadcast_to(f(x[:n]), (n,) + shape).tobytes()
        [(left, dh)] = calls["reset_jacobian"]
        assert left.tobytes() == det.left.tobytes()
        dh = np.broadcast_to(np.asarray(dh, float), (len(grid.impulse_nodes), d, d))
        assert dh.tobytes() == stacked(model.reset_jacobian, det.left).tobytes()
