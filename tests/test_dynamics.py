import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from impulsesim import dynamics
from impulsesim.dynamics import (
    ImpulseSchedule,
    affine_kick_model,
    impulse_count,
    impulse_time,
    pendulum_model,
)


def enumerate_impulse_count(alpha, t, k_max=10_000):
    """Independent oracle: count impulse times t_k <= t by direct enumeration."""
    return sum(1 for k in range(1, k_max + 1) if k - 1 + alpha <= t)


class TestSchedule:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ImpulseSchedule(alpha=0.0)
        with pytest.raises(ValueError):
            ImpulseSchedule(alpha=1.5)
        ImpulseSchedule(alpha=1.0)

    def test_impulse_time_examples(self):
        assert impulse_time(ImpulseSchedule(1.0), 1) == 1.0
        assert impulse_time(ImpulseSchedule(0.5), 3) == 2.5
        assert impulse_time(ImpulseSchedule(1.0), 8) == 8.0

    def test_impulse_time_rejects_k0(self):
        with pytest.raises(ValueError):
            impulse_time(ImpulseSchedule(1.0), 0)

    def test_impulse_count_examples(self):
        assert impulse_count(ImpulseSchedule(1.0), 0.5) == 0
        assert impulse_count(ImpulseSchedule(1.0), 1.0) == 1
        # frozen from the enumeration oracle: t_1=0.5, t_2=1.5 are <= 1.6
        assert enumerate_impulse_count(0.5, 1.6) == 2
        assert impulse_count(ImpulseSchedule(0.5), 1.6) == 2

    def test_impulse_count_rejects_negative(self):
        with pytest.raises(ValueError):
            impulse_count(ImpulseSchedule(1.0), -0.1)

    @given(
        j=st.integers(min_value=1, max_value=64),
        k=st.integers(min_value=1, max_value=100),
    )
    def test_count_of_time_roundtrip(self, j, k):
        # dyadic offsets land impulse times exactly on binary floats
        sched = ImpulseSchedule(alpha=j / 64.0)
        assert impulse_count(sched, impulse_time(sched, k)) == k

    def test_count_nondecreasing(self):
        sched = ImpulseSchedule(alpha=0.25)
        ts = np.linspace(0.0, 10.0, 2001)
        counts = [impulse_count(sched, t) for t in ts]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_count_matches_enumeration(self):
        for alpha in (0.25, 0.5, 1.0):
            sched = ImpulseSchedule(alpha)
            for t in np.linspace(0.0, 12.0, 97):
                assert impulse_count(sched, t) == enumerate_impulse_count(alpha, t)


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
        assert (m.d, m.r, m.name) == (3, 3, "affine_kick")
        assert np.array_equal(m.drift(x), np.zeros((4, 3)))
        assert np.array_equal(m.drift_jacobian(x[0]), np.zeros((3, 3)))
        assert np.array_equal(m.diffusion(x), np.broadcast_to(np.eye(3), (4, 3, 3)))
        assert np.array_equal(m.diffusion_constant, np.eye(3))

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

    m = dynamics.make_model(
        2, 1,
        drift=drift,
        diffusion=lambda x: np.ones((2, 1)),
        reset=lambda x: np.asarray(x, float),
    )
    x = np.array([1.3, -0.7])
    expected = np.array([[2 * 1.3, 0.0], [-0.7, 1.3]])
    assert np.allclose(m.drift_jacobian(x), expected, atol=1e-7)
    assert np.allclose(m.reset_jacobian(x), np.eye(2), atol=1e-9)
