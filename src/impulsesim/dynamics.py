"""System definitions: drift, diffusion, reset map, and impulse schedules.

A system with impulse effects flows along an ODE between impulses and is
reset instantaneously by a map h at each impulse time.  The built-in
models carry analytic Jacobians: the kicked pendulum, and
`affine_kick_model(A, c)`, the kick-only system whose reset is the
closed-form kick map of the field Ax + c.  User models without Jacobians
fall back to central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kickmap

# cube root of machine epsilon: the standard central-difference step scale
_FD_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


def fd_step(xi: float) -> float:
    """Central-difference step for coordinate value xi."""
    return max(1.0, abs(xi)) * _FD_EPS


def finite_difference_jacobian(f: Callable, x: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian of f at x, one column per coordinate."""
    x = np.asarray(x, dtype=float)
    fx = np.asarray(f(x), dtype=float)
    jac = np.empty((fx.shape[0], x.shape[0]))
    for i in range(x.shape[0]):
        h = fd_step(x[i])
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(f(xp), float) - np.asarray(f(xm), float)) / (2.0 * h)
    return jac


@dataclass(frozen=True)
class Model:
    """A system definition: drift b, diffusion sigma, reset map h, Jacobians.

    drift, diffusion and reset must accept arrays of shape (..., d) and
    broadcast over leading axes (the Monte Carlo engine batches states).
    The batched stepper stores states component-major and hands these
    callables non-contiguous (..., d) views; they must not write into their
    input and must return a new array (np.empty_like keeps the input's
    layout).  The Jacobian functions are only ever called with single states
    of shape (d,).  All functions must be pure.
    """

    d: int
    r: int
    drift: Callable[[np.ndarray], np.ndarray]
    drift_jacobian: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    reset: Callable[[np.ndarray], np.ndarray]
    reset_jacobian: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    # set when sigma is state-independent; lets integrators skip re-evaluation
    diffusion_constant: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.d < 1 or self.r < 1:
            raise ValueError("dimensions d and r must be positive")


def make_model(
    d: int,
    r: int,
    drift: Callable,
    diffusion: Callable,
    reset: Callable,
    drift_jacobian: Callable | None = None,
    reset_jacobian: Callable | None = None,
    name: str = "custom",
    diffusion_constant: np.ndarray | None = None,
) -> Model:
    """Build a Model, filling in finite-difference Jacobians where missing."""
    if drift_jacobian is None:
        drift_jacobian = lambda x: finite_difference_jacobian(drift, x)
    if reset_jacobian is None:
        reset_jacobian = lambda x: finite_difference_jacobian(reset, x)
    return Model(
        d=d,
        r=r,
        drift=drift,
        drift_jacobian=drift_jacobian,
        diffusion=diffusion,
        reset=reset,
        reset_jacobian=reset_jacobian,
        name=name,
        diffusion_constant=diffusion_constant,
    )


@dataclass(frozen=True)
class ImpulseSchedule:
    """Unit-period impulse schedule with offset alpha in (0, 1].

    Impulses arrive at t_k = k - 1 + alpha for k >= 1; t_0 = 0 is the
    initial time, not an impulse.
    """

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")


def impulse_time(schedule: ImpulseSchedule, k: int) -> float:
    """Time of the k-th impulse, k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1 (t_0 = 0 is the initial time, not an impulse)")
    return k - 1 + schedule.alpha


def impulse_count(schedule: ImpulseSchedule, t: float) -> int:
    """Number of impulses up to and including time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return max(0, math.floor(t - schedule.alpha) + 1)


def pendulum_model(alpha_pend: float = 1.0) -> Model:
    """Undamped pendulum with sinusoidal velocity kicks.

    Drift b(x) = (x2, -alpha_pend*sin x1), diffusion = 2x2 identity,
    reset h(x) = (x1, x2 + 0.1 sin x1).
    """
    if alpha_pend <= 0:
        raise ValueError("alpha_pend must be positive")

    # np.empty_like keeps the input's memory layout: the batched stepper's
    # component planes stay contiguous
    def drift(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = x[..., 1]
        out[..., 1] = -alpha_pend * np.sin(x[..., 0])
        return out

    def drift_jacobian(x):
        return np.array([[0.0, 1.0], [-alpha_pend * math.cos(x[0]), 0.0]])

    eye2 = np.eye(2)

    def diffusion(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(eye2, x.shape[:-1] + (2, 2))

    def reset(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = x[..., 0]
        out[..., 1] = x[..., 1] + 0.1 * np.sin(x[..., 0])
        return out

    def reset_jacobian(x):
        return np.array([[1.0, 0.0], [0.1 * math.cos(x[0]), 1.0]])

    return Model(
        d=2,
        r=2,
        drift=drift,
        drift_jacobian=drift_jacobian,
        diffusion=diffusion,
        reset=reset,
        reset_jacobian=reset_jacobian,
        name="pendulum",
        diffusion_constant=eye2,
    )


def affine_kick_model(A: np.ndarray, c: np.ndarray) -> Model:
    """Kick-only system: zero drift, identity diffusion (r = d), and the
    closed-form kick map of the kick field Ax + c as its reset.

    The reset Jacobian is the constant matrix exp(A).
    """
    kick, jac = kickmap.affine_kick_map(A, c)  # checks the shapes of A and c
    d = jac.shape[0]
    eye = np.eye(d)
    return Model(
        d=d,
        r=d,
        drift=lambda x: np.zeros_like(np.asarray(x, float)),
        drift_jacobian=lambda x: np.zeros((d, d)),
        diffusion=lambda x: np.broadcast_to(eye, np.shape(x)[:-1] + (d, d)),
        reset=kick,
        reset_jacobian=lambda x: jac,
        name="affine_kick",
        diffusion_constant=eye,
    )
