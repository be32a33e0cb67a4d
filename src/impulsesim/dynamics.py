"""System definitions: drift, diffusion, reset map and their Jacobians.

A system with impulse effects flows along an ODE between impulses and is
reset instantaneously by a map h at each impulse time; the impulse times
themselves, t_k = k - 1 + alpha, belong to the grid (integrate.build_grid).
This module holds Model, the central finite-difference Jacobians that a
Model built without a Jacobian falls back to, and the kicked pendulum, whose
Jacobians are analytic.  The affine kick-only model lives in kickmap, beside
the closed-form kick map that is its reset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

# cube root of machine epsilon: the standard central-difference step scale
_FD_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


def finite_difference_jacobian(f: Callable, x: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian (..., d_out, d) of f at states x (..., d)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.shape[-1]):
        h = np.maximum(1.0, np.abs(x[..., i])) * _FD_EPS
        xp = x.copy()
        xm = x.copy()
        xp[..., i] += h
        xm[..., i] -= h
        diff = np.asarray(f(xp), float) - np.asarray(f(xm), float)
        cols.append(diff / (2.0 * h)[..., None])
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class Model:
    """A system definition: drift b, diffusion sigma, reset map h, Jacobians.

    drift, diffusion and reset must accept arrays of shape (..., d) and
    broadcast over leading axes (the Monte Carlo engine batches states).
    Each output row must depend only on its input row: so x can step as a
    noise-free lane of X's batch, and a study path replays alone bit for bit.
    The batched stepper stores states component-major and hands these
    callables non-contiguous (..., d) views; they must not write into their
    input and must return a new array (np.empty_like keeps the input's
    layout).  diffusion and the Jacobians, which take (..., d) too, return
    (..., d, r) and (..., d, d), or one constant (d, r) and (d, d) that
    broadcasts: a constant sigma is one (d, r).  A missing Jacobian becomes
    the central finite-difference Jacobian of drift or reset.  All
    functions must be pure.
    """

    d: int
    r: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    reset: Callable[[np.ndarray], np.ndarray]
    drift_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    reset_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.d < 1 or self.r < 1:
            raise ValueError("dimensions d and r must be positive")
        for jac, f in (("drift_jacobian", self.drift), ("reset_jacobian", self.reset)):
            if getattr(self, jac) is None:
                object.__setattr__(self, jac, partial(finite_difference_jacobian, f))


def pendulum_model(alpha_pend: float = 1.0) -> Model:
    """Undamped pendulum with sinusoidal velocity kicks.

    Drift b(x) = (x2, -alpha_pend*sin x1), diffusion = 2x2 identity,
    reset h(x) = (x1, x2 + 0.1 sin x1).
    """
    if not 0.0 < alpha_pend < np.inf:
        raise ValueError(f"alpha_pend must be positive and finite, got {alpha_pend}")

    # np.empty_like keeps the input's memory layout: the batched stepper's
    # component planes stay contiguous
    def drift(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = x[..., 1]
        out[..., 1] = -alpha_pend * np.sin(x[..., 0])
        return out

    eye2 = np.eye(2)

    def reset(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = x[..., 0]
        out[..., 1] = x[..., 1] + 0.1 * np.sin(x[..., 0])
        return out

    def jacobian(const, scale, x):
        """const (2, 2) with entry (1, 0) set to scale * cos x1, per state."""
        x = np.asarray(x, dtype=float)
        out = np.broadcast_to(const, x.shape[:-1] + (2, 2)).copy()
        # in place: temporaries as long as the path would raise the peak RSS
        np.multiply(np.cos(x[..., 0], out=out[..., 1, 0]), scale, out=out[..., 1, 0])
        return out

    return Model(
        d=2,
        r=2,
        drift=drift,
        drift_jacobian=partial(jacobian, np.array([[0.0, 1.0], [0.0, 0.0]]), -alpha_pend),
        diffusion=lambda x: eye2,
        reset=reset,
        reset_jacobian=partial(jacobian, eye2, 0.1),
    )
