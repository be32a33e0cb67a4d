"""Law-level oracle for the fluctuation process Z.

Between impulses Z solves a linear SDE along the deterministic flow x, and at
an impulse it is reset linearly, so the Euler-discretised Z is Gaussian with
mean 0 and a covariance S that an exact recursion gives (Kloeden & Platen,
Numerical Solution of Stochastic Differential Equations, 1992):

    each step:     S <- (I + dt Db_n) S (I + dt Db_n)^T + dt sigma_n sigma_n^T
    at an impulse: S <- Dh S Dh^T

The sample covariance of Z over many paths must match S at every left limit
and at the horizon, within a bound in standard errors.  The paths are drawn
in one batched pass of Z along x, as integrate_coupled draws one path; a few
of them are checked bitwise against integrate_coupled.  A transposed or
wrongly scaled noise term would pass the pathwise checks if it hit X and Z
alike, but not this one.
"""

import numpy as np
import pytest

from impulsesim.dynamics import pendulum_model
from impulsesim.integrate import (
    _brownian_blocks,
    _prepare_along_path,
    _step,
    build_grid,
    integrate_coupled,
    integrate_deterministic,
    sample_brownian,
)

from test_integrate import state_dependent_pendulum

X0 = np.array([0.5, 0.5])
N_PATHS = 2000
MAX_SE = 4.5


def exact_covariances(model, grid, det):
    """Covariance of the discrete Z at each left limit, in the order of
    grid.impulse_nodes, and at the horizon T."""
    dt, eye = grid.dt, np.eye(model.d)
    S = np.zeros((model.d, model.d))
    left = []
    position = {node: i for i, node in enumerate(grid.impulse_nodes)}
    for n in range(grid.n_steps):
        x = det.values[n]
        a = eye + dt * np.asarray(model.drift_jacobian(x), float)
        sigma = np.asarray(model.diffusion(x), float)
        S = a @ S @ a.T + dt * sigma @ sigma.T
        i = position.get(n + 1)
        if i is not None:
            left.append(S)
            dh = np.asarray(model.reset_jacobian(det.left[i]), float)
            S = dh @ S @ dh.T
    return left, S


def fluctuation_samples(model, grid, det, seed, n_paths):
    """Z of paths 0..n_paths-1 at seed, drawn in one pass along x: (n_left,
    n_paths, d) at the left limits and (n_paths, d) at the horizon T."""
    left = np.empty((len(grid.impulse_nodes), n_paths, model.d))
    final = np.empty((n_paths, model.d))

    def visit(n, i, X, Z):
        if i is not None:
            left[i] = Z.T
        elif n == grid.n_steps:
            final[...] = Z.T

    _step(model, grid, visit, None, np.zeros((model.d, n_paths)),
          increments=_brownian_blocks(grid, model.r, seed, range(n_paths)),
          along=_prepare_along_path(model, grid, det))
    return left, final


def worst_deviation(samples, S):
    """Largest |S_hat_jk - S_jk| in standard errors, S_hat the mean-zero
    sample covariance of samples (N, d); var(S_hat_jk) = (S_jj S_kk + S_jk^2)/N."""
    n = samples.shape[0]
    s_hat = samples.T @ samples / n
    se = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S**2) / n)
    return float(np.max(np.abs(s_hat - S) / se))


@pytest.mark.parametrize("build_model", [pendulum_model, state_dependent_pendulum],
                         ids=["pendulum", "state_dependent_pendulum"])
def test_fluctuation_covariance_matches_exact_recursion(build_model):
    model = build_model()
    grid = build_grid(2.0, 5, 0.5)  # impulses at 0.5 and 1.5
    det = integrate_deterministic(model, grid, X0)
    left, final = exact_covariances(model, grid, det)
    z_left, z_final = fluctuation_samples(model, grid, det, 3, N_PATHS)
    for j in (0, 1, N_PATHS - 1):
        _, _, z = integrate_coupled(model, grid, X0, 0.25,
                                    sample_brownian(grid, model.r, 3, j))
        assert z_left[:, j].tobytes() == z.left.tobytes(), j
        assert z_final[j].tobytes() == z.values[-1].tobytes(), j
    checks = [(f"left limit {i}", z_left[i], S) for i, S in enumerate(left)]
    checks.append(("T", z_final, final))
    assert len(checks) == 3
    for where, samples, S in checks:
        dev = worst_deviation(samples, S)
        assert dev <= MAX_SE, f"Z covariance at {where} is {dev:.2f} standard errors off"
