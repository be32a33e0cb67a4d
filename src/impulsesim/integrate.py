"""Time grids, Brownian paths, and the coupled Euler/Euler-Maruyama integrators.

build_grid lays out the impulse schedule t_k = k - 1 + alpha as grid nodes;
no other code writes it down.  One batched stepper advances the
deterministic flow, the noisy flow and the fluctuation process on that
grid, with the noise of a Brownian block formed at once; the per-path
integrators and the Monte Carlo study both run it.  integrate_coupled
steps X and Z of one path together after the deterministic pass, as the
study does; integrate_sde and integrate_fluctuation run X or Z alone,
with the same bits.  write_trajectory_csv writes the triple as one table.

At an impulse node the Euler step into the node produces the left
limit, the reset applies instantaneously, and the step out of the node
starts from the post-reset value; no time is consumed by the reset.  A
trajectory is right-continuous: `values` holds every grid node (post-reset
at impulse nodes) and `left` one left limit per impulse, in the order of
`SampleGrid.impulse_nodes`, the grid indices of t_k = k - 1 + alpha.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .dynamics import Model


_BLOCK_STEPS = 256  # Brownian increments per path drawn, and their noise formed, at a time


class IntegrationOverflowError(RuntimeError):
    """Raised when a trajectory leaves the finite floats; never silently clamped."""


@dataclass(frozen=True)
class SampleGrid:
    """Uniform dyadic grid on [0, T] with dt = 2^-m, impulse-aligned."""

    T: float
    m: int
    dt: float
    n_steps: int
    # grid index of t_k = k - 1 + alpha for every impulse t_k <= T, at position k - 1
    impulse_nodes: tuple[int, ...]

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


def build_grid(T: float, m: int, alpha: float) -> SampleGrid:
    """Grid on [0, T], dt = 2^-m, with impulse nodes at t_k = k - 1 + alpha <= T
    for k >= 1 and alpha in (0, 1]; rejects a misaligned alpha or T."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if T <= 0:
        raise ValueError(f"horizon T must be positive, got {T}")
    if m < 0:
        raise ValueError(f"dt exponent m must be >= 0, got {m}")
    scale = 2**m
    a_scaled = alpha * scale
    if a_scaled != round(a_scaled):
        raise ValueError(
            f"impulse offset alpha={alpha} is not aligned with "
            f"dt=2^-{m}: alpha*2^m = {a_scaled} is not an integer"
        )
    t_scaled = T * scale
    if t_scaled != round(t_scaled):
        raise ValueError(f"T={T} is not a multiple of dt=2^-{m}")
    n_steps = int(round(t_scaled))
    nodes = tuple(range(int(round(a_scaled)), n_steps + 1, scale))
    return SampleGrid(T=T, m=m, dt=1.0 / scale, n_steps=n_steps, impulse_nodes=nodes)


@dataclass(frozen=True)
class BrownianPath:
    """Increments of an r-dimensional Brownian motion on a grid."""

    increments: np.ndarray  # (n_steps, r), i.i.d. Normal(0, dt) entries
    dt: float


def path_seed(base_seed: int, path_index: int) -> np.random.SeedSequence:
    """Independent, scheduling-invariant seed for one Monte Carlo path."""
    return np.random.SeedSequence(base_seed, spawn_key=(path_index,))


def sample_brownian(grid: SampleGrid, r: int, seed) -> BrownianPath:
    """Draw Brownian increments on the grid; identical seed, identical bits."""
    if r < 1:
        raise ValueError("noise dimension r must be >= 1")
    rng = np.random.default_rng(seed)
    increments = rng.normal(0.0, math.sqrt(grid.dt), size=(grid.n_steps, r))
    return BrownianPath(increments=increments, dt=grid.dt)


@dataclass(frozen=True)
class CadlagTrajectory:
    """Right-continuous sampled path with recorded left limits at impulses.

    values[n] is the state at grid node n, post-reset at impulse nodes;
    left[i] is the left limit at grid.impulse_nodes[i], before the reset.
    """

    grid: SampleGrid
    values: np.ndarray  # (n_steps + 1, d)
    left: np.ndarray  # (len(grid.impulse_nodes), d)


def _matvec(a: np.ndarray, v: np.ndarray, out: np.ndarray, tmp: np.ndarray):
    """out = a v, component-major: a (d, r, ...) against v (r, ...) into out
    (d, ...), as products rounded one by one and summed in column order.
    The bits of a path never depend on how many paths are stacked; with `@`
    they can, since BLAS may fuse the multiply-adds of a single row (gemv)
    but not of many (gemm)."""
    np.multiply(a[:, 0], v[0], out=out)
    for j in range(1, v.shape[0]):
        np.multiply(a[:, j], v[j], out=tmp)
        np.add(out, tmp, out=out)
    return out


def _prepare_along_path(model: Model, grid: SampleGrid, det: CadlagTrajectory):
    """Db and sigma along x(t), and Dh at its impulse left limits, one call each."""
    n, d = grid.n_steps, model.d
    db = np.broadcast_to(np.asarray(model.drift_jacobian(det.values[:n]), float), (n, d, d))
    if model.diffusion_constant is not None:
        sig = np.broadcast_to(model.diffusion_constant, (n, d, model.r))
    else:
        sig = np.asarray(model.diffusion(det.values[:n]), dtype=float)
    dh = np.asarray(model.reset_jacobian(det.left), float)
    return db, sig, np.broadcast_to(dh, (len(det.left), d, d))


def _component_major(a, shape, axes):
    """A model output as floats of the batch's (..., d[, r]) shape (an
    unbatched output broadcasts), with its component axes moved first."""
    a = np.asarray(a, float)
    if a.shape != shape:
        a = np.broadcast_to(a, shape)
    return a.transpose(axes)


def _brownian_blocks(grid: SampleGrid, r: int, seeds):
    """Brownian increments of one path per seed, drawn _BLOCK_STEPS steps at a
    time into one reused (steps, r, n_paths) buffer; path p's draws are
    bitwise those of sample_brownian(grid, r, seeds[p])."""
    rngs = [np.random.default_rng(s) for s in seeds]
    sd = math.sqrt(grid.dt)
    buf = np.empty((min(_BLOCK_STEPS, grid.n_steps), r, len(rngs)))
    for lo in range(0, grid.n_steps, _BLOCK_STEPS):
        block = buf[:min(_BLOCK_STEPS, grid.n_steps - lo)]
        for p, rng in enumerate(rngs):
            block[:, :, p] = rng.normal(0.0, sd, size=block.shape[:2])
        yield block


def _step(model, grid, visit, X, eps, increments, along):
    """The one Euler / Euler-Maruyama / fluctuation scheme, over a batch.

    All states are component-major and updated in place.  X: (d, n_eps,
    n_paths) states of the noisy flow at scales eps (n_eps,), or of the
    noise-free flow when eps is None; None leaves X out.  increments:
    blocks (steps, r, n_paths), none longer than the first, of Brownian
    increments, n_steps in all, shared by X and Z; the noise sigma(x_n) dW_n
    of Z, and of X when sigma is constant, is formed a block at a time.
    along: _prepare_along_path of the deterministic flow, or None to leave
    Z (d, n_paths), started at 0, out; without X the batch is one path.
    visit(n, i, X, Z) sees each node n from 0 (i None) and each left limit
    (at node n = grid.impulse_nodes[i], before the reset); X and Z are the
    same arrays at every visit, and a visitor that keeps values must copy
    them.  The model's callables see (..., d) views.
    A value that leaves the finite floats raises no warning: the callers
    check the recorded values.
    """
    d, dt = model.d, grid.dt
    n_paths = 1 if X is None else X.shape[-1]
    position = {node: i for i, node in enumerate(grid.impulse_nodes)}
    sigma = model.diffusion_constant
    sig_x = Z = None
    if sigma is not None:
        sig_x = np.broadcast_to(sigma, (grid.n_steps, d, model.r))
    if along is not None:
        db, sig_x, dh = along
        db = db[..., None]
        dh = dh[..., None]
        Z = np.zeros((d, n_paths))
        Zt, tmp = np.empty_like(Z), np.empty_like(Z)
    if sig_x is not None:
        sig_x = sig_x.transpose(1, 2, 0)[..., None]  # (d, r, n_steps, 1)
    if X is not None:
        Xv = X.transpose(1, 2, 0)
        Xt = np.empty_like(X)
        dx = np.empty_like(X) if sigma is None else None
    if eps is not None:
        eps = np.broadcast_to(eps[:, None], X.shape).copy()  # unit strides multiply faster

    def noisy_steps():
        """(dW, sigma(x_n) dW_n) per step; the noise of a whole block is one
        column sum, with the products and order of a per-step _matvec."""
        lo = 0
        for block in increments:
            hi, noise = lo + len(block), itertools.repeat(None)
            if sig_x is not None:
                if lo == 0:
                    buf, buf_tmp = np.empty((2, len(block), d, n_paths))
                noise, t = buf[:hi - lo], buf_tmp[:hi - lo]
                _matvec(sig_x[:, :, lo:hi], block.transpose(1, 0, 2),
                        noise.transpose(1, 0, 2), t.transpose(1, 0, 2))
            yield from zip(block, noise)
            lo = hi

    steps = (itertools.repeat((None, None), grid.n_steps) if increments is None
             else noisy_steps())
    with np.errstate(over="ignore", invalid="ignore"):
        visit(0, None, X, Z)
        for n, (dW, noise) in enumerate(steps):
            if X is not None:
                # left-endpoint evaluation: drift and diffusion at the pre-step state
                b = _component_major(model.drift(Xv), Xv.shape, (2, 0, 1))
                if eps is not None and sigma is None:
                    s = _component_major(model.diffusion(Xv), Xv.shape + (model.r,),
                                         (2, 3, 0, 1))
                    _matvec(s, dW, dx, Xt)
                np.multiply(b, dt, out=Xt)
                np.add(X, Xt, out=X)
                if eps is not None:
                    np.multiply(eps, dx if sigma is None else noise[:, None], out=Xt)
                    np.add(X, Xt, out=X)
            if Z is not None:
                np.multiply(_matvec(db[n], Z, Zt, tmp), dt, out=Zt)
                np.add(Z, Zt, out=Z)
                np.add(Z, noise, out=Z)
            i = position.get(n + 1)
            if i is not None:
                visit(n + 1, i, X, Z)
                if X is not None:
                    X[...] = _component_major(model.reset(Xv), Xv.shape, (2, 0, 1))
                if Z is not None:
                    Z[...] = _matvec(dh[i], Z, Zt, tmp)
            visit(n + 1, None, X, Z)


def _record(model, grid, picks, X=None, eps=None, increments=None,
            along=None) -> list[CadlagTrajectory]:
    """Step a batch of one and record each pick(X, Z) as a cadlag
    trajectory; a non-finite recorded value raises, naming its first step.
    The picks are views, taken once, at node 0."""
    values = np.empty((len(picks), grid.n_steps + 1, model.d))
    left = np.empty((len(picks), len(grid.impulse_nodes), model.d))
    views = []

    def visit(n, i, X, Z):
        if not views:
            views.extend(pick(X, Z) for pick in picks)
        into = values[:, n] if i is None else left[:, i]
        for k, view in enumerate(views):
            into[k] = view

    _step(model, grid, visit, X, eps, increments, along)
    bad = list(np.flatnonzero(~np.isfinite(values).all(axis=(0, 2))))
    bad += [grid.impulse_nodes[i]
            for i in np.flatnonzero(~np.isfinite(left).all(axis=(0, 2)))]
    if bad:
        raise IntegrationOverflowError(f"trajectory became non-finite at step {min(bad)}")
    return [CadlagTrajectory(grid=grid, values=v, left=lv) for v, lv in zip(values, left)]


def _noisy(X, Z):
    return X[:, 0, 0]


def _fluct(X, Z):
    return Z[:, 0]


def _path_blocks(path: BrownianPath):
    """A path's increments as a batch of one, in _BLOCK_STEPS-step blocks."""
    inc = path.increments[..., None]
    return (inc[lo:lo + _BLOCK_STEPS] for lo in range(0, len(inc), _BLOCK_STEPS))


def _check_path(model: Model, grid: SampleGrid, path: BrownianPath):
    if path.dt != grid.dt:
        raise ValueError(f"path.dt={path.dt} does not match grid dt={grid.dt}")
    if path.increments.shape != (grid.n_steps, model.r):
        raise ValueError(
            f"increments shape {path.increments.shape} does not match "
            f"(n_steps, r) = ({grid.n_steps}, {model.r})"
        )


def integrate_deterministic(
    model: Model, grid: SampleGrid, x0: np.ndarray
) -> CadlagTrajectory:
    """Explicit Euler flow of the impulsive ODE on the grid."""
    return integrate_sde(model, grid, x0, 0.0, None)


def _check_x0(model: Model, x0) -> np.ndarray:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.d,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({model.d},)")
    return x0


def integrate_sde(
    model: Model,
    grid: SampleGrid,
    x0: np.ndarray,
    epsilon: float,
    path: Optional[BrownianPath],
) -> CadlagTrajectory:
    """Euler-Maruyama flow of the impulsive SDE; epsilon=0 degenerates bitwise
    to the deterministic integrator."""
    x0 = _check_x0(model, x0)
    eps = increments = None
    if epsilon != 0.0:
        if path is None:
            raise ValueError("a BrownianPath is required when epsilon > 0")
        _check_path(model, grid, path)
        eps, increments = np.array([epsilon]), _path_blocks(path)
    [noisy] = _record(model, grid, [_noisy], X=x0.reshape(-1, 1, 1).copy(),
                      eps=eps, increments=increments)
    return noisy


def integrate_fluctuation(
    model: Model,
    grid: SampleGrid,
    det: CadlagTrajectory,
    path: BrownianPath,
) -> CadlagTrajectory:
    """Linearized fluctuation process along the deterministic trajectory.

    Between impulses: Z' = Db(x(t)) Z + sigma(x(t)) dW, started at Z=0;
    at impulse k the left limit is reset by Dh evaluated at the
    deterministic left limit.  Uses the same increments as the noisy flow.
    """
    if det.grid != grid:
        raise ValueError("deterministic trajectory was produced on a different grid")
    _check_path(model, grid, path)
    [fluct] = _record(model, grid, [_fluct],
                      increments=_path_blocks(path),
                      along=_prepare_along_path(model, grid, det))
    return fluct


def integrate_coupled(
    model: Model,
    grid: SampleGrid,
    x0: np.ndarray,
    epsilon: float,
    path: BrownianPath,
) -> tuple[CadlagTrajectory, CadlagTrajectory, CadlagTrajectory]:
    """The coupled triple (x, X, Z) on one Brownian path: the deterministic
    pass, then X and Z advanced together in one pass of the stepper.  Each
    is bitwise the trajectory of integrate_deterministic, integrate_sde and
    integrate_fluctuation; epsilon=0 gives X = x."""
    x0 = _check_x0(model, x0)
    _check_path(model, grid, path)
    det = integrate_deterministic(model, grid, x0)
    # at epsilon 0, X runs noise-free: a 0.0 * noise term would turn -0.0 into +0.0
    eps = None if epsilon == 0.0 else np.array([epsilon])
    noisy, fluct = _record(model, grid, [_noisy, _fluct],
                           X=x0.reshape(-1, 1, 1).copy(), eps=eps,
                           increments=_path_blocks(path),
                           along=_prepare_along_path(model, grid, det))
    return det, noisy, fluct


_WRITE_ROWS = 4096  # rows turned into Python floats at once; bounds the writer's memory


def write_trajectory_csv(
    out: IO[str],
    det: CadlagTrajectory,
    noisy: CadlagTrajectory,
    fluct: CadlagTrajectory,
    epsilon: float,
) -> int:
    """Write the coupled trajectories as CSV; returns the number of data rows.

    Columns: t, x1..xd, X1..Xd, Z1..Zd, A1..Ad, Y1..Yd, event, where
    A = x + eps*Z and Y = (X - x)/eps.  Impulse nodes emit a pre row
    (left limits) followed by a post row.  17 significant digits.
    """
    grid = det.grid
    d = det.values.shape[1]
    names = ["t"] + [f"{c}{j}" for c in "xXZAY" for j in range(1, d + 1)] + ["event"]
    out.write(",".join(names) + "\n")

    # node n goes to row n + #{impulse nodes <= n}, the pre row of impulse i
    # to row nodes[i] + i, just above its node's post row
    nodes = np.array(grid.impulse_nodes, dtype=np.intp)
    n_rows = grid.n_steps + 1 + len(nodes)
    node_rows = np.arange(grid.n_steps + 1)
    node_rows += np.searchsorted(nodes, node_rows, side="right")
    pre_rows = nodes + np.arange(len(nodes))
    table = np.empty((n_rows, 1 + 5 * d))
    times = grid.times()
    table[node_rows, 0] = times
    table[pre_rows, 0] = times[nodes]
    x, X, Z, A, Y = (table[:, 1 + k * d:1 + (k + 1) * d] for k in range(5))
    for col, traj in ((x, det), (X, noisy), (Z, fluct)):
        col[node_rows] = traj.values
        col[pre_rows] = traj.left
    np.add(x, epsilon * Z, out=A)
    if epsilon != 0.0:
        np.divide(X - x, epsilon, out=Y)
    else:
        Y[...] = 0.0

    events = ["flow"] * n_rows
    for row in pre_rows.tolist():
        events[row], events[row + 1] = "pre", "post"
    fmt = "%.17g," * (1 + 5 * d) + "%s\n"
    for lo in range(0, n_rows, _WRITE_ROWS):
        out.writelines(fmt % (*row, event) for row, event in
                       zip(table[lo:lo + _WRITE_ROWS].tolist(), events[lo:lo + _WRITE_ROWS]))
    return n_rows
