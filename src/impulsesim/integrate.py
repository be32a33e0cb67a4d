"""Time grids, Brownian paths, and the coupled Euler/Euler-Maruyama integrators.

build_grid lays out the impulse schedule t_k = k - 1 + alpha as grid nodes; no
other code writes it down.  One batched stepper holds the two recursions, each
written once: the flow of X, whose lanes at noise scale 0 are the
deterministic flow x, and the linear step of the fluctuation process Z along
x.  It runs either, or both in lockstep, over Brownian blocks of _BLOCK_STEPS
steps, each drawn in one generator call per path, turned into its sigma dW
once and stepped node by node.  A pass makes its own model calls: Dh and a
sigma probe once, and Z's Db(x), with a sigma(x) that is not constant, on
each block's nodes of x, so the step buffers hold one block and only the
trajectories grow with the steps.  integrate_coupled gives one path's triple
(x, X, Z) in two passes: x and X as two lanes of one flow batch, then Z alone
along x.  The Monte Carlo study steps x alone, then X at every noise scale and
path in lockstep with Z.  write_trajectory_csv writes the triple block by block.

At an impulse node the Euler step into the node produces the left
limit, the reset applies instantaneously, and the step out of the node
starts from the post-reset value; no time is consumed by the reset.  A
trajectory is right-continuous: `values` holds every grid node (post-reset
at impulse nodes) and `left` one left limit per impulse, in the order of
`SampleGrid.impulse_nodes`, the grid indices of t_k = k - 1 + alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .dynamics import Model


_BLOCK_STEPS = 64  # Brownian increments per path drawn, formed into sigma dW and stepped at a time


@dataclass(frozen=True)
class SampleGrid:
    """Uniform dyadic grid on [0, T] with dt = 2^-m, impulse-aligned."""

    dt: float
    n_steps: int
    # grid index of t_k = k - 1 + alpha for every impulse t_k <= T, at position k - 1
    impulse_nodes: tuple[int, ...]

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


def build_grid(T: float, m: int, alpha: float) -> SampleGrid:
    """Grid on [0, T], dt = 2^-m, with impulse nodes at t_k = k - 1 + alpha <= T
    for k >= 1 and alpha in (0, 1]; rejects a misaligned alpha or T, a
    non-finite T, an m at which alpha*2^m or T*2^m is not a finite float, and
    a T*2^m beyond the largest index."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon T must be positive and finite, got {T}")
    if m < 0:
        raise ValueError(f"dt exponent m must be >= 0, got {m}")
    try:
        a_scaled, t_scaled = math.ldexp(alpha, m), math.ldexp(T, m)
    except OverflowError:
        raise ValueError(f"dt exponent m={m} is too large: alpha*2^m or T*2^m "
                         "is not a finite float") from None
    scale = 2**m
    if a_scaled != round(a_scaled):
        raise ValueError(
            f"impulse offset alpha={alpha} is not aligned with "
            f"dt=2^-{m}: alpha*2^m = {a_scaled} is not an integer"
        )
    if t_scaled != round(t_scaled):
        raise ValueError(f"T={T} is not a multiple of dt=2^-{m}")
    if t_scaled > np.iinfo(np.intp).max:
        raise ValueError(f"T={T} and m={m} give T*2^m = {t_scaled:g} steps, "
                         f"more than the largest index {np.iinfo(np.intp).max}")
    n_steps = int(round(t_scaled))
    nodes = tuple(range(int(round(a_scaled)), n_steps + 1, scale))
    return SampleGrid(dt=1.0 / scale, n_steps=n_steps, impulse_nodes=nodes)


@dataclass(frozen=True)
class BrownianPath:
    """Increments of an r-dimensional Brownian motion on a grid."""

    increments: np.ndarray  # (n_steps, r), i.i.d. Normal(0, dt) entries
    dt: float


def _rng(seed: int, path_index: int) -> np.random.Generator:
    """The generator of path path_index at seed: the one seeding scheme."""
    for name, v in (("seed", seed), ("path index", path_index)):
        if v < 0:
            raise ValueError(f"{name} must be >= 0, got {v}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(path_index,)))


def sample_brownian(grid: SampleGrid, r: int, seed: int, path_index: int = 0) -> BrownianPath:
    """Draw the Brownian increments of path path_index at seed on the grid;
    path j of a study at base_seed s is sample_brownian(grid, r, s, j), drawn
    by the study's own _brownian_blocks."""
    if r < 1:
        raise ValueError("noise dimension r must be >= 1")
    increments = np.empty((grid.n_steps, r))
    # blocks first: they check seed and path index even on an empty grid
    for block, lo in zip(_brownian_blocks(grid, r, seed, [path_index]),
                         range(0, grid.n_steps, _BLOCK_STEPS)):
        increments[lo:lo + len(block)] = block[..., 0]
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


def _matvec(a: np.ndarray, v: np.ndarray, out=None, prod=None):
    """out = a v without BLAS, the package's one such product: a (d, r, ...)
    against v (r, ...), batch axes ... broadcasting, into out (d, ...),
    component-major.  All products are rounded one by one in one multiply
    into prod (d, r, ...), then summed over axis 1 in column order; a buffer
    not given is allocated.  No bits depend on the CPU or on how many paths
    are stacked; with `@` they can, as BLAS may fuse the multiply-adds of a
    single row (gemv) but not of many (gemm)."""
    prod = np.multiply(a, v, out=prod)
    # x + -0.0 is x, signed zeros included: one column is copied bit for bit
    out = np.add(prod[:, 0], prod[:, 1] if prod.shape[1] > 1 else -0.0, out=out)
    for j in range(2, prod.shape[1]):
        np.add(out, prod[:, j], out=out)
    return out


def _brownian_blocks(grid: SampleGrid, r: int, seed: int, path_indices):
    """Brownian increments of one path per index, yielded as one reused
    (steps, r, n_paths) block of _BLOCK_STEPS steps, the last one shorter;
    path p's draws are its generator's normal(0.0, sd, (n_steps, r)) bit for
    bit: 0.0 + sd * z, so -0.0 comes out +0.0.  The package's one drawer."""
    rngs, sd = [_rng(seed, j) for j in path_indices], math.sqrt(grid.dt)
    z, buf = np.empty((len(rngs), _BLOCK_STEPS, r)), np.empty((_BLOCK_STEPS, r, len(rngs)))
    for lo in range(0, grid.n_steps, _BLOCK_STEPS):
        k = min(_BLOCK_STEPS, grid.n_steps - lo)
        for rng, out in zip(rngs, z[:, :k]):
            rng.standard_normal(out=out)
        block = np.multiply(z[:, :k].transpose(1, 2, 0), sd, out=buf[:k])
        yield np.add(0.0, block, out=block)


def _step(model, grid, visit, X, Z, eps=None, increments=None, along=None):
    """The one Euler / Euler-Maruyama / fluctuation scheme over a batch: the
    flow of X, the linear step of Z along the deterministic flow x, or both
    in lockstep on the same increments.

    States are component-major and updated in place, and either may be None: X
    (d, n_eps, n_paths) at noise scales eps (n_eps,), zeros first, and Z (d,
    n_paths) from 0, stepped along x's trajectory along.  The noise update
    never writes a lane at eps 0: it keeps the bits of x.  increments yields
    blocks (steps, r, n_paths) of _BLOCK_STEPS steps, the last one shorter,
    n_steps in all.  The pass makes every model call it needs: Dh is one
    reset_jacobian call on along.left, and sigma one diffusion call at the
    first state, x's if Z steps, else X's noisy lanes.  A (d, r) sigma is one
    constant, and both noises are then formed a block at a time in one _matvec;
    else X's is sigma(X_n) dW_n.  Z's Db(x_n), and a sigma(x_n) that is not
    constant, are one call per block, on its nodes of x: no buffer holds more
    than one block.  visit(n, i, X, Z) sees each node n from 0 (i None) and
    each left limit (at node n = grid.impulse_nodes[i], before the reset), with
    the same arrays each time: a visitor that keeps values must copy them.  The
    model's callables see (..., d) views.  A value that leaves the finite
    floats raises no warning: the callers check the recorded values.
    """
    d, r, dt = model.d, model.r, np.array(grid.dt)  # 0-d: multiplies faster than a float
    position = {node: i for i, node in enumerate(grid.impulse_nodes)}
    noisy, const = False, True
    if X is not None:
        quiet = int(np.count_nonzero(eps == 0))
        Xt = np.empty_like(X)
        Xv, Xtv = X.transpose(1, 2, 0), Xt.transpose(1, 2, 0)  # the model's (..., d) views
        Xn, Xnv = X[:, quiet:], Xv[quiet:]  # the noisy lanes
        noisy = Xn.size > 0
    if noisy or Z is not None:  # sigma at the pass's first state: (d, r) means constant
        sig = np.asarray(model.diffusion(along.values[:1] if Z is not None else Xnv), float)
        const = sig.shape == (d, r)
    if noisy:
        eps = np.broadcast_to(eps[quiet:, None], Xn.shape).copy()  # unit strides multiply faster
        dx, prod_x = np.empty_like(Xn), None if const else np.empty((d, r) + Xn.shape[1:])
    if Z is not None:
        x, dh = along.values, np.broadcast_to(np.asarray(model.reset_jacobian(along.left), float),
                                              (len(along.left), d, d))[..., None]
        Zt, prod = np.empty_like(Z), np.empty((d, d) + Z.shape[1:])
    formed = Z is not None or (noisy and const)  # sigma dW a block at a time
    if formed:
        shape = (min(_BLOCK_STEPS, grid.n_steps), d, (X if Z is None else Z).shape[-1])
        noise, prod_b = np.empty(shape), np.empty((d, r) + shape[::2])
    with np.errstate(over="ignore", invalid="ignore"):
        visit(0, None, X, Z)
        for lo in range(0, grid.n_steps, _BLOCK_STEPS):
            k = min(_BLOCK_STEPS, grid.n_steps - lo)
            if noisy or Z is not None:
                block = next(increments)
            if Z is not None:  # Db, and a sigma that is not constant, on this block's x
                db = np.broadcast_to(np.asarray(model.drift_jacobian(x[lo:lo + k]), float),
                                     (k, d, d))[..., None]
                if not const:
                    sig = np.asarray(model.diffusion(x[lo:lo + k]), float)
            if formed:
                _matvec(np.broadcast_to(sig, (k, d, r)).transpose(1, 2, 0)[..., None],
                        block.transpose(1, 0, 2), noise[:k].transpose(1, 0, 2), prod_b[:, :, :k])
            for n in range(lo, lo + k):
                if X is not None:  # X's flow: drift and diffusion at the pre-step state
                    if noisy and not const:
                        s = np.broadcast_to(np.asarray(model.diffusion(Xnv), float),
                                            Xnv.shape + (r,))
                        _matvec(s.transpose(2, 3, 0, 1), block[n - lo, :, None], dx, prod_x)
                    # an unbatched drift broadcasts; its floats are cast first
                    np.multiply(model.drift(Xv), dt, out=Xtv, dtype=float)
                    np.add(X, Xt, out=X)
                    if noisy:
                        np.multiply(eps, noise[n - lo, :, None] if const else dx, out=dx)
                        np.add(Xn, dx, out=Xn)
                if Z is not None:  # Z's linear step along x
                    np.multiply(_matvec(db[n - lo], Z, Zt, prod), dt, out=Zt)
                    np.add(Z, Zt, out=Z)
                    np.add(Z, noise[n - lo], out=Z)
                i = position.get(n + 1)
                if i is not None:
                    visit(n + 1, i, X, Z)
                    if X is not None:
                        Xv[...] = model.reset(Xv)
                    if Z is not None:
                        Z[...] = _matvec(dh[i], Z, Zt, prod)
                visit(n + 1, None, X, Z)


def _record(model, grid, X, Z, **pass_args) -> list[CadlagTrajectory]:
    """Run a pass of _step over one path and return its X's k lanes, or its
    Z, as cadlag trajectories; raises at the first non-finite step of any."""
    state = X[..., 0].T if Z is None else Z.T
    values = np.empty((len(state), grid.n_steps + 1, model.d))
    left = np.empty((len(state), len(grid.impulse_nodes), model.d))

    def visit(n, i, X, Z):
        (values[:, n] if i is None else left[:, i])[...] = state

    _step(model, grid, visit, X, Z, **pass_args)
    finite = np.isfinite(values).all(axis=(0, 2))  # per node; a left limit counts at its node
    finite[list(grid.impulse_nodes)] &= np.isfinite(left).all(axis=(0, 2))
    if not finite.all():
        raise FloatingPointError(f"trajectory became non-finite at step {finite.argmin()}")
    return [CadlagTrajectory(grid=grid, values=v, left=lv) for v, lv in zip(values, left)]


def _path_blocks(path: BrownianPath):
    """A path's increments as a batch of one, in _BLOCK_STEPS-step blocks."""
    inc = path.increments[..., None]
    return (inc[lo:lo + _BLOCK_STEPS] for lo in range(0, len(inc), _BLOCK_STEPS))


def _check_path(model: Model, grid: SampleGrid, path: BrownianPath):
    if path.dt != grid.dt:
        raise ValueError(f"path.dt={path.dt} does not match grid dt={grid.dt}")
    if path.increments.shape != (grid.n_steps, model.r):
        raise ValueError(f"increments shape {path.increments.shape} does not match "
                         f"(n_steps, r) = ({grid.n_steps}, {model.r})")


def _check_x0(model: Model, x0) -> np.ndarray:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.d,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({model.d},)")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    return x0


def integrate_deterministic(model: Model, grid: SampleGrid, x0: np.ndarray) -> CadlagTrajectory:
    """Explicit Euler flow of the impulsive ODE on the grid."""
    return _record(model, grid, _check_x0(model, x0).reshape(-1, 1, 1).copy(), None,
                   eps=np.zeros(1))[0]


def integrate_coupled(
    model: Model,
    grid: SampleGrid,
    x0: np.ndarray,
    epsilon: float,
    path: BrownianPath,
) -> tuple[CadlagTrajectory, CadlagTrajectory, CadlagTrajectory]:
    """The coupled triple (x, X, Z) on one Brownian path, the per-path entry
    point.  x is the Euler flow of the impulsive ODE, X the Euler-Maruyama
    flow of the SDE at noise scale epsilon, and Z the fluctuation process:
    dZ = Db(x) Z dt + sigma(x) dW from Z = 0, its left limit at an impulse
    mapped by Dh at the deterministic left limit.  A flow pass steps x and
    X as two lanes of one batch and raises if either leaves the finite
    floats; only then does a pass along x step Z on the same increments.
    epsilon=0 gives X = x bitwise, signed zeros included."""
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    x0 = _check_x0(model, x0)
    _check_path(model, grid, path)
    det, noisy = _record(model, grid, np.repeat(x0[:, None, None], 2, axis=1), None,
                         eps=np.array([0.0, epsilon]), increments=_path_blocks(path))
    [fluct] = _record(model, grid, None, np.zeros((model.d, 1)), increments=_path_blocks(path),
                      along=det)
    return det, noisy, fluct


# Views of integrate_coupled that only perfbench/spans.py reads, by name; they
# go with that file's next change (ROADMAP.md, item 1).
def integrate_sde(model, grid, x0, epsilon, path):
    return integrate_coupled(model, grid, x0, epsilon, path)[1]


def integrate_fluctuation(model, grid, det, path):
    return integrate_coupled(model, grid, det.values[0], 0.0, path)[2]


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
    nodes = np.array(grid.impulse_nodes, dtype=np.intp)
    fmt = "%.17g," * (1 + 5 * d) + "%s\n"
    for lo in range(0, grid.n_steps + 1, _BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, grid.n_steps + 1)
        i, j = np.searchsorted(nodes, (lo, hi))
        t, events = np.arange(lo, hi) * grid.dt, ["flow"] * (hi - lo)
        x, X, Z = (traj.values[lo:hi] for traj in (det, noisy, fluct))
        if i < j:  # np.insert puts the pre row of each impulse node just above its post row
            at = nodes[i:j] - lo
            t = np.insert(t, at, t[at])
            x, X, Z = (np.insert(traj.values[lo:hi], at, traj.left[i:j], axis=0)
                       for traj in (det, noisy, fluct))
            for k, a in enumerate(at.tolist()):
                events[a + k:a + k + 1] = "pre", "post"
        Y = (X - x) / epsilon if epsilon != 0.0 else np.zeros_like(x)
        rows = np.column_stack((t, x, X, Z, x + epsilon * Z, Y)).tolist()
        out.writelines(fmt % (*row, event) for row, event in zip(rows, events))
    return grid.n_steps + 1 + len(nodes)
