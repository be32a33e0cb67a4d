"""Monte Carlo error estimation: sup-norm errors, means across paths, and
log-log slope regression across noise scales.

Per path the noisy flow and the fluctuation process consume identical
Brownian increments, so path-wise differences reflect the strong error
bounds being verified.  A large enough study steps its paths on the usable
CPUs (see _workers.run_shares), a path weighing its steps times the noise
scales.  A share runs in fixed-size chunks, in order; a chunk steps all
its paths and noise scales component-major and in place, drawing each
path's increments from its own generator, forming their noise and stepping
them one time block at a time, and reduces the sups as it goes.  The
chunks' sups join in one per-path table in path-index order, (2, n_eps,
n_paths, d + 1) with the norm last, and the report derives every summary
from it.  No path's bits depend on its share, chunk or block, so the report
is bit-identical for any worker count, chunk size or block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from . import _workers
from .dynamics import Model
from .integrate import (
    SampleGrid,
    _brownian_blocks,
    _matvec,
    _step,
    integrate_deterministic,
)

# paths per chunk: a chunk holds O(paths x Brownian block) memory, about
# 7.5 KB a path at d = r = 2 and 10 eps, so this bounds the step loop's
# memory however many paths a study has.
_CHUNK_SIZE = 250

# path-steps (paths x eps x steps) a study must give each process before it
# forks one; each pays the per-step overhead of all the steps.  Forked bare
# on a 2-vCPU host, two processes broke even near 2^21 path-steps of the
# pendulum at dt = 2^-6, and between 2^23.3 and 2^24.3 at dt = 2^-12.
_MIN_WORK_PER_WORKER = 2**22


# axis 0 of every report table: sup|X - x| (lln) and sup|X - x - eps*Z| (clt)
STATISTICS = ("lln", "clt")


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per-path sup-norm errors, and the per-eps means and fitted log2-log2
    slopes derived from them.  Axis 0 of each table is the statistic, in
    STATISTICS order; the last axis is the columns e1..ed, norm (the Euclidean
    norm).  A table of another shape, fewer than 2 paths, a sup that is not
    finite, or a column of zero mean at some eps raises.  The tables are
    read-only, paths a copy of the given table, and a report compares and
    hashes by identity."""

    eps_exponents: tuple[int, ...]
    paths: np.ndarray  # per-path sups in path-index order: (2, n_eps, n_paths, d + 1)
    mean: np.ndarray = field(init=False)  # (2, n_eps, d + 1)
    sem: np.ndarray = field(init=False)  # standard errors of the mean (diagnostic extension)
    slope: np.ndarray = field(init=False)  # (2, d + 1)
    r2: np.ndarray = field(init=False)

    def __post_init__(self):
        paths = np.array(self.paths, dtype=float)  # the report's own table
        lead = (len(STATISTICS), len(self.eps_exponents))
        if paths.ndim != 4 or paths.shape[:2] != lead or paths.shape[3] < 2:
            raise ValueError(f"paths must have shape ({lead[0]}, {lead[1]}, n_paths, d + 1) with "
                             f"d >= 1 for {lead[1]} eps exponents, got {paths.shape}")
        if paths.shape[2] < 2:
            raise ValueError(f"a report needs at least 2 paths, got {paths.shape[2]}")
        bad = ~np.isfinite(paths).all(axis=(0, 3))  # (n_eps, n_paths)
        if bad.any():
            raise FloatingPointError("path overflow at " + "; ".join(
                f"eps={2.0**-i}, path index {', '.join(map(str, np.flatnonzero(row)))}"
                for i, row in zip(self.eps_exponents, bad) if row.any()))
        # the norm reduces from its own contiguous array: reduced with the
        # stacked columns it would sum in another order, changing its last bits
        coords, norm = paths[..., :-1], np.ascontiguousarray(paths[..., -1])
        mean = np.dstack((coords.mean(axis=2), norm.mean(axis=2)))
        sem = np.dstack((coords.std(axis=2, ddof=1), norm.std(axis=2, ddof=1)))
        for s, e, j in zip(*np.nonzero(mean <= 0)):
            col = "norm" if j == coords.shape[-1] else f"e{j + 1}"
            raise ValueError(f"{STATISTICS[s]} mean error of column {col} is 0 at "
                             f"eps={2.0**-self.eps_exponents[e]}: no log-log slope can be fitted")
        xs = -np.array(self.eps_exponents, dtype=float)
        fits = np.array([[fit_loglog_slope(xs, col) for col in table.T] for table in mean])
        for name, table in (("paths", paths), ("mean", mean),
                            ("sem", sem / np.sqrt(paths.shape[2])),
                            ("slope", fits[..., 0]), ("r2", fits[..., 2])):
            table.flags.writeable = False
            object.__setattr__(self, name, table)


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]):
    """Ordinary least squares of log2(ys) against xs.

    Returns (slope, intercept, r_squared) from exactly rounded sums of the
    centred data, whose bits depend neither on the CPU nor on the pairs' order;
    r_squared, which rounds above 1 on some exact fits, is clamped to 1.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d of equal length")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError(f"xs and ys must be finite, got xs={xs.tolist()}, ys={ys.tolist()}")
    if len(set(xs.tolist())) < 2:
        raise ValueError("need at least 2 distinct xs to fit a slope")
    if np.any(ys <= 0):
        raise ValueError("ys must be strictly positive")
    n, xs, ly = len(xs), xs.tolist(), [math.log2(y) for y in ys.tolist()]
    x_mean, y_mean = math.fsum(xs) / n, math.fsum(ly) / n
    dx, dy = [x - x_mean for x in xs], [y - y_mean for y in ly]
    sxx, sxy, syy = (math.fsum(u * v for u, v in zip(a, b))
                     for a, b in ((dx, dx), (dx, dy), (dy, dy)))
    slope = sxy / sxx
    return slope, y_mean - slope * x_mean, 1.0 if syy == 0.0 else min(1.0, slope * sxy / syy)


def run_convergence_study(
    model: Model,
    grid: SampleGrid,
    x0: np.ndarray,
    eps_exponents: Sequence[int],
    n_paths: int,
    base_seed: int,
) -> ConvergenceReport:
    """Estimate mean sup-norm errors per eps = 2^-i and fit log2-log2 slopes.

    Path j draws the increments of sample_brownian(grid, model.r, base_seed,
    j), so integrate_coupled replays it.  The deterministic trajectory is
    shared across all paths and noise scales.  A path whose sup is not
    finite (NaN survives np.maximum and sqrt) makes the report raise,
    naming every such (eps, path index).
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    eps_exponents = tuple(int(i) for i in eps_exponents)
    if any(i <= 0 for i in eps_exponents):
        raise ValueError("eps exponents must be positive")
    for k, i in enumerate(eps_exponents):
        if math.ldexp(1.0, -i) == 0.0:
            raise ValueError(f"eps exponent {i} underflows: 2^-{i} is 0.0 as a float")
        if i in eps_exponents[:k]:
            raise ValueError(f"eps exponent {i} is repeated: the study needs distinct eps")
    if len(eps_exponents) < 2:
        raise ValueError("need at least 2 distinct eps exponents to fit a slope")
    eps = np.array([2.0**-i for i in eps_exponents])
    # allocated before any pass: a study whose table cannot fit fails here
    paths = np.empty((2, len(eps), n_paths, model.d + 1))
    det = integrate_deterministic(model, grid, x0)

    def run_chunk(idx_range):
        """The chunk's per-path table: sups of |X - x| (index 0) and
        |X - x - eps*Z| (index 1), per coordinate and of the norm,
        (2, n_eps, n_paths, d + 1); stepped component-major."""
        shape = (model.d, len(eps), len(idx_range))
        eps3 = np.broadcast_to(eps[:, None], shape).copy()  # unit strides multiply faster
        sup, sup_n2 = np.zeros((2,) + shape), np.zeros((2,) + shape[1:])
        diff, t, n2 = np.empty_like(sup), np.empty_like(sup), np.empty_like(sup_n2)

        def visit(n, i, X, Z):
            # left limits participate in the sup before the reset applies
            ref = det.values[n] if i is None else det.left[i]
            np.subtract(X, ref[:, None, None], out=diff[0])
            np.subtract(diff[0], np.multiply(eps3, Z[:, None], out=diff[1]), out=diff[1])
            np.maximum(sup, np.abs(diff, out=t), out=sup)
            # squared norm summed in component order
            np.maximum(sup_n2, _matvec(diff, diff, n2, t), out=sup_n2)

        X = np.empty(shape)
        X[...] = det.values[0][:, None, None]
        blocks = _brownian_blocks(grid, model.r, base_seed, idx_range)
        _step(model, grid, visit, X, np.zeros((model.d, len(idx_range))), eps, blocks, det)
        return np.concatenate((np.moveaxis(sup, 1, -1), np.sqrt(sup_n2)[..., None]), axis=-1)

    def run_share(share):
        return [run_chunk(range(lo, min(lo + _CHUNK_SIZE, share.stop)))
                for lo in range(share.start, share.stop, _CHUNK_SIZE)]

    def lost(shares):
        return (f"a study worker process died: the sups of paths {shares[0].start}"
                f"..{shares[-1].stop - 1} were lost")

    np.concatenate(_workers.run_shares(run_share, [len(eps) * grid.n_steps] * n_paths,
                                       _MIN_WORK_PER_WORKER, lost), axis=2, out=paths)
    return ConvergenceReport(eps_exponents=eps_exponents, paths=paths)


def write_report_csv(report: ConvergenceReport, out: IO[str]) -> None:
    """Report CSV: per eps, i, eps and the rows of the mean and sem tables
    (lln, then clt); then one footer row per slope and r2 table, filling the
    mean block of its own statistic."""
    d = report.mean.shape[-1] - 1

    def fmt(v) -> str:
        return f"{v:.17g}"

    means = [f"e{j}" for j in range(1, d + 1)] + ["norm"]
    sems = [f"se{j}" for j in range(1, d + 1)] + ["se_norm"]
    out.write(",".join(["i", "eps"] + [f"{c}_{stat}" for cols in (means, sems)
                                       for stat in STATISTICS for c in cols]) + "\n")
    for i, row in zip(report.eps_exponents, np.hstack((*report.mean, *report.sem))):
        out.write(",".join([str(i), fmt(2.0**-i)] + [fmt(v) for v in row]) + "\n")

    blank = [""] * (d + 1)
    for label in ("slope", "r2"):
        for at, stat in enumerate(STATISTICS):
            values = [fmt(v) for v in getattr(report, label)[at]]
            cells = blank * at + values + blank * (2 * len(STATISTICS) - 1 - at)
            out.write(",".join([f"{label}_{stat}", ""] + cells) + "\n")
