"""Monte Carlo error estimation: sup-norm errors, means across paths, and
log-log slope regression across noise scales.

Per path the noisy flow and the fluctuation process consume identical
Brownian increments, so path-wise differences reflect the strong error
bounds being verified.  A large enough study steps its paths on the usable
CPUs (see _workers.run_shares), a path weighing its steps times the noise
scales.  A share runs in fixed-size chunks, in order; a chunk steps all
its paths and noise scales component-major and in place, drawing each
path's increments from its own generator several time blocks at a time,
forming and stepping their noise a block at a time, and reduces the sups
as it goes.  No path's bits depend on its share, chunk or block, and
the reduction runs on the sups of all paths in path-index order, so the
report is bit-identical for any worker count, chunk size or block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from . import _workers
from .dynamics import Model
from .integrate import (
    IntegrationOverflowError,
    SampleGrid,
    _brownian_blocks,
    _matvec,
    _step,
    integrate_deterministic,
)

# paths per chunk: a chunk holds O(paths x Brownian draw) memory, about 8 KB
# a path at d = r = 2 and 10 eps, so this bounds the step loop's memory
# however many paths a study has.
_CHUNK_SIZE = 250

# path-steps (paths x eps x steps) a study must give each process before it
# forks one; each pays the per-step overhead of all the steps.  Forked bare
# on a 2-vCPU host, two processes broke even near 2^21 path-steps of the
# pendulum at dt = 2^-6, and between 2^23.3 and 2^24.3 at dt = 2^-12.
_MIN_WORK_PER_WORKER = 2**22


# axis 0 of every report table: sup|X - x| (lln) and sup|X - x - eps*Z| (clt)
STATISTICS = ("lln", "clt")


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-eps mean sup-norm errors and fitted log2-log2 slopes.  Axis 0 of
    each table is the statistic, in STATISTICS order; the last axis of mean,
    sem, slope and r2 is the columns e1..ed, norm (the Euclidean norm)."""

    eps_exponents: tuple[int, ...]
    mean: np.ndarray  # (2, n_eps, d + 1)
    sem: np.ndarray  # standard errors of the mean (diagnostic extension)
    slope: np.ndarray  # (2, d + 1)
    r2: np.ndarray
    # per-path sups, path axis in path-index order: (2, n_eps, n_paths, d)
    paths: np.ndarray


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]):
    """Ordinary least squares of log2(ys) against xs.

    Returns (slope, intercept, r_squared) from exactly rounded sums of the
    centred data, whose bits depend neither on the CPU nor on the pairs' order.
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
    return slope, y_mean - slope * x_mean, 1.0 if syy == 0.0 else slope * sxy / syy


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
    finite raises, naming every such (eps, path index).
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
    det = integrate_deterministic(model, grid, x0)

    def run_chunk(idx_range):
        """Per-coordinate and squared-norm sups of |X - x| (index 0) and
        |X - x - eps*Z| (index 1), component-major: (2, d, n_eps, n_paths)
        and (2, n_eps, n_paths)."""
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
        return sup, sup_n2

    def run_share(share):
        return [run_chunk(range(lo, min(lo + _CHUNK_SIZE, share.stop)))
                for lo in range(share.start, share.stop, _CHUNK_SIZE)]

    def lost(shares):
        return (f"a study worker process died: the sups of paths {shares[0].start}"
                f"..{shares[-1].stop - 1} were lost")

    results = _workers.run_shares(run_share, [len(eps) * grid.n_steps] * n_paths,
                                  _MIN_WORK_PER_WORKER, lost)

    # assemble in path-index order; all downstream reductions see one array,
    # per-coordinate sups laid out (2, n_eps, n_paths, d)
    sup, sup_n2 = (np.concatenate(parts, axis=-1) for parts in zip(*results))
    paths = np.ascontiguousarray(np.moveaxis(sup, 1, -1))
    bad = ~np.isfinite(sup_n2).all(axis=0)  # NaN survives np.maximum
    if bad.any():
        raise IntegrationOverflowError("path overflow at " + "; ".join(
            f"eps={eps[e]}, path index {', '.join(map(str, np.flatnonzero(row)))}"
            for e, row in enumerate(bad) if row.any()))

    # means and standard errors over paths, (2, n_eps, d + 1), column d the
    # norm; the norm reduces on its own: a reduction over the stacked columns
    # would sum it in another order and change its last bits
    norm = np.sqrt(sup_n2)
    mean = np.dstack((paths.mean(axis=2), norm.mean(axis=2)))
    sem = np.dstack((paths.std(axis=2, ddof=1), norm.std(axis=2, ddof=1)))
    for s, e, j in zip(*np.nonzero(mean <= 0)):
        col = "norm" if j == model.d else f"e{j + 1}"
        raise ValueError(f"{STATISTICS[s]} mean error of column {col} is 0 at "
                         f"eps={eps[e]}: no log-log slope can be fitted")
    xs = -np.array(eps_exponents, dtype=float)
    fits = np.array([[fit_loglog_slope(xs, col) for col in table.T] for table in mean])
    return ConvergenceReport(eps_exponents=eps_exponents, mean=mean,
                             sem=sem / np.sqrt(n_paths), slope=fits[..., 0],
                             r2=fits[..., 2], paths=paths)


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
