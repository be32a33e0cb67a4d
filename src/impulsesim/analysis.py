"""Monte Carlo error estimation: sup-norm errors, means across paths, and
log-log slope regression across noise scales.

Per path the noisy flow and the fluctuation process consume identical
Brownian increments, so path-wise differences reflect the strong error
bounds being verified.  Paths are batched into fixed-size chunks, run in
order; a chunk steps all its paths and noise scales component-major and in
place, drawing each path's increments in time blocks from its own
generator, and reduces the sups as it goes.  No path's bits depend on its
chunk or block, and the reduction order is fixed by path index, so the
report is bit-identical for any chunk or block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .dynamics import Model
from .integrate import (
    CadlagTrajectory,
    IntegrationOverflowError,
    SampleGrid,
    _brownian_blocks,
    _prepare_along_path,
    _step,
    integrate_deterministic,
    path_seed,
)

# paths per chunk: a chunk holds O(paths x Brownian block) memory, so this
# bounds the step loop's memory however many paths a study has.
_CHUNK_SIZE = 250


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-eps mean sup-norm errors and fitted log2-log2 slopes."""

    eps_exponents: tuple[int, ...]
    eps_list: np.ndarray
    n_paths: int
    mean_lln: np.ndarray  # (n_eps, d)
    mean_clt: np.ndarray
    mean_lln_norm: np.ndarray  # (n_eps,)
    mean_clt_norm: np.ndarray
    sem_lln: np.ndarray  # standard errors of the mean (diagnostic extension)
    sem_clt: np.ndarray
    sem_lln_norm: np.ndarray
    sem_clt_norm: np.ndarray
    slope_lln: np.ndarray  # (d,)
    slope_clt: np.ndarray
    slope_lln_norm: float
    slope_clt_norm: float
    r2_lln: np.ndarray
    r2_clt: np.ndarray
    r2_lln_norm: float
    r2_clt_norm: float
    # per-path sups, path axis in path-index order: (n_eps, n_paths, d)
    lln_paths: np.ndarray
    clt_paths: np.ndarray


def sup_error(
    a: CadlagTrajectory,
    b: CadlagTrajectory,
    shift: CadlagTrajectory | None = None,
    shift_scale: float = 1.0,
) -> np.ndarray:
    """Per-coordinate sup over grid nodes and left limits of
    |a - b - shift_scale*shift|; all three must live on one grid."""
    if b.grid != a.grid or (shift is not None and shift.grid != a.grid):
        raise ValueError("trajectories live on different grids")
    diff = np.concatenate((a.values, a.left)) - np.concatenate((b.values, b.left))
    if shift is not None:
        diff = diff - shift_scale * np.concatenate((shift.values, shift.left))
    return np.max(np.abs(diff), axis=0)


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]):
    """Ordinary least squares of log2(ys) against xs.

    Returns (slope, intercept, r_squared).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d of equal length")
    if len(set(xs.tolist())) < 2:
        raise ValueError("need at least 2 distinct xs to fit a slope")
    if np.any(ys <= 0):
        raise ValueError("ys must be strictly positive")
    ly = np.log2(ys)
    slope, intercept = np.polyfit(xs, ly, 1)
    resid = ly - (slope * xs + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def run_convergence_study(
    model: Model,
    grid: SampleGrid,
    x0: np.ndarray,
    eps_exponents: Sequence[int],
    n_paths: int,
    base_seed: int,
) -> ConvergenceReport:
    """Estimate mean sup-norm errors per eps = 2^-i and fit log2-log2 slopes.

    Each path's seed derives from (base_seed, path index); the deterministic
    trajectory is shared across all paths and noise scales.  A path whose
    sup is not finite raises, naming every such (eps, path index).
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    eps_exponents = tuple(int(i) for i in eps_exponents)
    if any(i <= 0 for i in eps_exponents):
        raise ValueError("eps exponents must be positive")
    if len(set(eps_exponents)) < 2:
        raise ValueError("need at least 2 distinct eps exponents to fit a slope")
    eps = np.array([2.0**-i for i in eps_exponents])
    det = integrate_deterministic(model, grid, x0)
    along = _prepare_along_path(model, grid, det)

    chunks = [
        range(lo, min(lo + _CHUNK_SIZE, n_paths))
        for lo in range(0, n_paths, _CHUNK_SIZE)
    ]

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
            sq = np.multiply(diff, diff, out=t)[:, 0]
            for j in range(1, model.d):
                sq = np.add(sq, t[:, j], out=n2)
            np.maximum(sup_n2, sq, out=sup_n2)

        X = np.empty(shape)
        X[...] = det.values[0][:, None, None]
        blocks = _brownian_blocks(grid, model.r, [path_seed(base_seed, j) for j in idx_range])
        _step(model, grid, visit, X, eps, blocks, along)
        return sup, sup_n2

    results = [run_chunk(c) for c in chunks]

    # assemble in path-index order; all downstream reductions see one array,
    # per-coordinate sups laid out (n_eps, n_paths, d)
    sup, sup_n2 = (np.concatenate(parts, axis=-1) for parts in zip(*results))
    lln, clt = np.ascontiguousarray(np.moveaxis(sup, 1, -1))
    lln_n2, clt_n2 = sup_n2
    bad = ~(np.isfinite(lln_n2) & np.isfinite(clt_n2))  # NaN survives np.maximum
    if bad.any():
        raise IntegrationOverflowError("path overflow at " + "; ".join(
            f"eps={eps[e]}, path index {', '.join(map(str, np.flatnonzero(row)))}"
            for e, row in enumerate(bad) if row.any()))
    lln_norm, clt_norm = np.sqrt(lln_n2), np.sqrt(clt_n2)

    def mean_sem(arr):
        return arr.mean(axis=1), arr.std(axis=1, ddof=1) / np.sqrt(n_paths)

    mean_lln, sem_lln = mean_sem(lln)
    mean_clt, sem_clt = mean_sem(clt)
    mean_lln_norm, sem_lln_norm = mean_sem(lln_norm)
    mean_clt_norm, sem_clt_norm = mean_sem(clt_norm)

    for stat, means in (("lln", np.column_stack((mean_lln, mean_lln_norm))),
                        ("clt", np.column_stack((mean_clt, mean_clt_norm)))):
        for e, j in zip(*np.nonzero(means <= 0)):
            col = "norm" if j == model.d else f"e{j + 1}"
            raise ValueError(f"{stat} mean error of column {col} is 0 at eps={eps[e]}: "
                             "no log-log slope can be fitted")

    xs = -np.array(eps_exponents, dtype=float)

    def slopes(means):  # means: (n_eps, d)
        out_s, out_r2 = [], []
        for j in range(means.shape[1]):
            s, _, r2 = fit_loglog_slope(xs, means[:, j])
            out_s.append(s)
            out_r2.append(r2)
        return np.array(out_s), np.array(out_r2)

    slope_lln, r2_lln = slopes(mean_lln)
    slope_clt, r2_clt = slopes(mean_clt)
    s_ln, _, r2_ln = fit_loglog_slope(xs, mean_lln_norm)
    s_cn, _, r2_cn = fit_loglog_slope(xs, mean_clt_norm)

    return ConvergenceReport(
        eps_exponents=eps_exponents,
        eps_list=eps,
        n_paths=n_paths,
        mean_lln=mean_lln,
        mean_clt=mean_clt,
        mean_lln_norm=mean_lln_norm,
        mean_clt_norm=mean_clt_norm,
        sem_lln=sem_lln,
        sem_clt=sem_clt,
        sem_lln_norm=sem_lln_norm,
        sem_clt_norm=sem_clt_norm,
        slope_lln=slope_lln,
        slope_clt=slope_clt,
        slope_lln_norm=s_ln,
        slope_clt_norm=s_cn,
        r2_lln=r2_lln,
        r2_clt=r2_clt,
        r2_lln_norm=r2_ln,
        r2_clt_norm=r2_cn,
        lln_paths=lln,
        clt_paths=clt,
    )


def write_report_csv(report: ConvergenceReport, out: IO[str]) -> None:
    """Report CSV: one row per eps, slope/r2 footer rows."""
    d = report.mean_lln.shape[1]

    def fmt(v) -> str:
        return f"{v:.17g}"

    cols = ["i", "eps"]
    cols += [f"e{j}_lln" for j in range(1, d + 1)] + ["norm_lln"]
    cols += [f"e{j}_clt" for j in range(1, d + 1)] + ["norm_clt"]
    cols += [f"se{j}_lln" for j in range(1, d + 1)] + ["se_norm_lln"]
    cols += [f"se{j}_clt" for j in range(1, d + 1)] + ["se_norm_clt"]
    out.write(",".join(cols) + "\n")
    for row, i in enumerate(report.eps_exponents):
        cells = [str(i), fmt(report.eps_list[row])]
        cells += [fmt(v) for v in report.mean_lln[row]] + [fmt(report.mean_lln_norm[row])]
        cells += [fmt(v) for v in report.mean_clt[row]] + [fmt(report.mean_clt_norm[row])]
        cells += [fmt(v) for v in report.sem_lln[row]] + [fmt(report.sem_lln_norm[row])]
        cells += [fmt(v) for v in report.sem_clt[row]] + [fmt(report.sem_clt_norm[row])]
        out.write(",".join(cells) + "\n")

    blank_tail = [""] * (2 * (d + 1))

    def footer(label, per_coord, norm_val, position):
        cells = [label, ""]
        lln_block = [""] * (d + 1)
        clt_block = [""] * (d + 1)
        block = [fmt(v) for v in per_coord] + [fmt(norm_val)]
        if position == "lln":
            lln_block = block
        else:
            clt_block = block
        out.write(",".join(cells + lln_block + clt_block + blank_tail) + "\n")

    footer("slope_lln", report.slope_lln, report.slope_lln_norm, "lln")
    footer("slope_clt", report.slope_clt, report.slope_clt_norm, "clt")
    footer("r2_lln", report.r2_lln, report.r2_lln_norm, "lln")
    footer("r2_clt", report.r2_clt, report.r2_clt_norm, "clt")
