"""Kick maps: reset maps induced by delta-train forcing of a vector field.

An impulse forcing g(x) * sum_n delta(t - t_n) acts, in the vanishing-width
limit, like the unit-time flow of zdot = g(z).  For affine fields
g(x) = Ax + c this flow has the closed form exp(A) r + K c with
K = integral_0^1 exp(uA) du, whose matrix products are the stepper's own
integrate._matvec; affine_kick_model is the kick-only Model with that reset.
A kick field g is a plain callable that takes the state as a list of d
Python floats and returns d floats: a list, a tuple or a (d,) array.  A
field written for arrays wraps its input in np.asarray(z).

A large kick_limit_check table runs its rows on the usable CPUs, each
row's substeps its weight in _workers.run_shares.  Every row is computed
alone, so the table is the same for any split.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _workers
from .dynamics import Model
from .integrate import _matvec

_MAX_SUBSTEP_EXP = 24  # kick_limit_check runs at most 2^24 substeps per delta
# substeps a kick table must give each process before it forks one.  In
# fresh processes on a 2-vCPU host, where 2^15 substeps of a 2-d affine field
# took about 0.1 s, a second process forked bare changed the run of a halving
# table of 2^14 - 2 substeps in all by a median of -7 to -8 ms, of 2^15 - 2 by
# -10 to -26 ms and of 2^16 - 2 by -66 to -93 ms: it breaks even near 2^14
# substeps in all, and 2^14 forks only the last of these tables.
_MIN_SUBSTEPS_PER_WORKER = 2**14


def regularized_kick(
    g: Callable[[list[float]], Iterable[float]], r: np.ndarray, delta: float, substeps: int
) -> np.ndarray:
    """Flow of the width-delta regularized kick, zdot = (1/delta) g(z) over [0, delta].

    Integrated in rescaled time as zdot = g(z) over [0, 1] with explicit
    Euler, so the result depends on substeps only, never on delta.  The
    state is a list of d Python floats, and g returns d floats (a list, a
    tuple or a (d,) array); a field written for arrays wraps its input in
    np.asarray(z).  Every substep is checked, so g only ever sees a finite
    state.  Raises FloatingPointError naming the first substep whose state
    is not finite, or at which g raises OverflowError; any other exception
    from g passes unchanged.  delta is only validated; it stays while
    perfbench/spans.py reads substeps as the fourth positional argument
    (ROADMAP.md, item 1).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    z = np.atleast_1d(np.asarray(r, dtype=float)).tolist()
    h = 1.0 / substeps
    with np.errstate(over="ignore", invalid="ignore"):  # a numpy field's inf is caught below
        for n in range(substeps):
            try:
                z = [zi + h * gi for zi, gi in zip(z, g(z), strict=True)]
                finite = all(map(math.isfinite, z))
            except OverflowError:  # g overflowed at a finite state: float ** 2, fsum
                finite = False
            if not finite:
                raise FloatingPointError(
                    f"regularized kick overflowed at substep {n + 1}/{substeps}")
    return np.array(z)


def _expm(M: np.ndarray) -> np.ndarray:
    """exp(M) by scaling and squaring: a degree-18 Taylor polynomial of
    M / 2^s, whose 1-norm is at most 1/2, squared s times (N. J. Higham,
    SIAM J. Matrix Anal. Appl. 26(4), 2005)."""
    s = max(0, math.frexp(np.abs(M).sum(axis=0).max())[1] + 1)
    X, E = M * 2.0**-s, np.eye(len(M))
    for k in range(18, 0, -1):  # Horner: I + X/1 (I + X/2 (... (I + X/18)))
        E = np.eye(len(M)) + _matvec(X[..., None], E) / k
    for _ in range(s):
        E = _matvec(E[..., None], E)
    return E


def affine_kick_map(A: np.ndarray, c: np.ndarray):
    """Closed-form kick map for the affine field g(x) = Ax + c.

    Returns (map, jacobian): the map r -> exp(A) r + K c with
    K = exp(A) * integral_0^1 exp(-sA) ds = integral_0^1 exp(uA) du,
    and the constant Jacobian exp(A).  Both come from one exponential of
    the block matrix [[A, I], [0, 0]], which is [[exp(A), K], [0, I]]
    (C. Van Loan, IEEE Trans. Autom. Control 23(3), 1978); unlike the power
    series of K it stays accurate for contracting fields.  Raises
    ValueError if exp(A) or K c is not finite.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.shape != (A.shape[0],):
        raise ValueError(f"c has shape {c.shape}, expected ({A.shape[0]},)")
    for name, v in (("A", A), ("c", c)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got {v.tolist()}")
    d = A.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        block = _expm(np.block([[A, np.eye(d)], [np.zeros((d, 2 * d))]]))
        eA, Kc = block[:d, :d], _matvec(block[:d, d:], c)
    if not np.isfinite(block).all():
        raise ValueError(f"exp(A) overflows for A = {A.tolist()}")
    if not np.isfinite(Kc).all():
        raise ValueError(f"K c overflows for A = {A.tolist()}, c = {c.tolist()}")

    def kick(r):  # component-major (..., d), the layout of the stepper's views
        r = np.asarray(r, dtype=float)
        eAr = _matvec(eA.reshape(eA.shape + (1,) * (r.ndim - 1)), np.moveaxis(r, -1, 0))
        return np.moveaxis(eAr, 0, -1) + Kc

    return kick, eA


def affine_kick_model(A: np.ndarray, c: np.ndarray) -> Model:
    """Kick-only system: zero drift, identity diffusion (r = d), and the
    closed-form kick map of the kick field Ax + c as its reset.

    The reset Jacobian is the constant matrix exp(A).
    """
    kick, jac = affine_kick_map(A, c)  # checks the shapes of A and c
    d = jac.shape[0]
    eye = np.eye(d)
    return Model(
        d=d,
        r=d,
        drift=lambda x: np.zeros_like(np.asarray(x, float)),
        drift_jacobian=lambda x: np.zeros((d, d)),
        diffusion=lambda x: eye,
        reset=kick,
        reset_jacobian=lambda x: jac,
    )


def kick_limit_check(
    g: Callable[[list[float]], Iterable[float]],
    closed_form: Callable[[np.ndarray], np.ndarray],
    r: np.ndarray,
    deltas: Sequence[float],
) -> list[tuple[float, int, float]]:
    """Error table certifying convergence of the regularized flow to closed_form.

    For each delta the flow is integrated with 1/delta substeps, rounded up
    to a power of two so the Euler step is an exact binary fraction; returns
    rows (delta, substeps, error), in the order of deltas.  A delta that
    needs more than 2^_MAX_SUBSTEP_EXP substeps, and a closed form not
    finite at r, are rejected before any row runs.  A table with enough
    substeps runs its rows on the usable CPUs (see _workers.run_shares).
    The first row in delta order that overflows raises FloatingPointError;
    a dead worker process raises ChildProcessError naming the lost deltas.
    """
    if not np.isfinite(r).all():
        raise ValueError(f"r must be finite, got {np.ravel(r).tolist()}")
    deltas = list(deltas)
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    exps = []
    for delta in deltas:
        if not (math.isfinite(delta) and math.isfinite(1 / delta)):
            raise ValueError(f"delta must be finite with a finite 1/delta, got {delta}")
        exps.append(max(0, math.ceil(math.log2(1 / delta))))
        if exps[-1] > _MAX_SUBSTEP_EXP:
            raise ValueError(f"delta={delta} needs 2^{exps[-1]} substeps, above the "
                             f"limit of 2^{_MAX_SUBSTEP_EXP}")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    with np.errstate(over="ignore", invalid="ignore"):
        target = np.atleast_1d(np.asarray(closed_form(np.atleast_1d(r)), dtype=float)).tolist()
    if not all(map(math.isfinite, target)):
        raise ValueError(f"the closed form is not finite at r = {np.ravel(r).tolist()}")

    def error(z):  # an exactly rounded sum: np.linalg.norm's bits follow the BLAS kernel
        v = [zi - ti for zi, ti in zip(z.tolist(), target)]
        try:
            e = math.sqrt(math.fsum(x * x for x in v))
        except OverflowError:  # fsum's partial sums overflow
            e = math.inf
        # a finite error whose squares overflow: hypot scales by the largest |v|
        return e if e < math.inf else math.hypot(*v)

    def run_share(share):
        return [(deltas[i], 1 << exps[i], error(regularized_kick(g, r, deltas[i], 1 << exps[i])))
                for i in share]

    def lost(shares):
        return ("a kick table worker process died: the rows of deltas "
                + ", ".join(str(deltas[i]) for share in shares for i in share) + " were lost")

    return _workers.run_shares(run_share, [1 << e for e in exps],
                               _MIN_SUBSTEPS_PER_WORKER, lost)
