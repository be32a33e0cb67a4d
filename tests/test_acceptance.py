"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 1 and 2 share one full-scale Monte Carlo study (1000
paths, dt = 2^-12, horizon 8).  On one core of a 2-vCPU x86-64 VM that
study takes about 18 s and this file about 25 s.
"""

import math

import numpy as np
import pytest

from impulsesim import analysis
from impulsesim.analysis import run_convergence_study
from impulsesim.cli import main
from impulsesim import affine_kick_model, pendulum_model
from impulsesim.integrate import (
    build_grid,
    integrate_coupled,
    integrate_deterministic,
    sample_brownian,
)
from impulsesim.kickmap import affine_kick_map, regularized_kick

from test_analysis import force_workers
from test_dynamics import jacobian_consistency
from test_integrate import linear_model
from test_kickmap import scalar_affine_closed_form

X0 = np.array([0.5, 0.5])


def check(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def paper_report():
    model = pendulum_model()
    grid = build_grid(8.0, 12, 1.0)
    return run_convergence_study(
        model, grid, X0, range(1, 11), 1000, base_seed=2024,
    )


def test_criterion_1_lln_slope(paper_report):
    slopes = paper_report.slope[0]
    ok = bool(np.all((0.85 <= slopes) & (slopes <= 1.15)))
    check(1, ok, f"full-scale LLN slopes per coordinate {slopes.round(4)} "
                 "within [0.85, 1.15]")


def test_criterion_2_clt_slope(paper_report):
    slopes = paper_report.slope[1]
    ok = bool(np.all((1.75 <= slopes) & (slopes <= 2.25)))
    check(2, ok, f"full-scale CLT slopes per coordinate {slopes.round(4)} "
                 "within [1.75, 2.25]")


def test_criterion_2_desk_preset():
    model = pendulum_model()
    grid = build_grid(8.0, 10, 1.0)
    rep = run_convergence_study(
        model, grid, X0, range(1, 11), 200, base_seed=2024,
    )
    slopes = rep.slope[1]
    ok = bool(np.all((1.7 <= slopes) & (slopes <= 2.3)))
    check(2, ok, f"desk preset CLT slopes {slopes.round(4)} within [1.7, 2.3]")


def test_criterion_3_exact_coupling_oracle():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    M = np.array([[1.0, 0.0], [0.1, 1.0]])
    model = linear_model(A, M)
    grid = build_grid(8.0, 12, 1.0)
    worst = 0.0
    for eps, seed in ((2**-2, 11), (2**-6, 5)):
        path = sample_brownian(grid, 2, seed)
        det, X, Z = integrate_coupled(model, grid, X0, eps, path)
        diff = X.values - det.values - eps * Z.values
        worst = max(worst, float(np.max(np.linalg.norm(diff, axis=1))))
    check(3, worst <= 1e-9,
          f"linear-model coupling sup-norm {worst:.2e} <= 1e-9 over [0, 8]")


def test_criterion_4_epsilon_degeneracy():
    rng = np.random.default_rng(77)
    ok = True
    for k in range(10):
        alpha = rng.choice([0.25, 0.5, 1.0])
        m_exp = int(rng.integers(3, 7))
        T = float(rng.integers(2, 5))
        x0 = rng.normal(size=2)
        model = pendulum_model(alpha_pend=float(rng.uniform(0.5, 2.0)))
        grid = build_grid(T, m_exp, alpha)
        det = integrate_deterministic(model, grid, x0)
        path = sample_brownian(grid, model.r, 77, k)
        _, sde, _ = integrate_coupled(model, grid, x0, 0.0, path)
        ok = ok and det.values.tobytes() == sde.values.tobytes()
    check(4, ok, "integrate_coupled(eps=0) X bitwise equals the deterministic "
                 "integrator on 10 randomized configurations")


def test_criterion_5_kick_map_oracle():
    # exact translation for a zero matrix
    c = np.array([0.7, -0.3])
    kick, jac = affine_kick_map(np.zeros((2, 2)), c)
    r = np.array([1.1, 2.2])
    ok = np.array_equal(kick(r), r + c) and np.array_equal(jac, np.eye(2))

    # diagonal closed form matches the scalar formula to 1e-12 relative
    diag = np.array([0.9, -0.4, 1e-10])
    cc = np.array([1.0, 2.0, 3.0])
    kick_d, _ = affine_kick_map(np.diag(diag), cc)
    rr = np.array([0.2, 0.4, 0.6])
    expected = np.array([scalar_affine_closed_form(a, ci, ri)
                         for a, ci, ri in zip(diag, cc, rr)])
    ok = ok and bool(np.allclose(kick_d(rr), expected, rtol=1e-12))

    # doubling substeps halves the flow error for g(x) = x + 1 at r = 1
    field = lambda x: np.asarray(x) + 1.0
    target = math.e * 1.0 + (math.e - 1.0)
    errs = [abs(float(regularized_kick(field, np.array([1.0]), 1.0, n)[0]) - target)
            for n in (64, 128, 256, 512)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = ok and all(1.8 <= q <= 2.2 for q in ratios)
    check(5, ok, f"translation exact, diagonal closed form 1e-12, "
                 f"substep-doubling error ratios {np.round(ratios, 3)}")


def test_criterion_6_jacobian_consistency():
    pend_dev = jacobian_consistency(pendulum_model(), 100, seed=23)
    kick_model = affine_kick_model(
        np.array([[0.0, 0.3], [-0.2, 0.1]]), np.array([0.1, -0.2])
    )
    kick_dev = jacobian_consistency(kick_model, 100, seed=29)
    ok = max(pend_dev, kick_dev) <= 1e-5
    check(6, ok, f"analytic vs finite-difference Jacobians: worst relative "
                   f"deviation {max(pend_dev, kick_dev):.2e} <= 1e-5 "
                   "(both built-in models, 100 states)")


def test_criterion_7_reset_quadratic_remainder():
    model = pendulum_model()
    rng = np.random.default_rng(31)
    ok = True
    worst = []
    for _ in range(5):
        x = rng.uniform(-2, 2, size=2)
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        if abs(v[0] * math.sin(x[0])) < 0.1:
            continue  # remainder degenerate along this direction
        hx = model.reset(x)
        dh = model.reset_jacobian(x)

        def rem(s):
            return np.linalg.norm(model.reset(x + s * v) - hx - dh @ (s * v))

        for s in (1e-2, 5e-3, 2e-3, 1e-3, 4e-4, 2e-4):
            ratio = rem(s) / rem(s / 2)
            worst.append(ratio)
            ok = ok and 3.5 <= ratio <= 4.5
    check(7, ok, f"remainder quarters under halving: ratios in "
                 f"[{min(worst):.3f}, {max(worst):.3f}] over scales 1e-2..1e-4")


def test_criterion_8_schedule_properties():
    ok = True
    for alpha in (0.25, 0.5, 1.0):
        grid = build_grid(100.0, 2, alpha)
        nodes = grid.impulse_nodes
        ok = ok and len(nodes) == 100 and all(
            nodes[k - 1] * grid.dt == k - 1 + alpha for k in range(1, 101)
        )
        ok = ok and all(b > a for a, b in zip(nodes, nodes[1:]))
    check(8, ok, "impulse node k of build_grid(100, 2, alpha) lies at t_k = k - 1 "
                 "+ alpha for k <= 100, alpha in {0.25, 0.5, 1}; nodes strictly "
                 "increasing")


def test_criterion_9_chunk_determinism(tmp_path, monkeypatch):
    outputs = []
    # (chunk size, processes): three processes split 260 paths 86, 87, 87
    for chunk, workers in ((7, 1), (250, 1), (260, 1), (7, 2), (250, 3)):
        monkeypatch.setattr(analysis, "_CHUNK_SIZE", chunk)
        force_workers(monkeypatch, workers)
        out = tmp_path / f"report_c{chunk}_w{workers}.csv"
        rc = main([
            "convergence", "--model", "pendulum", "--paths", "260",
            "--eps-exps", "1..5", "--T", "4", "--dt-exp", "6",
            "--seed", "40", "--out", str(out),
        ])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = all(o == outputs[0] for o in outputs)
    check(9, ok, "260-path convergence CSVs byte-identical in chunks of 7, "
                 "250 (two chunks) and 260 (one chunk), and on 2 and 3 processes")


def test_criterion_10_pathwise_epsilon_squared():
    model = pendulum_model()
    grid = build_grid(8.0, 12, 1.0)
    path = sample_brownian(grid, 2, 1234)

    def coupling_sup(eps):
        det, X, Z = integrate_coupled(model, grid, X0, eps, path)
        # grid nodes and left limits
        sup = np.max(np.linalg.norm(X.values - det.values - eps * Z.values, axis=1))
        sup = max(sup, np.max(np.linalg.norm(X.left - det.left - eps * Z.left, axis=1)))
        return float(sup)

    ratio = coupling_sup(2**-4) / coupling_sup(2**-5)
    check(10, 3.0 <= ratio <= 5.0,
          f"single-seed coupling error ratio eps=2^-4 vs 2^-5 is "
          f"{ratio:.3f}, within [3, 5]")
