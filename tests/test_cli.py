import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import runpy
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from impulsesim import (build_grid, dynamics, integrate, kickmap, pendulum_model,
                        run_convergence_study)
from impulsesim.cli import build_parser, main

from readme_commands import readme_commands
from test_analysis import force_workers
from test_kickmap import reference_kick


def run_cli(argv, capsys=None):
    return main(argv)


class TestSimulate:
    def test_csv_row_count_and_manifest(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main([
            "simulate", "--model", "pendulum", "--eps", "0.0625",
            "--T", "4", "--dt-exp", "5", "--alpha", "1",
            "--x0", "0.5,0.5", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        # 129 grid nodes + 4 extra pre-reset rows + header
        assert len(lines) == 129 + 4 + 1
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["parameters"]["seed"] == 7
        assert manifest["outputs"] == [str(out)]
        assert manifest["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
        }

    def test_paper_figure_row_count(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main([
            "simulate", "--model", "pendulum", "--eps", "0.0625",
            "--T", "8", "--dt-exp", "12", "--alpha", "1",
            "--x0", "0.5,0.5", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 32769 + 8 + 1

    def test_degenerate_eps_matches_deterministic(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main([
            "simulate", "--eps", "0",
            "--T", "2", "--dt-exp", "3", "--out", str(out),
        ])
        assert rc == 0
        for line in out.read_text().splitlines()[1:]:
            f = line.split(",")
            assert f[1] == f[3] and f[2] == f[4]  # X columns equal x columns

    def test_alignment_failure_exits_nonzero(self, tmp_path, capsys):
        rc = main([
            "simulate", "--eps", "0.1", "--alpha", "0.3", "--dt-exp", "1",
            "--T", "2", "--out", str(tmp_path / "t.csv"),
        ])
        assert rc != 0
        err = capsys.readouterr().err
        assert "alpha" in err and "0.3" in err

    def test_overflow_exits_1_naming_the_step(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--eps", "0.5", "--T", "2", "--dt-exp", "0",
                   "--x0=1e308,1e308", "--out", str(out)])
        assert rc == 1
        assert "non-finite at step 1" in capsys.readouterr().err
        assert not out.exists()

    def test_eps_out_of_range(self, tmp_path, capsys):
        rc = main(["simulate", "--eps", "1.5", "--T", "1", "--dt-exp", "2",
                   "--out", str(tmp_path / "t.csv")])
        assert rc != 0
        assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 5])
def test_simulate_replays_study_path_0(seed, tmp_path, monkeypatch):
    """simulate --seed s --path-index j draws path j of a study at seed s: the
    sups of its CSV columns and of their norm, over every row (left limits
    included), equal the study's per-path sups of path j bit for bit at every
    eps.  Path 0 is the default; path 3 is stepped in the study's forked
    worker."""
    exps = [2, 4]
    common = ["--T", "4", "--dt-exp", "6", "--x0", "0.5,0.5", "--seed", str(seed)]
    force_workers(monkeypatch, 2)  # the calling process steps paths 0-1, a worker 2-3
    rep = run_convergence_study(pendulum_model(), build_grid(4.0, 6, 1.0),
                                np.array([0.5, 0.5]), exps, 4, seed)
    for j, index in ((0, []), (3, ["--path-index", "3"])):
        for e, eps in enumerate(2.0**-i for i in rep.eps_exponents):
            out = tmp_path / f"traj{j}_{e}.csv"
            assert main(["simulate", "--eps", repr(float(eps)), "--out", str(out)]
                        + common + index) == 0
            table = np.loadtxt(out, delimiter=",", skiprows=1, usecols=range(1, 7))
            x, X, Z = table[:, 0:2], table[:, 2:4], table[:, 4:6]
            for s, diff in enumerate((X - x, (X - x) - eps * Z)):
                # the norm from squares summed in component order
                norm = np.sqrt((diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]).max())
                sups = np.append(np.abs(diff).max(axis=0), norm)
                assert sups.tobytes() == rep.paths[s, e, j].tobytes(), (s, j, eps)


@pytest.mark.parametrize("argv, digest", [
    (["--eps", "0.0625"], "af4acd52fa9c7b485d76bdad982c634be48e1804da8e1842fbbb88d65e6ce980"),
    (["--eps", "0"], "a99c3c5f82b2c6a5e5f46af742aaeebd99b1599acb62d31c4f8e61a2485a9ffe"),
    # x2 and X2 are -0 until the first kick: a noise-free X must keep the signed zero
    (["--x0", "0,-0", "--eps", "0"],
     "3c934d47f0d50ccd1e99442707783f43a47d72dfee11a1edc5c429c9552499f5"),
    (["--x0", "0,-0", "--eps", "0.0625"],
     "562b218c46ac3d9dad27932b18ed442851729d2eae0d92da6f8a4c95871b6a2c"),
    (["--model", "affine_kick", "--A=0.5,0.2,-0.1,0.3", "--c", "1,0", "--eps", "0.0625"],
     "31ff0b1c20ef43acaeb3f1a8ef93f8951146d37c2fd7be8d148a1b57ba33acc6"),
], ids=["eps", "eps-0", "signed-zero-eps-0", "signed-zero", "affine"])
def test_simulate_bytes(argv, digest, tmp_path):
    """sha256 of simulate's trajectory CSV: a change to any byte fails here."""
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--dt-exp", "8", "--T", "4", "--out", str(out)] + argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestConvergence:
    def test_threads_flag_accepted_and_ignored(self, tmp_path):
        outs = []
        for t in (1, 2, 8):
            out = tmp_path / f"rep{t}.csv"
            rc = main([
                "convergence", "--model", "pendulum", "--paths", "260",
                "--eps-exps", "1..4", "--T", "4", "--dt-exp", "5",
                "--seed", "3", "--threads", str(t), "--out", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
            manifest = json.loads((tmp_path / f"rep{t}.csv.manifest.json").read_text())
            assert "threads" not in manifest["parameters"]
        assert outs[0] == outs[1] == outs[2]

    def test_single_path_rejected(self, tmp_path, capsys):
        rc = main([
            "convergence", "--paths", "1", "--eps-exps", "1..3",
            "--T", "2", "--dt-exp", "4", "--out", str(tmp_path / "r.csv"),
        ])
        assert rc != 0
        assert "n_paths" in capsys.readouterr().err

    def test_prints_slopes(self, tmp_path, capsys):
        rc = main([
            "convergence", "--paths", "20", "--eps-exps", "1..6",
            "--T", "4", "--dt-exp", "6", "--seed", "1",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert rc == 0
        assert capsys.readouterr().out == ("slope_lln per coordinate: 1.0590 0.9994\n"
                                           "slope_clt per coordinate: 2.3414 2.1867\n")

    @pytest.mark.parametrize("exps", ["5", "3,3"])
    def test_fewer_than_two_distinct_eps_rejected(self, exps, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["convergence", "--paths", "4", "--eps-exps", exps,
                   "--T", "2", "--dt-exp", "4", "--out", str(out)])
        assert rc == 1
        assert "distinct eps" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_eps_exps_rejected(self, tmp_path, capsys):
        err = usage_error(["convergence", "--eps-exps", "1..a"], tmp_path, capsys)
        assert ("argument --eps-exps: not 'lo..hi' or a comma-separated list of "
                "integers: '1..a'") in err

    def test_eps_exp_comma_list(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main([
            "convergence", "--paths", "4", "--eps-exps", "2,4,6",
            "--T", "2", "--dt-exp", "4", "--out", str(out),
        ])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:4]] == ["2", "4", "6"]


class TestKickmap:
    def test_translation_errors_zero(self, capsys):
        rc = main(["kickmap", "--A", "0", "--c", "1", "--r", "0",
                   "--deltas", "0.1,0.05"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "delta,substeps,error"
        assert all(float(ln.split(",")[2]) == 0.0 for ln in lines[1:])

    def test_scalar_errors_shrink_linearly(self, capsys):
        rc = main(["kickmap", "--A", "1", "--c", "1", "--r", "1",
                   "--deltas", "0.1,0.05,0.025"])
        assert rc == 0
        errs = [float(ln.split(",")[2])
                for ln in capsys.readouterr().out.splitlines()[1:]]
        for big, small in zip(errs, errs[1:]):
            assert 1.8 <= big / small <= 2.2

    def test_identity_matrix_matches_scalar(self, capsys):
        rc = main(["kickmap", "--A", "1,0,0,1", "--c", "1,1", "--r", "1,1",
                   "--deltas", "0.1,0.05"])
        assert rc == 0
        rows_2d = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
        rc = main(["kickmap", "--A", "1", "--c", "1", "--r", "1",
                   "--deltas", "0.1,0.05"])
        assert rc == 0
        rows_1d = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
        for r2, r1 in zip(rows_2d, rows_1d):
            # diagonal system decouples: 2-d error is sqrt(2) times the scalar one
            assert float(r2[2]) == pytest.approx(np.sqrt(2) * float(r1[2]), rel=1e-12)

    def test_manifest(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["kickmap", "--A=-0.5,1,-1,-0.5", "--c", "1,0", "--r=0.5,-0.25",
                   "--deltas", "0.5,0.25", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "kickmap"
        assert manifest["parameters"] == {
            "A": [[-0.5, 1.0], [-1.0, -0.5]], "c": [1.0, 0.0],
            "r": [0.5, -0.25], "deltas": [0.5, 0.25],
        }
        assert manifest["outputs"] == [str(out)]
        assert set(manifest["versions"]) == {"python", "numpy"}

    def test_malformed_matrix_rejected(self, tmp_path, capsys):
        err = usage_error(["kickmap", "--A", "1,2,3", "--c", "1", "--r", "1"], tmp_path, capsys)
        assert "argument --A" in err and "square" in err

    def test_malformed_deltas_rejected(self, tmp_path, capsys):
        err = usage_error(["kickmap", "--A", "1", "--c", "1", "--r", "1", "--deltas", "abc"],
                          tmp_path, capsys)
        assert "argument --deltas: not a comma-separated vector: 'abc'" in err


def usage_error(argv, tmp_path, capsys) -> str:
    """Run argv, which must fail in the parser: argparse's usage error, exit
    2, with nothing written.  Returns stderr."""
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path / "out.csv")])
    assert info.value.code == 2
    assert list(tmp_path.iterdir()) == []
    return capsys.readouterr().err


def _argv_from_manifest(manifest, out):
    """The CLI call a manifest describes, built from its parameters alone by
    one rule: a null parameter is left out, and any other is
    `--<key with _ as ->=<value>`, a list comma-joined."""
    argv = [manifest["subcommand"], f"--out={out}"]
    for key, value in manifest["parameters"].items():
        option = "--" + key.replace("_", "-")
        if value is None:
            continue
        if isinstance(value, str):
            argv.append(f"{option}={value}")
        else:
            argv.append(f"{option}={','.join(map(repr, np.ravel(value).tolist()))}")
    return argv


AFFINE = ["--model", "affine_kick", "--A=0.5,0,0,0.5", "--c", "1,0"]
SIMULATE = ["simulate", "--eps", "0.25", "--T", "2", "--dt-exp", "4", "--seed", "3"]
CONVERGENCE = ["convergence", "--paths", "4", "--eps-exps", "1..3", "--T", "2",
               "--dt-exp", "4", "--seed", "3"]


@pytest.mark.parametrize("argv", [
    SIMULATE, SIMULATE + AFFINE, SIMULATE + ["--model", "affine_kick"],
    SIMULATE + ["--alpha-pend", "1.5"], CONVERGENCE, CONVERGENCE + AFFINE,
    ["kickmap", "--A=-0.5,1,-1,-0.5", "--c", "1,0", "--r=0.5,-0.25", "--deltas", "0.5,0.25"],
], ids=["simulate-pendulum", "simulate-affine", "simulate-affine-zero-kick",
        "simulate-alpha-pend", "convergence-pendulum", "convergence-affine", "kickmap"])
def test_manifest_replays_the_run(argv, tmp_path):
    """A manifest's parameters are the parsed options by name, an option
    without a default that was not given as null, and the run they describe
    writes the same bytes and records the same parameters."""
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    params = manifest["parameters"]
    parsed = {k: v for k, v in vars(build_parser().parse_args(argv)).items()
              if k not in ("subcommand", "out", "run", "threads")}
    assert params == json.loads(json.dumps(parsed, default=np.ndarray.tolist))
    rerun = tmp_path / "rerun.csv"
    assert main(_argv_from_manifest(manifest, rerun)) == 0
    assert rerun.read_bytes() == out.read_bytes()
    rerun_manifest = json.loads((tmp_path / "rerun.csv.manifest.json").read_text())
    assert rerun_manifest["parameters"] == params


def test_memory_error_exits_1_without_output_or_manifest(monkeypatch, tmp_path, capsys):
    """A run that cannot allocate prints one named error line, not a
    traceback; a Python list that cannot grow raises a bare MemoryError(),
    which is named by its type."""
    numpy_message = ("Unable to allocate 4.00 PiB for an array with shape "
                     "(281474976710656, 2) and data type float64")
    for exc, message in ((MemoryError(numpy_message), numpy_message),
                         (MemoryError(), "MemoryError")):
        def refuse(*args):
            raise exc

        monkeypatch.setattr(integrate, "sample_brownian", refuse)
        assert main(SIMULATE + ["--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


def test_huge_eps_range_fails_on_its_first_bad_exponent(tmp_path):
    """A billion-exponent range is refused by its first exponent that
    underflows, with one error line: under a 1.5 GB address-space limit the
    parser builds no list that cannot fit.  A billion-path study is refused
    when it allocates its per-path table, before any pass or per-path list,
    by numpy's error naming the table's shape."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)\n"
            "from impulsesim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv, stderr in (
        (["--eps-exps", "1..1000000000"],
         re.escape("error: eps exponent 1075 underflows: 2^-1075 is 0.0 as a float\n")),
        (["--paths", "1000000000", "--dt-exp", "2", "--T", "1"],
         r"error: Unable to allocate .* with shape \(2, 10, 1000000000, 3\) .*\n"),
    ):
        proc = subprocess.run([sys.executable, "-c", code, "convergence", *argv,
                               "--out", "out.csv"],
                              cwd=tmp_path, capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout) == (1, ""), argv
        assert re.fullmatch(stderr, proc.stderr), proc.stderr
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--eps", "0.5", "--T", "2", "--dt-exp", "0", "--x0=1e308,1e308"],
     "non-finite at step 1"),
    (["convergence", "--paths", "1", "--eps-exps", "1..3", "--T", "2", "--dt-exp", "4"],
     "n_paths"),
    (["kickmap", "--A=-5000", "--c", "1", "--r", "1", "--deltas", "0.001"],
     "error: regularized kick overflowed at substep 518/1024"),
    (["simulate", "--eps", "0.25", "--T", "2", "--dt-exp", "2", "--alpha", "0"],
     "error: alpha must lie in (0, 1], got 0.0"),
    (["convergence", "--paths", "2", "--eps-exps", "1..2", "--T", "2", "--dt-exp", "2",
      "--alpha", "1.5"],
     "error: alpha must lie in (0, 1], got 1.5"),
    # zero drift and kick: X - x - eps*Z is exactly 0, so the CLT means are too
    (["convergence", "--model", "affine_kick", "--x0", "0,0", "--paths", "2",
      "--eps-exps", "1..2", "--T", "1", "--dt-exp", "0"],
     "error: clt mean error of column e1 is 0 at eps=0.5"),
    (["simulate", "--eps", "0.1", "--T", "inf"],
     "error: horizon T must be positive and finite, got inf"),
    (["simulate", "--eps", "0.1", "--T", "nan"],
     "error: horizon T must be positive and finite, got nan"),
    (["simulate", "--eps", "0.1", "--dt-exp", "2000"],
     "error: dt exponent m=2000 is too large: alpha*2^m or T*2^m is not a finite float"),
    (["kickmap", "--A", "1", "--c", "1", "--r", "1", "--deltas", "1e-320"],
     "error: delta must be finite with a finite 1/delta, got 1e-320"),
    (["kickmap", "--A", "1", "--c", "1", "--r", "1", "--deltas", "nan"],
     "error: delta must be finite with a finite 1/delta, got nan"),
    (["kickmap", "--A", "1", "--c", "1", "--r", "1", "--deltas", "inf"],
     "error: delta must be finite with a finite 1/delta, got inf"),
    (["simulate", "--eps", "0.1", "--x0", "nan,0"],
     "error: x0 must be finite, got [nan, 0.0]"),
    # 2^997 substeps would never end; the limit rejects it before any row runs
    (["kickmap", "--A", "1", "--c", "1", "--r", "1", "--deltas", "0.5,1e-300"],
     "error: delta=1e-300 needs 2^997 substeps, above the limit of 2^24"),
    (["kickmap", "--A", "1,0,0,1", "--c", "1,1", "--r", "1,2,3"],
     "error: r has shape (3,), expected (2,)"),
    (["simulate", "--eps", "0.1", "--alpha-pend", "nan"],
     "error: alpha_pend must be positive and finite, got nan"),
    (["simulate", "--eps", "0.1", "--alpha-pend", "inf"],
     "error: alpha_pend must be positive and finite, got inf"),
    (["kickmap", "--A", "nan", "--c", "1", "--r", "1"],
     "error: A must be finite, got [[nan]]"),
    (["kickmap", "--A", "1", "--c", "inf", "--r", "1"],
     "error: c must be finite, got [inf]"),
    (["kickmap", "--A", "1", "--c", "1", "--r", "nan"],
     "error: r must be finite, got [nan]"),
    (["simulate", "--eps", "0.1", "--T", "1", "--dt-exp", "2", "--seed", "-1"],
     "error: seed must be >= 0, got -1"),
    (["convergence", "--paths", "2", "--eps-exps", "1..2", "--T", "1", "--dt-exp", "2",
      "--seed", "-1"],
     "error: seed must be >= 0, got -1"),
    (["convergence", "--paths", "2", "--eps-exps", "1,1100", "--T", "1", "--dt-exp", "2"],
     "error: eps exponent 1100 underflows: 2^-1100 is 0.0 as a float"),
    (["simulate", "--model", "pendulum", "--eps", "0.1", "--T", "1", "--dt-exp", "2",
      "--A", "1,0,0,1"],
     "error: --A and --c apply only to --model affine_kick, not pendulum"),
    (["simulate", "--model", "affine_kick", "--x0", "0.5", "--eps", "0.1", "--T", "1",
      "--dt-exp", "2", "--alpha-pend", "5"],
     "error: --alpha-pend applies only to --model pendulum, not affine_kick"),
    (["convergence", "--paths", "2", "--eps-exps", "1,1,2", "--T", "1", "--dt-exp", "2"],
     "error: eps exponent 1 is repeated: the study needs distinct eps"),
    # exp(A) is finite, but fsum's partials overflow in the first substep's field
    (["kickmap", "--A=-1e308,-1e308,0,0", "--c", "0,0", "--r=1,1", "--deltas", "0.5"],
     "error: regularized kick overflowed at substep 1/2"),
    # the field's products overflow to +-inf at substep 2, and fsum raises
    # "-inf + inf" on that state at substep 3
    (["kickmap", "--A=-1e300,-1e300,1e300,-1e300", "--c", "0,0", "--r=1,1",
      "--deltas", "0.125"],
     "error: regularized kick overflowed at substep 2/8"),
    (["kickmap", "--A", "800", "--c", "0", "--r", "1", "--deltas", "0.5,0.25"],
     "error: exp(A) overflows for A = [[800.0]]"),
    (["simulate", "--model", "affine_kick", "--A", "800", "--c", "0", "--x0", "1",
      "--eps", "0.1", "--T", "2", "--dt-exp", "2"],
     "error: exp(A) overflows for A = [[800.0]]"),
    # refused before any substep, which would overflow too
    (["kickmap", "--A=1e308,1e308,0,0", "--c", "0,0", "--r=1,1", "--deltas", "0.5"],
     "error: exp(A) overflows for A = [[1e+308, 1e+308], [0.0, 0.0]]"),
    # exp(A) is finite; K c, and exp(A) r, are not
    (["kickmap", "--A=709", "--c", "1e308", "--r=1", "--deltas", "0.5"],
     "error: K c overflows for A = [[709.0]], c = [1e+308]"),
    (["kickmap", "--A=1", "--c", "0", "--r=1e308", "--deltas", "0.5"],
     "error: the closed form is not finite at r = [1e+308]"),
    (["convergence", "--model", "affine_kick", "--A=0.5,0,0,0.5", "--x0", "1,2,3",
      "--paths", "2", "--T", "1", "--dt-exp", "2"],
     "error: x0 has shape (3,), expected (2,)"),
    (["kickmap", "--A", "1", "--c", "1", "--r", "1", "--deltas", "0"],
     "error: deltas must be positive"),
    # T*2^m is a finite float but no index: refused before any array is built
    (["simulate", "--eps", "0.1", "--T", "1e300", "--dt-exp", "2"],
     "error: T=1e+300 and m=2 give T*2^m = 4e+300 steps, more than the largest index"),
], ids=["simulate", "convergence", "kickmap", "simulate-alpha-0", "convergence-alpha-1.5",
        "convergence-zero-mean-error", "simulate-T-inf", "simulate-T-nan",
        "simulate-dt-exp-2000", "kickmap-delta-1e-320", "kickmap-delta-nan",
        "kickmap-delta-inf", "simulate-x0-nan", "kickmap-delta-1e-300",
        "kickmap-r-dimension", "simulate-alpha-pend-nan", "simulate-alpha-pend-inf",
        "kickmap-A-nan", "kickmap-c-inf", "kickmap-r-nan", "simulate-seed-negative",
        "convergence-seed-negative", "convergence-eps-exp-underflow", "simulate-pendulum-A",
        "simulate-affine-alpha-pend", "convergence-eps-exp-repeated",
        "kickmap-fsum-overflow", "kickmap-field-raises-at-inf", "kickmap-expA-overflow",
        "simulate-affine-expA-overflow", "kickmap-expA-overflow-before-substeps",
        "kickmap-Kc-overflow", "kickmap-closed-form-overflow", "convergence-x0-dimension",
        "kickmap-delta-0", "simulate-T-too-many-steps"])
def test_failure_exits_1_without_output_or_manifest(argv, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_output_directory_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    assert main(SIMULATE + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("existed", [False, True], ids=["new-output", "existing-output"])
def test_failed_write_leaves_no_partial_output(existed, monkeypatch, tmp_path, capsys):
    """A writer that fails part way exits 1 with one error line.  No output
    is left where there was none; a file that was there before is kept."""
    def write_one_line_then_fail(f, *args):
        f.write("t,x1,x2\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(integrate, "write_trajectory_csv", write_one_line_then_fail)
    out = tmp_path / "out.csv"
    if existed:
        out.write_text("kept\n")
    assert main(SIMULATE + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == ([out] if existed else [])
    if existed:
        assert out.read_text() == "kept\n"


def test_symlinked_output_is_staged_beside_its_file(monkeypatch, tmp_path, capsys):
    """An output named by a symlink is staged and renamed beside the file the
    link names.  A writer that fails part way leaves that file's bytes and
    the link; a good run replaces the file, with its manifest beside the link."""
    def write_one_line_then_fail(f, *args):
        f.write("t,partial\n")
        raise OSError(28, "No space left on device")

    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("precious\n")
    link.symlink_to("real.csv")
    with monkeypatch.context() as m:
        m.setattr(integrate, "write_trajectory_csv", write_one_line_then_fail)
        assert main(SIMULATE + ["--out", str(link)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert real.read_text() == "precious\n" and os.readlink(link) == "real.csv"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]
    assert main(SIMULATE + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert main(SIMULATE + ["--out", str(link)]) == 0
    assert os.readlink(link) == "real.csv"
    assert real.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert json.loads((tmp_path / "link.csv.manifest.json").read_text())["outputs"] == [str(link)]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.csv", "link.csv.manifest.json", "plain.csv", "plain.csv.manifest.json", "real.csv"]


def test_fifo_output_is_written_in_place_without_a_manifest(tmp_path):
    """A FIFO, like stdout or any target that is not a regular file, is
    written in place and gets no manifest."""
    fifo, got = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(SIMULATE + ["--out", str(fifo)]) == 0
    finally:
        if reader.is_alive() and not got:  # a run that never opened the FIFO: end the read
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=60)
    assert main(SIMULATE + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert got == [(tmp_path / "plain.csv").read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fifo", "plain.csv", "plain.csv.manifest.json"]


def test_dangling_symlinked_output_is_staged_beside_its_target(monkeypatch, tmp_path, capsys):
    """An output named by a symlink to a file that does not exist yet is
    staged beside that file, like a link to an existing one: a writer that
    fails part way leaves no file there, and a good run creates it, keeps
    the link and writes the manifest beside the link."""
    def write_one_line_then_fail(f, *args):
        f.write("t,partial\n")
        raise OSError(28, "No space left on device")

    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to("target.csv")
    with monkeypatch.context() as m:
        m.setattr(integrate, "write_trajectory_csv", write_one_line_then_fail)
        assert main(SIMULATE + ["--out", str(link)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]
    assert main(SIMULATE + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert main(SIMULATE + ["--out", str(link)]) == 0
    assert os.readlink(link) == "target.csv"
    assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert json.loads((tmp_path / "link.csv.manifest.json").read_text())["outputs"] == [str(link)]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.csv", "link.csv.manifest.json", "plain.csv", "plain.csv.manifest.json", "target.csv"]


def test_manifest_name_taken_by_a_fifo_is_refused(tmp_path, capsys):
    """A manifest is never written into a FIFO or a device: a name taken by
    one is refused before anything is renamed, and both paths stay as they
    were."""
    out, manifest = tmp_path / "out.csv", tmp_path / "out.csv.manifest.json"
    out.write_text("kept\n")
    os.mkfifo(manifest)
    assert main(SIMULATE + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{manifest}'\n"
    assert out.read_text() == "kept\n" and manifest.is_fifo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.manifest.json"]


@pytest.mark.parametrize("argv", [SIMULATE, ["kickmap", "--A=1", "--c", "1", "--r=1"]],
                         ids=["simulate", "kickmap"])
def test_empty_output_name_is_a_usage_error(argv, monkeypatch, tmp_path, capsys):
    """An empty --out would name the working directory: the parser refuses it."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", ""])
    assert info.value.code == 2
    assert "argument --out: expected a file name, got ''" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_killed_writer_leaves_no_output(tmp_path):
    """A run killed while it writes, here by SIGKILL after one line, leaves
    neither an output nor a manifest at their paths."""
    code = ("import os, signal, sys; from impulsesim import cli, integrate\n"
            "def write_one_line_then_die(f, *args):\n"
            "    f.write('t,x1,x2\\n'); f.flush(); os.kill(os.getpid(), signal.SIGKILL)\n"
            "integrate.write_trajectory_csv = write_one_line_then_die\n"
            "cli.main(sys.argv[1:])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code, *SIMULATE, "--out", "out.csv"],
                          cwd=tmp_path, capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == -9
    names = [p.name for p in tmp_path.iterdir()]
    assert "out.csv" not in names and "out.csv.manifest.json" not in names


def test_new_output_gets_the_mode_open_gives(tmp_path):
    (tmp_path / "ref").write_text("")
    out = tmp_path / "out.csv"
    assert main(SIMULATE + ["--out", str(out)]) == 0
    for p in (out, tmp_path / "out.csv.manifest.json"):
        assert p.stat().st_mode & 0o7777 == (tmp_path / "ref").stat().st_mode & 0o7777


def test_existing_output_is_replaced_keeping_its_mode(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("old\n")
    out.chmod(0o640)
    (tmp_path / "out.csv.manifest.json").write_text("{}\n")
    assert main(SIMULATE + ["--out", str(out)]) == 0
    assert out.read_text().startswith("t,x1,x2,")
    assert out.stat().st_mode & 0o7777 == 0o640
    assert json.loads((tmp_path / "out.csv.manifest.json").read_text())["outputs"] == [str(out)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.manifest.json"]


def test_dead_study_worker_exits_1_naming_its_paths(monkeypatch, tmp_path, capsys):
    """A study worker that dies, here by os._exit as an OOM kill would end
    it, ends the run with one error line naming the paths it held."""
    parent, pendulum = os.getpid(), dynamics.pendulum_model

    def dying_pendulum(**kwargs):
        model = pendulum(**kwargs)

        def drift(x):
            if os.getpid() != parent:
                os._exit(1)
            return model.drift(x)

        return dataclasses.replace(model, drift=drift)

    monkeypatch.setattr(dynamics, "pendulum_model", dying_pendulum)
    force_workers(monkeypatch, 2)  # one worker, with paths 2-3 of 4
    assert main(CONVERGENCE + ["--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: a study worker process died: the sups of paths 2..3 were lost\n")
    assert list(tmp_path.iterdir()) == []


def test_dead_kick_table_worker_exits_1_naming_its_deltas(monkeypatch, tmp_path, capsys):
    """A kick table worker that dies ends the run with one error line naming
    the deltas of the rows it held."""
    parent, regularized_kick = os.getpid(), kickmap.regularized_kick

    def dying_kick(g, r, delta, substeps):
        if os.getpid() != parent:
            os._exit(1)
        return regularized_kick(g, r, delta, substeps)

    monkeypatch.setattr(kickmap, "regularized_kick", dying_kick)
    force_workers(monkeypatch, 2)  # one worker, with the last row of 16 substeps
    assert main(["kickmap", "--A=-0.5,1,-1,-0.5", "--c", "1,0", "--r=0.5,-0.25",
                 "--deltas", "0.5,0.25,0.125,0.0625", "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: a kick table worker process died: the rows of deltas 0.0625 were lost\n")
    assert list(tmp_path.iterdir()) == []


def test_failed_manifest_removes_the_output(tmp_path, capsys):
    """A manifest that cannot be written leaves no output either, and leaves
    what was there before: here a directory in its place."""
    (tmp_path / "out.csv.manifest.json").mkdir()
    assert main(SIMULATE + ["--out", str(tmp_path / "out.csv")]) == 1
    assert "error: [Errno 21] Is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv.manifest.json"]


def test_failed_manifest_keeps_an_existing_output(tmp_path, capsys):
    """A manifest that cannot be written leaves an existing output's content
    as it was: the output is replaced only once its manifest is written."""
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    (tmp_path / "out.csv.manifest.json").mkdir()
    assert main(SIMULATE + ["--out", str(out)]) == 1
    assert "error: [Errno 21] Is a directory" in capsys.readouterr().err
    assert out.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.manifest.json"]


@pytest.mark.parametrize("existed", [False, True], ids=["new-output", "existing-output"])
def test_failed_manifest_rename(existed, monkeypatch, tmp_path, capsys):
    """The output is renamed into place before its manifest.  When the
    manifest's rename fails, a new output is removed, and an existing one
    stays replaced beside the manifest that was there before."""
    out, manifest = tmp_path / "out.csv", tmp_path / "out.csv.manifest.json"
    if existed:
        out.write_text("old\n")
        manifest.write_text("{}\n")
    replace = os.replace

    def fail_second(src, dst):
        if dst == str(manifest):
            raise OSError(5, "Input/output error")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_second)
    assert main(SIMULATE + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: [Errno 5] Input/output error\n"
    if existed:
        assert out.read_text().startswith("t,x1,x2,")
        assert manifest.read_text() == "{}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.manifest.json"]
    else:
        assert list(tmp_path.iterdir()) == []


def test_readme_commands_parse():
    """Every `impulsesim ...` command in README.md's code blocks parses, so a
    renamed or removed option fails here and not in a reader's shell.  CI
    also runs them (python tests/readme_commands.py)."""
    commands = readme_commands()
    assert len(commands) >= 3
    for argv in commands:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(argv)}")


def test_readme_custom_model_example_runs(capsys):
    """The Python block of README.md's "Custom models" runs as written, so
    the model contract it shows cannot drift from the library's."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Custom models\n", 1)[1]
    [code] = re.findall(r"^```python\n(.*?)^```", section, flags=re.M | re.S)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("[[")


def test_kickmap_run_leaves_scipy_unloaded():
    """numpy is the one dependency: the affine closed form takes its own
    exponential, so a kick table never loads scipy."""
    code = ("import sys; from impulsesim.cli import main; "
            "rc = main(['kickmap', '--A', '1', '--c', '1', '--r', '1']); "
            "print('scipy' in sys.modules, file=sys.stderr); sys.exit(rc)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"


KERNEL_GUARD = {
    "pendulum.csv": ["convergence", "--paths", "16", "--eps-exps", "1..4", "--T", "4",
                     "--dt-exp", "6", "--seed", "7"],
    "affine.csv": ["convergence", "--model", "affine_kick", "--A=-0.5,1,-1,-0.5", "--c", "1,0",
                   "--paths", "16", "--eps-exps", "1..4", "--T", "4", "--dt-exp", "6",
                   "--seed", "7"],
    "kick.csv": ["kickmap", "--A=-0.5,1,-1,-0.5", "--c", "1,0", "--r=0.5,-0.25",
                 "--deltas", ",".join(repr(2.0**-i) for i in range(1, 11))],
    # at d = 3 a field through `@` took other bits under Prescott
    "kick-3d.csv": ["kickmap", "--A=-0.5,1,0.2,-1,-0.5,0.3,0.1,-0.2,-0.7", "--c", "1,0,0",
                    "--r=0.5,0.5,0.5", "--deltas", ",".join(repr(2.0**-i) for i in range(1, 11))],
    "trajectory.csv": ["simulate", "--eps", "0.0625", "--T", "4", "--dt-exp", "10"],
}


KICK_2D = ["kickmap", "--A=-0.5,1,-1,-0.5", "--c", "1,0", "--r=0.5,-0.25",
           "--deltas", ",".join(repr(2.0**-i) for i in range(1, 13))]


@pytest.mark.parametrize("argv, digest", [
    (KICK_2D, "81e952fea1b9e6aed6bb028712da55a732cbd66cd3b109b1c2106dc22fa7e3df"),
    (KERNEL_GUARD["kick-3d.csv"],
     "925ea3170e0a39690d0d27a6728dbf71745536a589a9c2210533d7322598b1c8"),
], ids=["2d", "3d"])
def test_kick_table_bytes(argv, digest, tmp_path):
    """sha256 of two kick tables: a change to any byte of a table fails here.
    The field and the error are exactly rounded sums, so they hold on any CPU."""
    out = tmp_path / "table.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_kick_table_matches_reference_bitwise(tmp_path):
    """The table of KICK_2D, whose field steps Python floats, equals rows of
    the numpy Euler loop reference_kick fed Ax + c as exactly rounded sums."""
    A, c, r = [[-0.5, 1.0], [-1.0, -0.5]], [1.0, 0.0], np.array([0.5, -0.25])

    def g(x):
        return np.array([math.fsum([*(a * v for a, v in zip(row, x)), ci])
                         for row, ci in zip(A, c)])

    target = kickmap.affine_kick_map(A, c)[0](r)
    expected = []
    for i in range(1, 13):
        z, _ = reference_kick(g, r, 2**i)
        expected.append((2.0**-i, 2**i, math.sqrt(math.fsum((z - target) ** 2))))
    out = tmp_path / "table.csv"
    assert main(KICK_2D + ["--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(float(d), int(n), float(e)) for d, n, e in rows] == expected


# numpy's own SIMD dispatch for this numpy: its X86_V2 baseline only, as on
# a CPU without AVX2; np.exp on 1e6 doubles takes other bits under it
BASELINE_SIMD = "X86_V4 X86_V3 AVX512_ICL AVX512_SPR"


@pytest.mark.parametrize("variable, value", [
    pytest.param("OPENBLAS_CORETYPE", "Haswell", id="Haswell"),
    pytest.param("OPENBLAS_CORETYPE", "Prescott", id="Prescott"),
    pytest.param("NPY_DISABLE_CPU_FEATURES", BASELINE_SIMD, id="numpy-baseline-simd"),
])
def test_outputs_do_not_depend_on_the_blas_kernel(variable, value, tmp_path):
    """A pendulum study, an affine_kick study, kick tables at d = 2 and 3 and
    a simulate trajectory rerun in a process whose OpenBLAS takes another
    CPU's kernels, or whose numpy dispatches its ufuncs to no SIMD above its
    baseline, write this process's bytes.  The variable acts only on the
    child; a BLAS that ignores OPENBLAS_CORETYPE, or a numpy that warns of a
    feature this CPU lacks, makes this pass trivially."""
    calls = []
    for name, argv in KERNEL_GUARD.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        calls.append(argv + ["--out", str(tmp_path / f"child-{name}")])
    code = ("import json, sys; from impulsesim.cli import main; "
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(calls)], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src, variable: value})
    assert proc.returncode == 0, proc.stderr
    for name in KERNEL_GUARD:
        assert (tmp_path / f"child-{name}").read_bytes() == (tmp_path / name).read_bytes(), name


def test_import_leaves_the_fork_runner_unloaded(tmp_path):
    """The fork runner is os.fork and a pipe per worker: neither importing
    the CLI nor a study or kick table that forks loads multiprocessing,
    concurrent.futures or mmap, which would add to the run's start-up.  Both
    runs are forced onto two processes, as force_workers does, and must
    fork once each."""
    code = (
        "import os, sys\n"
        "from impulsesim import _workers, analysis, kickmap\n"
        "from impulsesim.cli import main\n"
        "analysis._MIN_WORK_PER_WORKER = kickmap._MIN_SUBSTEPS_PER_WORKER = 1\n"
        "_workers._usable_cpus = lambda: 2\n"
        "fork, forks = os.fork, []\n"
        "def logged_fork():\n"
        "    forks.append(os.getpid())\n"
        "    return fork()\n"
        "os.fork = logged_fork\n"
        "assert main(['convergence', '--paths', '4', '--eps-exps', '1..2', '--T', '2',\n"
        "             '--dt-exp', '3', '--out', sys.argv[1] + '/study.csv']) == 0\n"
        "assert main(['kickmap', '--A', '1', '--c', '1', '--r', '1', '--deltas',\n"
        "             '0.5,0.25', '--out', sys.argv[1] + '/table.csv']) == 0\n"
        "print(len(forks), [m for m in ('multiprocessing', 'concurrent.futures', 'mmap')\n"
        "                   if m in sys.modules])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "2 []"  # after the study's slope lines


# numpy 2 loads numpy.random and numpy.ma on first attribute access, so each
# costs start-up only where it is used: a run's first draw loads numpy.random,
# and no command uses numpy.ma.  Rows: what runs, then whether numpy.random
# is loaded after it.
MODULE_BUDGET = [
    ("", False),
    ("main(['kickmap', '--A', '1', '--c', '1', '--r', '1', '--deltas', '0.5,0.25'])", False),
    ("main(['simulate', '--eps', '0.25', '--T', '2', '--dt-exp', '3'])", True),
    ("main(['convergence', '--paths', '4', '--eps-exps', '1..3', '--T', '2', "
     "'--dt-exp', '3'])", True),
]


def test_runs_leave_numpy_ma_unloaded():
    """Importing the CLI, and a kick table, load neither numpy.random nor
    numpy.ma; simulate and convergence load numpy.random at their first
    draw, and still not numpy.ma.  Each row runs in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    for run, random_loaded in MODULE_BUDGET:
        code = ("import sys; from impulsesim.cli import main\n" + run + "\n"
                "print([m in sys.modules for m in ('numpy.random', 'numpy.ma')], "
                "file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == str([random_loaded, False]), run


def test_closed_stdout_exits_1_without_traceback():
    """A reader that stops early, as `simulate ... | head -1` does, ends the
    run with exit code 1 and nothing on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "impulsesim.cli", "simulate", "--eps", "0.25", "--T", "8",
         "--dt-exp", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline().startswith(b"t,x1,x2,")
    proc.stdout.close()  # the rows still to come (about 400 kB) overfill the pipe
    assert proc.wait(timeout=60) == 1
    with proc.stderr:
        assert proc.stderr.read() == b""  # a traceback fits in the pipe


def test_benchmark_command_lines(tmp_path):
    """The CLI accepts every call the benchmark makes, at its self-test size,
    and each output passes the benchmark's own check."""
    workloads = runpy.run_path(
        str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
    for wl in workloads["WORKLOADS"].values():
        out = tmp_path / f"{wl.name}-{wl.out_name}"
        argv = wl.argv(0, str(out), True)
        assert main(argv) == 0, wl.name
        assert wl.check(str(out), argv) == [], wl.name
        if wl.thread_reference:
            ref = tmp_path / f"{wl.name}-threads1-{wl.out_name}"
            ref_argv = workloads["with_threads"](wl.argv(0, str(ref), True), 1)
            assert main(ref_argv) == 0, wl.name
            assert ref.read_bytes() == out.read_bytes(), wl.name


# per subcommand, the traced layers a benchmark run of it must record
TRACED_LAYERS = {
    "simulate": ["dynamics.drift", "dynamics.drift_jacobian",
                 "integrate.write_trajectory_csv"],
    "convergence": ["analysis.run_convergence_study", "analysis.write_report_csv",
                    "dynamics.drift"],
    "kickmap": ["kickmap.regularized_kick", "kickmap.affine_kick_map"],
}


def test_benchmark_traced_layers(tmp_path):
    """A traced benchmark repetition (perfbench/child.py with trace on) of
    every workload, at its self-test size, exits 0, writes an output that
    passes the workload's check, and records a call to each layer that the
    workload runs; so the per-layer metrics cannot silently read 0."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    workloads = runpy.run_path(str(bench / "workloads.py"))
    for wl in workloads["WORKLOADS"].values():
        out = tmp_path / f"{wl.name}-{wl.out_name}"
        argv = wl.argv(0, str(out), True)
        spec = {"root": str(bench.parent), "argv": argv, "trace": True,
                "spans": str(tmp_path / f"{wl.name}-spans.tsv.gz")}
        proc = subprocess.run([sys.executable, str(bench / "child.py"), json.dumps(spec)],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0, (wl.name, proc.stderr)
        assert wl.check(str(out), argv) == [], wl.name
        layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
        for name in TRACED_LAYERS[argv[0]]:
            assert layers.get(name, {}).get("calls", 0) >= 1, (wl.name, name)
