"""Command-line front end: simulate / convergence / kickmap subcommands.

Every output written to a file, not stdout, a device or a FIFO, gets a JSON
manifest with the run's parsed options by name (an option without a default
that was not given as null) and the Python and numpy versions, so it can be
reproduced bit-exactly, on any CPU: no output's bits go through BLAS.  Each
subparser names its command as `run`.  All three compute first and write
through `_emit`, so a failed run leaves neither an output nor a manifest.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import operator
import os
import platform
import stat
import sys
import time

import numpy as np

from . import __version__, analysis, dynamics, integrate, kickmap


def _parse_vector(s: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in s.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {s!r}")


def _parse_matrix(s: str) -> np.ndarray:
    flat = _parse_vector(s)
    n = int(round(len(flat) ** 0.5))
    if n * n != len(flat):
        raise argparse.ArgumentTypeError(
            f"matrix needs a square number of entries, got {len(flat)}"
        )
    return flat.reshape(n, n)


def _parse_out(s: str) -> str:
    if not s:  # it would name the working directory
        raise argparse.ArgumentTypeError("expected a file name, got ''")
    return s


def _parse_eps_exps(s: str) -> list[int]:
    lo, dots, hi = s.partition("..")
    try:
        if dots:  # 1075 exponents from lo hold one that is not positive or underflows
            return list(range(int(lo), min(int(hi), int(lo) + 1074) + 1))
        return [int(v) for v in s.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not 'lo..hi' or a comma-separated list of integers: {s!r}")


def _resolve_model(args) -> dynamics.Model:
    """The model of a simulate or convergence run.  The other model's options
    are refused; this model's options that were not given take their defaults."""
    if args.model == "pendulum":
        if args.A is not None or args.c is not None:
            raise ValueError("--A and --c apply only to --model affine_kick, not pendulum")
        alpha_pend = 1.0 if args.alpha_pend is None else args.alpha_pend
        return dynamics.pendulum_model(alpha_pend=alpha_pend)
    if args.alpha_pend is not None:
        raise ValueError("--alpha-pend applies only to --model pendulum, not affine_kick")
    d = len(args.x0)
    A = np.zeros((d, d)) if args.A is None else args.A
    c = np.zeros(A.shape[0]) if args.c is None else args.c
    return kickmap.affine_kick_model(A, c)


def _write_file(path: str, write) -> str:
    """Call write on a new sibling file of path and return it, to be renamed
    over path with the mode of the file it replaces, or open's for a new one.
    Anything at path but a writable regular file is refused, not replaced."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not (stat.S_ISREG(st.st_mode) and os.access(path, os.W_OK)):
        code = errno.EISDIR if stat.S_ISDIR(st.st_mode) else errno.EACCES
        raise OSError(code, os.strerror(code), path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"  # a killed run's sibling never blocks a new run
    try:  # a new file gets 0o666 under the umask, as from open
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666 if st is None else 0o600)
    except OSError as exc:  # named by the target, not its sibling
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", newline="\n") as f:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            write(f)
    except BaseException:
        os.remove(tmp)
        raise
    return tmp


def _emit(args, t0: float, write) -> None:
    """Call write on --out, or on stdout when it is not set.  An existing --out
    that is not a regular file (a device, a FIFO) is written in place and gets
    no manifest.  Any other is staged beside the file it resolves to, and its
    manifest beside --out; both are renamed into place once both are written,
    and a new output renamed before its manifest's rename fails is removed."""
    if args.out is None:
        write(sys.stdout)
        return
    try:  # follows links, but resolves no name: /dev/stdout's pipe has none
        st = os.stat(args.out)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):  # stdout's pipe is a FIFO
        with open(args.out, "w", newline="\n") as f:
            write(f)
        return
    paths = [os.path.realpath(p) for p in (args.out, args.out + ".manifest.json")]
    staged = []  # per path, the sibling file to rename over it
    try:
        staged.append(_write_file(paths[0], write))
        manifest = {
            "subcommand": args.subcommand,
            "parameters": {k: v for k, v in vars(args).items()
                           if k not in ("subcommand", "out", "run", "threads")},
            "outputs": [args.out],
            "tool_version": __version__,
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__},
            "duration_seconds": time.time() - t0,
        }

        def write_manifest(f):
            json.dump(manifest, f, indent=2, sort_keys=True, default=np.ndarray.tolist)
            f.write("\n")

        staged.append(_write_file(paths[1], write_manifest))
        for tmp, path in zip(staged, paths):
            os.replace(tmp, path)
    except BaseException:
        if st is None and staged and not os.path.lexists(staged[0]):  # a new output renamed
            os.remove(paths[0])
        for tmp in filter(os.path.lexists, staged):  # not yet renamed
            os.remove(tmp)
        raise


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--model", default="pendulum", choices=["pendulum", "affine_kick"])
    p.add_argument("--alpha", type=float, default=1.0, help="impulse offset in (0,1]")
    p.add_argument("--alpha-pend", type=float, help="pendulum: stiffness constant (default 1)")
    p.add_argument("--T", type=float, default=8.0, help="time horizon")
    p.add_argument("--dt-exp", type=int, default=12, metavar="M",
                   help="time step dt = 2^-M")
    p.add_argument("--x0", type=_parse_vector, default="0.5,0.5",
                   help="initial state, comma-separated")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=_parse_out, help="output CSV path (default stdout)")
    p.add_argument("--A", type=_parse_matrix,
                   help="affine_kick: kick matrix, row-major comma-separated (default 0)")
    p.add_argument("--c", type=_parse_vector, help="affine_kick: kick offset vector (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impulsesim",
        description="Simulate impulsive dynamical systems under small noise "
        "and verify convergence rates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate", help="one coupled trajectory as CSV")
    _add_common(p_sim)
    p_sim.add_argument("--eps", type=float, required=True,
                       help="noise scale in [0,1); 0 gives X = x")
    p_sim.add_argument("--path-index", type=int, default=0, metavar="J",
                       help="draw path J of a convergence study at the same --seed")
    p_sim.set_defaults(run=cmd_simulate)

    p_conv = sub.add_parser("convergence", help="Monte Carlo slope study as CSV")
    _add_common(p_conv)
    p_conv.add_argument("--paths", type=int, default=1000, help="Monte Carlo paths")
    p_conv.add_argument("--threads", type=int, default=1,
                        help="ignored; a large study uses every usable CPU")
    p_conv.add_argument("--eps-exps", type=_parse_eps_exps, default="1..10",
                        help="exponents i for eps=2^-i, as 'lo..hi' or a comma list")
    p_conv.set_defaults(run=cmd_convergence)

    p_kick = sub.add_parser("kickmap", help="kick-map convergence error table as CSV")
    p_kick.add_argument("--A", type=_parse_matrix, required=True)
    p_kick.add_argument("--c", type=_parse_vector, required=True)
    p_kick.add_argument("--r", type=_parse_vector, required=True,
                        help="starting point, comma-separated")
    p_kick.add_argument("--deltas", type=_parse_vector, default="0.1,0.05,0.025,0.0125")
    p_kick.add_argument("--out", type=_parse_out)
    p_kick.set_defaults(run=cmd_kickmap)
    return parser


def cmd_simulate(args, t0: float) -> int:
    if not 0.0 <= args.eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {args.eps}")
    model = _resolve_model(args)
    grid = integrate.build_grid(args.T, args.dt_exp, args.alpha)
    path = integrate.sample_brownian(grid, model.r, args.seed, args.path_index)
    det, noisy, fluct = integrate.integrate_coupled(model, grid, args.x0, args.eps, path)
    _emit(args, t0, lambda f: integrate.write_trajectory_csv(
        f, det, noisy, fluct, args.eps))
    return 0


def cmd_convergence(args, t0: float) -> int:
    model = _resolve_model(args)
    grid = integrate.build_grid(args.T, args.dt_exp, args.alpha)
    report = analysis.run_convergence_study(
        model, grid, args.x0, args.eps_exps, args.paths, args.seed)
    _emit(args, t0, lambda f: analysis.write_report_csv(report, f))
    for stat, slopes in zip(analysis.STATISTICS, report.slope):
        print(f"slope_{stat} per coordinate:", " ".join(f"{s:.4f}" for s in slopes[:-1]))
    return 0


def cmd_kickmap(args, t0: float) -> int:
    A, c, r, deltas = args.A, args.c, args.r, args.deltas.tolist()
    if r.shape != A.shape[:1]:
        raise ValueError(f"r has shape {r.shape}, expected {A.shape[:1]}")
    closed, _ = kickmap.affine_kick_map(A, c)
    Ac = np.column_stack((A, c)).tolist()  # g(x) = [A c] [x 1], exactly rounded sums: no BLAS
    rows = kickmap.kick_limit_check(
        lambda x: [math.fsum(map(operator.mul, row, [*x, 1.0])) for row in Ac], closed, r, deltas)

    def write(f):
        f.write("delta,substeps,error\n")
        for delta, substeps, err in rows:
            f.write(f"{delta:.17g},{substeps},{err:.17g}\n")

    _emit(args, t0, write)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        rc = args.run(args, t0)
        sys.stdout.flush()  # a reader that left shows up here, not at exit
        return rc
    except BrokenPipeError:
        # stdout's reader left: send the rest to devnull (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, FloatingPointError, MemoryError, OSError) as exc:
        print("error:", str(exc) or type(exc).__name__, file=sys.stderr)  # MemoryError() is empty
        return 1


if __name__ == "__main__":
    sys.exit(main())
