"""The four benchmark workloads: CLI arguments made from a seed, and output checks.

Each workload is one `impulsesim` CLI call.  The seed reaches the program
only through the generated arguments.  `tiny=True` gives the same call at a
size that runs in about a second, for the harness self-test.

Why each workload exists, and which layers it loads or bypasses, is in
README.md beside this file.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import Callable

# acceptance bands of the paper's slope study, per coordinate
PAPER_LLN_BAND = (0.85, 1.15)
PAPER_CLT_BAND = (1.75, 2.25)
DESK_CLT_BAND = (1.7, 2.3)


@dataclass(frozen=True)
class Workload:
    name: str
    out_name: str
    # (seed, output path, tiny) -> CLI argv
    argv: Callable[[int, str, bool], list]
    # (output path, argv) -> list of problems; empty means the output is correct
    check: Callable[[str, list], list]
    # also run the same study at --threads 1 and require the same report bytes
    thread_reference: bool = False


def _opt(argv: list, name: str) -> str:
    return argv[argv.index(name) + 1]


def _study_argv(paths, m, threads):
    def build(seed, out, tiny):
        p, mm = (10, 6) if tiny else (paths, m)
        return ["convergence", "--model", "pendulum", "--paths", str(p),
                "--dt-exp", str(mm), "--T", "8", "--eps-exps", "1..10",
                "--x0", "0.5,0.5", "--threads", str(threads),
                "--seed", str(seed), "--out", out]
    return build


def _study_check(lln_band, clt_band):
    def check(path, argv):
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        header, body = rows[0], rows[1:]
        n_eps = 10
        if len(body) != n_eps + 4:
            return [f"report has {len(body)} rows, expected {n_eps + 4}"]
        problems = []
        for row in body[:n_eps]:
            if not all(math.isfinite(float(v)) for v in row):
                problems.append(f"non-finite value in eps row {row[0]}")
        footer = {row[0]: row for row in body[n_eps:]}
        d = (len(header) - 2) // 4 - 1
        lln = [float(v) for v in footer["slope_lln"][2:2 + d]]
        clt = [float(v) for v in footer["slope_clt"][3 + d:3 + 2 * d]]
        for label, slopes, band in (("lln", lln, lln_band), ("clt", clt, clt_band)):
            if band is None:
                continue
            lo, hi = band
            if not all(lo <= s <= hi for s in slopes):
                problems.append(f"{label} slopes {slopes} outside [{lo}, {hi}]")
        return problems
    return check


def _simulate_argv(seed, out, tiny):
    m = 6 if tiny else 12
    return ["simulate", "--model", "pendulum", "--eps", "0.0625", "--T", "8",
            "--dt-exp", str(m), "--alpha", "1", "--x0", "0.5,0.5",
            "--seed", str(seed), "--out", out]


def _simulate_check(path, argv):
    T, m = float(_opt(argv, "--T")), int(_opt(argv, "--dt-exp"))
    n_impulses = math.floor(T)  # alpha = 1: impulses at t = 1, 2, ..., T
    expected = int(T * 2**m) + 1 + n_impulses  # impulse nodes emit pre + post
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    problems = []
    if header[0] != "t" or header[-1] != "event" or len(header) != 12:
        problems.append(f"unexpected header {header}")
    if len(body) != expected:
        problems.append(f"{len(body)} data rows, expected {expected}")
    events = [row[-1] for row in body]
    for kind in ("pre", "post"):
        if events.count(kind) != n_impulses:
            problems.append(f"{events.count(kind)} {kind} rows, expected {n_impulses}")
    return problems


def _kickmap_argv(seed, out, tiny):
    # starting point on a 1/8 grid in [-1, 1]^2, drawn from the seed; the
    # "--A=" and "--r=" spellings keep argparse from reading a leading minus
    # sign as an option
    rng = random.Random(seed)
    r = ",".join(str(rng.randint(-8, 8) / 8) for _ in range(2))
    last = 8 if tiny else 17
    deltas = ",".join(repr(2.0**-i) for i in range(1, last + 1))
    return ["kickmap", "--A=-0.5,1,-1,-0.5", "--c", "1,0", f"--r={r}",
            "--deltas", deltas, "--out", out]


def _kickmap_check(path, argv):
    deltas = [float(v) for v in _opt(argv, "--deltas").split(",")]
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["delta", "substeps", "error"]:
        return [f"unexpected header {rows[0]}"]
    body = [(float(d), int(s), float(e)) for d, s, e in rows[1:]]
    if [d for d, _, _ in body] != deltas:
        return ["table deltas differ from the requested ones"]
    problems = []
    for d, s, _ in body:
        if s != 1 << math.ceil(math.log2(1 / d)):
            problems.append(f"delta {d}: {s} substeps")
    errors = [e for _, _, e in body]
    if not all(b < a for a, b in zip(errors, errors[1:])):
        problems.append(f"errors do not fall as delta falls: {errors}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study-paper", "report.csv", _study_argv(250, 12, 1),
                 _study_check(PAPER_LLN_BAND, PAPER_CLT_BAND)),
        Workload("study-desk-2t", "report.csv", _study_argv(200, 10, 2),
                 _study_check(None, DESK_CLT_BAND), thread_reference=True),
        Workload("simulate-m12", "traj.csv", _simulate_argv, _simulate_check),
        Workload("kickmap-table", "table.csv", _kickmap_argv, _kickmap_check),
    )
}


def with_threads(argv: list, threads: int) -> list:
    """The same CLI call at another --threads value."""
    out = list(argv)
    out[out.index("--threads") + 1] = str(threads)
    return out
