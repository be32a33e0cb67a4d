"""Benchmark of the impulsesim CLI: end-to-end metrics, or per-layer metrics traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Closed loop, one client: each repetition of the workload's CLI call runs in
a fresh child process, one at a time, while the next one is expected to end
within --seconds (at least one repetition).  Every output is checked; a repetition fails if it raises,
exits non-zero or its output fails the check.  With --trace 0 the last line
of standard output is a JSON object with the end-to-end metrics of
BENCHMARK.json.  With --trace 1 untraced and traced repetitions alternate,
and it holds the per-layer metrics instead.  A record of the run, with its
machine and library context, is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, with_threads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 5  # fresh imports per run, at least, for the setup_s median
RUN_LIMIT_S = 160  # a run, hung children included, ends within this
# per-layer metrics whose span name differs from the metric's prefix
AMOUNT_OF = {"kickmap.substeps": "kickmap.regularized_kick"}
AMOUNT_FIELDS = ("rows", "bytes")


def run_child(deadline, argv=None, trace=False, spans=None):
    """Run child.py once, killing it at the perf_counter() deadline;
    returns (record or None, problem or None)."""
    spec = {"root": str(ROOT), "argv": argv, "trace": trace,
            "spans": str(spans) if spans else None}
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return record, f"exit code {proc.returncode}: {tail[0]}"
    if record is None:
        return None, "no record printed"
    return record, None


def sha256(path: Path) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def judge(wl, argv, out: Path, expected_digest):
    """Check one output; returns (digest or None, problems)."""
    if not out.exists():
        return None, ["no output file"]
    digest = sha256(out)
    try:
        problems = wl.check(str(out), argv)
    except (ValueError, IndexError, KeyError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"sha256 {digest[:12]} differs from {expected_digest[:12]}")
    return digest, problems


def layer_value(name, totals, overhead_s):
    if name == "trace.overhead_s":
        return overhead_s
    if name in AMOUNT_OF:
        span, field = AMOUNT_OF[name], "amount"
    else:
        span, field = name.rsplit(".", 1)
        field = "amount" if field in AMOUNT_FIELDS else field
    return totals.get(span, {}).get(field, 0)


def summary(values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "q1": q1, "q3": q3, "samples": values}


def context(seed, versions):
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        head = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        **versions,
        "git_head": head,
        "seed": seed,
    }


def run_workload(wl, seed, seconds, trace, tiny=False):
    """Measure one workload; returns the run record (see README.md)."""
    work = BENCH / "work" / wl.name
    work.mkdir(parents=True, exist_ok=True)
    out = work / wl.out_name
    argv = wl.argv(seed, str(out), tiny)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{wl.name}-seed{seed}.spans.tsv.gz"

    deadline = time.perf_counter() + RUN_LIMIT_S
    warm, problem = run_child(deadline)  # compiles the .pyc files; untimed
    if problem:
        raise RuntimeError(f"cannot import impulsesim: {problem}")

    attempted, failures, digests = 0, [], {}
    expected = None
    samples = defaultdict(list)
    layer_totals = []

    def repetition(label, call_argv, traced=False):
        nonlocal attempted, expected
        attempted += 1
        if out.exists():
            out.unlink()
        record, problem = run_child(deadline, call_argv, traced,
                                    spans_path if traced else None)
        problems = [problem] if problem else []
        if record is not None and "setup_s" in record:
            samples["setup_s"].append(record["setup_s"])
        if not problems:
            digest, problems = judge(wl, call_argv, out, expected)
            digests[label] = digest
            if expected is None and not problems:
                expected = digest
        if problems:
            failures.append(f"{label}: " + "; ".join(problems))
        return record

    if wl.thread_reference:
        repetition("threads1", with_threads(argv, 1))
    start = time.perf_counter()
    rep, last = 0, 0.0
    while rep == 0 or time.perf_counter() - start + last <= seconds:
        rep_start = time.perf_counter()
        record = repetition(f"rep{rep}", argv)
        if record is not None and "wall_s" in record:
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                samples[key].append(record[key])
        if trace:
            record = repetition(f"rep{rep}-traced", argv, traced=True)
            if record is not None and "layers" in record:
                samples["traced_wall_s"].append(record["wall_s"])
                layer_totals.append(record["layers"])
        rep += 1
        last = time.perf_counter() - rep_start
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        record, problem = run_child(deadline)
        if problem:
            raise RuntimeError(f"cannot import impulsesim: {problem}")
        samples["setup_s"].append(record["setup_s"])

    if not samples["wall_s"] or (trace and not layer_totals):
        raise RuntimeError("no repetition completed: " + "; ".join(failures))
    failed = len(failures)
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    samples["pass_rate"] = [(attempted - failed) / attempted]
    metrics = {name: summary(samples[name], unit) for name, unit in e2e.items()}
    if trace:
        overhead = (statistics.median(samples["traced_wall_s"])
                    - metrics["wall_s"]["value"])
        metrics = {
            m["name"]: summary([layer_value(m["name"], t, overhead)
                                for t in layer_totals], m["unit"])
            for m in SPEC["per_layer"]
        }
    return {
        "schema": "impulsesim-bench/1",
        "workload": wl.name,
        "argv": argv,
        "seconds": seconds,
        "trace": int(trace),
        "context": context(seed, warm["versions"]),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "outputs": digests,
        "spans": str(spans_path.relative_to(ROOT)) if trace else None,
        "metrics": metrics,
    }


def print_lines(result):
    name = result["workload"]
    for metric, s in result["metrics"].items():
        print(f"{name:14s} {metric:40s} {s['value']:>14.10g} {s['unit']:6s} "
              f"(median of {s['n']}, q1 {s['q1']:.10g}, q3 {s['q3']:.10g})")
    print(f"{name:14s} {'error_rate':40s} {result['error_rate']:>14.6g} ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for failure in result["failures"]:
        print(f"{name:14s} FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace))
            path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=2) + "\n")
            print_lines(result)
            results.append(result)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    prefix = (lambda r: f"{r['workload']}.") if len(results) > 1 else (lambda r: "")
    line = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {prefix(r) + k: {"value": v["value"], "unit": v["unit"]}
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
