"""Self-test of the benchmark harness.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, passes its output
   checks, and the traced outputs match the untraced digests.
2. Corrupted copies of each tiny output are judged as failures, both by the
   workload's own check and by the digest comparison across repetitions.

Exits 0 when every case behaves as expected, 1 otherwise.
"""

import shutil
import sys

import run
from workloads import WORKLOADS


def corruptions(name, text):
    """(label, corrupted text, caught by the check alone) for one output."""
    lines = text.splitlines(keepends=True)
    yield "last row dropped", "".join(lines[:-1]), True
    # one digit changed: only the digest comparison can notice
    digit = next(i for i, ch in enumerate(lines[1]) if ch in "123456789")
    bumped = lines[1][:digit] + str(int(lines[1][digit]) % 9 + 1) + lines[1][digit + 1:]
    yield "one digit changed", "".join([lines[0], bumped, *lines[2:]]), False
    if name.startswith("study"):
        slope_row = next(i for i, line in enumerate(lines) if line.startswith("slope_clt"))
        cells = lines[slope_row].split(",")
        cells[5] = "1.5"  # first coordinate's CLT slope, far outside both bands
        yield "CLT slope out of band", "".join(
            [*lines[:slope_row], ",".join(cells), *lines[slope_row + 1:]]), True
    if name == "kickmap-table":
        first, second = lines[1].split(","), lines[2].split(",")
        first[2], second[2] = second[2].strip() + "\n", first[2].strip() + "\n"
        yield "errors rising", "".join(
            [lines[0], ",".join(first), ",".join(second), *lines[3:]]), True


def main() -> int:
    bad = []
    for name, wl in WORKLOADS.items():
        result = run.run_workload(wl, seed=0, seconds=0, trace=True, tiny=True)
        print(f"{name}: tiny run attempted {result['attempted']}, "
              f"failed {result['failed']}")
        if result["failed"]:
            bad.append(f"{name}: tiny run failed: {result['failures']}")

        out = run.BENCH / "work" / name / wl.out_name
        argv = result["argv"]
        good_digest = result["outputs"]["rep0"]
        copy = out.with_suffix(".corrupt")
        shutil.copyfile(out, copy)
        text = out.read_text()
        for label, corrupted, by_check in corruptions(name, text):
            copy.write_text(corrupted)
            _, alone = run.judge(wl, argv, copy, None)
            _, with_digest = run.judge(wl, argv, copy, good_digest)
            caught = bool(with_digest) and (bool(alone) or not by_check)
            print(f"{name}: {label}: {'caught' if caught else 'MISSED'}")
            if not caught:
                bad.append(f"{name}: {label} passed as correct")
        copy.unlink()

    for line in bad:
        print("FAIL", line)
    print("selftest", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
