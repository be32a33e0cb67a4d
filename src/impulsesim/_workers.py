"""Fork runner: run a job's contiguous shares on the usable CPUs.

The calling process runs the first share and a forked worker process runs
each of the others.  Fork hands the workers the job's closure without
pickling it; only the shares and their results cross the pipes.  The
convergence study and the kick table use it.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from itertools import accumulate


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))  # honours taskset and cpusets
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(weights, min_work):
    """run_shares's shares, as ranges of unit indices."""
    before = list(accumulate(weights, initial=0))
    total, n = before[-1], 1
    if hasattr(os, "fork"):
        n = max(1, min(_usable_cpus(), round(total / max(weights, default=1)),
                       total // min_work))
    bounds = sorted({bisect_right(before, k * total // n) - 1 for k in range(n + 1)})
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def run_shares(run_share, weights, min_work, lost):
    """The lists run_share returns for a job's shares, concatenated in order;
    unit i of the job does weights[i] > 0 of work.  The job runs on
    n = min(usable CPUs, round(total / largest weight), total // min_work)
    processes, one without fork, and share k ends at the last unit boundary
    whose prefix of work is at most k/n of the total.  A job of one share
    runs in this process, any other through _fork_shares."""
    shares = _split(weights, min_work)
    if len(shares) < 2:
        return run_share(range(len(weights)))
    return _fork_shares(run_share, shares, lost)


_share_runner = None  # in a forked worker, the job's run_share


def _install_share_runner(run_share, parent: int, abandoned):
    """Start a forked worker: keep the job's run_share, and exit as soon as
    the process `parent` is gone or sets the byte `abandoned`.  A worker
    left behind would run its share and then block for ever, writing its
    results into a pipe that no process reads."""
    import threading
    import time

    def exit_when_orphaned():
        while os.getppid() == parent and not abandoned[0]:
            time.sleep(0.2)
        os._exit(1)

    global _share_runner
    _share_runner = run_share
    threading.Thread(target=exit_when_orphaned, daemon=True).start()


def _run_installed_share(share):
    return _share_runner(share)


def _fork_shares(run_share, shares, lost):
    """The lists run_share returns for shares, concatenated in order: the
    first share runs in this process and each other in a forked worker.  A
    worker that dies raises ChildProcessError with the message
    lost(shares that did not come back)."""
    import mmap
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    abandoned = mmap.mmap(-1, 1)  # one byte shared with the forked workers
    with ProcessPoolExecutor(len(shares) - 1, mp_context=multiprocessing.get_context("fork"),
                             initializer=_install_share_runner,
                             initargs=(run_share, os.getpid(), abandoned)) as pool:
        waiting = 1  # shares[waiting:] have not come back
        try:
            futures = [pool.submit(_run_installed_share, share) for share in shares[1:]]
            results = run_share(shares[0])
            for future in futures:
                results += future.result()
                waiting += 1
        except BrokenProcessPool:
            raise ChildProcessError(lost(shares[waiting:])) from None
        except BaseException:
            abandoned[0] = 1  # or leaving the pool waits for the workers' shares
            raise
    return results
