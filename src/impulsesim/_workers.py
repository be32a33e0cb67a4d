"""Fork runner: run a job's contiguous shares on the usable CPUs.

The calling process runs the first share and a forked worker process runs
each of the others.  Fork hands the workers the job's closure without
pickling it; only the shares and their results cross the pipes.  The
convergence study and the kick table use it.
"""

from __future__ import annotations

import os


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))  # honours taskset and cpusets
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(n_units: int, work: int, min_work: int) -> int:
    """Processes that run a job of n_units indivisible units and `work` in
    all: one per usable CPU, but no more than n_units, nor than one per
    min_work of work, and one without fork."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), n_units, work // min_work))


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
