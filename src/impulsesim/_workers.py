"""Fork runner: run a job's contiguous shares on the usable CPUs.

The convergence study and the kick table use it.  The calling process runs
the first share, and each other runs in a worker forked with os.fork, which
hands it the job's closure without pickling it.  A worker's list, or the
exception its share raised, comes back pickled through its own pipe."""

import os
import pickle
import threading
import time
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


def _work(run_share, share, pipe, parent):
    """A forked worker: pickle share's list, or the exception it raised, into
    the file pipe and exit, or exit at once if the process parent dies."""
    def exit_when_orphaned():  # or this worker blocks on a pipe nobody reads
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    try:
        threading.Thread(target=exit_when_orphaned, daemon=True).start()
        try:
            data = pickle.dumps(run_share(share))
        except BaseException as e:
            data = pickle.dumps(e)
        pipe.write(data)
        pipe.flush()
    finally:
        os._exit(0)  # no path returns into the caller's code


def _fork_shares(run_share, shares, lost):
    """The lists run_share returns for shares, concatenated in order.  A
    worker's pickle that does not load, because the worker died or raised
    what does not pickle or unpickle, raises ChildProcessError(lost(shares
    from there on)).  Every worker is killed and reaped on the way out."""
    import signal  # 1-2 ms of enums that a run which does not fork skips

    parent, pids, reads = os.getpid(), [], []
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            reads.append(open(r, "rb"))
            with open(w, "wb") as pipe:  # this process's write end closes after the fork
                if (pid := os.fork()) == 0:
                    _work(run_share, share, pipe, parent)
            pids.append(pid)
        results = run_share(shares[0])
        for k, pipe in enumerate(reads, 1):
            try:
                result = pickle.load(pipe)
            except Exception as e:  # cut short, or an exception that cannot be rebuilt
                raise ChildProcessError(lost(shares[k:])) from e
            if isinstance(result, BaseException):
                raise result
            results += result
        return results
    finally:
        for pipe in reads:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so still this worker
            os.waitpid(pid, 0)
