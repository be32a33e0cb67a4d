"""Span tracing of the impulsesim layers, installed from outside the library.

`Tracer.install` replaces the public functions of `cli`, `analysis`,
`integrate`, `dynamics` and `kickmap` (as the other modules look them up) by
wrappers that record one span per call: name, parent span, start, end, and
an amount of work (rows, bytes or substeps) where the layer has one.  Spans
stay in memory until `write` saves them at the end of the run.

Spans opened on a pool thread have no parent on their own thread; they are
attributed to the open `analysis.run_convergence_study` span.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import itertools
import math
import threading
import time
from collections import defaultdict

import numpy as np

from impulsesim import analysis, cli, dynamics, integrate, kickmap

POOL_ROOT = "analysis.run_convergence_study"


def _rows(args, kwargs, result):
    return math.prod(np.shape(args[0])[:-1])


def _increment_bytes(args, kwargs, result):
    return result.increments.nbytes  # computed from the array size


def _written_bytes(args, kwargs, result):
    return args[0].tell()  # the CLI hands the writer a freshly opened file


def _substeps(args, kwargs, result):
    return args[3]


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, amount)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = 0

    def wrap(self, name, fn, amount=None, inside=None):
        """Record a span per call of fn.  amount(args, kwargs, result) gives
        the span's work; a call made directly inside a span named `inside`
        belongs to that span and records nothing."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            if inside is not None and stack and stack[-1][1] == inside:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else self._pool_parent
            sid = next(self._ids)
            if name == POOL_ROOT:
                self._pool_parent = sid
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            work = amount(args, kwargs, result) if amount else 0
            self.spans.append((sid, parent, name, start, end, work))
            return result

        return traced

    def install(self):
        """Patch the library's modules for the rest of this process."""
        w = self.wrap

        def traced_model(model):
            return dataclasses.replace(
                model,
                drift=w("dynamics.drift", model.drift, _rows),
                drift_jacobian=w("dynamics.drift_jacobian", model.drift_jacobian),
                diffusion=w("dynamics.diffusion", model.diffusion, _rows),
                reset=w("dynamics.reset", model.reset, _rows),
                reset_jacobian=w("dynamics.reset_jacobian", model.reset_jacobian),
            )

        pendulum_model = dynamics.pendulum_model
        dynamics.pendulum_model = lambda *a, **k: traced_model(pendulum_model(*a, **k))

        brownian = w("integrate.sample_brownian", integrate.sample_brownian,
                     _increment_bytes)
        deterministic = w("integrate.integrate_deterministic",
                          integrate.integrate_deterministic)
        integrate.sample_brownian = analysis.sample_brownian = brownian
        integrate.integrate_deterministic = analysis.integrate_deterministic = deterministic
        # integrate_deterministic is integrate_sde at eps = 0
        integrate.integrate_sde = w("integrate.integrate_sde", integrate.integrate_sde,
                                    inside="integrate.integrate_deterministic")
        integrate.integrate_fluctuation = w("integrate.integrate_fluctuation",
                                            integrate.integrate_fluctuation)

        integrate.write_trajectory_csv = w(
            "integrate.write_trajectory_csv", integrate.write_trajectory_csv,
            _written_bytes)
        for fname in ("run_convergence_study", "write_report_csv", "fit_loglog_slope"):
            setattr(analysis, fname, w(f"analysis.{fname}", getattr(analysis, fname)))
        kickmap.kick_limit_check = w("kickmap.kick_limit_check", kickmap.kick_limit_check)
        kickmap.regularized_kick = w("kickmap.regularized_kick", kickmap.regularized_kick,
                                     _substeps)
        kickmap.affine_kick_map = w("kickmap.affine_kick_map", kickmap.affine_kick_map)
        return w("cli.main", cli.main)

    def layer_totals(self):
        """Per span name: calls, summed duration, self time and work amount.

        Self time is a span's duration minus the part of it covered by the
        union of its children's intervals (children may overlap in time when
        they ran on pool threads)."""
        children = defaultdict(list)
        for sid, parent, _, start, end, _ in self.spans:
            children[parent].append((start, end))
        totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0})
        for sid, _, name, start, end, work in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            t = totals[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - covered
            t["amount"] += work
        return dict(totals)

    def write(self, path):
        """Save every span as a tab-separated, gzip-compressed table."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tname\tstart_s\tend_s\tamount\n")
            for sid, parent, name, start, end, work in sorted(self.spans):
                f.write(f"{sid}\t{parent}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{work}\n")
