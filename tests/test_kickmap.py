import math
import os
import warnings

import numpy as np
import pytest

from impulsesim import _workers
from impulsesim.kickmap import (
    affine_kick_map,
    kick_limit_check,
    regularized_kick,
)

from test_analysis import force_workers


def reference_kick(g, r, substeps):
    """regularized_kick as a plain Euler loop checked at every substep;
    returns (z, None) or (None, the first non-finite substep)."""
    z = np.atleast_1d(np.asarray(r, dtype=float)).copy()
    h = 1.0 / substeps
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(substeps):
            z = z + h * np.asarray(g(z), dtype=float)
            if not np.all(np.isfinite(z)):
                return None, n + 1
    return z, None


def blows_up_at(k, substeps, bad=np.inf):
    """Unit speed from 0 until z reaches its value after k - 1 substeps;
    from there on g is `bad`, so substep k is the first non-finite one."""
    threshold, h = 0.0, 1.0 / substeps
    for _ in range(k - 1):
        threshold += h
    return lambda z: np.where(np.asarray(z) >= threshold, bad, 1.0)


def scalar_affine_closed_form(a, c, r):
    """Per-coordinate oracle: e^a r + (e^a - 1) c / a, with the a -> 0 limit c."""
    if abs(a) < 1e-8:
        return r + c
    return math.exp(a) * r + (math.exp(a) - 1.0) * c / a


class TestRegularizedKick:
    def test_constant_field_exact(self):
        field = lambda x: np.array([2.0, -1.0])
        r = np.array([0.1, 0.2])
        for delta, substeps in ((1.0, 1), (0.01, 3), (0.5, 17)):
            assert np.allclose(
                regularized_kick(field, r, delta, substeps), r + [2.0, -1.0]
            )

    def test_linear_field_converges_to_exponential(self):
        a = 0.7
        field = lambda x: a * np.asarray(x)
        r = np.array([1.5])
        out = regularized_kick(field, r, delta=0.1, substeps=200_000)
        assert np.allclose(out, math.exp(a) * 1.5, rtol=1e-5)

    def test_zero_field_identity(self):
        field = lambda x: np.zeros_like(x)
        r = np.array([3.0, -4.0])
        assert np.allclose(regularized_kick(field, r, 0.2, 5), r)

    def test_delta_invariance_in_rescaled_time(self):
        field = lambda x: np.sin(x) + 0.5
        r = np.array([0.3])
        a = regularized_kick(field, r, delta=0.2, substeps=64)
        b = regularized_kick(field, r, delta=0.1, substeps=64)
        assert np.array_equal(a, b)

    def test_validation(self):
        field = lambda x: x
        with pytest.raises(ValueError):
            regularized_kick(field, np.zeros(1), delta=-1.0, substeps=4)
        with pytest.raises(ValueError):
            regularized_kick(field, np.zeros(1), delta=0.1, substeps=0)
        for wrong in ([1.0], [1.0, 2.0, 3.0]):  # g must return d floats
            with pytest.raises(ValueError, match="zip"):
                regularized_kick(lambda x: wrong, np.zeros(2), delta=0.1, substeps=4)

    def test_overflow_aborts(self):
        field = lambda x: np.asarray(x)**3 * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="substep 2/50$"):
                regularized_kick(field, np.array([10.0]), delta=0.1, substeps=50)

    @pytest.mark.parametrize("k, substeps, bad", [
        (1, 4096, np.inf), (1023, 4096, np.inf), (1024, 4096, np.inf),
        (1025, 4096, np.inf), (1025, 4096, np.nan), (3000, 4096, -np.inf),
        (2048, 2048, np.nan), (2049, 2049, np.inf),
    ])
    def test_first_bad_substep_named_in_any_block(self, k, substeps, bad):
        g = blows_up_at(k, substeps, bad)
        assert reference_kick(g, [0.0], substeps) == (None, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=f"substep {k}/{substeps}$"):
                regularized_kick(g, np.array([0.0]), 0.1, substeps)

    @pytest.mark.parametrize("k", [1, 1024, 1025, 3000])
    def test_field_exceptions_in_any_block(self, k):
        """An OverflowError from g at a finite state, as float ** 2 and fsum
        raise, is substep k's overflow; an exception from g at a non-finite
        state, as fsum raises for inf and -inf, does not hide the substep
        that made it; any other exception passes unchanged."""
        substeps = 4096
        g = blows_up_at(k, substeps)

        def raising(exc):
            def field(z):
                v = g(z)
                if np.isinf(v).any():
                    raise exc
                return v
            return field

        def raising_at_non_finite(z):
            if not np.isfinite(z).all():
                raise ValueError("-inf + inf in fsum")
            return g(z)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for field in (raising(OverflowError("math range error")), raising_at_non_finite):
                with pytest.raises(FloatingPointError, match=f"substep {k}/{substeps}$"):
                    regularized_kick(field, np.array([0.0]), 0.1, substeps)
            with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
                regularized_kick(raising(ZeroDivisionError("float division by zero")),
                                 np.array([0.0]), 0.1, substeps)

    @pytest.mark.parametrize("k", [1, 1024, 1025, 3000])
    def test_field_sees_only_finite_states(self, k):
        """Substep k is the first non-finite one: g is called k times, each
        at a finite state, before regularized_kick raises."""
        substeps, g = 4096, blows_up_at(k, 4096)
        calls, non_finite = 0, 0

        def field(z):
            nonlocal calls, non_finite
            calls += 1
            non_finite += not all(map(math.isfinite, z))
            return g(z)

        with pytest.raises(FloatingPointError, match=f"substep {k}/{substeps}$"):
            regularized_kick(field, np.array([0.0]), 0.1, substeps)
        assert (calls, non_finite) == (k, 0)

    def test_one_component_overflows_in_a_later_block(self):
        # z2' = z2^2 from 1.5 blows up near t = 2/3; Euler overflows a few
        # substeps after it passes 1/h, while z1 stays finite.  The list
        # field keeps Python floats, whose z2 ** 2 raises OverflowError where
        # numpy's (and the reference's) gives inf.
        def g(z):
            return np.array([-z[0], z[1] ** 2])

        substeps = 4096
        _, k = reference_kick(g, [1.0, 1.5], substeps)
        assert k is not None and k > 1024
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for field in (g, lambda z: [-z[0], z[1] ** 2]):
                with pytest.raises(FloatingPointError, match=f"substep {k}/{substeps}$"):
                    regularized_kick(field, np.array([1.0, 1.5]), 0.1, substeps)

    @pytest.mark.parametrize("substeps", [1, 1023, 1024, 1025, 3000])
    def test_finite_flow_matches_reference_bitwise(self, substeps):
        def g(z):
            z = np.asarray(z)
            return np.sin(z) + 0.5 * z[::-1]

        r = np.array([0.3, -1.2])
        z, k = reference_kick(g, r, substeps)
        assert k is None
        assert regularized_kick(g, r, 0.1, substeps).tobytes() == z.tobytes()


class TestAffineKickMap:
    def test_zero_matrix_translation(self):
        kick, jac = affine_kick_map(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]))
        r = np.array([-0.5, 0.0, 0.5])
        assert np.array_equal(kick(r), r + [1.0, 2.0, 3.0])
        assert np.allclose(jac, np.eye(3))

    def test_scalar_unit_matrix(self):
        kick, jac = affine_kick_map(np.array([[1.0]]), np.array([1.0]))
        # e*r + (e-1), frozen from the scalar integral oracle at a=1
        assert np.allclose(kick(np.array([0.4])), math.e * 0.4 + (math.e - 1.0),
                           rtol=1e-14)
        assert np.allclose(jac, [[math.e]], rtol=1e-14)

    def test_log2_no_offset(self):
        kick, _ = affine_kick_map(np.array([[math.log(2.0)]]), np.array([0.0]))
        assert np.allclose(kick(np.array([1.7])), 3.4, rtol=1e-14)

    def test_diagonal_matches_scalar_closed_form(self):
        diag = np.array([0.8, -1.3, 1e-12, 0.0])
        c = np.array([0.5, -0.25, 2.0, 1.0])
        kick, jac = affine_kick_map(np.diag(diag), c)
        r = np.array([0.1, 0.2, 0.3, 0.4])
        expected = [scalar_affine_closed_form(a, ci, ri)
                    for a, ci, ri in zip(diag, c, r)]
        assert np.allclose(kick(r), expected, rtol=1e-12)
        assert np.allclose(np.diag(jac), np.exp(diag), rtol=1e-12)

    @pytest.mark.parametrize("a", [-20.0, -40.0, -80.0])
    def test_contracting_scalar_kick_integral(self, a):
        # K = (e^a - 1)/a; the power series of K had relative errors of
        # 4e-9, 0.54 and 3.5e17 here
        kick, jac = affine_kick_map(np.array([[a]]), np.array([1.0]))
        # abs=0: approx's default abs=1e-12 would pass any exp(a) near 0
        assert kick(np.zeros(1))[0] == pytest.approx(math.expm1(a) / a, rel=1e-14, abs=0)
        assert jac[0, 0] == pytest.approx(math.exp(a), rel=2e-14, abs=0)

    @pytest.mark.parametrize("theta", [0.3, 2.0, 25.0])
    def test_rotation_and_jordan_block(self, theta):
        # exp of [[0, t], [-t, 0]] turns by t; exp of [[a, 1], [0, a]] is e^a [[1, 1], [0, 1]]
        _, jac = affine_kick_map(np.array([[0.0, theta], [-theta, 0.0]]), np.zeros(2))
        cos, sin = math.cos(theta), math.sin(theta)
        assert np.allclose(jac, [[cos, sin], [-sin, cos]], rtol=0, atol=1e-13 * theta)
        a = -theta
        _, jac = affine_kick_map(np.array([[a, 1.0], [0.0, a]]), np.zeros(2))
        assert np.allclose(jac, math.exp(a) * np.array([[1.0, 1.0], [0.0, 1.0]]),
                           rtol=1e-13 * theta, atol=0)

    def test_batch_keeps_each_state_bits(self):
        """A state's kick has the same bits alone as in any batch."""
        kick, _ = affine_kick_map(np.array([[-0.5, 1.0], [-1.0, -0.5]]), np.array([1.0, 0.0]))
        states = np.random.default_rng(3).normal(size=(64, 2))
        batch = kick(states)
        for state, kicked in zip(states, batch):
            assert kick(state).tobytes() == kicked.tobytes()
        assert kick(states.T.copy().T).tobytes() == batch.tobytes()  # component-major layout

    def test_translation_composition(self):
        # q translations from 0 accumulate to q*c
        c = np.array([0.3, -0.7])
        kick, _ = affine_kick_map(np.zeros((2, 2)), c)
        x = np.zeros(2)
        for _ in range(5):
            x = kick(x)
        assert np.allclose(x, 5 * c)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            affine_kick_map(np.zeros((2, 3)), np.zeros(2))


class TestKickLimitCheck:
    def test_constant_field_zero_errors(self):
        c = np.array([1.0])
        field = lambda x: c
        kick, _ = affine_kick_map(np.zeros((1, 1)), c)
        rows = kick_limit_check(field, kick, np.array([0.0]), [0.1, 0.05])
        assert all(err == 0.0 for _, _, err in rows)

    def test_zero_field_zero_errors(self):
        field = lambda x: np.zeros_like(x)
        rows = kick_limit_check(field, lambda r: r, np.array([2.0]), [0.2, 0.1])
        assert all(err == 0.0 for _, _, err in rows)

    def test_affine_first_order_convergence(self):
        A = np.array([[1.0]])
        c = np.array([1.0])
        field = lambda x: x @ A.T + c
        kick, _ = affine_kick_map(A, c)
        rows = kick_limit_check(
            field, kick, np.array([1.0]), [0.1, 0.05, 0.025, 0.0125],
        )
        errs = [err for _, _, err in rows]
        # Euler is globally first order: halving the substep roughly halves the error
        for big, small in zip(errs, errs[1:]):
            assert 1.8 <= big / small <= 2.2

    def test_rows_match_reference_bitwise(self):
        A = np.array([[-0.5, 1.0], [-1.0, -0.5]])
        c = np.array([1.0, 0.0])

        def g(x):
            return np.asarray(x, float) @ A.T + c

        kick, _ = affine_kick_map(A, c)
        r = np.array([0.375, -0.625])
        deltas = [2.0**-i for i in range(1, 13)]
        target = kick(r)
        expected = []
        for delta in deltas:
            substeps = 1 << max(0, math.ceil(math.log2(1 / delta)))
            z, _ = reference_kick(g, r, substeps)
            expected.append((delta, substeps, math.sqrt(math.fsum((z - target) ** 2))))
        assert kick_limit_check(g, kick, r, deltas) == expected

    @pytest.mark.parametrize("d, a", [(1, 709.0), (2, 354.7)],
                             ids=["square-overflows", "fsum-overflows"])
    def test_finite_error_whose_squares_overflow(self, d, a):
        """An error above about 1.3e154 stays finite: a square overflows at
        d = 1, fsum's partial sum at d = 2.  math.hypot sums it scaled, to
        within an ulp."""
        kick, _ = affine_kick_map(a * np.eye(d), np.zeros(d))
        r = np.ones(d)
        [(_, _, err)] = kick_limit_check(lambda x: [a * v for v in x], kick, r, [0.5])
        z, _ = reference_kick(lambda x: a * x, r, 2)
        assert err == pytest.approx(abs(z[0] - kick(r)[0]) * math.sqrt(d), rel=2**-52)
        assert 1e154 < err < math.inf

    def test_nonmonotone_deltas_rejected(self):
        field = lambda x: x
        with pytest.raises(ValueError):
            kick_limit_check(field, lambda r: r, np.zeros(1), [0.1, 0.2])


class TestKickTableWorkers:
    A = np.array([[-0.5, 1.0], [-1.0, -0.5]])
    c = np.array([1.0, 0.0])
    r = np.array([0.5, -0.25])

    def g(self, x):
        return np.asarray(x, float) @ self.A.T + self.c

    def table(self, deltas, g=None):
        kick, _ = affine_kick_map(self.A, self.c)
        return kick_limit_check(g or self.g, kick, self.r, deltas)

    def record_shares(self, monkeypatch, run=True):
        """Patch the fork runner to log each call's shares, and run them
        only if `run`; returns the log."""
        seen, fork_shares = [], _workers._fork_shares

        def fork(run_share, shares, lost):
            seen.append(list(shares))
            return fork_shares(run_share, shares, lost) if run else []

        monkeypatch.setattr(_workers, "_fork_shares", fork)
        return seen

    @pytest.mark.parametrize("workers, deltas, shares", [
        (1, [0.1, 0.09, 0.08], []),
        (2, [0.1, 0.09, 0.08], [[range(0, 1), range(1, 3)]]),
        (3, [0.1, 0.09, 0.08], [[range(0, 1), range(1, 2), range(2, 3)]]),
        (2, [2.0**-i for i in range(1, 13)], [[range(0, 11), range(11, 12)]]),
    ])
    def test_rows_do_not_depend_on_the_worker_count(self, monkeypatch, workers, deltas,
                                                    shares):
        ref = self.table(deltas)
        force_workers(monkeypatch, workers)
        seen = self.record_shares(monkeypatch)
        rows = self.table(deltas)
        assert seen == shares
        assert rows == ref
        assert all(type(v) is t for row in rows for v, t in zip(row, (float, int, float)))

    @pytest.mark.parametrize("cpus", [2, 3, 64])
    def test_benchmark_table_splits_off_its_last_row(self, monkeypatch, cpus):
        """Rows 1-16 hold 2^17 - 2 substeps and row 17 holds 2^17, so the
        table runs on two processes however many CPUs there are."""
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
        seen = self.record_shares(monkeypatch, run=False)
        self.table([2.0**-i for i in range(1, 18)])
        assert seen == [[range(0, 16), range(16, 17)]]

    @pytest.mark.parametrize("deltas", [[0.1, 0.05, 0.025, 0.0125],
                                        [2.0**-i for i in range(1, 9)], []])
    def test_small_table_runs_in_process(self, monkeypatch, deltas):
        def no_fork(*args):
            raise AssertionError("a small kick table forked")

        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(_workers, "_fork_shares", no_fork)
        rows = self.table(deltas)
        assert len(rows) == len(deltas) and type(rows) is list

    def test_overflow_in_a_worker_names_its_substep(self, monkeypatch):
        """The FloatingPointError of a worker's row reaches the caller with
        its type and message."""
        parent = os.getpid()

        def bad(z):
            return np.asarray(z) ** 3 * 1e200

        def g(z):
            return bad(z) if os.getpid() != parent else self.g(z)

        _, k = reference_kick(bad, self.r, 16)
        assert k is not None
        force_workers(monkeypatch, 2)  # the worker holds rows 2-3, of 16 substeps
        with pytest.raises(FloatingPointError) as info:
            self.table([0.1, 0.09, 0.08], g)
        assert type(info.value) is FloatingPointError
        assert str(info.value) == f"regularized kick overflowed at substep {k}/16"

    def test_dead_worker_names_the_lost_deltas(self, monkeypatch):
        parent = os.getpid()

        def g(z):
            if os.getpid() != parent:
                os._exit(1)
            return self.g(z)

        force_workers(monkeypatch, 2)
        with pytest.raises(ChildProcessError) as info:
            self.table([0.1, 0.09, 0.08], g)
        assert str(info.value) == (
            "a kick table worker process died: the rows of deltas 0.09, 0.08 were lost")
