"""Integrator tests against analytic solutions and the closed-form flow."""

import math
import re
from fractions import Fraction as F

import numpy as np
import pytest

from splitopt import (
    IntegratorConfig,
    gen_gaussian_blobs,
    gen_random_lls,
    lls_local_exact,
    local_step_rk,
    ode,
    partition,
    rk45_integrate,
)
from splitopt.errors import NonFiniteState, StepBudgetExceeded

# Cash & Karp (1990) 5(4): a_ij of stages 1..6 and the 5th-order b_j.
CK_A = [
    [],
    [F(1, 5)],
    [F(3, 40), F(9, 40)],
    [F(3, 10), F(-9, 10), F(6, 5)],
    [F(-11, 54), F(5, 2), F(-70, 27), F(35, 27)],
    [F(1631, 55296), F(175, 512), F(575, 13824), F(44275, 110592), F(253, 4096)],
]
CK_B = [F(37, 378), F(0), F(250, 621), F(125, 594), F(0), F(512, 1771)]
# The embedded 4th-order weights b*_j.
CK_B4 = [F(2825, 27648), F(0), F(18575, 48384), F(13525, 55296), F(277, 14336), F(1, 4)]


class TestBasics:
    def test_zero_rhs_keeps_state(self):
        y0 = np.array([1.0, -2.0, 3.5])
        sol = rk45_integrate(lambda y: np.zeros_like(y), y0, 5.0)
        np.testing.assert_allclose(sol.y_end, y0, atol=1e-14)

    def test_exponential_decay(self):
        cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
        sol = rk45_integrate(lambda y: -y, np.array([1.0]), 1.0, cfg)
        assert sol.y_end[0] == pytest.approx(np.exp(-1.0), abs=1e-7)

    def test_empty_span_returns_y0_exactly(self):
        y0 = np.array([0.3, 0.7])
        sol = rk45_integrate(lambda y: -y, y0, 0.0)
        assert np.array_equal(sol.y_end, y0)
        assert sol.steps_taken == 0 and sol.rhs_evals == 0

    def test_empty_state_returns_at_once(self):
        """A rank-0 batch's reduced state is empty: nothing to integrate, so
        no evaluation, and no proposal for the run's next step (a 14-step
        integration of nothing used to propose 1.5 spans)."""
        calls = []
        sol = rk45_integrate(lambda y: calls.append(y) or y, np.empty(0), 0.8)
        assert sol.y_end.shape == (0,) and calls == []
        assert (sol.steps_taken, sol.rhs_evals, sol.h_next) == (0, 0, 0.0)

    @pytest.mark.parametrize(
        "rhs, y0, t1, h_init, accepted, rejected",
        [
            (lambda y: -y, [1.0], 10.0, 0.0, 33, 0),
            (lambda y: 50 * np.cos(50 * y), [0.1], 10.0, 0.0, 6698, 929),
            (lambda y: np.array([y[1], -100 * y[0]]), [0.0, 1.0], 20.0, 0.0, 745, 177),
            (lambda y: -y, [1.0], 10.0, 0.1, 33, 0),
            (lambda y: 50 * np.cos(50 * y), [0.1], 10.0, 0.1, 6698, 922),
        ],
        ids=["decay", "cos", "oscillator", "decay-hinit", "cos-hinit"],
    )
    def test_counters_are_consistent(self, rhs, y0, t1, h_init, accepted, rejected):
        """Pinned step sequence; a run spends the initial f(y0), one
        start-step probe when h_init = 0, five evaluations per attempted
        step (k_2 .. k_6) and one k_1 at the end of every accepted step but
        the last, and reports as many as the right-hand side saw.  The
        sequences are pinned at rtol 1e-6 / atol 1e-9, set here rather than
        taken from the default."""
        calls = []

        def counted(y):
            calls.append(None)
            return rhs(y)

        cfg = IntegratorConfig(rtol=1e-6, atol=1e-9)
        sol = rk45_integrate(counted, np.array(y0), t1, cfg, h_init=h_init)
        assert (sol.steps_taken, sol.rejected_steps) == (accepted, rejected)
        start_evals = 1 if h_init > 0 else 2
        assert sol.rhs_evals == len(calls) == (
            start_evals + 5 * (accepted + rejected) + accepted - 1)

    def test_one_step_is_the_textbook_update(self):
        """A span of h_init taken in one accepted attempt gives
        y0 + h sum_j b_j k_j, with each k_i from the tableau itself; a row or
        column offset in the integrator's coefficients moves it by O(h)."""

        def rhs(y):
            return np.array([np.sin(y[1]) - y[0] ** 2, y[0] * y[2], np.cos(y[0]) - y[1]])

        y0, h = np.array([0.3, -0.7, 1.1]), 0.05
        sol = rk45_integrate(rhs, y0, h, IntegratorConfig(rtol=1e-2, atol=1e-2), h_init=h)
        assert (sol.steps_taken, sol.rejected_steps, sol.rhs_evals) == (1, 0, 6)
        k = []
        for row in CK_A:
            k.append(rhs(y0 + h * sum((float(a) * kj for a, kj in zip(row, k)), np.zeros(3))))
        want = y0 + h * sum(float(b) * kj for b, kj in zip(CK_B, k))
        np.testing.assert_allclose(sol.y_end, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("d", [1, 3, 200])
    def test_one_step_is_the_tableau_arithmetic_bitwise(self, d):
        """The same accepted step written with @ in the integrator's layout:
        each stage input is [1, h a_i1, ..., h a_ii] times (y, k_1, ..., k_i),
        and y_new and the error vector are the rows [1, h b_1, ..., h b_6]
        and [0, h (b_1 - b*_1), ..., h (b_6 - b*_6)] of one product with
        (y, k_1, ..., k_6).  y_end and the proposal h_next agree bit for
        bit."""

        def rhs(y):
            return np.sin(np.roll(y, 1)) - 0.5 * y

        y0 = np.random.default_rng(d).standard_normal(d)
        h, rtol, atol = 0.05, 1e-2, 1e-2
        sol = rk45_integrate(rhs, y0, h, IntegratorConfig(rtol=rtol, atol=atol), h_init=h)
        assert (sol.steps_taken, sol.rejected_steps, sol.rhs_evals) == (1, 0, 6)
        ks = [y0, rhs(y0)]
        for row in CK_A[1:]:
            ks.append(rhs(np.array([1.0] + [h * float(a) for a in row]) @ np.array(ks)))
        weights = np.array([[1.0] + [h * float(b) for b in CK_B],
                            [0.0] + [h * float(b - b4) for b, b4 in zip(CK_B, CK_B4)]])
        y_new, err_vec = weights @ np.array(ks)
        err_vec /= atol + rtol * np.maximum(np.abs(y0), np.abs(y_new))
        err = math.sqrt((err_vec @ err_vec) / d)
        assert np.array_equal(sol.y_end, y_new)
        assert sol.h_next == h * min(5.0, max(0.2, 0.9 * err ** -0.2))

    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError, match="t_end must be finite and nonnegative, got -1.0"):
            rk45_integrate(lambda y: -y, np.array([1.0]), -1.0)

    # An infinite h_init used to mean "try the whole span first".
    @pytest.mark.parametrize("h_init", [-1.0, float("nan"), math.inf])
    def test_bad_h_init_rejected(self, h_init):
        """Checked on every call, before anything is integrated; the local
        step passes it through."""
        with pytest.raises(ValueError, match="h_init"):
            rk45_integrate(lambda y: -y, np.array([1.0]), 1.0, h_init=h_init)
        pb = gen_gaussian_blobs(40, 4, 2, 4.0, 0)
        _, batches = partition(pb, 10, 0)
        with pytest.raises(ValueError, match="h_init"):
            local_step_rk(pb, batches[0], np.zeros(4), 1.0, None, h_init)

    @pytest.mark.parametrize("steps", [math.nan, 2.5, True, 0],
                             ids=["nan", "fraction", "bool", "zero"])
    def test_bad_max_steps_rejected(self, steps):
        """NaN used to switch the step budget off: dy/dt = -y over (0, 100)
        took 49 steps unchecked."""
        with pytest.raises(ValueError,
                           match=re.escape(f"max_steps must be an integer >= 1, got {steps!r}")):
            IntegratorConfig(max_steps=steps)

    @pytest.mark.parametrize("name", ["rtol", "atol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1e-6])
    def test_tolerance_must_be_finite_and_positive(self, name, value):
        """An infinite tolerance accepts every step: dy/dt = -y over (0, 10)
        used to end at 2.2 against exp(-10) = 4.5e-5."""
        with pytest.raises(ValueError, match=f"{name} must be finite and positive, got"):
            IntegratorConfig(**{name: value})


class TestStepProposal:
    @staticmethod
    def decay_steps(t1):
        """Solution of dy/dt = -y from 1 over (0, t1) and the size of every
        attempted step.  With k_1 = f(y) = -y exactly, an attempt's first
        evaluation, k_2, is at y (1 - h/5), which gives h back; the
        evaluation after an attempt's five is k_1 at the new state."""
        states = []

        def rhs(y):
            states.append(y.copy())
            return -y

        sol = rk45_integrate(rhs, np.array([1.0]), t1,
                             IntegratorConfig(rtol=1e-6, atol=1e-9))
        y, sizes = 1.0, []
        assert sol.rejected_steps == 0  # else the attempts are not 6 apart
        for j in range(sol.steps_taken):
            calls = states[2 + 6 * j : 8 + 6 * j]  # after f(y0) and the probe
            sizes.append(5 * (1 - calls[0][0] / y))
            y = calls[-1][0]  # k_1's input is the new state; unread after the last step
        return sol, sizes

    def test_h_next_is_the_proposal_after_the_last_unclipped_step(self):
        """Over (0, 10) the 33rd step is clipped to land on t = 10.  Over
        (0, 20) the same first 32 steps are taken, and the 33rd is the size
        the controller proposed after the 32nd."""
        sol, sizes = self.decay_steps(10.0)
        assert (sol.steps_taken, sol.rejected_steps) == (33, 0)
        assert sum(sizes[:32]) < 10.0 and sizes[32] < sizes[31]  # clipped
        _, long_sizes = self.decay_steps(20.0)
        assert long_sizes[:32] == pytest.approx(sizes[:32], rel=1e-12)
        assert sum(long_sizes[:33]) > 10.0
        assert sol.h_next == pytest.approx(long_sizes[32], rel=1e-12)

    def test_span_covered_by_one_clipped_step_proposes_nothing(self):
        sol = rk45_integrate(lambda y: -y, np.array([1.0]), 0.01, h_init=1.0)
        assert (sol.steps_taken, sol.rejected_steps, sol.h_next) == (1, 0, 0.0)
        empty = rk45_integrate(lambda y: -y, np.array([1.0]), 0.0)
        assert empty.h_next == 0.0

    def test_restart_from_the_proposal_skips_the_probe(self):
        first = rk45_integrate(lambda y: -y, np.array([1.0]), 10.0,
                               IntegratorConfig(rtol=1e-6, atol=1e-9))
        assert first.h_next > 0
        again = rk45_integrate(lambda y: -y, np.array([1.0]), 10.0,
                               IntegratorConfig(rtol=1e-6, atol=1e-9), first.h_next)
        assert again.rhs_evals == 6 * again.steps_taken + 5 * again.rejected_steps
        assert abs(again.y_end[0] - np.exp(-10.0)) <= 1e-6 * np.exp(-10.0) + 1e-9


class TestErrorControl:
    def test_tightening_tolerance_never_hurts(self):
        y0 = np.array([1.0])
        errs = []
        for rtol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
            cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-3)
            sol = rk45_integrate(lambda y: -y, y0, 3.0, cfg)
            errs.append(abs(sol.y_end[0] - np.exp(-3.0)))
        for coarse, fine in zip(errs[:-1], errs[1:]):
            assert fine <= coarse + 1e-15

    def test_harmonic_oscillator_amplitude(self):
        cfg = IntegratorConfig(rtol=1e-9, atol=1e-12)
        sol = rk45_integrate(
            lambda y: np.array([y[1], -y[0]]),
            np.array([0.0, 1.0]),
            2 * np.pi,
            cfg,
        )
        np.testing.assert_allclose(sol.y_end, [0.0, 1.0], atol=1e-7)


def fresh(fn, *args):
    """fn(*args), its integrations starting with no kept workspace."""
    ode._workspaces.clear()
    return fn(*args)


def same(a, b):
    """Two solutions agree bit for bit, counters and proposal included."""
    return (np.array_equal(a.y_end, b.y_end)
            and (a.steps_taken, a.rhs_evals, a.rejected_steps, a.h_next)
            == (b.steps_taken, b.rhs_evals, b.rejected_steps, b.h_next))


class TestWorkspace:
    """One workspace is kept per state size, and a call holds it alone;
    every result is bit for bit a fresh call's."""

    CFG = IntegratorConfig(rtol=1e-6, atol=1e-9)

    def test_nested_call_on_its_own_state_size(self):
        """A right-hand side that integrates a state of its own size while
        the outer call holds that size's workspace."""

        def inner_flow(y):
            return rk45_integrate(np.sin, y, 0.1, self.CFG).y_end - y

        def inner_flow_fresh(y):
            return fresh(rk45_integrate, np.sin, y, 0.1, self.CFG).y_end - y

        y0 = np.array([0.4, -1.3, 2.2])
        want = fresh(rk45_integrate, inner_flow_fresh, y0, 2.0, self.CFG)
        for _ in range(2):  # the second run reuses both kept workspaces
            assert same(rk45_integrate(inner_flow, y0, 2.0, self.CFG), want)

    @pytest.mark.parametrize("d", [1, 3, 200])
    def test_h_then_another_h_then_h_again(self, d):
        """Single-step calls at h, h' and h again: a tableau kept scaled by
        one h serves only that h."""

        def rhs(y):
            return np.sin(np.roll(y, 1)) - 0.5 * y

        y0 = np.random.default_rng(d).standard_normal(d)
        for h in (0.05, 0.03, 0.05):
            cfg = IntegratorConfig(rtol=1e-2, atol=1e-2)
            got = rk45_integrate(rhs, y0, h, cfg, h)
            assert got.steps_taken == 1 and got.rejected_steps == 0
            assert same(got, fresh(rk45_integrate, rhs, y0, h, cfg, h))


class TestFailureModes:
    def test_step_budget(self):
        """The failed call leaves no trace in the workspaces: a one-step
        call of its state size before it and after it agree bit for bit,
        and with a fresh call."""
        one_step = (IntegratorConfig(rtol=1e-2, atol=1e-2), 0.05)  # cfg, h_init
        before = rk45_integrate(np.sin, np.array([0.3]), 0.05, *one_step)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-13, max_steps=3)
        with pytest.raises(StepBudgetExceeded):
            rk45_integrate(lambda y: np.cos(50 * y) * 50, np.array([0.1]), 10.0, cfg)
        after = rk45_integrate(np.sin, np.array([0.3]), 0.05, *one_step)
        assert same(after, before)
        assert same(after, fresh(rk45_integrate, np.sin, np.array([0.3]), 0.05, *one_step))

    def test_state_overflow_is_rejected(self):
        """A constant RHS makes the error estimate 0, so only the finiteness
        check on y_new keeps the state from overflowing to inf: the steps
        past t = 17.98 are rejected until h underflows."""
        with np.errstate(over="ignore"), pytest.raises(StepBudgetExceeded, match="underflow"):
            rk45_integrate(lambda y: np.full_like(y, 1e307), np.array([0.0]), 100.0,
                           h_init=1.0)

    def test_non_finite_rhs_at_an_accepted_point(self):
        """dy/dt = -y, made NaN at y <= 0.61: the first step, from 1 at
        h = 0.5, evaluates its stages above 0.61 and is accepted at about
        exp(-0.5) = 0.607, where k_1 is NaN.  Every attempt from there
        reuses that k_1, so it is non-finite and rejected until h
        underflows: no later step is accepted."""
        inputs = []

        def rhs(y):
            inputs.append(y[0])
            return -y if y[0] > 0.61 else np.full_like(y, np.nan)

        with pytest.raises(StepBudgetExceeded, match=r"underflow at t=0\.5$"):
            rk45_integrate(rhs, np.array([1.0]), 1.0, IntegratorConfig(rtol=1e-2, atol=1e-2),
                           h_init=0.5)
        assert min(inputs[:6]) > 0.61
        assert inputs[6] == pytest.approx(np.exp(-0.5), rel=1e-4)

    def test_non_finite_rhs(self):
        with pytest.raises(NonFiniteState):
            rk45_integrate(lambda y: np.array([np.nan]), np.array([1.0]), 1.0)

    def test_non_finite_initial_state(self):
        with pytest.raises(NonFiniteState):
            rk45_integrate(lambda y: -y, np.array([np.inf]), 1.0)


class TestLinearFlowOracle:
    def test_matches_closed_form_on_reduced_lls(self):
        """Integrating the reduced least-squares flow reproduces the
        expm-based closed form (5-dim instance)."""
        pb = gen_random_lls(40, 12, 0.1, 99)
        _, batches = partition(pb, 5, 99)
        bf = batches[0]
        r = bf.svd.r
        rng = np.random.default_rng(1)
        theta0 = rng.standard_normal(pb.p)
        h = 2.5
        eta0 = bf.svd.u.T @ theta0

        def rhs(eta):
            return -(r @ (r.T @ eta - bf.y_i)) / pb.n

        cfg = IntegratorConfig(rtol=1e-10, atol=1e-13)
        sol = rk45_integrate(rhs, eta0, h, cfg)
        want = bf.svd.u.T @ lls_local_exact(bf, theta0, h, pb.n)
        assert np.linalg.norm(sol.y_end - want) <= 1e-6 * max(1.0, np.linalg.norm(want))

    def test_agreement_scales_with_rtol(self):
        pb = gen_random_lls(30, 8, 0.0, 5)
        _, batches = partition(pb, 4, 5)
        bf = batches[0]
        r = bf.svd.r
        theta0 = np.zeros(pb.p)
        eta0 = bf.svd.u.T @ theta0
        want = bf.svd.u.T @ lls_local_exact(bf, theta0, 1.0, pb.n)
        for rtol in (1e-6, 1e-8):
            cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-3)
            sol = rk45_integrate(
                lambda eta: -(r @ (r.T @ eta - bf.y_i)) / pb.n, eta0, 1.0, cfg
            )
            rel = np.linalg.norm(sol.y_end - want) / max(np.linalg.norm(want), 1e-30)
            assert rel <= 10 * rtol
