"""Integrator tests against analytic solutions and the closed-form flow."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from splitopt import IntegratorConfig, gen_random_lls, lls_local_exact, partition, rk45_integrate
from splitopt.errors import NonFiniteState, StepBudgetExceeded

# Dormand & Prince (1980) 5(4): a_ij of stages 1..6 and the 5th-order b_j (b_7 = 0).
DP_A = [
    [],
    [F(1, 5)],
    [F(3, 40), F(9, 40)],
    [F(44, 45), F(-56, 15), F(32, 9)],
    [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)],
    [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)],
]
DP_B = [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)]


class TestBasics:
    def test_zero_rhs_keeps_state(self):
        y0 = np.array([1.0, -2.0, 3.5])
        sol = rk45_integrate(lambda y: np.zeros_like(y), y0, (0.0, 5.0))
        np.testing.assert_allclose(sol.y_end, y0, atol=1e-14)

    def test_exponential_decay(self):
        cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
        sol = rk45_integrate(lambda y: -y, np.array([1.0]), (0.0, 1.0), cfg)
        assert sol.y_end[0] == pytest.approx(np.exp(-1.0), abs=1e-7)

    def test_empty_span_returns_y0_exactly(self):
        y0 = np.array([0.3, 0.7])
        sol = rk45_integrate(lambda y: -y, y0, (2.0, 2.0))
        assert np.array_equal(sol.y_end, y0)
        assert sol.steps_taken == 0 and sol.rhs_evals == 0

    @pytest.mark.parametrize(
        "rhs, y0, t1, h_init, accepted, rejected",
        [
            (lambda y: -y, [1.0], 10.0, 0.0, 41, 0),
            (lambda y: 50 * np.cos(50 * y), [0.1], 10.0, 0.0, 7573, 197),
            (lambda y: np.array([y[1], -100 * y[0]]), [0.0, 1.0], 20.0, 0.0, 971, 204),
            (lambda y: -y, [1.0], 10.0, 0.1, 41, 0),
            (lambda y: 50 * np.cos(50 * y), [0.1], 10.0, 0.1, 7573, 199),
        ],
        ids=["decay", "cos", "oscillator", "decay-hinit", "cos-hinit"],
    )
    def test_counters_are_consistent(self, rhs, y0, t1, h_init, accepted, rejected):
        """Pinned step sequence; with the last stage reused (FSAL) a run
        spends the initial f(y0), one start-step probe when h_init = 0, and
        six evaluations per attempted step.  The sequences are pinned at
        rtol 1e-6 / atol 1e-9, set here rather than taken from the default."""
        cfg = IntegratorConfig(rtol=1e-6, atol=1e-9, h_init=h_init)
        sol = rk45_integrate(rhs, np.array(y0), (0.0, t1), cfg)
        assert (sol.steps_taken, sol.rejected_steps) == (accepted, rejected)
        start_evals = 1 if h_init > 0 else 2
        assert sol.rhs_evals == start_evals + 6 * (sol.steps_taken + sol.rejected_steps)

    def test_one_step_is_the_textbook_update(self):
        """A span of h_init taken in one accepted attempt gives
        y0 + h sum_j b_j k_j, with each k_i from the tableau itself; a row or
        column offset in the integrator's coefficients moves it by O(h)."""

        def rhs(y):
            return np.array([np.sin(y[1]) - y[0] ** 2, y[0] * y[2], np.cos(y[0]) - y[1]])

        y0, h = np.array([0.3, -0.7, 1.1]), 0.05
        sol = rk45_integrate(rhs, y0, (0.0, h), IntegratorConfig(rtol=1e-2, atol=1e-2, h_init=h))
        assert (sol.steps_taken, sol.rejected_steps, sol.rhs_evals) == (1, 0, 7)
        k = []
        for row in DP_A:
            k.append(rhs(y0 + h * sum((float(a) * kj for a, kj in zip(row, k)), np.zeros(3))))
        want = y0 + h * sum(float(b) * kj for b, kj in zip(DP_B, k))
        np.testing.assert_allclose(sol.y_end, want, rtol=1e-14, atol=0)

    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError):
            rk45_integrate(lambda y: -y, np.array([1.0]), (1.0, 0.0))

    @pytest.mark.parametrize("h_init", [-1.0, float("nan")])
    def test_bad_h_init_rejected(self, h_init):
        with pytest.raises(ValueError, match="h_init"):
            IntegratorConfig(h_init=h_init)

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
        attempted step.  With k0 = f(y) = -y exactly (FSAL), an attempt's
        first stage evaluates f at y (1 - h/5), which gives h back."""
        states = []

        def rhs(y):
            states.append(y.copy())
            return -y

        sol = rk45_integrate(rhs, np.array([1.0]), (0.0, t1),
                             IntegratorConfig(rtol=1e-6, atol=1e-9))
        y, sizes = 1.0, []
        for j in range(sol.steps_taken + sol.rejected_steps):
            stage = states[2 + 6 * j : 8 + 6 * j]  # after f(y0) and the probe
            sizes.append(5 * (1 - stage[0][0] / y))
            y = stage[5][0]  # the last stage's input is the new state
        return sol, sizes

    def test_h_next_is_the_proposal_after_the_last_unclipped_step(self):
        """Over (0, 10) the 41st step is clipped to land on t = 10.  Over
        (0, 20) the same first 40 steps are taken, and the 41st is the size
        the controller proposed after the 40th."""
        sol, sizes = self.decay_steps(10.0)
        assert (sol.steps_taken, sol.rejected_steps) == (41, 0)
        assert sum(sizes[:40]) < 10.0 and sizes[40] < sizes[39]  # clipped
        _, long_sizes = self.decay_steps(20.0)
        assert long_sizes[:40] == pytest.approx(sizes[:40], rel=1e-12)
        assert sum(long_sizes[:41]) > 10.0
        assert sol.h_next == pytest.approx(long_sizes[40], rel=1e-12)

    def test_span_covered_by_one_clipped_step_proposes_nothing(self):
        sol = rk45_integrate(lambda y: -y, np.array([1.0]), (0.0, 0.01),
                             IntegratorConfig(h_init=1.0))
        assert (sol.steps_taken, sol.rejected_steps, sol.h_next) == (1, 0, 0.0)
        empty = rk45_integrate(lambda y: -y, np.array([1.0]), (0.0, 0.0))
        assert empty.h_next == 0.0

    def test_restart_from_the_proposal_skips_the_probe(self):
        first = rk45_integrate(lambda y: -y, np.array([1.0]), (0.0, 10.0),
                               IntegratorConfig(rtol=1e-6, atol=1e-9))
        assert first.h_next > 0
        again = rk45_integrate(lambda y: -y, np.array([1.0]), (0.0, 10.0),
                               IntegratorConfig(rtol=1e-6, atol=1e-9, h_init=first.h_next))
        assert again.rhs_evals == 1 + 6 * (again.steps_taken + again.rejected_steps)
        assert abs(again.y_end[0] - np.exp(-10.0)) <= 1e-6 * np.exp(-10.0) + 1e-9


class TestErrorControl:
    def test_tightening_tolerance_never_hurts(self):
        y0 = np.array([1.0])
        errs = []
        for rtol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
            cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-3)
            sol = rk45_integrate(lambda y: -y, y0, (0.0, 3.0), cfg)
            errs.append(abs(sol.y_end[0] - np.exp(-3.0)))
        for coarse, fine in zip(errs[:-1], errs[1:]):
            assert fine <= coarse + 1e-15

    def test_harmonic_oscillator_amplitude(self):
        cfg = IntegratorConfig(rtol=1e-9, atol=1e-12)
        sol = rk45_integrate(
            lambda y: np.array([y[1], -y[0]]),
            np.array([0.0, 1.0]),
            (0.0, 2 * np.pi),
            cfg,
        )
        np.testing.assert_allclose(sol.y_end, [0.0, 1.0], atol=1e-7)


class TestFailureModes:
    def test_step_budget(self):
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-13, max_steps=3)
        with pytest.raises(StepBudgetExceeded):
            rk45_integrate(lambda y: np.cos(50 * y) * 50, np.array([0.1]), (0.0, 10.0), cfg)

    def test_state_overflow_is_rejected(self):
        """A constant RHS makes the error estimate 0, so only the finiteness
        check on y_new keeps the state from overflowing to inf: the steps
        past t = 17.98 are rejected until h underflows."""
        with np.errstate(over="ignore"), pytest.raises(StepBudgetExceeded, match="underflow"):
            rk45_integrate(lambda y: np.full_like(y, 1e307), np.array([0.0]), (0.0, 100.0),
                           IntegratorConfig(h_init=1.0))

    def test_non_finite_rhs(self):
        with pytest.raises(NonFiniteState):
            rk45_integrate(lambda y: np.array([np.nan]), np.array([1.0]), (0.0, 1.0))

    def test_non_finite_initial_state(self):
        with pytest.raises(NonFiniteState):
            rk45_integrate(lambda y: -y, np.array([np.inf]), (0.0, 1.0))


class TestLinearFlowOracle:
    def test_matches_closed_form_on_reduced_lls(self):
        """Integrating the reduced least-squares flow reproduces the
        expm-based closed form (5-dim instance)."""
        pb = gen_random_lls(40, 12, 0.1, 99)
        _, batches = partition(pb, 5, 99)
        bf = batches[0]
        r = bf.qr.r
        rng = np.random.default_rng(1)
        theta0 = rng.standard_normal(pb.p)
        h = 2.5
        eta0 = bf.qr.q.T @ theta0

        def rhs(eta):
            return -(r @ (r.T @ eta - bf.y_i)) / pb.n

        cfg = IntegratorConfig(rtol=1e-10, atol=1e-13)
        sol = rk45_integrate(rhs, eta0, (0.0, h), cfg)
        want = bf.qr.q.T @ lls_local_exact(bf, theta0, h, pb.n)
        assert np.linalg.norm(sol.y_end - want) <= 1e-6 * max(1.0, np.linalg.norm(want))

    def test_agreement_scales_with_rtol(self):
        pb = gen_random_lls(30, 8, 0.0, 5)
        _, batches = partition(pb, 4, 5)
        bf = batches[0]
        r = bf.qr.r
        theta0 = np.zeros(pb.p)
        eta0 = bf.qr.q.T @ theta0
        want = bf.qr.q.T @ lls_local_exact(bf, theta0, 1.0, pb.n)
        for rtol in (1e-6, 1e-8):
            cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-3)
            sol = rk45_integrate(
                lambda eta: -(r @ (r.T @ eta - bf.y_i)) / pb.n, eta0, (0.0, 1.0), cfg
            )
            rel = np.linalg.norm(sol.y_end - want) / max(np.linalg.norm(want), 1e-30)
            assert rel <= 10 * rtol
