"""Local-step solvers: closed forms, the Kaczmarz limit, reduced rk45 steps.

The closed-form least-squares flow is checked against a tight-tolerance
integration of the original full-space ODE, which shares no code with it.
"""

import copy
import math

import numpy as np
import pytest

from splitopt import (
    BatchFactorization,
    IntegratorConfig,
    Problem,
    RunConfig,
    batch_gradient,
    batch_loss,
    euler_step,
    gen_gaussian_blobs,
    gen_random_lls,
    gen_tomo_like,
    kaczmarz_step,
    lls_local_exact,
    lls_local_unit,
    local_rhs,
    local_step_rk,
    partition,
    rk45_integrate,
    run,
    solvers,
)
from splitopt.linalg import expm_sym
from splitopt.problems import reduced_flow


def integrate_full_space(pb, bf, theta0, h, rtol=1e-10):
    """Oracle: rk45 on the original p-dimensional local ODE."""
    cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-3, max_steps=100_000)
    shape = np.asarray(theta0).shape

    def rhs(v):
        return local_rhs(pb, bf, v.reshape(shape)).ravel()

    sol = rk45_integrate(rhs, np.asarray(theta0).ravel(), h, cfg)
    return sol.y_end.reshape(shape)


class TestLlsLocalExact:
    def test_h_zero_returns_theta0(self):
        pb = gen_random_lls(30, 8, 0.1, 0)
        _, batches = partition(pb, 5, 0)
        theta0 = np.random.default_rng(1).standard_normal(8)
        got = lls_local_exact(batches[0], theta0, 0.0, pb.n)
        np.testing.assert_allclose(got, theta0, atol=1e-14)

    def test_stationary_when_batch_consistent(self):
        pb = gen_random_lls(24, 10, 0.0, 2)
        _, batches = partition(pb, 4, 2)
        for h in (0.5, 3.0, 50.0):
            got = lls_local_exact(batches[1], pb.theta_ref, h, pb.n)
            np.testing.assert_allclose(got, pb.theta_ref, atol=1e-10)

    def test_matches_full_space_integration(self):
        pb = gen_random_lls(200, 50, 0.2, 7)
        _, batches = partition(pb, 20, 7)
        rng = np.random.default_rng(3)
        theta0 = rng.standard_normal(50)
        for h in (0.5, 3.0):
            got = lls_local_exact(batches[0], theta0, h, pb.n)
            want = integrate_full_space(pb, batches[0], theta0, h)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 1e-7

    def test_orthogonal_complement_preserved(self):
        pb = gen_random_lls(40, 12, 0.3, 5)
        _, batches = partition(pb, 4, 5)
        bf = batches[2]
        rng = np.random.default_rng(6)
        theta0 = rng.standard_normal(12)
        for h in (0.1, 1.0, 10.0, 1000.0):
            theta_h = lls_local_exact(bf, theta0, h, pb.n)
            delta = theta_h - theta0
            perp = delta - bf.svd.u @ (bf.svd.u.T @ delta)
            assert np.linalg.norm(perp) <= 1e-10

    def test_semigroup(self):
        pb = gen_random_lls(30, 9, 0.2, 8)
        _, batches = partition(pb, 3, 8)
        bf = batches[0]
        theta0 = np.random.default_rng(2).standard_normal(9)
        one_shot = lls_local_exact(bf, theta0, 2.7, pb.n)
        two_step = lls_local_exact(bf, lls_local_exact(bf, theta0, 1.2, pb.n), 1.5, pb.n)
        np.testing.assert_allclose(one_shot, two_step, atol=1e-10)

    def test_batch_loss_monotone(self):
        pb = gen_random_lls(30, 10, 0.4, 9)
        _, batches = partition(pb, 5, 9)
        bf = batches[1]
        theta0 = np.random.default_rng(4).standard_normal(10)
        before = batch_loss(pb, bf, theta0)
        for h in (0.01, 0.5, 2.0, 100.0):
            after = batch_loss(pb, bf, lls_local_exact(bf, theta0, h, pb.n))
            assert after <= before + 1e-8

    def test_wide_batch_reaches_batch_least_squares(self):
        """With b > p and huge h the step solves the batch's own normal
        equations (used by the single-batch full-data route)."""
        pb = gen_random_lls(30, 5, 0.3, 11)
        _, batches = partition(pb, 30, 11)
        bf = batches[0]
        theta0 = np.zeros(5)
        got = lls_local_exact(bf, theta0, 1e9, pb.n)
        want, *_ = np.linalg.lstsq(bf.x_i, bf.y_i, rcond=None)
        np.testing.assert_allclose(got, want, atol=1e-8)

    @pytest.mark.parametrize(
        "pb, b",
        [(gen_random_lls(200, 50, 0.1, 3), 20), (gen_tomo_like(10, 200, 0), 10)],
        ids=["random-lls", "tomo-like"],
    )
    def test_tall_batch_reaches_block_projection(self, pb, b):
        """With 1 < b < p and h far past the slowest mode, each batch's
        step is the projection of theta_0 onto its solution set."""
        _, batches = partition(pb, b, 0)
        theta0 = np.random.default_rng(5).standard_normal(pb.p)
        for bf in batches:
            r = bf.svd.r
            h = 1e3 * pb.n / np.linalg.eigvalsh(r @ r.T)[0]
            got = lls_local_exact(bf, theta0, h, pb.n)
            want = theta0 + np.linalg.pinv(bf.x_i) @ (bf.y_i - bf.x_i @ theta0)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_batch_with_two_equal_rows_steps_on_its_rank(self):
        """Two equal rows x with targets y1, y2 pull as one row sqrt(2) x with
        target (y1 + y2) / sqrt(2): the SVD keeps rank 1, and the closed
        form is that unit flow, at h = inf its projection."""
        row = np.array([1.0, 2.0, -1.0, 0.5])
        bf = BatchFactorization(x_i=np.stack([row, row]), y_i=np.array([1.0, 2.0]))
        theta0 = np.random.default_rng(2).standard_normal(4)
        for h in (0.3, 1.0, 40.0, math.inf):
            got = lls_local_exact(bf, theta0, h, 10)
            want = lls_local_unit(math.sqrt(2) * row, 3 / math.sqrt(2), theta0, h, 10)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert bf.svd.u.shape == (4, 1) and bf.svd.r.shape == (1, 2)
        assert row @ got == pytest.approx(1.5, rel=1e-14)  # the rows' least-squares value

    @pytest.mark.parametrize("b, rank", [(3, 2), (8, 3)], ids=["tall", "wide"])
    def test_dependent_rows_kaczmarz_is_the_pseudoinverse_projection(self, b, rank):
        """At h = inf on a batch of rank below min(b, p), the step is
        theta_0 + pinv(x_i) (y_i - x_i theta_0), the block Kaczmarz step on
        the batch's numerical rank, below (b = 3) and above (b = 8) the
        feature count, on targets the rows do not fit exactly."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((b, rank)) @ rng.standard_normal((rank, 5))
        bf = BatchFactorization(x_i=x, y_i=rng.standard_normal(b))
        assert len(bf.svd.w) == rank
        theta0 = rng.standard_normal(5)
        want = theta0 + np.linalg.pinv(x, 1e-10) @ (bf.y_i - x @ theta0)
        got = lls_local_exact(bf, theta0, math.inf, 10)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def fresh(bf):
    """The same batch without its kept SVD."""
    return BatchFactorization(x_i=bf.x_i, y_i=bf.y_i)


class TestLlsPlanCache:
    """The spectral plan kept on the batch never changes a step's result."""

    def test_chained_steps_bit_identical_to_uncached(self):
        pb = gen_random_lls(200, 50, 0.2, 7)
        _, batches = partition(pb, 20, 7)
        bf = batches[0]
        cached = uncached = np.random.default_rng(3).standard_normal(50)
        for _ in range(2000):
            cached = lls_local_exact(bf, cached, 0.7, pb.n)
            uncached = lls_local_exact(fresh(bf), uncached, 0.7, pb.n)
            assert np.array_equal(cached, uncached)

    def test_one_plan_serves_every_h_and_n(self):
        pb = gen_random_lls(60, 12, 0.3, 4)
        _, batches = partition(pb, 6, 4)
        bf = batches[1]
        theta = np.random.default_rng(8).standard_normal(12)
        lls_local_exact(bf, theta, 0.5, pb.n)
        plan = bf.svd
        for h, n in ((0.5, pb.n), (4.0, pb.n), (math.inf, pb.n), (0.5, pb.n), (0.5, 2 * pb.n),
                     (1e6, 7)):
            got = lls_local_exact(bf, theta, h, n)
            assert np.array_equal(got, lls_local_exact(fresh(bf), theta, h, n))
            assert bf.svd is plan
            theta = got

    def test_kept_tuple_is_views_of_the_svd_replaced_whole(self):
        """bf.lls_gain = (h/n, u, u^T, gain, z*): u, u^T and z* share the
        kept SVD's memory, no copies, and a new h/n makes a new tuple
        rather than editing the old one."""
        pb = gen_random_lls(60, 12, 0.3, 4)
        bf = partition(pb, 6, 4)[1][0]
        theta = np.random.default_rng(2).standard_normal(12)
        lls_local_exact(bf, theta, 0.5, pb.n)
        kept = bf.lls_gain
        t, u, ut, gain, z_star = kept
        svd = bf.svd
        assert t == 0.5 / pb.n
        assert u is svd.u and z_star is svd.z_star and ut.base is svd.u
        assert np.shares_memory(ut, svd.u) and np.array_equal(ut, svd.u.T)
        assert np.array_equal(gain, np.expm1(-t * svd.w))
        lls_local_exact(bf, theta, 0.5, pb.n)
        assert bf.lls_gain is kept  # same h/n: the tuple is reused
        frozen = [a.copy() for a in kept[1:]]
        lls_local_exact(bf, theta, 2.0, pb.n)
        assert bf.lls_gain is not kept and bf.lls_gain[0] == 2.0 / pb.n
        assert bf.lls_gain[1] is svd.u and np.shares_memory(bf.lls_gain[2], svd.u)
        assert all(np.array_equal(a, b) for a, b in zip(kept[1:], frozen))  # old one intact
        assert not np.array_equal(bf.lls_gain[3], gain)

    def test_negative_h_rejected_with_a_plan_cached(self):
        pb = gen_random_lls(30, 8, 0.1, 0)
        _, batches = partition(pb, 5, 0)
        lls_local_exact(batches[0], np.zeros(8), 1.0, pb.n)
        with pytest.raises(ValueError):
            lls_local_exact(batches[0], np.zeros(8), -1.0, pb.n)

    def test_wide_batch_matches_per_step_formula(self):
        """Wide (b > p), tall, single-row and tomo-like batches against the
        formula that builds the exponential and eta* afresh on every step."""
        cases = {
            "wide": (gen_random_lls(40, 5, 0.3, 12), 10, 2),
            "tall": (gen_random_lls(200, 50, 0.2, 7), 20, 0),
            "single-row": (gen_random_lls(30, 8, 0.1, 0), 1, 3),
            "tomo-like": (gen_tomo_like(10, 200, 0), 10, 1),
        }
        for name, (pb, b, which) in cases.items():
            bf = partition(pb, b, 12)[1][which]
            assert (bf.b > pb.p) == (name == "wide") and (bf.b == 1) == (name == "single-row")
            u, r = bf.svd.u, bf.svd.r
            eta_star = np.linalg.solve(r @ r.T, r @ bf.y_i)
            theta = np.random.default_rng(9).standard_normal(pb.p)
            for h in (0.3, 0.3, 5.0, 0.3, 80.0):
                eta0 = u.T @ theta
                core = expm_sym(r @ r.T, -h / pb.n)
                want = theta + u @ (core @ (eta0 - eta_star) + eta_star - eta0)
                got = lls_local_exact(bf, theta, h, pb.n)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
                theta = got

    def test_run_grid_over_a_shared_partition_makes_m_svds(self, monkeypatch):
        """Twelve serial cells over one problem, six alphas each of
        splitting and SGD, step one partition: m SVDs and no QR in all,
        for least-squares, logistic and softmax problems alike."""
        qrs, svds = [], []
        qr, svd = np.linalg.qr, np.linalg.svd

        def counting_qr(*args, **kwargs):
            qrs.append(args[0].shape)
            return qr(*args, **kwargs)

        def counting_svd(*args, **kwargs):
            svds.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for pb in (gen_random_lls(120, 10, 0.1, 5), gen_gaussian_blobs(120, 10, 2, 3.0, 5),
                   gen_gaussian_blobs(120, 10, 3, 3.0, 5)):
            svds.clear()
            for alpha in (0.001, 0.01, 0.5, 1.0, 20.0, 100.0):
                for method in ("splitting", "sgd"):
                    trace = run(pb, None, RunConfig(method=method, alpha=alpha, batch_size=8,
                                                    seed=5, max_epochs=4))
                    finished = trace.records[-1].iteration == 4 * trace.m
                    assert finished or (method == "sgd" and trace.diverged)
            assert trace.m == 15
            assert svds == [(10, 8)] * trace.m, pb.kind
        assert qrs == []


class TestLlsLocalUnit:
    def test_stationary_on_hyperplane(self):
        x = np.array([1.0, 2.0, -1.0])
        theta0 = np.array([0.5, 0.25, 1.0])  # x . theta0 = 0
        got = lls_local_unit(x, 0.0, theta0, 5.0, 10)
        np.testing.assert_allclose(got, theta0, atol=1e-14)

    def test_matches_general_closed_form(self):
        pb = gen_random_lls(12, 6, 0.2, 13)
        _, batches = partition(pb, 1, 13)
        rng = np.random.default_rng(5)
        theta0 = rng.standard_normal(6)
        for bf in batches[:5]:
            got = lls_local_unit(bf.x_i[0], float(bf.y_i[0]), theta0, 2.5, pb.n)
            want = lls_local_exact(bf, theta0, 2.5, pb.n)
            assert np.linalg.norm(got - want) <= 1e-12 * (1 + np.linalg.norm(want))

    def test_hand_value_half_gap(self):
        """Unit-norm row, n = 1, h = ln 2: the residual gap halves."""
        x = np.array([1.0, 0.0])
        got = lls_local_unit(x, 1.0, np.zeros(2), np.log(2.0), 1)
        np.testing.assert_allclose(got, [0.5, 0.0], atol=1e-14)

    @pytest.mark.parametrize("h", [0.3, math.inf])
    def test_zero_row_matches_exact_step(self, h):
        """A zero row is a batch of rank 0, which the exact step leaves at
        theta_0; the oracle agrees instead of refusing the row."""
        theta0 = np.array([0.5, -1.0, 2.0])
        want = lls_local_exact(BatchFactorization(np.zeros((1, 3)), np.array([1.0])),
                               theta0, h, 4)
        got = lls_local_unit(np.zeros(3), 1.0, theta0, h, 4)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, theta0)
        assert got is not theta0


class TestKaczmarz:
    def test_point_on_hyperplane_is_fixed(self):
        x = np.array([2.0, -1.0])
        theta0 = np.array([1.0, 2.0])  # x . theta0 = 0
        np.testing.assert_allclose(kaczmarz_step(x, 0.0, theta0), theta0)

    def test_coordinate_projection(self):
        got = kaczmarz_step(np.array([1.0, 0.0, 0.0]), 5.0, np.zeros(3))
        np.testing.assert_allclose(got, [5.0, 0.0, 0.0])

    def test_projection_satisfies_equation(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.standard_normal(6)
            y = float(rng.standard_normal())
            theta0 = rng.standard_normal(6)
            theta1 = kaczmarz_step(x, y, theta0)
            assert x @ theta1 == pytest.approx(y, abs=1e-12 * (1 + abs(y)))

    def test_is_large_h_limit_of_unit_flow(self):
        """|theta(h) - kaczmarz| <= |theta0 - kaczmarz| e^{-|x|^2 h / n}."""
        rng = np.random.default_rng(23)
        n = 50
        for _ in range(20):
            x = rng.standard_normal(8)
            y = float(rng.standard_normal())
            theta0 = rng.standard_normal(8)
            proj = kaczmarz_step(x, y, theta0)
            nx2 = float(x @ x)
            for h in (1.0, 10.0):
                flow = lls_local_unit(x, y, theta0, h, n)
                bound = np.linalg.norm(theta0 - proj) * np.exp(-nx2 * h / n)
                assert np.linalg.norm(flow - proj) <= bound * (1 + 1e-12)
            h_big = 100.0 * n / nx2
            flow = lls_local_unit(x, y, theta0, h_big, n)
            assert np.linalg.norm(flow - proj) <= 1e-8 * (1 + np.linalg.norm(theta0))

    def test_zero_row_matches_exact_step(self):
        """On a zero row the projection is the h = inf exact step of that
        rank-0 batch, theta_0 itself."""
        theta0 = np.array([1.0, -2.0])
        want = lls_local_exact(BatchFactorization(np.zeros((1, 2)), np.array([1.0])),
                               theta0, math.inf, 4)
        got = kaczmarz_step(np.zeros(2), 1.0, theta0)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, theta0)
        assert got is not theta0

    def test_exact_step_at_infinite_h_solves_the_batch(self):
        """For b <= p the h = inf least-squares step lands on the batch's
        solution set, x_i theta' = y_i."""
        rng = np.random.default_rng(29)
        for b in (1, 3, 8):
            x_i, y_i = rng.standard_normal((b, 8)), rng.standard_normal(b)
            theta1 = lls_local_exact(BatchFactorization(x_i, y_i), rng.standard_normal(8),
                                     np.inf, 50)
            assert np.linalg.norm(x_i @ theta1 - y_i) <= 1e-10 * np.linalg.norm(y_i)


class TestLocalStepRK:
    def test_h_zero_returns_theta0(self):
        pb = gen_gaussian_blobs(40, 6, 2, 2.0, 3)
        _, batches = partition(pb, 5, 3)
        theta0 = np.random.default_rng(0).standard_normal(6)
        rep = local_step_rk(pb, batches[0], theta0, 0.0)
        np.testing.assert_allclose(rep.y_end, theta0, atol=1e-14)
        assert rep.rhs_evals == 0

    def test_logistic_unit_batch_matches_full_space(self):
        pb = gen_gaussian_blobs(12, 7, 2, 1.5, 4)
        _, batches = partition(pb, 1, 4)
        bf = batches[0]
        theta0 = 0.3 * np.random.default_rng(1).standard_normal(7)
        cfg = IntegratorConfig(rtol=1e-9, atol=1e-12)
        rep = local_step_rk(pb, bf, theta0, 4.0, cfg)
        want = integrate_full_space(pb, bf, theta0, 4.0, rtol=1e-11)
        assert np.linalg.norm(rep.y_end - want) <= 1e-6 * (1 + np.linalg.norm(want))

    def test_softmax_matches_full_space(self):
        pb = gen_gaussian_blobs(30, 6, 3, 1.5, 5)
        _, batches = partition(pb, 4, 5)
        bf = batches[1]
        theta0 = 0.2 * np.random.default_rng(2).standard_normal((6, 3))
        cfg = IntegratorConfig(rtol=1e-9, atol=1e-12)
        rep = local_step_rk(pb, bf, theta0, 3.0, cfg)
        want = integrate_full_space(pb, bf, theta0, 3.0, rtol=1e-11)
        assert np.linalg.norm(rep.y_end - want) <= 1e-6 * (1 + np.linalg.norm(want))

    def test_reduced_state_shape_at_batch_settings(self):
        """A 64-sample, 10-class batch integrates a 64 x 10 reduced state
        when p >= 64 (the state never exceeds min(b, p) x K)."""
        pb = gen_gaussian_blobs(128, 80, 10, 3.0, 6)
        _, batches = partition(pb, 64, 6)
        assert batches[0].svd.u.shape == (80, 64)
        rep = local_step_rk(pb, batches[0], np.zeros((80, 10)), 0.5)
        assert rep.y_end.shape == (80, 10)

    def test_batch_loss_monotone(self):
        pb = gen_gaussian_blobs(60, 5, 2, 2.0, 7)
        _, batches = partition(pb, 10, 7)
        theta0 = 0.5 * np.random.default_rng(3).standard_normal(5)
        for bf in batches[:3]:
            theta1 = local_step_rk(pb, bf, theta0, 5.0).y_end
            assert batch_loss(pb, bf, theta1) <= batch_loss(pb, bf, theta0) + 1e-8

    def test_orthogonal_complement_preserved(self):
        pb = gen_gaussian_blobs(40, 9, 2, 2.0, 8)
        _, batches = partition(pb, 3, 8)
        bf = batches[0]
        theta0 = np.random.default_rng(4).standard_normal(9)
        rep = local_step_rk(pb, bf, theta0, 2.0)
        delta = rep.y_end - theta0
        perp = delta - bf.svd.u @ (bf.svd.u.T @ delta)
        assert np.linalg.norm(perp) <= 1e-10

    def test_least_squares_routed_elsewhere(self):
        pb = gen_random_lls(10, 5, 0.0, 9)
        _, batches = partition(pb, 2, 9)
        with pytest.raises(ValueError):
            local_step_rk(pb, batches[0], np.zeros(5), 1.0)

    @pytest.mark.parametrize("k, b", [(2, 50), (10, 64)], ids=["logistic", "softmax"])
    def test_warm_start_spends_less_and_agrees(self, k, b):
        """Revisiting a batch after another batch's step, as an epoch does,
        from the first visit's proposal: fewer evaluations than a cold start
        from the same point, the same flow within tolerance."""
        pb = gen_gaussian_blobs(400, 20, k, 4.0, 8)
        part, batches = partition(pb, b, 1)
        cfg = IntegratorConfig()
        h = 1.0 * part.m
        bf = batches[0]
        theta = 0.01 * np.random.default_rng(0).standard_normal((20, k) if k > 2 else 20)
        first = local_step_rk(pb, bf, theta, h, cfg)
        assert first.h_next > 0
        theta = local_step_rk(pb, batches[1], first.y_end, h, cfg).y_end
        warm = local_step_rk(pb, bf, theta, h, cfg, h_init=first.h_next)
        cold = local_step_rk(pb, bf, theta, h, cfg)
        assert warm.rhs_evals < cold.rhs_evals
        scale = 1 + np.linalg.norm(cold.y_end)
        assert np.linalg.norm(warm.y_end - cold.y_end) <= 10 * cfg.rtol * scale
        assert warm.h_next > 0 and warm.h_next != first.h_next

    def test_leaves_the_batch_unchanged(self):
        pb = gen_gaussian_blobs(40, 6, 2, 2.0, 3)
        _, batches = partition(pb, 5, 3)
        bf = batches[0]
        before = copy.deepcopy(bf)
        theta = np.zeros(6)
        for h_init in (0.0, 1e-3):
            rep = local_step_rk(pb, bf, theta, 2.0, IntegratorConfig(), h_init)
            assert rep.h_next > 0
            theta = rep.y_end
        # The SVD and the flow's constants, tagged with (kind, n), are all it keeps.
        assert vars(bf).keys() == vars(before).keys() | {"svd"} and bf.lls_gain is None
        assert before.flow_consts is None and bf.flow_consts[0] == ("logistic", pb.n)
        for got, want in ((bf.x_i, before.x_i), (bf.y_i, before.y_i),
                          (bf.svd.u, before.svd.u), (bf.svd.r, before.svd.r)):
            assert np.array_equal(got, want)

    def test_one_clipped_step_proposes_nothing(self):
        """A step whose span one shortened integrator step covers reports
        no proposal, and spends f(y0) and the attempt's five evaluations:
        the step ends at its span end, so no k_1 is made there."""
        pb = gen_gaussian_blobs(40, 6, 2, 2.0, 3)
        _, batches = partition(pb, 5, 3)
        rep = local_step_rk(pb, batches[0], np.zeros(6), 1e-3, h_init=50.0)
        assert rep.rhs_evals == 6 and rep.h_next == 0.0


class TestFoldedFlow:
    """The RK local step integrates the batch's folded ``reduced_flow``;
    these tests hold it to the plain formula -(1/n) r (pred(r^T eta) - y_i)."""

    @staticmethod
    def plain_rhs(pb, bf):
        """The reduced flow as written, with scores laid out b x K."""
        r, y, n = bf.svd.r, bf.y_i, pb.n
        if pb.kind == "logistic":
            return lambda v: -(r @ (1.0 / (1.0 + np.exp(-(r.T @ v))) - y)) / n
        shape = (r.shape[0], pb.k)

        def rhs(v):
            s = r.T @ v.reshape(shape)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            return (-(r @ (e / e.sum(axis=1, keepdims=True) - y)) / n).ravel()

        return rhs

    @pytest.mark.parametrize(
        "k, p, b",
        [(2, 20, 50), (10, 20, 64), (2, 6, 40), (3, 6, 40), (2, 20, 8), (3, 20, 8)],
        ids=["classify-logistic", "classify-softmax", "wide-logistic", "wide-softmax",
             "tall-logistic", "tall-softmax"],
    )
    def test_local_step_matches_the_plain_formula(self, monkeypatch, k, p, b):
        """The same rk45_integrate run on the plain right-hand side: theta
        to 1e-12 relative, and the same evaluations and step counts.  The
        classify shapes (p = 20, logistic b = 50, softmax b = 64 and K = 10)
        are wide batches, b > p; the tall ones have b < p."""
        pb = gen_gaussian_blobs(8 * b, p, k, 4.0, 8)
        part, batches = partition(pb, b, 1)
        bf = batches[0]
        h = 10.0 * part.m
        rng = np.random.default_rng(k + p + b)
        theta0 = 0.01 * rng.standard_normal((p, k) if k > 2 else p)
        sols = []

        def recording(*args, **kwargs):
            sols.append(rk45_integrate(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(solvers, "rk45_integrate", recording)
        rep = local_step_rk(pb, bf, theta0, h)
        u = bf.svd.u
        eta0 = u.T @ theta0
        want = rk45_integrate(self.plain_rhs(pb, bf), eta0.ravel(), h)
        theta = theta0 + u @ (want.y_end.reshape(eta0.shape) - eta0)
        assert np.linalg.norm(rep.y_end - theta) <= 1e-12 * np.linalg.norm(theta)
        (got,) = sols
        assert got.steps_taken > 3
        assert ((got.rhs_evals, got.steps_taken, got.rejected_steps)
                == (want.rhs_evals, want.steps_taken, want.rejected_steps))

    def test_softmax_scores_near_1e3_stay_finite(self):
        """Scores of +-1e3 overflow exp unless each column is shifted by its
        maximum first; the folded flow shifts and matches the full-space one."""
        pb = gen_gaussian_blobs(640, 20, 10, 4.0, 42)
        part, batches = partition(pb, 64, 1)
        bf = batches[0]
        theta = np.random.default_rng(7).standard_normal((20, 10))
        theta *= 1e3 / np.max(np.abs(bf.x_i @ theta))
        assert np.max(np.abs(bf.x_i @ theta)) == pytest.approx(1e3)
        u = bf.svd.u
        with np.errstate(over="raise", invalid="raise"):
            got = reduced_flow(pb, bf)((u.T @ theta).ravel())
            rep = local_step_rk(pb, bf, theta, 1.0 * part.m)
        want = (u.T @ local_rhs(pb, bf, theta)).ravel()
        assert np.isfinite(got).all() and np.isfinite(rep.y_end).all()
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestEulerStep:
    def test_fixed_point_at_zero_gradient(self):
        pb = gen_random_lls(20, 6, 0.0, 10)
        _, batches = partition(pb, 4, 10)
        got = euler_step(pb, batches[0], pb.theta_ref, 0.7)
        np.testing.assert_allclose(got, pb.theta_ref, atol=1e-12)

    def test_equals_euler_on_local_ode_at_h_alpha_m(self):
        """theta - alpha grad_batch == theta + (alpha m) local_rhs when the
        batches are uniform (n = m b)."""
        pb = gen_random_lls(40, 8, 0.2, 11)
        part, batches = partition(pb, 8, 11)
        m = part.m
        rng = np.random.default_rng(5)
        theta0 = rng.standard_normal(8)
        alpha = 0.3
        for bf in batches:
            sgd = euler_step(pb, bf, theta0, alpha)
            euler_local = theta0 + (alpha * m) * local_rhs(pb, bf, theta0)
            assert np.max(np.abs(sgd - euler_local)) <= 1e-14 * (1 + np.max(np.abs(sgd)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_is_theta_minus_alpha_batch_gradient_bitwise(self, k):
        """euler_step does batch_gradient's arithmetic inline, so the two
        agree bit for bit on every problem kind."""
        pb = gen_random_lls(24, 6, 0.2, 11) if k == 1 else gen_gaussian_blobs(24, 6, k, 3.0, 11)
        rng = np.random.default_rng(4)
        for bf in partition(pb, 7, 11)[1]:
            theta0 = rng.standard_normal((6, 3) if k == 3 else 6)
            want = theta0 - 0.3 * batch_gradient(pb, bf, theta0)
            assert np.array_equal(euler_step(pb, bf, theta0, 0.3), want)

    def test_hand_value_two_batch_1d(self):
        """X = (1; 1), y = (1, -1), theta0 = 0: step on the first batch at
        alpha = 0.1 moves to 0.1 * 1 * (1 - 0) = 0.1."""
        pb = Problem("least-squares", np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
        _, batches = partition(pb, 1, 0)
        bf = next(b for b in batches if b.y_i[0] == 1.0)
        got = euler_step(pb, bf, np.zeros(1), 0.1)
        np.testing.assert_allclose(got, [0.1], atol=1e-15)


class TestFirstOrderConsistency:
    def test_euler_error_is_second_order_in_h(self):
        """||exact(h) - (theta0 + h f(theta0))|| = O(h^2): log-log slope
        about 2 across four decades of h."""
        pb = gen_random_lls(60, 12, 0.3, 12)
        _, batches = partition(pb, 6, 12)
        bf = batches[0]
        theta0 = np.random.default_rng(6).standard_normal(12)
        hs = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        errs = []
        for h in hs:
            exact = lls_local_exact(bf, theta0, h, pb.n)
            euler = theta0 + h * local_rhs(pb, bf, theta0)
            errs.append(np.linalg.norm(exact - euler))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 1.9


def _lls_batch():
    pb = gen_random_lls(30, 4, 0.1, 0)
    return pb, partition(pb, 5, 0)[1][0]


def _blob_batch():
    pb = gen_gaussian_blobs(40, 3, 2, 4.0, 0)
    return pb, partition(pb, 8, 0)[1][0]


@pytest.mark.parametrize("call, bad", [
    (lambda t: rk45_integrate(lambda y: -y, [1.0], t), math.inf),
    (lambda t: rk45_integrate(lambda y: -y, [1.0], t), math.nan),
    (lambda t: rk45_integrate(lambda y: -y, [1.0], -t), math.inf),
    (lambda h: local_step_rk(*_blob_batch(), np.zeros(3), h), math.inf),
    (lambda h: local_step_rk(*_blob_batch(), np.zeros(3), h), math.nan),
    (lambda h: lls_local_exact(_lls_batch()[1], np.zeros(4), h, 30), math.nan),
    (lambda h: lls_local_unit(np.ones(4), 1.0, np.zeros(4), h, 30), math.nan),
    (lambda a: euler_step(*_lls_batch(), np.zeros(4), a), math.nan),
    (lambda a: euler_step(*_lls_batch(), np.zeros(4), a), math.inf),
    (lambda t: rk45_integrate(lambda y: -y, [1.0], t), True),
    (lambda h: local_step_rk(*_blob_batch(), np.zeros(3), h), True),
    (lambda a: euler_step(*_lls_batch(), np.zeros(4), a), True),
], ids=["rk45-inf", "rk45-nan", "rk45-start", "rk-step-inf", "rk-step-nan", "exact-nan",
        "unit-nan", "euler-nan", "euler-inf", "rk45-bool", "rk-step-bool", "euler-bool"])
def test_non_finite_local_time_is_rejected(call, bad):
    """A local time or learning rate that is NaN (or, for an integration
    or an SGD step, infinite) raises and names the value instead of
    returning a wrong, infinite or all-NaN theta.  Those three are checked
    as a config's reals are (``ode._check_real``), so True, which compares
    as 1, is refused too."""
    with pytest.raises(ValueError, match=repr(bad)):
        call(bad)


@pytest.mark.parametrize("x_i, y_i", [
    ([[1.0, math.inf], [0.0, 1.0]], [1.0, 0.0]),
    ([[1.0, math.nan], [0.0, 1.0]], [1.0, 0.0]),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, math.nan]),
], ids=["inf-in-x", "nan-in-x", "nan-in-y"])
def test_non_finite_batch_is_rejected(x_i, y_i):
    """A hand-built batch with a non-finite entry raises a ValueError that
    says so, from the closed-form and the RK step alike, before any SVD."""
    logistic = Problem("logistic", np.eye(2), np.array([1.0, 0.0]))
    for step in (lambda bf: lls_local_exact(bf, np.zeros(2), 1.0, 2),
                 lambda bf: local_step_rk(logistic, bf, np.zeros(2), 1.0)):
        bf = BatchFactorization(np.array(x_i), np.array(y_i))
        with pytest.raises(ValueError, match="non-finite"):
            step(bf)
        assert "svd" not in vars(bf)
