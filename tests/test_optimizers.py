"""Training loops: equivalences, stopping, determinism, stability."""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from splitopt import (
    IntegratorConfig,
    Problem,
    RunConfig,
    StoppingRule,
    check_run,
    gen_gaussian_blobs,
    gen_random_lls,
    kaczmarz_step,
    lls_local_exact,
    lls_local_unit,
    local_rhs,
    local_step_rk,
    partition,
    random_full_rank,
    run,
)
from splitopt.errors import DimensionMismatch, MissingReference, RankDeficient
from splitopt.linalg import RANK_TOL, economy_qr


def residual(pb, theta):
    return np.linalg.norm(pb.x @ theta - pb.targets) / np.linalg.norm(pb.targets)


class TestRunBasics:
    def test_trace_metadata_and_shape(self):
        # 42 samples in batches of 8 leave a short sixth batch.
        for n, m in ((40, 5), (42, 6)):
            pb = gen_random_lls(n, 8, 0.1, 0)
            cfg = RunConfig(method="splitting", alpha=0.5, batch_size=8, seed=1, max_epochs=4)
            trace = run(pb, None, cfg)
            assert trace.method == "splitting"
            assert trace.m == m
            assert trace.h == pytest.approx(0.5 * m)
            assert trace.theta.shape == (8,)
            # One record at the start, one at the end of each epoch.
            assert trace.iterations().tolist() == [e * m for e in range(5)]
            assert [r.epoch for r in trace.records] == list(range(5))

    def test_deterministic_given_config(self):
        pb = gen_random_lls(30, 6, 0.2, 1)
        cfg = RunConfig(method="sgd", alpha=0.05, batch_size=5, seed=3, max_epochs=6)
        t1 = run(pb, None, cfg)
        t2 = run(pb, None, cfg)
        assert np.array_equal(t1.theta, t2.theta)
        assert t1.losses().tolist() == t2.losses().tolist()

    def test_splitting_loss_decreases_every_epoch_noise_free(self):
        for seed in range(5):
            pb = gen_random_lls(60, 10, 0.0, seed)
            cfg = RunConfig(
                method="splitting", alpha=0.2, batch_size=10, seed=seed, max_epochs=8
            )
            losses = run(pb, None, cfg).losses()
            assert np.all(np.diff(losses) < 0)

    def test_explicit_theta0(self):
        pb = gen_random_lls(20, 4, 0.0, 2)
        cfg = RunConfig(method="splitting", alpha=1.0, batch_size=4, seed=0, max_epochs=1)
        trace = run(pb, None, cfg, theta0=pb.theta_ref)
        assert trace.records[0].loss == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("scale", [float("nan"), -1.0])
    def test_bad_init_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="init_scale"):
            RunConfig(method="sgd", alpha=0.1, batch_size=8, max_epochs=3, init_scale=scale)

    def test_theta0_is_checked_and_copied(self):
        pb = gen_random_lls(20, 4, 0.0, 2)
        cfg = RunConfig(method="sgd", alpha=0.1, batch_size=4, seed=0, max_epochs=2,
                        stop=StoppingRule("loss-threshold", 1e9))
        with pytest.raises(DimensionMismatch):
            run(pb, None, cfg, theta0=np.zeros(5))
        theta0 = np.ones(4)
        trace = run(pb, None, cfg, theta0=theta0)
        assert trace.stopped and trace.records[-1].epoch == 0
        assert np.array_equal(trace.theta, theta0)
        assert not np.shares_memory(trace.theta, theta0)

    def test_single_full_batch_huge_h_solves_least_squares(self):
        """One batch covering the data with a huge step lands on the
        least-squares solution (normal-equations oracle)."""
        pb = gen_random_lls(30, 5, 0.3, 4)
        cfg = RunConfig(
            method="splitting", alpha=1e9, batch_size=30, seed=0, max_epochs=1
        )
        trace = run(pb, None, cfg, theta0=np.zeros(5))
        want, *_ = np.linalg.lstsq(pb.x, pb.targets, rcond=None)
        np.testing.assert_allclose(trace.theta, want, atol=1e-7)

    def test_two_batch_epoch_composes_unit_flows(self):
        """An epoch on the 1-D two-row system equals the hand composition
        of the two single-row closed-form flows in visit order."""
        pb = Problem("least-squares", np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
        cfg = RunConfig(method="splitting", alpha=0.1, batch_size=1, seed=5, max_epochs=1)
        trace = run(pb, None, cfg, theta0=np.zeros(1))
        part, batches = partition(pb, 1, 5)
        h = 0.1 * part.m
        theta = np.zeros(1)
        for idx in part.epoch_order(0):
            bf = batches[idx]
            theta = lls_local_unit(bf.x_i[0], float(bf.y_i[0]), theta, h, pb.n)
        np.testing.assert_allclose(trace.theta, theta, atol=1e-14)

    def test_classification_run_with_test_error_stop(self):
        data = gen_gaussian_blobs(400, 5, 2, 6.0, 8)
        train = Problem(data.kind, data.x[:300], data.targets[:300])
        hold = Problem(data.kind, data.x[300:], data.targets[300:])
        cfg = RunConfig(
            method="splitting",
            alpha=1.0,
            batch_size=50,
            seed=0,
            max_epochs=30,
            stop=StoppingRule("test-error", 0.05),
        )
        trace = run(train, hold, cfg)
        assert trace.stopped
        assert trace.records[-1].metric <= 0.05

    def test_loss_is_evaluated_once_per_record(self, monkeypatch):
        """The divergence baseline is record 0's loss, not a second
        evaluation at the same point."""
        import splitopt.optimizers

        calls = []
        real = splitopt.optimizers.loss
        monkeypatch.setattr(splitopt.optimizers, "loss",
                            lambda pb, theta: calls.append(1) or real(pb, theta))
        pb = gen_random_lls(40, 5, 0.1, 0)
        trace = run(pb, None, RunConfig(method="splitting", alpha=0.5, batch_size=8,
                                        seed=1, max_epochs=4))
        assert len(calls) == len(trace.records) == 5
        diverging = run(pb, None, RunConfig(method="sgd", alpha=50.0, batch_size=8,
                                            seed=1, max_epochs=50))
        assert diverging.diverged and not diverging.records[0].diverged

    def test_rhs_evals_sum_the_rk_local_steps(self, monkeypatch):
        import splitopt.optimizers

        spent = []
        real = splitopt.optimizers.local_step_rk

        def counted(*args):
            rep = real(*args)
            spent.append(rep.rhs_evals)
            return rep

        monkeypatch.setattr(splitopt.optimizers, "local_step_rk", counted)
        blobs = gen_gaussian_blobs(60, 4, 3, 3.0, 2)
        lls = gen_random_lls(40, 5, 0.1, 0)
        cfg = RunConfig(method="splitting", alpha=1.0, batch_size=10, seed=0, max_epochs=3)
        trace = run(blobs, None, cfg)
        assert len(spent) == 18 and trace.rhs_evals == sum(spent) > 0
        assert run(blobs, None, dataclasses.replace(cfg, method="sgd")).rhs_evals == 0
        assert run(lls, None, cfg).rhs_evals == 0
        assert len(spent) == 18

    def test_rk_steps_start_from_the_runs_last_proposal(self, monkeypatch):
        """Each RK local step starts from the last positive proposal this
        run's steps on its batch reported; ``h_init`` serves first visits
        only, and a step that proposes nothing leaves the start as it was."""
        import splitopt.optimizers

        real = splitopt.optimizers.local_step_rk
        visits = []

        def proposing_nothing_every_third(pb, bf, theta, h, cfg):
            rep = real(pb, bf, theta, h, cfg)
            if len(visits) % 3 == 2:
                rep = dataclasses.replace(rep, h_next=0.0)
            visits.append((id(bf), cfg.h_init, rep.h_next))
            return rep

        monkeypatch.setattr(splitopt.optimizers, "local_step_rk", proposing_nothing_every_third)
        blobs = gen_gaussian_blobs(60, 4, 3, 3.0, 2)
        cfg = RunConfig(method="splitting", alpha=1.0, batch_size=10, seed=0, max_epochs=4,
                        integrator=IntegratorConfig(h_init=1e-3))
        for _ in range(2):  # a second run over the same batches starts afresh
            visits.clear()
            run(blobs, None, cfg)
            assert len(visits) == 24
            last, prev, kept = {}, {}, 0
            for batch, h_init, h_next in visits:
                assert h_init == last.get(batch, 1e-3)
                kept += prev.get(batch) == 0.0 and batch in last
                prev[batch] = h_next
                if h_next > 0:
                    last[batch] = h_next
            assert kept > 0 and len(last) == 6


class TestTailAverage:
    def setup_method(self):
        self.pb = gen_random_lls(60, 6, 0.1, 4)
        self.cfg = RunConfig(
            method="splitting",
            alpha=1.0,
            batch_size=6,
            seed=3,
            max_epochs=5,
            stop=StoppingRule("relative-residual", 1e-12),
        )
        self.theta0 = np.random.default_rng(0).standard_normal(6)

    def epoch_ends(self):
        """The epoch-end iterates, composed by hand in visit order."""
        part, batches = partition(self.pb, 6, 3)
        h = self.cfg.alpha * part.m
        theta, ends = self.theta0, []
        for epoch in range(self.cfg.max_epochs):
            for idx in part.epoch_order(epoch):
                theta = lls_local_exact(batches[idx], theta, h, self.pb.n)
            ends.append(theta)
        return ends

    def test_five_epochs_report_the_mean_of_epochs_three_to_five(self):
        trace = run(self.pb, None, self.cfg, self.theta0)
        ends = self.epoch_ends()
        want = np.mean(ends[2:], axis=0)
        np.testing.assert_allclose(trace.theta, want, rtol=0, atol=1e-14)
        assert np.max(np.abs(ends[-1] - want)) > 1e-6  # not the last iterate

    def test_each_epoch_records_the_mean_of_its_last_half(self):
        trace = run(self.pb, None, self.cfg, self.theta0)
        ends = self.epoch_ends()
        for epoch in range(1, self.cfg.max_epochs + 1):
            tail = ends[epoch // 2 : epoch]  # the last ceil(epoch / 2)
            want = residual(self.pb, np.mean(tail, axis=0))
            assert trace.records[epoch].metric == pytest.approx(want, rel=1e-12)

    def test_last_record_measures_the_reported_theta(self):
        trace = run(self.pb, None, self.cfg, self.theta0)
        last = trace.records[-1]
        assert last.metric == pytest.approx(residual(self.pb, trace.theta), rel=1e-12)
        assert last.loss == pytest.approx(
            0.5 * np.mean((self.pb.x @ trace.theta - self.pb.targets) ** 2), rel=1e-12
        )


class TestRunPartition:
    def test_every_method_but_sgd_factors_the_batches(self, monkeypatch):
        """check_run factors each batch before the run's clock starts: one
        SVD per batch for least-squares splitting and Kaczmarz and for
        logistic and softmax splitting, no QR, and SGD factors nothing."""
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
        pb = gen_random_lls(20, 4, 0.1, 1)
        for alpha in (0.01, 0.1, 1.0):
            run(pb, None, RunConfig(method="sgd", alpha=alpha, batch_size=5, seed=0,
                                    max_epochs=2))
        assert svds == [] and all("svd" not in vars(bf) for bf in partition(pb, 5, 0)[1])
        for method, b in (("splitting", 5), ("kaczmarz", 1)):
            check_run(pb, None, RunConfig(method=method, alpha=0.1, batch_size=b, seed=0))
            assert all("svd" in vars(bf) for bf in partition(pb, b, 0)[1])
        assert svds == [(4, 5)] * 4 + [(4, 1)] * 20
        for k in (2, 3):
            svds.clear()
            blobs = gen_gaussian_blobs(20, 4, k, 3.0, 1)
            check_run(blobs, None, RunConfig(method="splitting", alpha=0.1, batch_size=5, seed=0))
            assert svds == [(4, 5)] * 4
        assert qrs == []

    @pytest.mark.parametrize(
        "kind, method",
        [("least-squares", "splitting"), ("least-squares", "kaczmarz"),
         ("logistic", "splitting"), ("softmax", "splitting")],
        ids=["splitting", "kaczmarz", "logistic", "softmax"],
    )
    def test_unit_batch_with_a_zero_row_is_a_check_run_error(self, kind, method):
        x = np.random.default_rng(4).standard_normal((8, 3))
        x[5] = 0.0
        targets = np.eye(3)[np.arange(8) % 3] if kind == "softmax" else np.ones(8)
        pb = Problem(kind, x, targets)
        with pytest.raises(RankDeficient):
            check_run(pb, None, RunConfig(method=method, alpha=0.1, batch_size=1, seed=0))

    def test_one_rank_rule_for_every_kind(self):
        """Two rows at an angle of 1.5e-10: a QR of either order keeps both
        diagonal entries above RANK_TOL * ||x||_F, but s_min is below it, so
        a logistic batch is rejected as a least-squares one is."""
        x = np.array([[1.0, 0.0, 0.0], [1.0, 1.5e-10, 0.0]])
        for rows in (x, x[::-1]):
            economy_qr(rows.T)  # the diagonal test accepts it
        assert np.linalg.svd(x, compute_uv=False)[-1] < RANK_TOL * np.linalg.norm(x)
        for kind in ("least-squares", "logistic"):
            pb = Problem(kind, x, np.array([1.0, 0.0]))
            with pytest.raises(RankDeficient):
                check_run(pb, None, RunConfig(method="splitting", alpha=0.1, batch_size=2, seed=0))

    def test_threads_sharing_a_partition_match_serial_runs(self, monkeypatch):
        """Runs at different h over one problem step its one partition,
        share each batch's h-independent SVD and keep their own step-size
        proposals, so threads interleaving their steps change nothing:
        least squares (closed form) and logistic (RK with warm starts)."""
        import splitopt.optimizers

        real, stepped = splitopt.optimizers.partition, []

        def recording(pb, b, seed):
            got = real(pb, b, seed)
            stepped.append(got[1])
            return got

        monkeypatch.setattr(splitopt.optimizers, "partition", recording)
        for make in (lambda: gen_random_lls(60, 6, 0.1, 3),
                     lambda: gen_gaussian_blobs(60, 6, 2, 3.0, 3)):
            cfgs = [
                RunConfig(method=m, alpha=a, batch_size=6, seed=2, max_epochs=6)
                for a in (0.01, 0.1, 1.0, 10.0) for m in ("splitting", "sgd")
            ]
            serial_pb = make()
            serial = [run(serial_pb, None, c) for c in cfgs]
            pb = make()
            stepped.clear()
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(run, pb, None, c) for c in cfgs]
                    threaded = [f.result(timeout=60) for f in futures]
            finally:
                sys.setswitchinterval(old)
            for want, got in zip(serial, threaded):
                assert want.losses().tolist() == got.losses().tolist()
                assert np.array_equal(want.theta, got.theta)
                assert want.rhs_evals == got.rhs_evals
            batches = partition(pb, 6, 2)[1]
            assert len(stepped) >= len(cfgs) and all(b is batches for b in stepped)
            assert all("svd" in vars(bf) for bf in batches)

    def test_run_ignores_slots_left_on_a_shared_partition(self):
        """Steps taken on a problem's batches outside a run leave their
        plans there; a run over that problem gives the same trace."""
        for make in (lambda: gen_random_lls(60, 6, 0.1, 3),
                     lambda: gen_gaussian_blobs(60, 6, 2, 3.0, 3)):
            cfg = RunConfig(method="splitting", alpha=1.0, batch_size=6, seed=2, max_epochs=3)
            want = run(make(), None, cfg)
            pb = make()
            for bf in partition(pb, 6, 2)[1]:
                if pb.kind == "least-squares":
                    lls_local_exact(bf, np.zeros(6), 0.5, pb.n)
                else:
                    local_step_rk(pb, bf, np.zeros(6), 0.5)
            got = run(pb, None, cfg)
            assert want.losses().tolist() == got.losses().tolist()
            assert want.rhs_evals == got.rhs_evals


class TestSgdSplittingIdentity:
    def test_euler_local_steps_reproduce_sgd(self):
        """Swapping each local solve for one Euler step of the local ODE at
        h = alpha m reproduces the SGD trajectory iterate by iterate."""
        pb = gen_random_lls(200, 20, 0.1, 42)
        alpha, b, seed, epochs = 0.05, 20, 11, 3
        part, batches = partition(pb, b, seed)
        h = alpha * part.m
        rng_init = np.random.default_rng([11, 3])
        theta_sgd = 0.01 * rng_init.standard_normal(20)
        theta_split = theta_sgd.copy()
        from splitopt import euler_step

        for epoch in range(epochs):
            for idx in part.epoch_order(epoch):
                bf = batches[idx]
                theta_sgd = euler_step(pb, bf, theta_sgd, alpha)
                theta_split = theta_split + h * local_rhs(pb, bf, theta_split)
                gap = np.max(np.abs(theta_sgd - theta_split))
                assert gap <= 1e-12 * max(1.0, np.max(np.abs(theta_sgd)))
        # and run(method="sgd") is that same trajectory
        cfg = RunConfig(method="sgd", alpha=alpha, batch_size=b, seed=seed, max_epochs=epochs)
        trace = run(pb, None, cfg)
        np.testing.assert_allclose(trace.theta, theta_sgd, atol=1e-12)


class TestKaczmarzRuns:
    @staticmethod
    def hand_sweep(pb, b, epochs, project):
        """``epochs`` sweeps of ``project(x_i, y_i, theta)`` over the run's
        batches and epoch orders, from the run's initial theta."""
        part, batches = partition(pb, b, 0)
        theta = 0.01 * np.random.default_rng([0, 3]).standard_normal(pb.p)
        for epoch in range(epochs):
            for idx in part.epoch_order(epoch):
                theta = project(batches[idx].x_i, batches[idx].y_i, theta)
        return theta

    def test_requires_least_squares(self):
        pb = gen_gaussian_blobs(20, 3, 2, 3.0, 0)
        with pytest.raises(ValueError, match="least-squares"):
            run(pb, None, RunConfig(method="kaczmarz", alpha=1.0, batch_size=1, seed=0))

    def test_unit_batches_sweep_kaczmarz_projections(self):
        """At b = 1 the h = inf splitting step is the row projection."""
        pb = gen_random_lls(200, 20, 0.01, 2)
        trace = run(pb, None, RunConfig(method="kaczmarz", batch_size=1, seed=0, max_epochs=3))
        want = self.hand_sweep(pb, 1, 3, lambda x, y, th: kaczmarz_step(x[0], float(y[0]), th))
        assert trace.h == math.inf
        np.testing.assert_allclose(trace.theta, want, rtol=0,
                                   atol=1e-12 * np.linalg.norm(want))

    def test_block_batches_sweep_pseudoinverse_projections(self):
        """At b > 1 it is block Kaczmarz, theta - pinv(x_i)(x_i theta - y_i),
        below (b = 4) and above (b = 30) the feature count."""
        pb = gen_random_lls(120, 20, 0.01, 5)
        for b in (4, 30):
            trace = run(pb, None, RunConfig(method="kaczmarz", batch_size=b, seed=0,
                                            max_epochs=3))
            want = self.hand_sweep(
                pb, b, 3, lambda x, y, th: th - np.linalg.pinv(x) @ (x @ th - y)
            )
            np.testing.assert_allclose(trace.theta, want, rtol=0,
                                       atol=1e-12 * np.linalg.norm(want))

    def test_consistent_square_system_converges(self):
        """Each projection, onto a row's hyperplane (b = 1) or a block's
        solution set (b = 3), is non-expansive toward the solution, so the
        per-sweep distance to theta* never grows (the residual norm itself
        can wiggle between sweeps) and the run converges."""
        x = random_full_rank(12, 3, sigma_min=5.0, sigma_max=10.0)
        theta_star = np.random.default_rng(3).standard_normal(12)
        pb = Problem("least-squares", x, x @ theta_star, theta_ref=theta_star)
        for b in (1, 3):
            cfg = RunConfig(
                method="kaczmarz",
                alpha=1.0,
                batch_size=b,
                seed=2,
                max_epochs=200,
                stop=StoppingRule("solution-distance", 1e-13),
            )
            trace = run(pb, None, cfg, theta0=np.zeros(12))
            dist = trace.metrics()
            assert np.all(np.diff(dist) <= 1e-12)
            res = np.sqrt(trace.losses())
            assert res[-1] < 1e-6 * res[0]


class TestStability:
    def test_splitting_never_diverges_sgd_does(self):
        """Exact local flows are unconditionally stable in the step size;
        explicit Euler is not."""
        pb = gen_random_lls(120, 12, 1e-4, 21)
        sgd_diverged = []
        for alpha in (1e-3, 1e-1, 1e1, 1e3):
            split_cfg = RunConfig(
                method="splitting", alpha=alpha, batch_size=12, seed=0, max_epochs=12
            )
            split_trace = run(pb, None, split_cfg)
            assert not split_trace.diverged
            sgd_cfg = dataclasses.replace(split_cfg, method="sgd")
            sgd_diverged.append(run(pb, None, sgd_cfg).diverged)
        assert sgd_diverged[-1]  # Euler at alpha = 1000 blows up

    def test_splitting_reaches_residual_for_every_alpha_low_noise(self):
        """The robustness pattern: with the noise floor far below the
        threshold, splitting meets a 1e-3 relative residual at every alpha
        across five orders of magnitude, while SGD has a divergence edge."""
        pb = gen_random_lls(300, 30, 1e-4, 2)
        stop = StoppingRule("relative-residual", 1e-3)
        reached = []
        for alpha in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2):
            cfg = RunConfig(
                method="splitting",
                alpha=alpha,
                batch_size=10,
                seed=0,
                max_epochs=2000,
                stop=stop,
            )
            trace = run(pb, None, cfg)
            reached.append(trace.stopped)
        assert all(reached)
        sgd = run(
            pb,
            None,
            RunConfig(
                method="sgd", alpha=1e1, batch_size=10, seed=0, max_epochs=50, stop=stop
            ),
        )
        assert sgd.diverged

    def test_default_tolerance_reaches_scaled_softmax_target(self):
        """Ten-class blobs with column j scaled by geomspace(1, 100, 20)[j]
        (the scaled instance of demos/softmax_local_accuracy.py): splitting
        at the default local tolerance reaches test error 0.05 within 30
        epochs at every alpha.  At rtol 1e-1 it never does."""
        data = gen_gaussian_blobs(4000, 20, 10, 4.0, 42)
        x = data.x * np.geomspace(1, 100, 20)
        train = Problem(data.kind, x[:2000], data.targets[:2000])
        hold = Problem(data.kind, x[2000:], data.targets[2000:])
        stop = StoppingRule("test-error", 0.05)
        for alpha in (0.1, 1.0, 10.0):
            cfg = RunConfig(method="splitting", alpha=alpha, batch_size=64, seed=42,
                            max_epochs=30, stop=stop)
            trace = run(train, hold, cfg)
            assert trace.stopped, (alpha, trace.records[-1].metric)


class TestEvaluateStop:
    """The stop rule as a run evaluates it: the metric ``check_run``
    returns, read against the rule's threshold."""

    @staticmethod
    def fires(rule, pb, holdout, theta):
        return check_run(pb, holdout, RunConfig(stop=rule))(theta) <= rule.threshold

    @pytest.mark.parametrize("threshold", [math.inf, math.nan, 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        """An infinite threshold used to stop every run at epoch 0."""
        with pytest.raises(ValueError, match="threshold must be finite and positive, got"):
            StoppingRule("relative-residual", threshold)

    def test_immediate_stop_with_huge_threshold(self):
        pb = gen_random_lls(20, 4, 0.1, 1)
        rule = StoppingRule("relative-residual", 1e9)
        assert self.fires(rule, pb, None, np.zeros(4))

    def test_solution_at_reference_stops(self):
        pb = gen_random_lls(20, 4, 0.0, 1)
        rule = StoppingRule("solution-distance", 1e-12)
        assert self.fires(rule, pb, None, pb.theta_ref)

    def test_solution_distance_needs_reference(self):
        src = gen_random_lls(20, 4, 0.0, 1)
        pb = Problem("least-squares", src.x, src.targets)
        rule = StoppingRule("solution-distance", 1e-3)
        with pytest.raises(MissingReference):
            self.fires(rule, pb, None, np.zeros(4))

    def test_test_error_needs_holdout(self):
        pb = gen_gaussian_blobs(30, 3, 2, 2.0, 0)
        rule = StoppingRule("test-error", 0.25)
        with pytest.raises(MissingReference):
            self.fires(rule, pb, None, np.zeros(3))

    def test_zero_parameters_do_not_stop_on_balanced_ten_class(self):
        pb = gen_gaussian_blobs(500, 4, 10, 3.0, 3)
        rule = StoppingRule("test-error", 0.25)
        assert not self.fires(rule, pb, pb, np.zeros((4, 10)))

    def test_loss_threshold(self):
        pb = gen_random_lls(20, 4, 0.0, 5)
        rule = StoppingRule("loss-threshold", 1e-9)
        assert self.fires(rule, pb, None, pb.theta_ref)
        assert not self.fires(rule, pb, None, np.zeros(4))
