"""Training loops: equivalences, stopping, determinism, stability."""

import dataclasses
import math
import re

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from splitopt import (
    BatchFactorization,
    IntegratorConfig,
    Problem,
    RunConfig,
    StoppingRule,
    check_run,
    gen_gaussian_blobs,
    gen_random_lls,
    gen_tomo_like,
    kaczmarz_step,
    lls_local_exact,
    lls_local_unit,
    local_rhs,
    local_step_rk,
    loss,
    partition,
    random_full_rank,
    run,
    theta_shape,
)
from splitopt import test_error as misclassification
from splitopt.errors import DimensionMismatch, MissingReference
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

    @pytest.mark.parametrize("alpha, message", [
        (float("nan"), "alpha must be finite and positive, got nan"),
        (0.0, "alpha must be finite and positive, got 0.0"),
        # An SGD run used to come back diverged, with a NaN record.
        (math.inf, "alpha must be finite and positive, got inf"),
        # A bool used to pass as alpha = 1, a string to raise an unnamed TypeError.
        (True, "alpha must be finite and positive, got True"),
        ("0.1", "alpha must be finite and positive, got '0.1'"),
    ], ids=["nan", "zero", "inf", "bool", "str"])
    def test_bad_alpha_rejected(self, alpha, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(method="sgd", alpha=alpha, batch_size=8, max_epochs=3)

    @pytest.mark.parametrize("scale", [float("nan"), -1.0, math.inf])
    def test_bad_init_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="init_scale"):
            RunConfig(method="sgd", alpha=0.1, batch_size=8, max_epochs=3, init_scale=scale)

    @pytest.mark.parametrize("epochs", [math.nan, 2.5, True, 0],
                             ids=["nan", "fraction", "bool", "zero"])
    def test_bad_max_epochs_rejected(self, epochs):
        """NaN used to return an untrained trace with one record at epoch 0,
        and 2.5 to run three epochs."""
        with pytest.raises(ValueError,
                           match=re.escape(f"max_epochs must be an integer >= 1, got {epochs!r}")):
            RunConfig(method="sgd", alpha=0.01, batch_size=4, max_epochs=epochs)

    @pytest.mark.parametrize("name, value, least", [
        ("batch_size", 2.5, 1), ("batch_size", True, 1), ("batch_size", 0, 1),
        ("seed", -1, 0), ("init_seed", -1, 0), ("seed", 1.0, 0),
    ], ids=["fractional-batch", "bool-batch", "zero-batch", "negative-seed",
            "negative-init-seed", "float-seed"])
    def test_bad_count_or_seed_rejected(self, name, value, least):
        """A batch size of 2.5 used to escape run as TypeError, True to run
        at b = 1, and a negative seed to fail later in numpy."""
        with pytest.raises(ValueError,
                           match=re.escape(f"{name} must be an integer >= {least}, got {value!r}")):
            RunConfig(method="splitting", alpha=0.1, **{"batch_size": 4, name: value})

    def test_numpy_integer_max_epochs_accepted(self):
        pb = gen_random_lls(40, 4, 0.1, 0)
        trace = run(pb, None, RunConfig(method="sgd", alpha=0.01, batch_size=4,
                                        max_epochs=np.int64(2)))
        assert [r.epoch for r in trace.records] == [0, 1, 2]

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

    @pytest.mark.parametrize(
        "kind, method",
        [("least-squares", "sgd"), ("least-squares", "splitting"),
         ("least-squares", "kaczmarz"), ("logistic", "splitting")],
        ids=["sgd", "splitting", "kaczmarz", "logistic-splitting"],
    )
    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_theta0_is_rejected(self, kind, method, bad):
        """A non-finite theta0 used to run and come back diverged, with one
        record of loss NaN; it is an input error, raised before any record."""
        pb = (gen_random_lls(20, 4, 0.1, 2) if kind == "least-squares"
              else gen_gaussian_blobs(20, 4, 2, 3.0, 2))
        cfg = RunConfig(method=method, alpha=0.1, batch_size=4, seed=0, max_epochs=2)
        theta0 = np.zeros(4)
        theta0[1] = bad
        with pytest.raises(ValueError, match="theta0 must be finite"):
            run(pb, None, cfg, theta0=theta0)
        with pytest.raises(ValueError, match="theta0 must be finite"):
            run(pb, None, cfg, theta0=np.full(4, bad))

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
        """A run's rhs_evals, rk_accepted and rk_rejected sum its RK local
        steps' counts (at alpha = 10, where some steps are rejected); all
        three read 0 for SGD and least-squares splitting."""
        import splitopt.optimizers

        spent = []
        real = splitopt.optimizers.local_step_rk

        def counted(*args):
            rep = real(*args)
            spent.append((rep.rhs_evals, rep.steps_taken, rep.rejected_steps))
            return rep

        def counters(trace):
            return trace.rhs_evals, trace.rk_accepted, trace.rk_rejected

        monkeypatch.setattr(splitopt.optimizers, "local_step_rk", counted)
        blobs = gen_gaussian_blobs(60, 4, 3, 3.0, 2)
        lls = gen_random_lls(40, 5, 0.1, 0)
        cfg = RunConfig(method="splitting", alpha=10.0, batch_size=10, seed=0, max_epochs=3)
        trace = run(blobs, None, cfg)
        assert len(spent) == 18
        assert counters(trace) == tuple(map(sum, zip(*spent)))
        assert trace.rk_accepted >= 18 and trace.rk_rejected > 0
        assert counters(run(blobs, None, dataclasses.replace(cfg, method="sgd"))) == (0, 0, 0)
        assert counters(run(lls, None, cfg)) == (0, 0, 0)
        assert len(spent) == 18

    def test_rk_steps_start_from_the_runs_last_proposal(self, monkeypatch):
        """Each RK local step starts from the last positive proposal any
        earlier step of the run reported, a batch's first visit included;
        the run's first step gets h_init = 0 (the start-step probe), every
        step the run's integrator config, a step that proposes nothing
        leaves the start as it was, and a second run starts afresh."""
        import splitopt.optimizers

        real = splitopt.optimizers.local_step_rk
        visits = []

        def proposing_nothing_every_third(pb, bf, theta, h, cfg, h_init):
            rep = real(pb, bf, theta, h, cfg, h_init)
            if len(visits) % 3 == 2:
                rep = dataclasses.replace(rep, h_next=0.0)
            visits.append((cfg, h_init, rep.h_next))
            return rep

        monkeypatch.setattr(splitopt.optimizers, "local_step_rk", proposing_nothing_every_third)
        blobs = gen_gaussian_blobs(60, 4, 3, 3.0, 2)
        integrator = IntegratorConfig()
        cfg = RunConfig(method="splitting", alpha=1.0, batch_size=10, seed=0, max_epochs=4,
                        integrator=integrator)
        for _ in range(2):  # a second run over the same batches starts afresh
            visits.clear()
            run(blobs, None, cfg)
            assert len(visits) == 24
            assert all(c is integrator for c, _, _ in visits)
            assert visits[0][1] == 0.0 and all(h_init > 0 for _, h_init, _ in visits[1:])
            start, kept = 0.0, 0
            for _, h_init, h_next in visits:
                assert h_init == start
                kept += h_next == 0.0
                if h_next > 0:
                    start = h_next
            assert kept >= 8  # every third by the wrapper, more by the integrator

    @pytest.mark.parametrize("k", [2, 10], ids=["logistic", "softmax"])
    def test_a_run_probes_for_its_start_step_once(self, monkeypatch, k):
        """Each RK step spends one f(y0), five evaluations an attempt and
        one k_1 at the end of every accepted step but its last, and the run
        one start-step probe in all."""
        import splitopt.solvers

        real = splitopt.solvers.rk45_integrate
        sols = []

        def counted(rhs, y0, t_end, cfg, h_init):
            sols.append(real(rhs, y0, t_end, cfg, h_init))
            return sols[-1]

        monkeypatch.setattr(splitopt.solvers, "rk45_integrate", counted)
        blobs = gen_gaussian_blobs(200, 6, k, 3.0, 4)
        cfg = RunConfig(method="splitting", alpha=10.0, batch_size=20, seed=1, max_epochs=5)
        trace = run(blobs, None, cfg)
        assert len(sols) == 50 and sols[0].h_next > 0
        assert sum(s.rejected_steps for s in sols) > 0
        assert trace.rhs_evals == sum(6 * s.steps_taken + 5 * s.rejected_steps
                                      for s in sols) + 1


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
        assert np.array_equal(trace.theta, want)  # bit for bit
        assert np.max(np.abs(ends[-1] - want)) > 1e-6  # not the last iterate

    def test_each_epoch_records_the_mean_of_its_last_half(self):
        """Each record measures np.mean of the tail bit for bit: the run's
        own metric at that mean is the recorded one, exactly."""
        trace = run(self.pb, None, self.cfg, self.theta0)
        ends = self.epoch_ends()
        metric = check_run(self.pb, None, self.cfg)
        for epoch in range(1, self.cfg.max_epochs + 1):
            tail = ends[epoch // 2 : epoch]  # the last ceil(epoch / 2)
            assert trace.records[epoch].metric == metric(np.mean(tail, axis=0))
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
        """check_run factors each batch before the run's clock starts, one SVD
        per batch and no QR, for every config whose steps read the SVD:
        least-squares SGD, splitting and Kaczmarz, and logistic and softmax
        splitting.  Only logistic and softmax SGD, which step on x_i,
        factor nothing."""
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
        for alpha in (0.01, 0.1, 1.0):  # one SVD per batch, shared by the three runs
            run(pb, None, RunConfig(method="sgd", alpha=alpha, batch_size=5, seed=0,
                                    max_epochs=2))
        assert svds == [(4, 5)] * 4
        for method, b in (("splitting", 5), ("kaczmarz", 1)):
            check_run(pb, None, RunConfig(method=method, alpha=0.1, batch_size=b, seed=0))
            assert all("svd" in vars(bf) for bf in partition(pb, b, 0)[1])
        assert svds == [(4, 5)] * 4 + [(4, 1)] * 20
        for k in (2, 3):
            svds.clear()
            blobs = gen_gaussian_blobs(20, 4, k, 3.0, 1)
            run(blobs, None, RunConfig(method="sgd", alpha=0.1, batch_size=5, seed=0,
                                       max_epochs=2))
            assert svds == [] and all("svd" not in vars(bf) for bf in partition(blobs, 5, 0)[1])
            check_run(blobs, None, RunConfig(method="splitting", alpha=0.1, batch_size=5, seed=0))
            assert svds == [(4, 5)] * 4
        assert qrs == []

    @pytest.mark.parametrize("method", ["sgd", "splitting", "kaczmarz"])
    def test_check_run_refuses_a_batch_size_above_n(self, method):
        """What ``run`` would refuse, ``check_run`` refuses first, for every
        method: a batch size of n is one batch, n + 1 none."""
        pb = gen_random_lls(50, 4, 0.1, 1)
        check_run(pb, None, RunConfig(method=method, batch_size=50))
        for call in (check_run, run):
            with pytest.raises(ValueError, match=r"batch size must be in \[1, 50\], got 51"):
                call(pb, None, RunConfig(method=method, batch_size=51))

    @pytest.mark.parametrize(
        "kind, method",
        [("least-squares", "sgd"), ("least-squares", "splitting"), ("least-squares", "kaczmarz"),
         ("logistic", "splitting"), ("softmax", "splitting")],
        ids=["sgd", "splitting", "kaczmarz", "logistic", "softmax"],
    )
    def test_zero_row_batch_steps_as_the_identity(self, kind, method):
        """A zero row is a batch of rank 0: its SVD keeps no component, and
        every step on it leaves theta as it is, the closed form's, Kaczmarz's,
        SGD's gain form and the RK step over an empty reduced state alike."""
        x = np.random.default_rng(4).standard_normal((8, 3))
        x[5] = 0.0
        targets = np.eye(3)[np.arange(8) % 3] if kind == "softmax" else np.ones(8)
        pb = Problem(kind, x, targets)
        cfg = RunConfig(method=method, alpha=0.1, batch_size=1, seed=0, max_epochs=2)
        check_run(pb, None, cfg)
        zero = [bf for bf in partition(pb, 1, 0)[1] if not bf.x_i.any()]
        assert len(zero) == 1 and zero[0].svd.u.shape == (3, 0) and zero[0].svd.w.size == 0
        assert np.isfinite(run(pb, None, cfg).theta).all()
        lone = Problem(kind, x[5:6], targets[5:6])  # every step is the zero row's
        theta0 = np.random.default_rng(6).standard_normal(theta_shape(lone))
        trace = run(lone, None, dataclasses.replace(cfg, max_epochs=3), theta0)
        assert np.array_equal(trace.theta, theta0) and not trace.diverged
        assert trace.rhs_evals == 0  # an empty reduced state is not integrated

    def test_one_rank_rule_for_every_kind(self):
        """Two rows at an angle of 1.5e-10: a QR of either order keeps both
        diagonal entries above RANK_TOL * ||x||_F, but s_min is below it, so
        a logistic batch keeps rank 1, as a least-squares one does."""
        x = np.array([[1.0, 0.0, 0.0], [1.0, 1.5e-10, 0.0]])
        for rows in (x, x[::-1]):
            economy_qr(rows.T)  # the diagonal test accepts it
        assert np.linalg.svd(x, compute_uv=False)[-1] < RANK_TOL * np.linalg.norm(x)
        for kind in ("least-squares", "logistic"):
            pb = Problem(kind, x, np.array([1.0, 0.0]))
            check_run(pb, None, RunConfig(method="splitting", alpha=0.1, batch_size=2, seed=0))
            svd = partition(pb, 2, 0)[1][0].svd
            assert svd.u.shape == (3, 1) and svd.w == pytest.approx([2.0], rel=1e-15)

    def test_run_ignores_slots_left_on_a_shared_partition(self, monkeypatch):
        """Runs at different h over one problem step its one partition,
        share each batch's h-independent SVD and keep their own step-size
        proposals, after steps taken on its batches outside a run have left
        their plans there: each run equals one over a fresh problem, bit for
        bit, for least squares (closed form) and logistic (RK with warm
        starts) alike."""
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
            want = [run(make(), None, c) for c in cfgs]
            pb = make()
            batches = partition(pb, 6, 2)[1]
            for bf in batches:
                if pb.kind == "least-squares":
                    lls_local_exact(bf, np.zeros(6), 0.5, pb.n)
                else:
                    local_step_rk(pb, bf, np.zeros(6), 0.5)
            stepped.clear()
            for c, w in zip(cfgs, want):
                got = run(pb, None, c)
                assert w.losses().tolist() == got.losses().tolist()
                assert np.array_equal(w.theta, got.theta)
                assert w.rhs_evals == got.rhs_evals
            assert len(stepped) >= len(cfgs) and all(b is batches for b in stepped)
            assert all("svd" in vars(bf) for bf in batches)


class TestRecords:
    """A record measures the reported point bit for bit: its loss is
    ``loss`` there and its metric the stop rule's, whatever shares work."""

    @staticmethod
    def problems(kind):
        """(train, holdout, metric of theta by the rule's definition)."""
        if kind == "test-error":
            data = gen_gaussian_blobs(240, 4, 2, 2.0, 6)
            train = Problem(data.kind, data.x[:160], data.targets[:160])
            hold = Problem(data.kind, data.x[160:], data.targets[160:])
            return train, hold, lambda theta: misclassification(train, theta, hold)
        pb = gen_random_lls(60, 6, 0.1, 4)
        if kind == "relative-residual":
            ynorm = float(np.linalg.norm(pb.targets))
            return pb, None, lambda theta: float(np.linalg.norm(pb.x @ theta - pb.targets)) / ynorm
        if kind == "solution-distance":
            ref_norm = float(np.linalg.norm(pb.theta_ref))
            return pb, None, lambda theta: float(np.linalg.norm(theta - pb.theta_ref)) / ref_norm
        return pb, None, lambda theta: loss(pb, theta)

    @pytest.mark.parametrize("method", ["sgd", "splitting"])
    @pytest.mark.parametrize(
        "kind", ["relative-residual", "solution-distance", "test-error", "loss-threshold"])
    def test_last_record_is_the_reported_point_bit_for_bit(self, kind, method):
        """Budgets of one to five epochs end at five different points; from
        three epochs on, splitting reports a tail average."""
        train, hold, metric = self.problems(kind)
        for epochs in range(1, 6):
            cfg = RunConfig(method=method, alpha=0.05, batch_size=6, seed=1,
                            max_epochs=epochs, stop=StoppingRule(kind, 1e-300))
            trace = run(train, hold, cfg)
            last = trace.records[-1]
            assert last.epoch == epochs and not trace.diverged
            assert last.loss == loss(train, trace.theta)
            assert last.metric == metric(trace.theta)

    @pytest.mark.parametrize(
        "kind, reads",
        [("loss-threshold", "loss"), ("relative-residual", "loss_and_residual")])
    def test_one_loss_evaluation_per_record(self, kind, reads, monkeypatch):
        """loss-threshold's metric is the record's loss, not a second
        evaluation; relative-residual reads the residual the loss made."""
        import splitopt.optimizers

        calls = {"loss": 0, "loss_and_residual": 0}
        for name in calls:
            real = getattr(splitopt.optimizers, name)

            def counting(pb, theta, name=name, real=real):
                calls[name] += 1
                return real(pb, theta)

            monkeypatch.setattr(splitopt.optimizers, name, counting)
        pb = gen_random_lls(40, 5, 0.1, 0)
        trace = run(pb, None, RunConfig(method="splitting", alpha=0.5, batch_size=8, seed=1,
                                        max_epochs=4, stop=StoppingRule(kind, 1e-300)))
        assert calls == {name: len(trace.records) * (name == reads) for name in calls}
        assert len(trace.records) == 5


    def test_holdout_labels_are_derived_once(self, monkeypatch):
        """A softmax run's holdout error reads the holdout's labels, the
        argmax of its constant targets, derived at the first record only
        and kept on the holdout for every later record and run."""
        data = gen_gaussian_blobs(240, 4, 10, 3.0, 6)
        train = Problem(data.kind, data.x[:160], data.targets[:160])
        hold = Problem(data.kind, data.x[160:], data.targets[160:])
        real, of_targets = np.argmax, []

        def counting(a, *args, **kwargs):
            of_targets.append(a is hold.targets)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "argmax", counting)
        cfg = RunConfig(method="splitting", alpha=0.5, batch_size=16, seed=1, max_epochs=5,
                        stop=StoppingRule("test-error", 1e-300))
        trace = run(train, hold, cfg)
        assert len(trace.records) == 6
        assert of_targets.count(True) == 1 and of_targets.count(False) == 6
        truth = real(hold.targets, axis=1)
        assert trace.records[-1].metric == float(np.mean(real(hold.x @ trace.theta, axis=1)
                                                         != truth))
        run(train, hold, cfg)
        assert of_targets.count(True) == 1


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


    @pytest.mark.parametrize("kind", ["least-squares", "logistic", "softmax"])
    def test_sgd_run_is_bitwise_the_euler_step_loop(self, kind):
        """run(method="sgd") is a loop of its step over the epoch orders, bit
        for bit, not just to a tolerance a reordered expression passes:
        euler_step's for logistic and softmax; for least squares the gain
        update on the batch SVD, theta + u (-(alpha / b) w (u^T theta - z*)),
        b each batch's own size (60 rows in batches of 7 leave a short
        one), which stays within 1e-12 of the euler_step loop."""
        from splitopt import euler_step

        pb = (gen_random_lls(60, 6, 0.1, 3) if kind == "least-squares"
              else gen_gaussian_blobs(60, 6, 2 if kind == "logistic" else 3, 2.0, 3))
        theta0 = 0.1 * np.random.default_rng(5).standard_normal(theta_shape(pb))
        cfg = RunConfig(method="sgd", alpha=0.05, batch_size=7, seed=2, max_epochs=3)
        part, batches = partition(pb, 7, 2)
        theta = gain_theta = theta0
        for epoch in range(3):
            for idx in part.epoch_order(epoch):
                bf = batches[idx]
                theta = euler_step(pb, bf, theta, 0.05)
                if kind == "least-squares":
                    u, w, _, z_star = bf.svd
                    a = u.T.dot(gain_theta)
                    a -= z_star
                    a *= -(0.05 / bf.b) * w
                    out = u.dot(a)
                    out += gain_theta
                    gain_theta = out
        got = run(pb, None, cfg, theta0).theta
        if kind == "least-squares":
            assert np.array_equal(got, gain_theta)
            assert np.max(np.abs(got - theta)) <= 1e-12 * max(1.0, np.max(np.abs(theta)))
        else:
            assert np.array_equal(got, theta)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**16),
           frac=st.floats(0.01, 1.0), epochs=st.integers(1, 3))
    def test_sgd_gain_form_tracks_the_euler_step_loop(self, p, data, seed, frac, epochs):
        """run(sgd) on least squares, on the batch SVD's gain, stays within
        1e-12 of the euler_step loop on x_i: tall and wide batches (b > p)
        and a trailing short one, alpha below every batch's step limit
        b / ||x_i||_2^2 so no epoch diverges."""
        from splitopt import euler_step

        n = data.draw(st.integers(p, 24), label="n")
        b = data.draw(st.integers(1, n), label="b")
        pb = gen_random_lls(n, p, 0.1, seed)
        part, batches = partition(pb, b, seed)
        alpha = frac * min(bf.b / np.linalg.norm(bf.x_i, 2) ** 2 for bf in batches)
        theta = theta0 = np.random.default_rng(seed).standard_normal(p)
        for epoch in range(epochs):
            for idx in part.epoch_order(epoch):
                theta = euler_step(pb, batches[idx], theta, alpha)
        cfg = RunConfig(method="sgd", alpha=alpha, batch_size=b, seed=seed, max_epochs=epochs)
        trace = run(pb, None, cfg, theta0)
        assert not trace.diverged
        assert np.max(np.abs(trace.theta - theta)) <= 1e-12 * max(1.0, np.max(np.abs(theta)))

    def test_sgd_gain_is_the_first_order_term_of_the_flows(self, monkeypatch):
        """At t = alpha / b, which on uniform batches is splitting's h / n,
        SGD steps a batch at the gain -t w and splitting at expm1(-t w): SGD
        is the flow's Euler step, their gains apart by at most (t w)^2 / 2.
        SGD's rows hold the SVD's own u and z* and a view u^T, no copies."""
        import splitopt.optimizers

        real, rows = splitopt.optimizers._lls_gain_sweep, []

        def capturing(kept):
            rows.extend(kept)
            return real(kept)

        monkeypatch.setattr(splitopt.optimizers, "_lls_gain_sweep", capturing)
        pb = gen_random_lls(60, 6, 0.1, 4)
        alpha, b, t = 0.02, 10, 0.02 / 10
        for method in ("sgd", "splitting"):
            run(pb, None, RunConfig(method=method, alpha=alpha, batch_size=b, seed=1,
                                    max_epochs=1))
        batches = partition(pb, b, 1)[1]
        assert len(rows) == len(batches) == 6
        for (u, ut, c, z_star), bf in zip(rows, batches):
            svd = bf.svd
            assert u is svd.u and z_star is svd.z_star and np.shares_memory(ut, u)
            assert np.array_equal(c, -t * svd.w)
            t_flow, _, _, gain, _ = bf.lls_gain
            assert t_flow == pytest.approx(t, rel=1e-15)
            assert np.array_equal(gain, np.expm1(-t_flow * svd.w))
            assert np.all(np.abs(gain - c) <= (t * svd.w) ** 2 / 2)


class TestNumericalRank:
    def test_full_rank_batch_keeps_the_svds_arrays(self, monkeypatch):
        """Where nothing drops, the batch keeps LAPACK's u and derives w, r
        and z* from its s and g^T as before truncation existed, so full-rank
        runs are bit-identical to the untruncated code."""
        real, returned = np.linalg.svd, []

        def keeping(*args, **kwargs):
            returned.append(real(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(np.linalg, "svd", keeping)
        pb = gen_random_lls(12, 8, 0.1, 3)
        for b in (4, 12):  # below and above p = 8
            bf = BatchFactorization(pb.x[:b], pb.targets[:b])
            svd = bf.svd
            u, s, gt = returned[-1]
            assert svd.u is u
            assert np.array_equal(svd.w, s * s)
            assert np.array_equal(svd.r, s[:, None] * gt)
            assert np.array_equal(svd.z_star, (gt @ bf.y_i) / s)

    def test_tomography_batch_with_dependent_rows_runs_every_method(self):
        """gen_tomo_like(3, 20, 7) at b = 2, partition seed 0: two rays of
        one batch cross the same pixels in proportion, so its SVD keeps
        rank 1.  Every method runs on it to the residual stop, and
        Kaczmarz's step solves that consistent batch exactly."""
        pb = gen_tomo_like(3, 20, 7)
        stop = StoppingRule("relative-residual", 1e-3)
        for method in ("sgd", "splitting", "kaczmarz"):
            cfg = RunConfig(method=method, alpha=0.5, batch_size=2, seed=0, max_epochs=40,
                            stop=stop)
            trace = run(pb, None, cfg)
            assert trace.stopped and not trace.diverged
        batches = partition(pb, 2, 0)[1]
        assert [len(bf.svd.w) for bf in batches].count(1) == 1
        bf = next(bf for bf in batches if len(bf.svd.w) == 1)
        theta = lls_local_exact(bf, np.zeros(pb.p), math.inf, pb.n)
        np.testing.assert_allclose(bf.x_i @ theta, bf.y_i, rtol=1e-12)


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
        """The default batch size of 32, or one batch of all n rows below
        it: ``check_run`` partitions the data as ``run`` does."""
        cfg = RunConfig(stop=rule, batch_size=min(32, pb.n))
        return check_run(pb, holdout, cfg)(theta) <= rule.threshold

    @pytest.mark.parametrize("threshold", [math.inf, math.nan, 0.0, -1.0, True])
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
