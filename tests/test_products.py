"""The hot-path products call ``ndarray.dot``, not ``@``.

Both reach the same BLAS routine, so each test here pins one hot-path
result, bit for bit, to the same formula written with ``@``: a wrong
operand order, a dropped transpose or a product that takes another BLAS
path shows as a difference in the last bit.  The shapes cover batches
narrower than p, wider than p and single rows, at K = 2 (logistic) and
K = 10 (softmax); the Cash-Karp step is pinned in test_ode.py.
"""

import numpy as np
import pytest

from splitopt import (
    IntegratorConfig,
    Problem,
    euler_step,
    gen_gaussian_blobs,
    gen_random_lls,
    lls_local_exact,
    local_step_rk,
    partition,
    rk45_integrate,
    sigmoid,
)
from splitopt import test_error as misclassification
from splitopt.problems import EXP_SAFE_SCORE, loss_and_residual, reduced_flow

P = 20
SHAPES = pytest.mark.parametrize("b", [8, 50, 1], ids=["b<p", "b>p", "b=1"])
CLASSES = pytest.mark.parametrize("k", [2, 10], ids=["K=2", "K=10"])


def blobs(b, k, seed=3):
    """A training problem of 4 batches of b rows, its batches and a holdout."""
    n = 4 * b
    full = gen_gaussian_blobs(n + 200, P, k, 4.0, seed)
    train = Problem(full.kind, full.x[:n], full.targets[:n])
    hold = Problem(full.kind, full.x[n:], full.targets[n:])
    return train, partition(train, b, seed)[1], hold


def least_squares(b, seed=3):
    pb = gen_random_lls(max(4 * b, 2 * P), P, 0.1, seed)  # n >= p
    return pb, partition(pb, b, seed)[1]


def theta_of(pb, seed=5):
    rng = np.random.default_rng(seed)
    return 0.3 * rng.standard_normal((P, pb.k) if pb.kind == "softmax" else P)


def residual(kind, x, targets, theta):
    """Prediction minus target, written with @."""
    z = x @ theta
    if kind == "logistic":
        z = sigmoid(z)
    elif kind == "softmax":
        e = np.exp(z - z.max(axis=1, keepdims=True))
        z = e / e.sum(axis=1, keepdims=True)
    return z - targets


class TestLeastSquaresStep:
    @SHAPES
    @pytest.mark.parametrize("h", [0.7, np.inf], ids=["finite", "inf"])
    def test_lls_local_exact(self, b, h):
        pb, batches = least_squares(b)
        theta0 = theta_of(pb)
        for bf in batches:
            u, w, _, z_star = bf.svd
            want = theta0 + u @ (np.expm1(-(h / pb.n) * w) * (u.T @ theta0 - z_star))
            assert np.array_equal(lls_local_exact(bf, theta0, h, pb.n), want)


class TestEulerStep:
    @SHAPES
    @pytest.mark.parametrize("k", [1, 2, 10], ids=["least-squares", "K=2", "K=10"])
    def test_euler_step(self, b, k):
        pb, batches = least_squares(b) if k == 1 else blobs(b, k)[:2]
        theta0 = theta_of(pb)
        for bf in batches:
            x = bf.x_i
            want = theta0 - 0.3 * (x.T @ residual(pb.kind, x, bf.y_i, theta0) / bf.b)
            assert np.array_equal(euler_step(pb, bf, theta0, 0.3), want)


class TestReducedFlow:
    """The folded forms of the problems module docstring, written with @."""

    @staticmethod
    def folded(pb, bf):
        r, y, n = bf.svd.r, bf.y_i, pb.n
        if pb.kind == "least-squares":
            return lambda v: (-r / n) @ (r.T @ v) + r @ y / n
        if pb.kind == "logistic":
            return lambda v: (-(0.5 / n) * r) @ np.tanh((0.5 * r.T) @ v) + r @ (y - 0.5) / n

        def rhs(v, shift=False):
            z = v.reshape(r.shape[0], pb.k).T @ r
            if shift or not v @ v < EXP_SAFE_SCORE**2 / bf.svd.w.max():
                z -= z.max(axis=0)
            z = np.exp(z)
            z /= np.full(pb.k, -float(n)) @ z
            return (r @ z.T + r @ y / n).ravel()

        return rhs

    @SHAPES
    @pytest.mark.parametrize("k", [1, 2, 10], ids=["least-squares", "K=2", "K=10"])
    def test_reduced_flow(self, b, k):
        pb, batches = least_squares(b) if k == 1 else blobs(b, k)[:2]
        rng = np.random.default_rng(b + k)
        for bf in batches:
            eta = rng.standard_normal(bf.svd.r.shape[0] * (k if k > 2 else 1))
            assert np.array_equal(reduced_flow(pb, bf)(eta), self.folded(pb, bf)(eta))

    @SHAPES
    def test_softmax_shifts_past_bound(self, b):
        """A state with ||eta|| s_max >= T takes the max shift, bit for bit."""
        pb, batches = blobs(b, 10)[:2]
        rng = np.random.default_rng(b)
        for bf in batches:
            eta = rng.standard_normal(bf.svd.r.shape[0] * 10)
            eta *= 1.5 * EXP_SAFE_SCORE / (np.linalg.norm(eta) * np.sqrt(bf.svd.w.max()))
            got = reduced_flow(pb, bf)(eta)
            assert np.array_equal(got, self.folded(pb, bf)(eta, shift=True))


class TestRkLocalStep:
    @SHAPES
    @CLASSES
    def test_local_step_rk(self, b, k):
        """u^T theta_0 and the lift around the integration."""
        pb, batches, _ = blobs(b, k)
        theta0 = theta_of(pb)
        cfg = IntegratorConfig()
        for bf in batches:
            u = bf.svd.u
            eta0 = u.T @ theta0
            sol = rk45_integrate(reduced_flow(pb, bf), eta0.ravel(), 2.0, cfg, 0.5)
            want = theta0 + u @ (sol.y_end.reshape(eta0.shape) - eta0)
            assert np.array_equal(local_step_rk(pb, bf, theta0, 2.0, cfg, 0.5).y_end, want)


class TestEvaluation:
    @SHAPES
    @pytest.mark.parametrize("k", [1, 2, 10], ids=["least-squares", "K=2", "K=10"])
    def test_loss_and_residual(self, b, k):
        pb = least_squares(b)[0] if k == 1 else blobs(b, k)[0]
        theta = theta_of(pb)
        x, y, n = pb.x, pb.targets, pb.n
        z = x @ theta
        resid = None
        if k == 1:
            resid = z - y
            want = float(resid @ resid) / (2 * n)
        elif k == 2:
            want = float(np.sum(np.logaddexp(0.0, z) - y * z)) / n
        else:
            # Class-major: scores K x n, log-sum-exp down each column, and
            # the true-class total as one inner product.
            zt = z.T.copy()
            zmax = zt.max(axis=0)
            lse = np.log(np.ones(k) @ np.exp(zt - zmax)) + zmax
            want = float(np.sum(lse) - z.ravel() @ y.ravel()) / n
        got, got_resid = loss_and_residual(pb, theta)
        assert got == want
        if resid is None:
            assert got_resid is None
        else:
            assert np.array_equal(got_resid, resid)

    @SHAPES
    @CLASSES
    def test_test_error(self, b, k):
        pb, _, hold = blobs(b, k)
        theta = theta_of(pb)
        z = hold.x @ theta
        if k == 2:
            want = float(np.mean((z >= 0).astype(float) != hold.targets))
        else:
            want = float(np.mean(np.argmax(z, axis=1) != np.argmax(hold.targets, axis=1)))
        assert misclassification(pb, theta, hold) == want
