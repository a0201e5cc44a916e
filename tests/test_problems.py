"""Objective-family tests: losses, gradients, reductions, predictions.

Gradients are checked against central finite differences of the loss; the
reduced right-hand side against the projected full-space one.
"""

import numpy as np
import pytest

from splitopt import (
    Problem,
    batch_gradient,
    batch_loss,
    full_gradient,
    gen_random_lls,
    local_rhs,
    loss,
    partition,
    reduced_rhs,
    sigmoid,
    softmax_cols,
)
from splitopt import test_error as misclassification
from splitopt.errors import DimensionMismatch


def finite_diff_gradient(f, theta, step=1e-6):
    """Central finite differences of a scalar function, any theta shape."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    it = np.nditer(theta, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        h = step * (1.0 + abs(theta[idx]))
        tp, tm = theta.copy(), theta.copy()
        tp[idx] += h
        tm[idx] -= h
        grad[idx] = (f(tp) - f(tm)) / (2 * h)
    return grad


def make_problem(kind, n, p, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    if kind == "least-squares":
        return Problem(kind, x, rng.standard_normal(n))
    if kind == "logistic":
        return Problem(kind, x, rng.integers(0, 2, n).astype(float))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), rng.integers(0, k, n)] = 1.0
    return Problem(kind, x, onehot)


class TestReference:
    """A reference of the wrong shape is rejected when the problem is
    built: a (p, 1) one used to broadcast in the solution distance."""

    @pytest.mark.parametrize("shape", [(5, 1), (4,), (6,), (5, 2)])
    def test_least_squares_reference_must_have_shape_p(self, shape):
        src = gen_random_lls(30, 5, 0.0, 2)
        with pytest.raises(DimensionMismatch, match=r"theta_ref must have shape \(5,\)"):
            Problem("least-squares", src.x, src.targets, theta_ref=np.zeros(shape))
        assert Problem("least-squares", src.x, src.targets, theta_ref=np.zeros(5)).p == 5

    def test_softmax_reference_must_have_shape_p_by_k(self):
        pb = make_problem("softmax", 25, 4, 3, 1)
        with pytest.raises(DimensionMismatch):
            Problem("softmax", pb.x, pb.targets, theta_ref=np.zeros(4))
        Problem("softmax", pb.x, pb.targets, theta_ref=np.zeros((4, 3)))


class TestLoss:
    def test_lls_zero_at_planted_solution(self):
        pb = gen_random_lls(30, 5, 0.0, 2)
        assert loss(pb, pb.theta_ref) == pytest.approx(0.0, abs=1e-24)

    def test_logistic_ln2_at_zero(self):
        pb = make_problem("logistic", 40, 6, 1, 0)
        assert loss(pb, np.zeros(6)) == pytest.approx(np.log(2.0), rel=1e-14)

    def test_softmax_lnk_at_zero(self):
        pb = make_problem("softmax", 25, 4, 10, 1)
        assert loss(pb, np.zeros((4, 10))) == pytest.approx(np.log(10.0), rel=1e-14)

    def test_shape_mismatch(self):
        pb = make_problem("least-squares", 10, 3, 1, 0)
        with pytest.raises(DimensionMismatch):
            loss(pb, np.zeros(4))


class TestGradients:
    def test_batch_gradient_zero_residual(self):
        pb = gen_random_lls(20, 4, 0.0, 3)
        _, batches = partition(pb, 4, 3)
        g = batch_gradient(pb, batches[0], pb.theta_ref)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_logistic_single_row_hand_value(self):
        """One row, theta = 0, y = 1: gradient is -x/2 since sigma(0)=1/2."""
        x = np.array([[1.0, -2.0, 0.5]])
        pb = Problem("logistic", x, np.array([1.0]))
        _, batches = partition(pb, 1, 0)
        g = batch_gradient(pb, batches[0], np.zeros(3))
        np.testing.assert_allclose(g, -x[0] / 2.0, rtol=1e-14)

    @pytest.mark.parametrize("kind", ["least-squares", "logistic", "softmax"])
    def test_batch_gradient_matches_finite_differences(self, kind):
        pb = make_problem(kind, 24, 6, 3, 11)
        _, batches = partition(pb, 8, 11)
        bf = batches[1]
        rng = np.random.default_rng(4)
        theta = 0.5 * rng.standard_normal((6, 3) if kind == "softmax" else 6)
        got = batch_gradient(pb, bf, theta)
        want = finite_diff_gradient(lambda t: batch_loss(pb, bf, t), theta)
        assert np.linalg.norm(got - want) <= 1e-5 * max(1.0, np.linalg.norm(want))

    @pytest.mark.parametrize("kind", ["least-squares", "logistic", "softmax"])
    def test_full_gradient_matches_finite_differences(self, kind):
        pb = make_problem(kind, 30, 5, 4, 21)
        rng = np.random.default_rng(8)
        theta = 0.5 * rng.standard_normal((5, 4) if kind == "softmax" else 5)
        got = full_gradient(pb, theta)
        want = finite_diff_gradient(lambda t: loss(pb, t), theta)
        assert np.linalg.norm(got - want) <= 1e-5 * max(1.0, np.linalg.norm(want))

    def test_full_gradient_zero_at_consistent_solution(self):
        pb = gen_random_lls(25, 6, 0.0, 6)
        np.testing.assert_allclose(full_gradient(pb, pb.theta_ref), 0.0, atol=1e-12)

    def test_full_gradient_is_weighted_batch_sum(self):
        pb = make_problem("logistic", 26, 5, 1, 31)
        part, batches = partition(pb, 8, 31)
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(5)
        total = sum(bf.b * batch_gradient(pb, bf, theta) for bf in batches)
        np.testing.assert_allclose(total / pb.n, full_gradient(pb, theta), atol=1e-12)

    def test_batch_gradient_is_scaled_local_rhs(self):
        """batch_gradient == -(n/b) * local_rhs ties the two scalings."""
        pb = make_problem("softmax", 18, 4, 3, 41)
        _, batches = partition(pb, 6, 41)
        rng = np.random.default_rng(3)
        theta = rng.standard_normal((4, 3))
        bf = batches[0]
        lhs = batch_gradient(pb, bf, theta)
        rhs = -(pb.n / bf.b) * local_rhs(pb, bf, theta)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


class TestReducedRhs:
    def test_lls_stationary_point(self):
        pb = gen_random_lls(20, 8, 0.3, 17)
        _, batches = partition(pb, 4, 17)
        bf = batches[0]
        eta_star = np.linalg.solve(bf.svd.r.T, bf.y_i)
        np.testing.assert_allclose(reduced_rhs(pb, bf, eta_star), 0.0, atol=1e-12)

    def test_logistic_unit_batch_hand_form(self):
        """b = 1: d eta/dt = -(1/n) rho (sigma(rho eta) - y), rho = r[0, 0],
        |rho| = ||x||: the SVD's 1 x 1 g^T is +-1."""
        x = np.array([[0.6, -0.8, 1.2]])
        pb = Problem("logistic", np.vstack([x, np.eye(3)[:1] * 2]), np.array([1.0, 0.0]))
        _, batches = partition(pb, 1, 5)
        bf = next(b for b in batches if abs(b.x_i[0, 2] - 1.2) < 1e-12)
        rho = bf.svd.r[0, 0]
        assert abs(rho) == pytest.approx(np.linalg.norm(x[0]), rel=1e-14)
        eta = np.array([0.37])
        got = reduced_rhs(pb, bf, eta)
        want = -(rho * (sigmoid(rho * eta[0]) - 1.0)) / pb.n
        np.testing.assert_allclose(got, [want], rtol=1e-12)

    @pytest.mark.parametrize("kind", ["least-squares", "logistic", "softmax"])
    def test_projection_identity(self, kind):
        """reduced_rhs(u^T theta) = u^T local_rhs(theta), and the full-space
        flow is invariant to components orthogonal to range(u)."""
        pb = make_problem(kind, 21, 7, 3, 51)
        _, batches = partition(pb, 3, 51)
        bf = batches[2]
        u = bf.svd.u
        rng = np.random.default_rng(9)
        shape = (7, 3) if kind == "softmax" else (7,)
        theta = rng.standard_normal(shape)
        # add a component orthogonal to range(u)
        perp = rng.standard_normal(shape)
        perp = perp - u @ (u.T @ perp)
        got = reduced_rhs(pb, bf, u.T @ (theta + perp))
        want = u.T @ local_rhs(pb, bf, theta + perp)
        np.testing.assert_allclose(got, want, atol=1e-12)
        # moving theta along the orthogonal complement leaves the rhs alone
        same = reduced_rhs(pb, bf, u.T @ theta)
        np.testing.assert_allclose(got, same, atol=1e-12)


class TestScalarOps:
    def test_sigmoid_center(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_symmetry(self):
        z = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(-z), 1.0 - sigmoid(z), atol=1e-15)

    def test_sigmoid_extreme_arguments(self):
        """No overflow anywhere in [-1e4, 1e4]; saturation stays in [0, 1]."""
        assert sigmoid(100.0) >= 1.0 - 1e-40
        assert sigmoid(100.0) <= 1.0
        assert sigmoid(-1e4) >= 0.0
        assert sigmoid(1e4) <= 1.0
        with np.errstate(over="raise"):
            vals = sigmoid(np.array([-1e4, -100.0, 100.0, 1e4]))
        assert np.isfinite(vals).all()

    def test_softmax_uniform_for_zero_column(self):
        out = softmax_cols(np.zeros((5, 3)))
        np.testing.assert_allclose(out, 1.0 / 5.0)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 6))
        shifted = m + rng.standard_normal(6)
        np.testing.assert_allclose(softmax_cols(m), softmax_cols(shifted), atol=1e-12)

    def test_softmax_matches_naive_formula(self):
        rng = np.random.default_rng(6)
        m = rng.uniform(-2, 2, (5, 4))
        naive = np.exp(m) / np.exp(m).sum(axis=0, keepdims=True)
        np.testing.assert_allclose(softmax_cols(m), naive, atol=1e-12)

    def test_softmax_columns_sum_to_one(self):
        rng = np.random.default_rng(7)
        m = rng.uniform(-500, 500, (7, 9))
        np.testing.assert_allclose(softmax_cols(m).sum(axis=0), 1.0, atol=1e-12)


class TestTestError:
    def test_perfect_predictor(self):
        pb = Problem(
            "logistic",
            np.array([[1.0, 0.3], [-2.0, 0.1], [0.5, -0.2], [-0.7, 0.4]]),
            np.array([1.0, 0.0, 1.0, 0.0]),
        )
        theta = np.array([5.0, 0.0])  # sign of the first feature decides
        assert misclassification(pb, theta, pb) == 0.0

    def test_zero_parameters_on_balanced_ten_classes(self):
        pb = make_problem("softmax", 1000, 3, 10, 13)
        # force exact balance
        onehot = np.zeros((1000, 10))
        onehot[np.arange(1000), np.arange(1000) % 10] = 1.0
        pb = Problem("softmax", pb.x, onehot)
        err = misclassification(pb, np.zeros((3, 10)), pb)
        assert err == pytest.approx(0.9, abs=1e-12)

    def test_single_sample_correct(self):
        pb = Problem("logistic", np.array([[2.0, 0.0]]), np.array([1.0]))
        assert misclassification(pb, np.array([1.0, 0.0]), pb) == 0.0

    def test_mismatched_holdout(self):
        pb = make_problem("logistic", 10, 3, 1, 0)
        other = make_problem("logistic", 10, 4, 1, 0)
        with pytest.raises(DimensionMismatch):
            misclassification(pb, np.zeros(3), other)
