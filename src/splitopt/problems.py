"""Objective families: linear least squares, binary logistic, softmax.

A Problem holds the design matrix and targets; parameters are plain float
arrays, shaped (p,) for least squares and logistic regression and (p, K)
for softmax.  Losses are sample means:

    least-squares   (1/2n) ||X theta - y||^2
    logistic        mean negative log-likelihood, targets in {0, 1}
    softmax         mean negative log of the true-class probability

The 1/2 on the quadratic keeps every gradient free of stray factors, so
the batch gradient is exactly (1/b) x_i^T (x_i theta - y_i) and the local
flow matches the closed-form solver.

Each minibatch keeps one thin SVD x_i^T = u diag(s) g^T, through which
the per-batch gradient-flow ODE restricts to the coordinates eta = u^T
theta: the flow never leaves theta_0 + range(u), so only a state of size
min(b, p) (times K) needs to be evolved.  ``local_rhs`` is the original
full-space right-hand side.  ``reduced_flow`` builds the restricted one,
-(1/n) r (pred(r^T eta) - y_i) with r = diag(s) g^T (so x_i^T = u r), for
one batch with its batch-only factors folded in:

    least squares   a (B eta) + c         a = -r/n, B = r^T, c = r y_i / n
    logistic        a tanh(B eta) + c     a = -(0.5/n) r, B = 0.5 r^T,
                                          c = r (y_i - 0.5) / n
    softmax         (a e^T + c).ravel()   a = -r/n, c = r y_i / n

The logistic form is sigmoid(s) = 0.5 + 0.5 tanh(s/2).  Softmax keeps its
k x K state row-major and lays the scores out K x b, z = eta^T r; e is z
shifted by its column maxima, exponentiated and divided by its column sums
1_K^T z, all in z's own buffer, and c is added into the product's output.
``reduced_rhs`` evaluates the flow at one state, with a shape check.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, RankDeficient
from .linalg import RANK_TOL

KINDS = ("least-squares", "logistic", "softmax")


@dataclass
class Problem:
    kind: str
    x: np.ndarray
    targets: np.ndarray
    theta_ref: np.ndarray | None = None  # planted solution / phantom, if known
    _partition: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        # Owned and read-only, so the partition kept here never goes stale.
        self.x = np.array(self.x, dtype=float)
        self.targets = np.array(self.targets, dtype=float)
        self.x.flags.writeable = self.targets.flags.writeable = False
        if self.x.ndim != 2 or self.x.shape[0] < 1 or self.x.shape[1] < 1:
            raise DimensionMismatch(f"design matrix must be n x p, got {self.x.shape}")
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.targets)):
            raise ValueError("design and targets must be finite")
        n = self.x.shape[0]
        if self.kind == "softmax":
            if self.targets.ndim != 2 or self.targets.shape[0] != n:
                raise DimensionMismatch(
                    f"softmax targets must be n x K one-hot, got {self.targets.shape}"
                )
            onehot = (np.isin(self.targets, (0.0, 1.0)).all()
                      and np.all(self.targets.sum(axis=1) == 1.0))
            if not onehot:
                raise ValueError("softmax targets must be one-hot rows")
        else:
            if self.targets.shape != (n,):
                raise DimensionMismatch(
                    f"targets must have shape ({n},), got {self.targets.shape}"
                )
            if self.kind == "logistic" and not np.isin(self.targets, (0.0, 1.0)).all():
                raise ValueError("logistic targets must be 0/1")
        if self.theta_ref is not None:
            _check_theta(self, self.theta_ref, "theta_ref")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def k(self) -> int:
        return self.targets.shape[1] if self.kind == "softmax" else 1

    def check_holdout(self, holdout: "Problem") -> None:
        """Raise unless ``holdout`` can score a classifier fitted to this problem."""
        if self.kind == "least-squares":
            raise ValueError("test_error is defined for classification problems")
        if holdout.kind != self.kind or holdout.p != self.p or holdout.k != self.k:
            raise DimensionMismatch("holdout problem does not match (kind, p, K)")


class BatchSVD(NamedTuple):
    """A batch's thin SVD x_i^T = u diag(s) g^T as its steps read it: u,
    w = s^2, r = diag(s) g^T (x_i^T = u r) and z* = (g^T y_i) / s by rows."""

    u: np.ndarray
    w: np.ndarray
    r: np.ndarray
    z_star: np.ndarray


class BatchFactorization:
    """One minibatch (x_i, y_i) and what its local steps read, kept on it.

    ``svd``, the batch's one factorization, is computed on first read and
    kept: the least-squares step reads (u, w, z*), the RK step u and r.
    The read raises ValueError for a non-finite x_i or y_i and
    RankDeficient for s_min < ``RANK_TOL * ||x_i||_F`` (a zero row
    included), whatever the kind.  ``optimizers.check_run`` reads it for a
    splitting or Kaczmarz config, else the first step does; SGD never does,
    and every run shares it (threads at worst compute it twice, equally).
    ``lls_gain`` keeps the last least-squares step's (h/n, gain) pair,
    replaced whole, so no thread reads a gain made for another h/n.
    """

    def __init__(self, x_i: np.ndarray, y_i: np.ndarray):
        self.x_i, self.y_i, self.lls_gain = x_i, y_i, None

    @cached_property
    def svd(self) -> BatchSVD:
        x, y = self.x_i, self.y_i
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"batch of shape {x.shape} has a non-finite entry in x_i or y_i")
        u, s, gt = np.linalg.svd(x.T, full_matrices=False)
        if not s[-1] >= RANK_TOL * max(float(np.linalg.norm(x)), np.finfo(float).tiny):
            raise RankDeficient(f"rank-deficient batch, shape {x.shape}, at RANK_TOL {RANK_TOL:g}")
        z_star = (gt @ y) / (s[:, None] if y.ndim == 2 else s)
        return BatchSVD(u, s * s, s[:, None] * gt, z_star)

    @property
    def b(self) -> int:
        return self.x_i.shape[0]


def theta_shape(pb: Problem) -> tuple:
    return (pb.p, pb.k) if pb.kind == "softmax" else (pb.p,)


def _check_theta(pb: Problem, theta: np.ndarray, name: str = "parameters") -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != theta_shape(pb):
        raise DimensionMismatch(
            f"{name} must have shape {theta_shape(pb)}, got {theta.shape}"
        )
    return theta


def sigmoid(x):
    """Elementwise logistic function: bounded in [0, 1], exactly 1/2 at 0."""
    return 0.5 + 0.5 * np.tanh(0.5 * np.asarray(x, dtype=float))


def softmax_cols(m: np.ndarray) -> np.ndarray:
    """Column-wise softmax of a K x b matrix, stable under column shifts."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a K x b matrix, got ndim={m.ndim}")
    return _softmax_rows(m.T).T


def _softmax_rows(m: np.ndarray) -> np.ndarray:
    z = m - m.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _predict(kind: str, scores: np.ndarray) -> np.ndarray:
    """Predictions from scores: identity, sigmoid or row softmax by kind."""
    if kind == "least-squares":
        return scores
    if kind == "logistic":
        return sigmoid(scores)
    return _softmax_rows(scores)


def _residual(kind: str, x: np.ndarray, targets: np.ndarray, theta: np.ndarray):
    """Prediction minus target; rows x 1 target layout matching the kind."""
    return _predict(kind, x @ theta) - targets


def _mean_loss(kind: str, x: np.ndarray, targets: np.ndarray, theta: np.ndarray) -> float:
    rows = x.shape[0]
    z = x @ theta
    if kind == "least-squares":
        return float(np.sum(np.square(z - targets))) / (2 * rows)
    if kind == "logistic":
        # softplus(z) - y z, the stable form of the negative log-likelihood
        return float(np.sum(np.logaddexp(0.0, z) - targets * z)) / rows
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.sum(np.exp(z - zmax[:, None]), axis=1))
    true_score = np.sum(z * targets, axis=1)
    return float(np.sum(lse - true_score)) / rows


def loss(pb: Problem, theta: np.ndarray) -> float:
    """Full-data mean loss."""
    theta = _check_theta(pb, theta)
    return _mean_loss(pb.kind, pb.x, pb.targets, theta)


def batch_loss(pb: Problem, bf: BatchFactorization, theta: np.ndarray) -> float:
    """Mean loss restricted to one batch (1/b scaling)."""
    theta = _check_theta(pb, theta)
    return _mean_loss(pb.kind, bf.x_i, bf.y_i, theta)


def batch_gradient(pb: Problem, bf: BatchFactorization, theta: np.ndarray) -> np.ndarray:
    """Gradient of the batch-mean loss: (1/b) x_i^T (pred - y_i)."""
    theta = _check_theta(pb, theta)
    return bf.x_i.T @ _residual(pb.kind, bf.x_i, bf.y_i, theta) / bf.b


def full_gradient(pb: Problem, theta: np.ndarray) -> np.ndarray:
    """Gradient of the full-data mean loss: (1/n) x^T (pred - y)."""
    theta = _check_theta(pb, theta)
    return pb.x.T @ _residual(pb.kind, pb.x, pb.targets, theta) / pb.n


def local_rhs(pb: Problem, bf: BatchFactorization, theta: np.ndarray) -> np.ndarray:
    """Right-hand side of the per-batch flow: -(1/n) x_i^T (pred - y_i).

    Note the 1/n scaling: one explicit Euler step of this flow with step
    ``h = alpha * m`` is exactly an SGD step with learning rate alpha.
    """
    theta = _check_theta(pb, theta)
    return -(bf.x_i.T @ _residual(pb.kind, bf.x_i, bf.y_i, theta)) / pb.n


def reduced_flow(pb: Problem, bf: BatchFactorization):
    """The batch's reduced flow in folded form (see the module docstring),
    as one callable on the flattened state.  Build it once per local step;
    nothing is checked per call."""
    r, n = bf.svd.r, pb.n
    if pb.kind == "softmax":
        a, c = -r / n, r @ bf.y_i / n
        shape, ones = (r.shape[0], pb.k), np.ones(pb.k)

        def rhs(v):
            z = v.reshape(shape).T @ r
            z -= np.maximum.reduce(z)
            np.exp(z, out=z)
            z /= ones @ z
            out = a @ z.T
            return np.add(out, c, out=out).ravel()

        return rhs
    if pb.kind == "logistic":
        a, bt, c = -(0.5 / n) * r, 0.5 * r.T, r @ (bf.y_i - 0.5) / n
        return lambda v: a @ np.tanh(bt @ v) + c
    a, bt, c = -r / n, r.T, r @ bf.y_i / n
    return lambda v: a @ (bt @ v) + c


def reduced_rhs(pb: Problem, bf: BatchFactorization, eta: np.ndarray) -> np.ndarray:
    """The per-batch flow restricted to eta = u^T theta, at one state.

    -(1/n) r (pred(r^T eta) - y_i), evaluated through ``reduced_flow``;
    equals u^T local_rhs(theta) at any theta with u^T theta = eta.  The
    state has min(b, p) rows (times K columns for softmax) instead of p.
    """
    eta = np.asarray(eta, dtype=float)
    r = bf.svd.r
    want = (r.shape[0], pb.k) if pb.kind == "softmax" else (r.shape[0],)
    if eta.shape != want:
        raise DimensionMismatch(f"reduced state must have shape {want}, got {eta.shape}")
    return reduced_flow(pb, bf)(eta.ravel()).reshape(want)


def test_error(pb: Problem, theta: np.ndarray, holdout: Problem) -> float:
    """Misclassification fraction on a holdout set.

    Logistic predicts class 1 where the score is nonnegative (threshold at
    probability 0.5); softmax predicts the argmax with smallest-index
    tie-break.  Defined for classification problems only.
    """
    pb.check_holdout(holdout)
    theta = _check_theta(pb, theta)
    z = holdout.x @ theta
    if pb.kind == "logistic":
        pred = (z >= 0).astype(float)
        return float(np.mean(pred != holdout.targets))
    pred = np.argmax(z, axis=1)
    truth = np.argmax(holdout.targets, axis=1)
    return float(np.mean(pred != truth))
