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
theta: the flow never leaves theta_0 + range(u), so only a state of the
batch's numerical rank k <= min(b, p) (times K) needs to be evolved.
``local_rhs`` is the original full-space right-hand side.
``reduced_flow`` builds the restricted one, -(1/n) r (pred(r^T eta) - y_i)
with r = diag(s) g^T (so x_i^T = u r), for one batch with its batch-only
factors folded in:

    least squares   a (B eta) + c         a = -r/n, B = r^T, c = r y_i / n
    logistic        a tanh(B eta) + c     a = -(0.5/n) r, B = 0.5 r^T,
                                          c = r (y_i - 0.5) / n
    softmax         (r e^T + c).ravel()   c = r y_i / n

The logistic form is sigmoid(s) = 0.5 + 0.5 tanh(s/2).  Softmax keeps its
k x K state row-major and lays the scores out K x b, z = eta^T r; e is z
exponentiated and divided by -n times its column sums, (-n 1_K)^T z, all
in z's own buffer, so the flow's -1/n rides on the b divisors and r is
read as the SVD keeps it; c is added into the product's output.  z is
shifted by its column maxima first only where the state does not prove
exp safe.  For v the flattened state,
|z_cj| = |eta_c^T r_j| <= ||v|| ||x_j|| <= ||v|| s_max, so v^T v < T^2 / max(w), one inner product against a limit fixed per flow,
puts every score below T = ``EXP_SAFE_SCORE`` = 600 in magnitude.  Then
each e^z lies in [e^-T, e^T], normal floats, and a column sum of K of them
stays finite for any K below 4e47: nothing overflows or underflows, so the
unshifted softmax has the shifted one's forward-error bound (Blanchard,
Higham & Higham, IMA J. Numer. Anal. 41, 2021) without the shift's column
reduction and broadcast subtract.  At K = 10, b = 64 an evaluation takes
6.9 us against 9.3 us shifted (medians of 15, numpy 2.4, OpenBLAS at one
thread, 2-vCPU Xeon VM).  A larger, infinite or NaN state takes the
shifted form.  Every softmax evaluation of the benchmark's ``classify``
workload is unshifted (||v|| s_max stays under 300 there); ten-class
blobs with columns scaled by geomspace(1, 100, 20) shift 97-99.6% of
their evaluations.

The offset c, and for softmax the limit T^2 / max(w) and -n 1_K, depend
only on the batch, the kind and n, so the batch keeps them
(``BatchFactorization.flow_consts``) for every later flow at that
(kind, n).  Building a step's flow then takes about 3 us instead of 6
(logistic, b = 50) and 1 us instead of 9 (softmax, b = 64, K = 10; best
of 5, OpenBLAS at one thread, 2-vCPU Xeon VM).  The logistic a and B,
scalar multiples of r, are built per flow: keeping them too gained no
speed for more peak RSS.
``reduced_rhs`` evaluates the flow at one state, with a shape check.

A record costs one pass over the rows it measures.  The softmax loss
makes it class-major: the true-class total is one inner product of the
n x K scores with the one-hot targets, and the scores, copied once to
K x n, are shifted by their column maxima, exponentiated in place and
summed by ``ones.dot``, so no reduction runs along the strided axis (at
n = 2000, K = 10 about 140 us against 550 us row-major, numpy 2.4).
``test_error`` derives a holdout's true labels, the argmax of its
one-hot targets, on first use and keeps them on the holdout ``Problem``.

The flow closures, the residual, the loss and the holdout scores run once
per RHS evaluation, step or record, so their products call the method
``ndarray.dot``, not ``@``: the same BLAS routine and the same bits,
without matmul's ufunc dispatch, which at these sizes costs more than the
arithmetic.  The softmax scores eta^T r at (10, 20)-by-(20, 64) take
0.85 us with ``.dot`` against 1.51 us with ``@`` (numpy 2.4, OpenBLAS at
one thread).
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .linalg import RANK_TOL

KINDS = ("least-squares", "logistic", "softmax")

# T: softmax scores below T in magnitude are exponentiated unshifted.
# e^T ~ 3.8e260, so a column sum of K terms stays finite for any K below
# 4e47, and e^-T ~ 2.7e-261 is a normal float64 (the least is 2.2e-308).
EXP_SAFE_SCORE = 600.0


@dataclass(frozen=True, eq=False)
class Problem:
    """A design matrix and its targets, as a value: the fields cannot be
    reassigned and ``x`` and ``targets`` are owned, read-only copies, so
    what the problem keeps (its partition, a holdout's labels) never goes
    stale.  ``dataclasses.replace(pb, x=...)`` makes a problem of new data.
    Problems compare and hash by identity, so one can key a dict."""

    kind: str
    x: np.ndarray
    targets: np.ndarray
    theta_ref: np.ndarray | None = None  # planted solution / phantom, if known
    _partition: dict = field(default_factory=dict, init=False, repr=False)
    _theta_shape: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        for name in ("x", "targets"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.x.ndim != 2 or 0 in self.x.shape:
            raise DimensionMismatch(f"design matrix must be n x p, got {self.x.shape}")
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.targets)):
            raise ValueError("design and targets must be finite")
        n = self.x.shape[0]
        if self.kind == "softmax":
            if self.targets.ndim != 2 or self.targets.shape[0] != n or self.targets.shape[1] < 2:
                raise DimensionMismatch(
                    f"softmax targets must be n x K one-hot, K >= 2, got {self.targets.shape}"
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
        # Derived once here, since every step's parameter check reads it.
        object.__setattr__(self, "_theta_shape",
                           (self.p, self.k) if self.kind == "softmax" else (self.p,))
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

    @cached_property
    def _labels(self) -> np.ndarray:
        """A softmax problem's true labels, the argmax of its one-hot targets."""
        return np.argmax(self.targets, axis=1)

    def check_holdout(self, holdout: "Problem") -> None:
        """Raise unless ``holdout`` can score a classifier fitted to this problem."""
        if self.kind == "least-squares":
            raise ValueError("test_error is defined for classification problems")
        if holdout.kind != self.kind or holdout.p != self.p or holdout.k != self.k:
            raise DimensionMismatch("holdout problem does not match (kind, p, K)")


class BatchSVD(NamedTuple):
    """A batch's thin SVD x_i^T = u diag(s) g^T at its numerical rank k, as
    its steps read it: u (p x k), w = s^2, r = diag(s) g^T (x_i^T = u r, to
    the dropped components) and z* = (g^T y_i) / s by rows."""

    u: np.ndarray
    w: np.ndarray
    r: np.ndarray
    z_star: np.ndarray


class BatchFactorization:
    """One minibatch (x_i, y_i) and what its local steps read, kept on it.

    ``svd``, the batch's one factorization, is computed on first read and
    kept: the least-squares steps read (u, w, z*), the RK step u and r.
    It keeps the batch's numerical rank k, the components with
    s >= ``RANK_TOL * ||x_i||_F``, and drops the rest, whatever the kind:
    a batch with dependent rows (a repeated or zero row, say) steps on
    range(u) alone, where the h = inf step is the pseudoinverse projection
    of block Kaczmarz (Needell & Tropp, Linear Algebra Appl. 2014).  A
    dropped component, s below the tolerance, would move theta by at most
    t s (s |u^T theta| + |g^T y_i|) in a step at a finite t = h/n (alpha / b
    for SGD).  A batch with nothing to drop keeps LAPACK's arrays,
    uncopied; one with every row zero has k = 0, and each of its steps
    leaves theta as it is.  The read raises ValueError for a non-finite
    x_i or y_i.  ``optimizers.check_run`` reads it for every config but
    logistic and softmax SGD, which never do, and every run shares it.
    ``lls_gain`` keeps what the last least-squares step read, one tuple
    (h/n, u, u^T, gain, z*) whose u and z* are the SVD's own arrays and
    u^T a view of u, so it holds no p x k copy, only the k gains.
    ``flow_consts`` keeps the last ``reduced_flow``'s constants, tagged
    with the (kind, n) they were made for.
    """

    def __init__(self, x_i: np.ndarray, y_i: np.ndarray):
        self.x_i, self.y_i, self.b = x_i, y_i, x_i.shape[0]
        self.lls_gain = self.flow_consts = None

    @cached_property
    def svd(self) -> BatchSVD:
        x, y = self.x_i, self.y_i
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"batch of shape {x.shape} has a non-finite entry in x_i or y_i")
        u, s, gt = np.linalg.svd(x.T, full_matrices=False)
        # s descends: keep the numerical rank k, s >= RANK_TOL ||x_i||_F > 0.
        k = np.count_nonzero(s >= RANK_TOL * max(float(np.linalg.norm(x)), np.finfo(float).tiny))
        if k < len(s):
            u, s, gt = u[:, :k], s[:k], gt[:k]
        z_star = (gt @ y) / (s[:, None] if y.ndim == 2 else s)
        return BatchSVD(u, s * s, s[:, None] * gt, z_star)


def theta_shape(pb: Problem) -> tuple:
    """(p,) for least squares and logistic regression, (p, K) for softmax."""
    return pb._theta_shape


def _check_theta(pb: Problem, theta: np.ndarray, name: str = "parameters") -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != pb._theta_shape:
        raise DimensionMismatch(
            f"{name} must have shape {pb._theta_shape}, got {theta.shape}"
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


def _residual(kind: str, x: np.ndarray, targets: np.ndarray, theta: np.ndarray):
    """Prediction minus target, the prediction being the scores x theta
    themselves, their sigmoid or their row softmax by kind."""
    z = x.dot(theta)
    if kind == "logistic":
        z = sigmoid(z)
    elif kind == "softmax":
        z = _softmax_rows(z)
    return z - targets


def _loss_and_residual(kind: str, x: np.ndarray, targets: np.ndarray, theta: np.ndarray):
    """Mean loss over the rows of x and, for least squares, the residual
    x theta - targets it was read from (None for the other kinds)."""
    rows = x.shape[0]
    z = x.dot(theta)
    if kind == "least-squares":
        z -= targets
        return float(z.dot(z)) / (2 * rows), z
    if kind == "logistic":
        # softplus(z) - y z, the stable form of the negative log-likelihood
        return float(np.sum(np.logaddexp(0.0, z) - targets * z)) / rows, None
    # One class-major pass: the true-class total as one inner product, then
    # the scores K x n, so each reduction runs over rows of contiguous data.
    true_total = z.ravel().dot(targets.ravel())
    z = z.T.copy()
    zmax = np.maximum.reduce(z)
    z -= zmax
    np.exp(z, out=z)
    lse = np.log(np.ones(z.shape[0]).dot(z))
    lse += zmax
    return float(lse.sum() - true_total) / rows, None


def loss(pb: Problem, theta: np.ndarray) -> float:
    """Full-data mean loss."""
    theta = _check_theta(pb, theta)
    return _loss_and_residual(pb.kind, pb.x, pb.targets, theta)[0]


def loss_and_residual(pb: Problem, theta: np.ndarray) -> tuple:
    """Full-data mean loss and, for least squares, the residual X theta - y
    it was read from (None for the other kinds): one pass over the rows
    gives a run's record both its loss and its relative residual."""
    theta = _check_theta(pb, theta)
    return _loss_and_residual(pb.kind, pb.x, pb.targets, theta)


def batch_loss(pb: Problem, bf: BatchFactorization, theta: np.ndarray) -> float:
    """Mean loss restricted to one batch (1/b scaling)."""
    theta = _check_theta(pb, theta)
    return _loss_and_residual(pb.kind, bf.x_i, bf.y_i, theta)[0]


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
    nothing is checked per call.  The offset c (and for softmax the limit
    T^2 / max(w), inf at rank 0, and the normalizer -n 1_K) is read from
    ``bf.flow_consts`` and built only when that tuple is missing or tagged
    with another (kind, n).  The softmax flow skips the column-max shift at a
    state v with v^T v < T^2 / max(w), which bounds every score below
    T = ``EXP_SAFE_SCORE`` in magnitude, so exp neither overflows nor
    underflows; at any other state (NaN and inf included) it shifts."""
    kind, n, r = pb.kind, pb.n, bf.svd.r
    kept = bf.flow_consts
    if kept is None or kept[0] != (kind, n):
        kept = ((kind, n), r.dot(bf.y_i - 0.5 if kind == "logistic" else bf.y_i) / n)
        if kind == "softmax":  # ||v|| s_max < T iff v.v < limit; at rank 0, v is empty
            w = bf.svd.w
            kept += (EXP_SAFE_SCORE**2 / w.max() if w.size else np.inf, np.full(pb.k, -float(n)))
        bf.flow_consts = kept
    c = kept[1]
    if kind == "softmax":
        limit, minus_n = kept[2:]
        shape = (r.shape[0], pb.k)

        def rhs(v):
            z = v.reshape(shape).T.dot(r)
            if not v.dot(v) < limit:  # a NaN or inf state shifts too
                z -= np.maximum.reduce(z)
            np.exp(z, out=z)
            z /= minus_n.dot(z)
            out = r.dot(z.T)
            out += c
            return out.ravel()

        return rhs
    if kind == "logistic":
        a, bt = -(0.5 / n) * r, 0.5 * r.T
        return lambda v: a.dot(np.tanh(bt.dot(v))) + c
    a, bt = -r / n, r.T
    return lambda v: a.dot(bt.dot(v)) + c


def reduced_rhs(pb: Problem, bf: BatchFactorization, eta: np.ndarray) -> np.ndarray:
    """The per-batch flow restricted to eta = u^T theta, at one state.

    -(1/n) r (pred(r^T eta) - y_i), evaluated through ``reduced_flow``;
    equals u^T local_rhs(theta) at any theta with u^T theta = eta.  The
    state has k <= min(b, p) rows, the batch's numerical rank (times K
    columns for softmax), instead of p.
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
    z = holdout.x.dot(theta)
    if pb.kind == "logistic":
        pred = (z >= 0).astype(float)
        return float(np.mean(pred != holdout.targets))
    return float(np.mean(np.argmax(z, axis=1) != holdout._labels))
