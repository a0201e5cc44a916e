"""Asymptotic splitting-error analysis for row-partitioned quadratics.

Splitting a full-rank matrix X into row blocks X_1..X_k turns the linear
flow matrix A = -X^T X into a sum of negative semidefinite low-rank parts
A_i = -X_i^T X_i = Q_i B_i Q_i^T with B_i = -R_i R_i^T from the thin QR of
X_i^T.  The one-step (time t) composition of the part flows differs from
the exact flow by

    err(t) = || e^{A_k t} ... e^{A_1 t} - e^{A t} ||_2,

which, because every exponential decays on its range, tends for t -> inf
to the norm of the product of the orthogonal complements

    lim err(t) = || Pi_k ... Pi_1 ||_2,   Pi_i = I - Q_i Q_i^T.

``splitting_error`` evaluates the left side, ``error_limit`` the right
side, and ``error_sweep`` tabulates both over a time grid, all from one
eigendecomposition of A = U diag(w) U^T and of each B_i = V_i diag(w_i)
V_i^T (so Q_i must be orthonormal and B_i symmetric, as ``build_split``
makes them).  The error is carried in A's eigenbasis: U is orthogonal, so

    err(t) = || P(t) U - U diag(e^{t w}) ||_2,   P(t) = e^{A_k t} ... e^{A_1 t},

where the product starts from U and the exact flow is a column scaling,
never an N x N exponential.  Part 1 acts first: part i moves the product
P by the rank-r_i update P + Q_i V_i diag(expm1(t w_i)) V_i^T Q_i^T P,
which at t = inf is Pi_i P.  At t = 0 every update is zero and the
scaling is by ones, so err(0) is exactly 0.

The approach to the limit is governed by the slowest decay rate among the
parts and the full flow, exp(t * mu) with mu the largest of the
logarithmic norms; for an iid Gaussian X the smallest singular value can
make that rate impractically slow, so ``random_full_rank`` draws matrices
with singular values bounded away from zero.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .linalg import spectral_norm, thin_qr


@dataclass
class LowRankPart:
    q: np.ndarray  # N x r_i, orthonormal columns
    b: np.ndarray  # r_i x r_i, symmetric negative definite


@dataclass
class SplitOperators:
    parts: list
    a_full: np.ndarray
    ranks: list


def random_full_rank(
    n: int, seed: int, sigma_min: float = 0.7, sigma_max: float = 10.0
) -> np.ndarray:
    """Random n x n matrix with singular values in [sigma_min, sigma_max].

    Random orthogonal factors around a uniform spectrum; keeping
    sigma_min away from zero bounds every decay rate in the error sweep
    below by -sigma_min^2, so the sweep visibly reaches its limit.
    """
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = rng.uniform(sigma_min, sigma_max, n)
    return u @ (s[:, None] * v.T)


def build_split(x: np.ndarray, blocks: int, seed: int | None = None) -> SplitOperators:
    """Split the rows of a square full-rank x into near-equal blocks.

    With a seed the rows are permuted first (the default keeps them
    contiguous).  Raises RankDeficient when a block loses full row rank or
    the assembled A = -x^T x is not negative definite.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"expected a square matrix, got {x.shape}")
    if not (1 <= blocks <= n):
        raise ValueError(f"blocks must be in [1, {n}]")
    if seed is not None:
        x = x[np.random.default_rng(seed).permutation(n)]
    edges = np.linspace(0, n, blocks + 1).astype(int)
    parts, ranks = [], []
    for i in range(blocks):
        xi = x[edges[i] : edges[i + 1]]
        fac = thin_qr(xi.T)
        parts.append(LowRankPart(q=fac.q, b=-(fac.r @ fac.r.T)))
        ranks.append(xi.shape[0])
    a_full = -(x.T @ x)
    w = np.linalg.eigvalsh(a_full)
    if not (w[-1] < -1e-10 * abs(w[0])):
        raise RankDeficient("sum of the parts is not negative definite (x is singular)")
    return SplitOperators(parts=parts, a_full=a_full, ranks=ranks)


def _errors(ops: SplitOperators, t_grid):
    """err(t) = ||P(t) U - U diag(e^{t w})|| for each t in t_grid.  t = inf
    gives the limit ||Pi_k ... Pi_1 U|| = ||Pi_k ... Pi_1||: each part flow
    is then its projector and the exact flow is 0."""
    eigs = [np.linalg.eigh(part.b) for part in ops.parts]
    parts = [(part.q @ v, w) for part, (w, v) in zip(ops.parts, eigs)]
    w_full, u_full = np.linalg.eigh(ops.a_full)
    for t in t_grid:
        prod = u_full.copy()
        for u, w in parts:
            c = np.full(len(w), -1.0) if t == np.inf else np.expm1(t * w)
            prod += u @ (c[:, None] * (u.T @ prod))
        if t != np.inf:
            prod -= u_full * np.exp(t * w_full)
        yield spectral_norm(prod)


def splitting_error(ops: SplitOperators, t: float) -> float:
    """Spectral norm of (product of part flows at time t) - (exact flow).

    t = inf gives the limit; a negative or NaN t raises ValueError.
    """
    if not t >= 0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    return next(_errors(ops, [t]))


def error_limit(ops: SplitOperators) -> float:
    """Spectral norm of Pi_k ... Pi_1, the t -> infinity error value."""
    return next(_errors(ops, [np.inf]))


def error_sweep(ops: SplitOperators, t_grid) -> np.ndarray:
    """Rows (t, splitting_error(t), limit) over an ascending time grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a nonempty 1-D sequence")
    if np.any(np.isnan(t_grid)) or np.any(np.diff(t_grid) < 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be ascending, nonnegative and not NaN")
    *errs, lim = _errors(ops, [*t_grid, np.inf])
    return np.column_stack([t_grid, errs, np.full(t_grid.size, lim)])


def write_sweep_csv(rows: np.ndarray, path) -> None:
    """Emit a sweep as CSV with columns t,error,limit."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "error", "limit"])
        for t, err, lim in rows:
            writer.writerow([repr(float(t)), repr(float(err)), repr(float(lim))])
