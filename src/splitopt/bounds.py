"""Asymptotic splitting-error analysis for row-partitioned quadratics.

Splitting a full-rank matrix X into row blocks X_1..X_k turns the linear
flow matrix A = -X^T X into a sum of negative semidefinite low-rank parts
A_i = -X_i^T X_i = -u_i diag(w_i) u_i^T, w_i = s_i^2 > 0: each part is
its block's ``problems.BatchSVD`` (thin SVD X_i^T = u_i diag(s_i) g_i^T
at the block's numerical rank), the one the least-squares step reads.
The one-step (time t) composition of the part flows differs from the
exact flow by

    err(t) = || e^{A_k t} ... e^{A_1 t} - e^{A t} ||_2,

which, because every exponential decays on its range, tends for t -> inf
to the norm of the product of the orthogonal complements

    lim err(t) = || Pi_k ... Pi_1 ||_2,   Pi_i = I - u_i u_i^T.

``splitting_error`` evaluates the left side, ``error_limit`` the right
side, and ``error_sweep`` tabulates both over a time grid.  A is the sum of
the parts, A = -Q diag(w) Q^T with Q = [u_1 ... u_k] (N x R), and a
``SplitOperators`` decomposes it once, A = U diag(lam) U^T, when it is
built; every split is checked there to be negative definite, however it
was made.  The error is carried in A's eigenbasis: U is orthogonal, so

    err(t) = || U^T P(t) U - diag(e^{t lam}) ||_2,   P(t) = e^{A_k t} ... e^{A_1 t},

and the exact flow is a diagonal, never an N x N exponential.  Part 1
acts first, and part j maps P to P + u_j C_j u_j^T P by the least-squares
step's gain C_j = diag(expm1(-t w_j)) at t = h/n: P(t) is one splitting
epoch with zero targets.  At t = inf, C_j = -I (w_j > 0, as the SVD
keeps only the numerical rank) and the map is Pi_j, the Kaczmarz
projection.  So P(t) U = U + Q M, with the coefficient block M (R x N)
filled part by part from S = Q^T Q and W = Q^T U, both formed once per
split, with its decomposition:

    M_j = C_j (W_j + S_{j,<j} M_{<j}),

and the error matrix is W^T M + diag(-expm1(t lam)): small products, one
N x R x N product and one norm per t, where updating P part by part
would read and write all of it k times.  Each M_j = C_j u_j^T P_{j-1} U
has norm <= 1, so the recursion sums bounded terms.  To keep S within
N x N, the recursion runs over consecutive parts whose ranks sum to at
most N (a ``build_split`` split is one such run).  The runs before a
run fold into P, so it starts from its Q^T P U = W + W E, E the sum of
their W^T M.  At t = 0 every C_j is 0, so M and the diagonal are exactly
0 and so is err(0).

The approach to the limit goes as exp(t * mu), mu the largest of -min(w_i)
and A's logarithmic norm; an iid Gaussian X can make that rate impractically
slow, so ``random_full_rank`` keeps singular values away from zero.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficient
from .linalg import spectral_norm
from .ode import _check_count, _check_real
from .problems import BatchFactorization


@dataclass
class SplitOperators:
    """A's parts, each a row block's ``BatchSVD`` (A_i = -u diag(w) u^T),
    in the order their flows act, and what building it derives once: A's
    eigenvalues ``lam`` (ascending) and the runs the error recursion
    reads, each as its stacked weights w (R), the row span in Q = [u_j ...]
    (N x R) of each part but the first, S = Q^T Q and W = Q^T U.  Raises
    ValueError for no parts or parts of different N, RankDeficient unless
    A is negative definite."""

    parts: list
    lam: np.ndarray = field(init=False, repr=False)
    runs: list = field(init=False, repr=False)

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a split needs at least one part")
        dims = sorted({len(p.u) for p in self.parts})
        if len(dims) > 1:
            raise ValueError(f"a split's parts act on different dimensions {dims}")
        # Runs of consecutive parts whose ranks sum to at most N, or one part.
        runs = [[]]
        for part in self.parts:
            if runs[-1] and sum(len(p.w) for p in runs[-1]) + len(part.w) > dims[0]:
                runs.append([])
            runs[-1].append(part)
        runs = [(np.hstack([p.u for p in run]), np.concatenate([p.w for p in run]),
                 np.cumsum([len(p.w) for p in run]).tolist()) for run in runs]
        self.lam, u = np.linalg.eigh(-sum((q * w) @ q.T for q, w, _ in runs))
        if not (self.lam[-1] < -1e-10 * abs(self.lam[0])):
            raise RankDeficient("sum of the parts is not negative definite")
        self.runs = [(w, list(zip(ends[:-1], ends[1:])), q.T @ q, q.T @ u)
                     for q, w, ends in runs]


def random_full_rank(
    n: int, seed: int, sigma_min: float = 0.7, sigma_max: float = 10.0
) -> np.ndarray:
    """Random n x n matrix with singular values in [sigma_min, sigma_max].

    Random orthogonal factors around a uniform spectrum; keeping
    sigma_min away from zero bounds every decay rate in the error sweep
    below by -sigma_min^2, so the sweep visibly reaches its limit.  n >= 1;
    both bounds must be finite and positive, with sigma_min <= sigma_max.
    """
    _check_count("n", n)
    _check_count("seed", seed, 0)
    _check_real("sigma_min", sigma_min)
    _check_real("sigma_max", sigma_max)
    if sigma_min > sigma_max:
        raise ValueError(f"sigma_min {sigma_min!r} exceeds sigma_max {sigma_max!r}")
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = rng.uniform(sigma_min, sigma_max, n)
    return u @ (s[:, None] * v.T)


def build_split(x: np.ndarray, blocks: int, seed: int | None = None) -> SplitOperators:
    """Split the rows of a square full-rank x into near-equal blocks.

    With a seed the rows are permuted first (the default keeps them
    contiguous).  Each block is a part at its numerical rank, as a batch
    is.  Raises ValueError for a non-finite entry and, in
    ``SplitOperators``, RankDeficient when x is singular.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"expected a square matrix, got {x.shape}")
    _check_count("blocks", blocks)
    if blocks > n:
        raise ValueError(f"blocks must be in [1, {n}], got {blocks}")
    if seed is not None:
        _check_count("seed", seed, 0)
        x = x[np.random.default_rng(seed).permutation(n)]
    edges = np.linspace(0, n, blocks + 1).astype(int)
    parts = [BatchFactorization(x[a:b], np.zeros(b - a)).svd
             for a, b in zip(edges[:-1], edges[1:])]
    return SplitOperators(parts)


def _errors(ops: SplitOperators, t_grid):
    """err(t) = ||U^T P(t) U - diag(e^{t lam})|| for each t in t_grid.  t = inf
    gives the limit ||Pi_k ... Pi_1||: each part flow is then its projector
    (C_j = expm1(-inf) = -I) and the exact flow is 0."""
    n = len(ops.lam)
    for t in t_grid:
        e = None  # U^T P U - I, the runs so far folded into P
        for w, spans, s, qtu in ops.runs:
            c = np.expm1(-t * w)
            m = c[:, None] * (qtu if e is None else qtu + qtu @ e)
            cs = c[:, None] * s
            for a, b in spans:
                m[a:b] += cs[a:b, :a] @ m[:a]
            e = qtu.T @ m if e is None else e + qtu.T @ m
        e.ravel()[:: n + 1] += 1.0 if t == np.inf else -np.expm1(t * ops.lam)
        yield spectral_norm(e)


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
