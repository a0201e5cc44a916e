"""Dense linear-algebra kernels.

Thin QR with a deterministic sign convention, exponentials of symmetric
matrices through their eigendecomposition, the rank-structured identity

    e^{t Q B Q^T} = (I - Q Q^T) + Q e^{tB} Q^T     (Q^T Q = I),

which lets an N x N exponential be assembled from an r x r one, and the
spectral norm (from the top eigenvalue of the scaled Gram matrix) and
logarithmic norm used by the splitting-error analysis.  ``economy_qr`` is
the one QR routine; ``thin_qr`` is the same factorization restricted to
tall inputs.

Everything here is a pure function of its inputs and safe to call
concurrently.  Matrices are plain float ndarrays.  Each check runs at the
fixed threshold of its module constant below.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotOrthonormal, NotSymmetric, RankDeficient

RANK_TOL = 1e-10
SYMMETRY_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class ThinQR:
    """Factors q (orthonormal columns) and r (zero below the diagonal).

    For a tall input (rows >= cols) q is rows x cols and r is square upper
    triangular; for a wide input q is square and r upper trapezoidal.
    ``q @ r`` reconstructs the input.
    """

    q: np.ndarray
    r: np.ndarray


def thin_qr(m: np.ndarray) -> ThinQR:
    """Thin QR of a tall matrix (rows >= cols), diagonal of r nonnegative.

    Raises RankDeficient when any diagonal entry of r falls below
    ``RANK_TOL * ||m||_F``: the input columns are (numerically) dependent.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim == 2 and m.shape[0] < m.shape[1]:
        raise DimensionMismatch(
            f"thin_qr needs rows >= cols, got {m.shape}; use economy_qr"
        )
    return economy_qr(m)


def economy_qr(m: np.ndarray) -> ThinQR:
    """QR of an arbitrary matrix with thin_qr's sign fix and rank check.

    For wide inputs q is square (rows x rows) and r upper trapezoidal; this
    is the factorization used for batches with more samples than features.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("QR requires finite entries")
    q, r = np.linalg.qr(m, mode="reduced")
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    r = np.triu(d[:, None] * r)
    scale = np.linalg.norm(m)
    if np.any(np.abs(np.diag(r)) < RANK_TOL * max(scale, np.finfo(float).tiny)):
        raise RankDeficient(
            f"matrix of shape {m.shape} is rank deficient below "
            f"relative tolerance {RANK_TOL:g}"
        )
    return ThinQR(q, r)


def expm_sym(s: np.ndarray, t: float) -> np.ndarray:
    """exp(t*s) for symmetric s, via the eigendecomposition of s.

    The input is symmetrized before use; asymmetry beyond
    ``SYMMETRY_TOL * max(1, |s|_max)`` raises NotSymmetric.  For positive
    semidefinite s and t <= 0 the result has spectral norm at most 1.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {s.shape}")
    asym = float(np.max(np.abs(s - s.T))) if s.size else 0.0
    tol = SYMMETRY_TOL * (max(1.0, float(np.max(np.abs(s)))) if s.size else 1.0)
    if asym > tol:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance {tol:.3e}")
    sym = (s + s.T) / 2.0
    w, u = np.linalg.eigh(sym)
    out = (u * np.exp(t * w)) @ u.T
    return (out + out.T) / 2.0


def expm_lowrank(q: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """exp(t * q b q^T) assembled as I + q (exp(t*b) - I) q^T.

    q must have orthonormal columns (checked, NotOrthonormal otherwise) and
    b must be symmetric.  Equals the dense exponential of the N x N matrix
    q b q^T, but only an r x r exponential is ever computed.
    """
    q = np.asarray(q, dtype=float)
    b = np.asarray(b, dtype=float)
    if q.ndim != 2:
        raise DimensionMismatch(f"expected a matrix q, got ndim={q.ndim}")
    r = q.shape[1]
    if b.shape != (r, r):
        raise DimensionMismatch(f"core must be {r}x{r}, got {b.shape}")
    dev = float(np.max(np.abs(q.T @ q - np.eye(r))))
    if dev > ORTHONORMALITY_TOL:
        raise NotOrthonormal(f"q^T q deviates from identity by {dev:.3e}")
    core = expm_sym(b, t)
    out = np.eye(q.shape[0]) + q @ ((core - np.eye(r)) @ q.T)
    return (out + out.T) / 2.0 if q.shape[0] == q.shape[1] else out


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value (the matrix 2-norm).

    ``s * sqrt(lambda_max(G))`` with ``s = max|m|`` and G the smaller Gram
    matrix of ``m / s`` (``m^T m`` or ``m m^T``), its top eigenvalue from
    ``eigvalsh``: one product and one symmetric eigenvalue solve, not an
    SVD.  The top singular value keeps full relative accuracy through the
    Gram, and the scaling keeps the Gram in range for entries from 1e-300
    to 1e300.  A zero or empty matrix gives 0.0; a non-finite entry
    raises ValueError.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    s = float(np.max(np.abs(m), initial=0.0))
    if not np.isfinite(s):
        raise ValueError("spectral norm requires finite entries")
    if s == 0.0:
        return 0.0
    m = m / s
    g = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    return s * float(np.sqrt(max(np.linalg.eigvalsh(g)[-1], 0.0)))


def log_norm(m: np.ndarray) -> float:
    """Logarithmic norm: the largest eigenvalue of the symmetric part.

    Controls exponential decay: ``||exp(t*m)||_2 <= exp(t * log_norm(m))``
    for t >= 0.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
    return float(np.linalg.eigvalsh((m + m.T) / 2.0)[-1])
