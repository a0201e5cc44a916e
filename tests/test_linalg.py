"""Dense-kernel tests: QR contracts, exponential identities, norms.

Oracles are kept independent of the code paths they check: the symmetric
exponential is verified against a truncated Taylor series, the low-rank
identity against the dense exponential, and the Gram-eigenvalue spectral
norm against LAPACK's SVD.
"""

import numpy as np
import pytest

from splitopt import (
    ThinQR,
    economy_qr,
    expm_lowrank,
    expm_sym,
    log_norm,
    spectral_norm,
    thin_qr,
)
from splitopt.errors import (
    DimensionMismatch,
    NotOrthonormal,
    NotSymmetric,
    RankDeficient,
)


def expm_taylor(a, t, terms=40):
    """Independent oracle: truncated series sum_k (t a)^k / k!."""
    a = np.asarray(a, dtype=float)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ (t * a) / k
        out = out + term
    return out


def random_orthonormal(n, r, rng):
    return np.linalg.qr(rng.standard_normal((n, r)))[0]


class TestThinQR:
    def test_identity(self):
        fac = thin_qr(np.eye(3))
        np.testing.assert_allclose(fac.q, np.eye(3))
        np.testing.assert_allclose(fac.r, np.eye(3))

    def test_column_vector_hand_norm(self):
        """(3, 4) has norm 5, so q = (0.6, 0.8) and r = (5)."""
        fac = thin_qr(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(fac.q.ravel(), [0.6, 0.8])
        np.testing.assert_allclose(fac.r, [[5.0]])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((50, 20))
        fac = thin_qr(m)
        assert np.max(np.abs(fac.q.T @ fac.q - np.eye(20))) <= 1e-12
        assert np.linalg.norm(fac.q @ fac.r - m) <= 1e-12 * np.linalg.norm(m)

    def test_invariants_many_seeds(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(2, 40))
            b = int(rng.integers(1, p + 1))
            m = rng.standard_normal((p, b))
            fac = thin_qr(m)
            assert np.max(np.abs(fac.q.T @ fac.q - np.eye(b))) <= 1e-12
            assert np.linalg.norm(fac.q @ fac.r - m) <= 1e-12 * np.linalg.norm(m)
            assert np.all(np.diag(fac.r) >= 0)
            assert np.allclose(fac.r, np.triu(fac.r))

    def test_nonnegative_diagonal(self):
        rng = np.random.default_rng(3)
        fac = thin_qr(-np.abs(rng.standard_normal((6, 3))))
        assert np.all(np.diag(fac.r) >= 0)

    def test_rank_deficient_raises(self):
        m = np.ones((5, 2))  # two identical columns
        with pytest.raises(RankDeficient):
            thin_qr(m)

    def test_wide_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            thin_qr(np.ones((2, 5)))

    def test_economy_qr_wide(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 9))
        fac = economy_qr(m)
        assert fac.q.shape == (4, 4)
        assert fac.r.shape == (4, 9)
        assert np.max(np.abs(fac.q.T @ fac.q - np.eye(4))) <= 1e-12
        assert np.linalg.norm(fac.q @ fac.r - m) <= 1e-12 * np.linalg.norm(m)

    def test_returns_thinqr_type(self):
        assert isinstance(thin_qr(np.eye(2)), ThinQR)


class TestExpmSym:
    def test_t_zero_is_identity(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((5, 5))
        s = s + s.T
        np.testing.assert_allclose(expm_sym(s, 0.0), np.eye(5), atol=1e-14)

    def test_diagonal_case(self):
        out = expm_sym(np.diag([1.0, 2.0]), 1.0)
        np.testing.assert_allclose(out, np.diag([np.e, np.e**2]), rtol=1e-14)

    def test_matches_taylor_series(self):
        rng = np.random.default_rng(42)
        s = rng.standard_normal((8, 8))
        s = (s + s.T) / 2
        got = expm_sym(s, 0.7)
        want = expm_taylor(s, 0.7)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_semigroup(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((6, 6))
        s = (s + s.T) / 2
        lhs = expm_sym(s, 0.4) @ expm_sym(s, 1.1)
        rhs = expm_sym(s, 1.5)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_psd_contraction(self):
        """For s PSD and t <= 0 the exponential is a contraction."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 6))
        s = x.T @ x
        for t in (-0.1, -1.0, -10.0):
            assert spectral_norm(expm_sym(s, t)) <= 1.0 + 1e-12

    def test_asymmetric_raises(self):
        with pytest.raises(NotSymmetric):
            expm_sym(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_decay_bounded_by_log_norm(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 8))
        a = -(x.T @ x)
        mu = log_norm(a)
        for t in (0.5, 2.0, 7.0):
            assert spectral_norm(expm_sym(a, t)) <= np.exp(t * mu) + 1e-10
            assert spectral_norm(expm_sym(a, t)) <= 1.0 + 1e-12


class TestExpmLowRank:
    def test_t_zero(self):
        rng = np.random.default_rng(1)
        q = random_orthonormal(7, 3, rng)
        b = np.diag([-1.0, -2.0, -3.0])
        np.testing.assert_allclose(expm_lowrank(q, b, 0.0), np.eye(7), atol=1e-14)

    def test_basis_column_hand_case(self):
        """q = e1 in R^3, b = (-1), t = 1 gives diag(1/e, 1, 1)."""
        q = np.array([[1.0], [0.0], [0.0]])
        got = expm_lowrank(q, np.array([[-1.0]]), 1.0)
        np.testing.assert_allclose(got, np.diag([np.exp(-1.0), 1.0, 1.0]), atol=1e-14)

    def test_matches_dense_exponential(self):
        rng = np.random.default_rng(23)
        q = random_orthonormal(30, 5, rng)
        core = rng.standard_normal((5, 5))
        core = (core + core.T) / 2
        got = expm_lowrank(q, core, 0.9)
        want = expm_sym(q @ core @ q.T, 0.9)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_matches_dense_over_t_range(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n, r = 12, 4
            q = random_orthonormal(n, r, rng)
            core = rng.standard_normal((r, r))
            core = (core + core.T) / 2
            t = float(rng.uniform(-10, 10))
            got = expm_lowrank(q, core, t)
            want = expm_sym(q @ core @ q.T, t)
            assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_not_orthonormal_raises(self):
        q = np.array([[1.0], [1.0]])
        with pytest.raises(NotOrthonormal):
            expm_lowrank(q, np.array([[-1.0]]), 1.0)


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 6))) == 0.0

    def test_diagonal_absolute_max(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, rel=1e-12)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((20, 20))
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(want, rel=1e-8)

    def test_matches_svd_oracle_rectangular(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            shape = (int(rng.integers(2, 25)), int(rng.integers(2, 25)))
            m = rng.standard_normal(shape)
            want = np.linalg.svd(m, compute_uv=False)[0]
            assert spectral_norm(m) == pytest.approx(want, rel=1e-8)

    def test_projector_products(self):
        """Near-tied top singular values still resolve (projector case)."""
        rng = np.random.default_rng(3)
        q1 = random_orthonormal(40, 20, rng)
        q2 = random_orthonormal(40, 20, rng)
        m = (np.eye(40) - q2 @ q2.T) @ (np.eye(40) - q1 @ q1.T)
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    @pytest.mark.parametrize("shape", ["tall", "wide", "square", "rank-1", "zero", "empty"])
    def test_matches_numpy_norm_at_every_scale(self, shape, scale):
        rng = np.random.default_rng(23)
        m = {
            "tall": lambda: rng.standard_normal((30, 7)),
            "wide": lambda: rng.standard_normal((5, 40)),
            "square": lambda: rng.standard_normal((25, 25)),
            "rank-1": lambda: np.outer(rng.standard_normal(12), rng.standard_normal(9)),
            "zero": lambda: np.zeros((6, 4)),
            "empty": lambda: np.zeros((0, 4)),
        }[shape]() * scale
        want = np.linalg.norm(m, 2)
        assert spectral_norm(m) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            spectral_norm(m)


class TestLogNorm:
    def test_identity(self):
        assert log_norm(np.eye(4)) == pytest.approx(1.0)

    def test_skew_symmetric_is_zero(self):
        m = np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert log_norm(m) == pytest.approx(0.0, abs=1e-14)

    def test_gram_negative(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((12, 7))
        a = -(x.T @ x)
        want = np.linalg.eigvalsh((a + a.T) / 2)[-1]
        got = log_norm(a)
        assert got <= 1e-12
        assert got == pytest.approx(want, abs=1e-12)
