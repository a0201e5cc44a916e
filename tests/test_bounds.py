"""Splitting-error construction, sweep, and the projector-product limit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitopt import (
    BatchFactorization,
    SplitOperators,
    build_split,
    error_limit,
    error_sweep,
    expm_lowrank,
    expm_sym,
    lls_local_exact,
    log_norm,
    random_full_rank,
    spectral_norm,
    splitting_error,
)
from splitopt.bounds import write_sweep_csv
from splitopt.errors import RankDeficient


def count_calls(monkeypatch, *names):
    """The shapes each named ``np.linalg`` routine is called on, by name."""
    calls = {name: [] for name in names}
    for name in names:
        def counting(a, *args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls[_name].append(np.shape(a))
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestBuildSplit:
    def test_single_block_is_whole_operator(self):
        x = random_full_rank(10, 0)
        ops = build_split(x, 1)
        assert len(ops.parts) == 1
        part = ops.parts[0]
        np.testing.assert_allclose(
            -(part.u * part.w) @ part.u.T, -(x.T @ x), atol=1e-10
        )

    def test_parts_sum_to_full_operator(self):
        x = random_full_rank(30, 1)
        a = -(x.T @ x)
        for k in (2, 3, 7):
            ops = build_split(x, k)
            total = -sum((p.u * p.w) @ p.u.T for p in ops.parts)
            assert np.max(np.abs(total - a)) <= 1e-10 * np.max(np.abs(a))

    def test_hundred_dim_two_block_shapes(self):
        x = random_full_rank(100, 2)
        ops = build_split(x, 2)
        assert [len(p.w) for p in ops.parts] == [50, 50]
        assert ops.parts[0].u.shape == (100, 50)
        assert ops.parts[0].w.shape == (50,)

    def test_forty_blocks_near_equal(self):
        x = random_full_rank(100, 3)
        ops = build_split(x, 40)
        assert len(ops.parts) == 40
        ranks = [len(p.w) for p in ops.parts]
        assert sum(ranks) == 100
        assert set(ranks) <= {2, 3}

    def test_parts_negative_semidefinite(self):
        """Each part is -u diag(w) u^T with w = s^2 > 0."""
        x = random_full_rank(20, 4)
        ops = build_split(x, 4)
        for part in ops.parts:
            assert np.all(part.w > 0)

    def test_singular_matrix_rejected(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 8))
        x[-1] = x[:4].sum(axis=0)  # dependent row in the second block
        with pytest.raises(RankDeficient):
            build_split(x, 2)

    def test_one_svd_per_block_and_no_qr(self, monkeypatch):
        """Each block is factored by its thin SVD, the minibatch one."""
        x = random_full_rank(20, 6)
        calls = count_calls(monkeypatch, "svd", "qr")
        ops = build_split(x, 3)
        assert calls == {"svd": [(20, 6), (20, 7), (20, 7)], "qr": []}
        assert [len(p.w) for p in ops.parts] == [6, 7, 7]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        x = random_full_rank(8, 6)
        x[5, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            build_split(x, 2)

    @pytest.mark.parametrize("blocks", [0, 9, 2.5, True], ids=["zero", "over-n", "fraction", "bool"])
    def test_bad_block_count_rejected(self, blocks):
        """2.5 used to raise TypeError, and True to build one block."""
        with pytest.raises(ValueError, match="blocks must be"):
            build_split(random_full_rank(8, 6), blocks)

    @pytest.mark.parametrize("seed", [True, 1.5, "3", -1], ids=["bool", "fraction", "str", "negative"])
    def test_bad_seed_rejected(self, seed):
        """True used to seed with 1, and 1.5 and "3" to raise numpy's
        TypeError."""
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            build_split(random_full_rank(8, 6), 2, seed=seed)

    def test_seeded_row_permutation(self):
        x = random_full_rank(12, 6)
        a = build_split(x, 3, seed=1)
        b = build_split(x, 3, seed=1)
        np.testing.assert_allclose(a.parts[0].u, b.parts[0].u)
        np.testing.assert_allclose(a.lam, np.linalg.eigvalsh(-(x.T @ x)))  # A ignores row order



class TestRandomFullRank:
    def test_singular_values_in_range(self):
        s = np.linalg.svd(random_full_rank(12, 3, 0.5, 2.0), compute_uv=False)
        assert 0.5 - 1e-12 <= s.min() and s.max() <= 2.0 + 1e-12

    @pytest.mark.parametrize("name", ["sigma_min", "sigma_max"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_bound_rejected(self, name, bad):
        """Both used to raise numpy's OverflowError, naming neither bound."""
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            random_full_rank(6, 0, **{name: bad})

    def test_reversed_bounds_rejected(self):
        """A reversed pair used to raise numpy's "high - low < 0"."""
        with pytest.raises(ValueError, match="sigma_min 3.0 exceeds sigma_max 2.0"):
            random_full_rank(6, 0, sigma_min=3.0, sigma_max=2.0)

    def test_negative_sigma_min_rejected(self):
        """sigma_min = -1 used to return singular values below it."""
        with pytest.raises(ValueError, match="sigma_min must be finite and positive, got -1"):
            random_full_rank(6, 0, sigma_min=-1)

class TestSplittingError:
    def test_zero_at_t_zero(self):
        ops = build_split(random_full_rank(12, 7), 3)
        assert splitting_error(ops, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_single_part_exact_for_all_t(self):
        ops = build_split(random_full_rank(10, 8), 1)
        for t in (0.5, 2.0, 20.0):
            assert splitting_error(ops, t) <= 1e-10

    def test_commuting_blocks_give_zero_error(self):
        """Block-diagonal rows act on disjoint coordinates, so the part
        flows commute and the composition is exact."""
        rng = np.random.default_rng(9)
        x = np.zeros((8, 8))
        x[:4, :4] = random_full_rank(4, 10)
        x[4:, 4:] = random_full_rank(4, 11)
        ops = build_split(x, 2)
        for t in (0.3, 1.0, 5.0):
            assert splitting_error(ops, t) <= 1e-10


class TestErrorLimit:
    def test_complementary_subspaces_give_zero(self):
        ops = build_split(np.eye(2), 2)
        assert error_limit(ops) == pytest.approx(0.0, abs=1e-12)

    def test_hand_two_projector_value(self):
        """Rows e1 and (e1+e2)/sqrt(2): parts of rank 1 and weight 1 with
        u1 = e1, u2 = (e1+e2)/sqrt(2), up to sign, so ||Pi2 Pi1|| = 1/sqrt(2)."""
        r = np.sqrt(0.5)
        ops = build_split(np.array([[1.0, 0.0], [r, r]]), 2)
        q1 = np.array([[1.0], [0.0]])
        q2 = np.array([[r], [r]])
        total = -sum((p.u * p.w) @ p.u.T for p in ops.parts)
        np.testing.assert_allclose(total, -(q1 @ q1.T) - (q2 @ q2.T), atol=1e-15)
        for part in ops.parts:
            assert part.w == pytest.approx([1.0])
        assert error_limit(ops) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-10)

    def test_empty_split_rejected(self):
        """No parts used to reach numpy's "need at least one array to
        concatenate" in the first error evaluation."""
        with pytest.raises(ValueError, match="a split needs at least one part"):
            SplitOperators(parts=[])

    def test_singular_split_rejected(self):
        """One rank-2 part in three dimensions: A is singular.  A split
        built by hand used to report a limit of 0.9999999999999999."""
        part = BatchFactorization(random_full_rank(3, 0)[:2], np.zeros(2)).svd
        with pytest.raises(RankDeficient, match="not negative definite"):
            SplitOperators([part])

    def test_parts_of_different_dimensions_rejected(self):
        """Used to reach numpy's "matmul: Input operand 1 has a mismatch in
        its core dimension 0" in the first error evaluation."""
        parts = [BatchFactorization(random_full_rank(n, 0), np.zeros(n)).svd for n in (3, 2)]
        with pytest.raises(ValueError, match=r"different dimensions \[2, 3\]"):
            SplitOperators(parts)

    def test_limit_is_in_unit_interval(self):
        for seed in range(5):
            ops = build_split(random_full_rank(24, seed), 4)
            lim = error_limit(ops)
            assert 0.0 <= lim <= 1.0 + 1e-12


class TestSweepConvergence:
    def test_error_approaches_limit(self):
        """The sweep flattens onto the projector-product value, with decay
        governed by the worst logarithmic norm."""
        x = random_full_rank(60, 12)
        ops = build_split(x, 2)
        lim = error_limit(ops)
        mu = max(
            max(-p.w.min() for p in ops.parts), log_norm(-(x.T @ x))
        )
        assert mu < 0
        for t in (30.0, 45.0):
            dev = abs(splitting_error(ops, t) - lim)
            assert dev <= max(1e-4, 10.0 * np.exp(t * mu))

    def test_sweep_table_layout(self):
        ops = build_split(random_full_rank(16, 13), 4)
        rows = error_sweep(ops, np.linspace(0.0, 10.0, 6))
        assert rows.shape == (6, 3)
        np.testing.assert_allclose(rows[:, 2], rows[0, 2])  # constant limit column
        assert rows[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_single_point_grid(self):
        ops = build_split(random_full_rank(8, 14), 2)
        rows = error_sweep(ops, [0.0])
        assert rows.shape == (1, 3)
        assert rows[0, 0] == 0.0
        assert rows[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_descending_grid_rejected(self):
        ops = build_split(random_full_rank(8, 15), 2)
        with pytest.raises(ValueError):
            error_sweep(ops, [1.0, 0.5])

    def test_error_at_zero_is_exactly_zero(self):
        ops = build_split(random_full_rank(10, 16), 2)
        assert error_sweep(ops, [0.0, 1.0])[0, 1] == 0.0
        assert splitting_error(ops, 0.0) == 0.0

    def test_nan_time_rejected(self):
        ops = build_split(random_full_rank(8, 15), 2)
        with pytest.raises(ValueError, match="(?i)nan"):
            splitting_error(ops, float("nan"))
        with pytest.raises(ValueError, match="(?i)nan"):
            error_sweep(ops, [0.0, float("nan"), 1.0])

    def test_infinite_time_is_the_limit(self):
        ops = build_split(random_full_rank(8, 15), 2)
        lim = error_limit(ops)
        assert splitting_error(ops, np.inf) == lim
        assert error_sweep(ops, [0.0, np.inf])[1, 1] == lim

    def test_csv_round_trip(self, tmp_path):
        ops = build_split(random_full_rank(10, 16), 2)
        rows = error_sweep(ops, [0.0, 1.0, 2.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,error,limit"
        back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_allclose(back, rows)


def per_t_error(ops, a, t):
    """err(t) rebuilt from scratch: every part flow and the exact flow of
    the oracle a, formed apart from the parts."""
    prod = np.eye(len(a))
    for part in ops.parts:
        prod = expm_lowrank(part.u, -np.diag(part.w), t) @ prod
    return spectral_norm(prod - expm_sym(a, t))


def projector_product_norm(ops):
    """||Pi_k ... Pi_1||, the limit rebuilt from dense projectors."""
    n = len(ops.parts[0].u)
    prod = np.eye(n)
    for part in ops.parts:
        prod = (np.eye(n) - part.u @ part.u.T) @ prod
    return spectral_norm(prod)


class TestEvaluator:
    """The shared evaluator against the formulas it replaces."""

    @pytest.mark.parametrize("blocks", [1, 2, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_t_formula(self, seed, blocks):
        x = random_full_rank(20, seed)
        ops = build_split(x, blocks)
        t_grid = [0.0, 0.3, 5.0, 50.0]
        rows = error_sweep(ops, t_grid)
        for t, row in zip(t_grid, rows):
            want = per_t_error(ops, -(x.T @ x), t)
            assert splitting_error(ops, t) == pytest.approx(want, abs=1e-12)
            assert row[1] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("blocks", [1, 2, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_limit_is_projector_product(self, seed, blocks):
        ops = build_split(random_full_rank(20, seed), blocks)
        want = projector_product_norm(ops)
        assert error_limit(ops) == pytest.approx(want, abs=1e-12)
        assert error_sweep(ops, [0.0, 1.0])[:, 2] == pytest.approx(want, abs=1e-12)

    def test_forty_blocks_of_a_hundred(self):
        """The benchmark's shape: 40 parts of rank 2 or 3, one run of rank N."""
        x = random_full_rank(100, 0)
        ops = build_split(x, 40)
        t_grid = [0.0, 0.5, 5.0, 50.0]
        rows = error_sweep(ops, t_grid)
        for t, row in zip(t_grid, rows):
            assert row[1] == pytest.approx(per_t_error(ops, -(x.T @ x), t), abs=1e-12)
        assert rows[0, 2] == pytest.approx(projector_product_norm(ops), abs=1e-12)

    def test_parts_past_rank_n_fold(self):
        """Two splits of one matrix, 2 and 3 blocks: ranks 10+10 | 6+7+7 sum
        to 2N, so the first run's coefficients fold into the product before
        the second run starts.  Both splits sum to -x^T x, so A = -2 x^T x."""
        x = random_full_rank(20, 4)
        ops = SplitOperators(build_split(x, 2).parts + build_split(x, 3, seed=1).parts)
        t_grid = [0.0, 0.5, 5.0, 50.0]
        rows = error_sweep(ops, t_grid)
        assert rows[0, 1] == 0.0
        for t, row in zip(t_grid, rows):
            assert row[1] == pytest.approx(per_t_error(ops, -2 * (x.T @ x), t), abs=1e-12)
        assert rows[0, 2] == pytest.approx(projector_product_norm(ops), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), data=st.data(), seed=st.integers(0, 2**16),
           t=st.floats(0.0, 100.0))
    def test_sweep_rows_match_per_t_formula(self, n, data, seed, t):
        blocks = data.draw(st.integers(1, n), label="blocks")
        x = random_full_rank(n, seed)
        ops = build_split(x, blocks)
        err = error_sweep(ops, [t])[0, 1]
        assert abs(err - per_t_error(ops, -(x.T @ x), t)) <= 1e-12

    def test_sweep_decomposes_each_operator_once(self, monkeypatch):
        """One eigh, of A, when the split is built; the parts are diagonal
        already, and no evaluation decomposes anything."""
        x = random_full_rank(30, 3)
        calls = count_calls(monkeypatch, "eigh", "svd")
        ops = build_split(x, 7)
        assert calls["eigh"] == [(30, 30)] and len(calls["svd"]) == 7  # one per block
        calls["eigh"].clear()
        calls["svd"].clear()
        rows = error_sweep(ops, np.linspace(0.0, 50.0, 51))
        splitting_error(ops, 2.0)
        error_limit(ops)
        error_sweep(ops, [0.0, 1.0])
        assert rows.shape == (51, 3)
        assert calls == {"eigh": [], "svd": []}


class TestSplittingEpoch:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), data=st.data(), seed=st.integers(0, 2**16),
           t=st.one_of(st.floats(0.0, 100.0), st.just(np.inf)))
    def test_error_is_the_least_squares_epoch(self, n, data, seed, t):
        """err(t) is the distance of one least-squares splitting epoch
        (zero targets, n = 1, h = t) from the exact flow: the sweep's part
        gains are the local step's, and at t = inf its Kaczmarz projections."""
        blocks = data.draw(st.integers(1, n), label="blocks")
        x = random_full_rank(n, seed)
        edges = np.linspace(0, n, blocks + 1).astype(int)
        batches = [BatchFactorization(x[a:b], np.zeros(b - a)) for a, b in zip(edges[:-1], edges[1:])]
        epoch = np.eye(n)
        for j in range(n):
            for bf in batches:
                epoch[:, j] = lls_local_exact(bf, epoch[:, j], t, 1)
        ops = build_split(x, blocks)
        exact = np.zeros((n, n)) if t == np.inf else expm_sym(-(x.T @ x), t)
        want = error_limit(ops) if t == np.inf else splitting_error(ops, t)
        assert abs(spectral_norm(epoch - exact) - want) <= 1e-12


class TestDecayProperty:
    def test_full_flow_contracts(self):
        """||e^{At}|| <= e^{t mu(A)} <= 1 for the negative-definite A."""
        from splitopt import spectral_norm

        x = random_full_rank(20, 17)
        a = -(x.T @ x)
        mu = log_norm(a)
        assert build_split(x, 2).lam[-1] == pytest.approx(mu)  # the split keeps mu(A)
        for t in (0.1, 1.0, 5.0):
            nrm = spectral_norm(expm_sym(a, t))
            assert nrm <= np.exp(t * mu) + 1e-10
            assert nrm <= 1.0 + 1e-12
