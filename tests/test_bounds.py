"""Splitting-error construction, sweep, and the projector-product limit."""

import numpy as np
import pytest

from splitopt import (
    SplitOperators,
    build_split,
    error_limit,
    error_sweep,
    expm_lowrank,
    expm_sym,
    log_norm,
    random_full_rank,
    spectral_norm,
    splitting_error,
)
from splitopt.bounds import LowRankPart, write_sweep_csv
from splitopt.errors import RankDeficient


class TestBuildSplit:
    def test_single_block_is_whole_operator(self):
        x = random_full_rank(10, 0)
        ops = build_split(x, 1)
        assert len(ops.parts) == 1
        part = ops.parts[0]
        np.testing.assert_allclose(
            part.q @ part.b @ part.q.T, ops.a_full, atol=1e-10
        )

    def test_parts_sum_to_full_operator(self):
        x = random_full_rank(30, 1)
        for k in (2, 3, 7):
            ops = build_split(x, k)
            total = sum(p.q @ p.b @ p.q.T for p in ops.parts)
            assert np.max(np.abs(total - ops.a_full)) <= 1e-10 * np.max(np.abs(ops.a_full))

    def test_hundred_dim_two_block_shapes(self):
        x = random_full_rank(100, 2)
        ops = build_split(x, 2)
        assert ops.ranks == [50, 50]
        assert ops.parts[0].q.shape == (100, 50)
        assert ops.parts[0].b.shape == (50, 50)

    def test_forty_blocks_near_equal(self):
        x = random_full_rank(100, 3)
        ops = build_split(x, 40)
        assert len(ops.parts) == 40
        assert sum(ops.ranks) == 100
        assert set(ops.ranks) <= {2, 3}

    def test_parts_negative_semidefinite(self):
        x = random_full_rank(20, 4)
        ops = build_split(x, 4)
        for part in ops.parts:
            w = np.linalg.eigvalsh(part.b)
            assert np.all(w < 0)

    def test_singular_matrix_rejected(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 8))
        x[-1] = x[:4].sum(axis=0)  # dependent row in the second block
        with pytest.raises(RankDeficient):
            build_split(x, 2)

    def test_seeded_row_permutation(self):
        x = random_full_rank(12, 6)
        a = build_split(x, 3, seed=1)
        b = build_split(x, 3, seed=1)
        np.testing.assert_allclose(a.parts[0].q, b.parts[0].q)
        np.testing.assert_allclose(a.a_full, b.a_full)  # A ignores row order


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
        """q1 = e1, q2 = (e1+e2)/sqrt(2): ||Pi2 Pi1|| = 1/sqrt(2)."""
        q1 = np.array([[1.0], [0.0]])
        q2 = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        a_full = -(q1 @ q1.T) - (q2 @ q2.T)
        ops = SplitOperators(
            parts=[LowRankPart(q1, -np.eye(1)), LowRankPart(q2, -np.eye(1))],
            a_full=a_full,
            ranks=[1, 1],
        )
        assert error_limit(ops) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-10)

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
            max(log_norm(p.b) for p in ops.parts), log_norm(ops.a_full)
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


def per_t_error(ops, t):
    """err(t) rebuilt from scratch: every part flow and the exact flow."""
    prod = np.eye(ops.a_full.shape[0])
    for part in ops.parts:
        prod = expm_lowrank(part.q, part.b, t) @ prod
    return spectral_norm(prod - expm_sym(ops.a_full, t))


class TestEvaluator:
    """The shared evaluator against the formulas it replaces."""

    @pytest.mark.parametrize("blocks", [1, 2, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_t_formula(self, seed, blocks):
        ops = build_split(random_full_rank(20, seed), blocks)
        t_grid = [0.0, 0.3, 5.0, 50.0]
        rows = error_sweep(ops, t_grid)
        for t, row in zip(t_grid, rows):
            want = per_t_error(ops, t)
            assert splitting_error(ops, t) == pytest.approx(want, abs=1e-12)
            assert row[1] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("blocks", [1, 2, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_limit_is_projector_product(self, seed, blocks):
        ops = build_split(random_full_rank(20, seed), blocks)
        prod = np.eye(20)
        for part in ops.parts:
            prod = (np.eye(20) - part.q @ part.q.T) @ prod
        want = spectral_norm(prod)
        assert error_limit(ops) == pytest.approx(want, abs=1e-12)
        assert error_sweep(ops, [0.0, 1.0])[:, 2] == pytest.approx(want, abs=1e-12)

    def test_sweep_decomposes_each_operator_once(self, monkeypatch):
        ops = build_split(random_full_rank(30, 3), 7)
        eigh, calls = np.linalg.eigh, []

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        rows = error_sweep(ops, np.linspace(0.0, 50.0, 51))
        assert rows.shape == (51, 3)
        assert len(calls) == len(ops.parts) + 1


class TestDecayProperty:
    def test_full_flow_contracts(self):
        """||e^{At}|| <= e^{t mu(A)} <= 1 for the negative-definite A."""
        from splitopt import spectral_norm

        x = random_full_rank(20, 17)
        ops = build_split(x, 2)
        mu = log_norm(ops.a_full)
        for t in (0.1, 1.0, 5.0):
            nrm = spectral_norm(expm_sym(ops.a_full, t))
            assert nrm <= np.exp(t * mu) + 1e-10
            assert nrm <= 1.0 + 1e-12
