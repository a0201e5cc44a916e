"""Generators, file formats, and partitioning."""

import struct

import numpy as np
import pytest

from splitopt import (
    Problem,
    gen_gaussian_blobs,
    gen_random_lls,
    gen_tomo_like,
    load_idx,
    load_linear_system,
    loss,
    partition,
    save_linear_system,
    split_holdout,
    trace_ray,
)
from splitopt.errors import (
    BadMagic,
    LabelOutOfRange,
    ParseError,
    RankDeficient,
    TruncatedFile,
)


def write_idx_pair(tmp_path, images, labels):
    """Hand-encode an IDX image/label pair; images is (count, rows, cols) uint8."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, *images.shape))
        f.write(images.tobytes())
    with open(lab_path, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, labels.shape[0]))
        f.write(labels.tobytes())
    return img_path, lab_path


class TestRandomLLS:
    def test_consistent_when_noise_free(self):
        pb = gen_random_lls(60, 10, 0.0, 4)
        assert loss(pb, pb.theta_ref) == pytest.approx(0.0, abs=1e-24)

    def test_large_instance_shapes(self):
        pb = gen_random_lls(10_000, 500, 0.01, 0)
        assert pb.x.shape == (10_000, 500)
        assert pb.targets.shape == (10_000,)

    def test_seed_determinism(self):
        a = gen_random_lls(40, 7, 0.3, 123)
        b = gen_random_lls(40, 7, 0.3, 123)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.theta_ref, b.theta_ref)

    def test_needs_n_at_least_p(self):
        with pytest.raises(ValueError):
            gen_random_lls(5, 10, 0.0, 0)


class TestTomoLike:
    def test_axis_aligned_rays_on_2x2_grid(self):
        """A horizontal ray through each pixel row sums that row's pixels
        with unit weights; same for vertical rays and columns."""
        top = trace_ray(2, 0.0, -0.5)  # y = 0.5 line
        np.testing.assert_allclose(top, [1.0, 1.0, 0.0, 0.0], atol=1e-12)
        bottom = trace_ray(2, 0.0, 0.5)  # y = 1.5 line
        np.testing.assert_allclose(bottom, [0.0, 0.0, 1.0, 1.0], atol=1e-12)
        left = trace_ray(2, np.pi / 2, 0.5)  # x = 0.5 line
        np.testing.assert_allclose(left, [1.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_diagonal_ray_total_length(self):
        """Lengths along any ray sum to the chord length inside the grid."""
        row = trace_ray(4, np.pi / 4, 0.0)
        assert row.sum() == pytest.approx(4 * np.sqrt(2.0), rel=1e-12)

    def test_miss_gives_zero_row(self):
        assert trace_ray(2, 0.0, 5.0).sum() == 0.0

    def test_targets_are_ray_sums_of_phantom(self):
        pb = gen_tomo_like(8, 40, 3)
        assert pb.x.shape == (40, 64)
        assert np.all(pb.x >= 0)
        np.testing.assert_allclose(pb.x @ pb.theta_ref, pb.targets, rtol=1e-12)

    def test_zero_phantom_gives_zero_targets(self):
        pb = gen_tomo_like(5, 20, 7)
        np.testing.assert_allclose(pb.x @ np.zeros(25), 0.0)

    def test_determinism(self):
        a = gen_tomo_like(6, 30, 11)
        b = gen_tomo_like(6, 30, 11)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.targets, b.targets)


class TestIdx:
    def test_exact_pixels_from_fixture(self, tmp_path):
        images = np.array(
            [[[0, 51], [102, 255]], [[255, 0], [0, 0]]], dtype=np.uint8
        )
        img, lab = write_idx_pair(tmp_path, images, [0, 1])
        pb = load_idx(img, lab)
        assert pb.kind == "logistic"
        np.testing.assert_allclose(
            pb.x, [[0.0, 0.2, 0.4, 1.0], [1.0, 0.0, 0.0, 0.0]]
        )
        np.testing.assert_allclose(pb.targets, [0.0, 1.0])

    def test_class_filter_keeps_matching_samples(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0, 1, 2])
        pb = load_idx(img, lab, class_filter=(0, 1))
        assert pb.n == 2
        assert pb.kind == "logistic"

    def test_no_filter_keeps_everything(self, tmp_path):
        images = np.zeros((4, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0, 1, 2, 2])
        pb = load_idx(img, lab)
        assert pb.n == 4
        assert pb.kind == "softmax"
        assert pb.k == 3

    def test_bad_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0])
        raw = bytearray(img.read_bytes())
        raw[3] = 0x99
        img.write_bytes(bytes(raw))
        with pytest.raises(BadMagic):
            load_idx(img, lab)

    def test_truncated_payload(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0, 1])
        img.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(TruncatedFile):
            load_idx(img, lab)

    def test_label_out_of_range(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [11])
        with pytest.raises(LabelOutOfRange):
            load_idx(img, lab)


class TestLinearSystemFile:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("1 1\n2 6\n")
        pb = load_linear_system(path)
        assert pb.x.tolist() == [[2.0]]
        assert pb.targets.tolist() == [6.0]

    def test_round_trip_exact(self, tmp_path):
        pb = gen_random_lls(17, 5, 0.2, 9)
        path = tmp_path / "sys.txt"
        save_linear_system(pb, path)
        back = load_linear_system(path)
        assert np.array_equal(back.x, pb.x)
        assert np.array_equal(back.targets, pb.targets)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("2 2\n1.0 2.0 3.0\n4.0 5.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_linear_system(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("nope\n")
        with pytest.raises(ParseError, match="line 1"):
            load_linear_system(path)


class TestBlobs:
    def test_determinism(self):
        a = gen_gaussian_blobs(50, 4, 3, 2.0, 5)
        b = gen_gaussian_blobs(50, 4, 3, 2.0, 5)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.targets, b.targets)

    def test_two_classes_are_logistic(self):
        pb = gen_gaussian_blobs(30, 3, 2, 1.0, 0)
        assert pb.kind == "logistic"
        assert set(np.unique(pb.targets)) <= {0.0, 1.0}

    def test_many_classes_are_one_hot(self):
        pb = gen_gaussian_blobs(33, 3, 5, 1.0, 0)
        assert pb.kind == "softmax"
        assert pb.targets.shape == (33, 5)
        np.testing.assert_allclose(pb.targets.sum(axis=1), 1.0)

    def test_balanced_classes(self):
        pb = gen_gaussian_blobs(32, 2, 4, 1.0, 1)
        counts = pb.targets.sum(axis=0)
        np.testing.assert_allclose(counts, 8.0)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            gen_gaussian_blobs(10, 2, 1, 1.0, 0)

    def test_split_holdout_partitions_samples(self):
        pb = gen_gaussian_blobs(40, 3, 2, 2.0, 2)
        train, hold = split_holdout(pb, 10, 0)
        assert train.n == 30 and hold.n == 10
        assert train.kind == hold.kind == "logistic"


class TestPartition:
    def test_single_batch(self):
        pb = gen_random_lls(12, 12, 0.0, 0)
        part, batches = partition(pb, 12, 0)
        assert part.m == 1
        assert batches[0].b == 12

    def test_ceiling_batch_count_with_short_tail(self):
        pb = gen_random_lls(10, 10, 0.0, 1)
        part, batches = partition(pb, 3, 1)
        assert part.m == 4
        assert [bf.b for bf in batches] == [3, 3, 3, 1]

    def test_same_seed_identical_factorization(self):
        _, a = partition(gen_random_lls(20, 6, 0.1, 2), 5, 7)
        _, b = partition(gen_random_lls(20, 6, 0.1, 2), 5, 7)
        for ba, bb in zip(a, b):
            assert np.array_equal(ba.x_i, bb.x_i)
            assert np.array_equal(ba.svd.u, bb.svd.u)

    def test_batches_cover_all_samples(self):
        pb = gen_random_lls(23, 5, 0.2, 3)
        _, batches = partition(pb, 4, 3)
        assert sum(bf.b for bf in batches) == pb.n
        rows = np.vstack([bf.x_i for bf in batches])
        # every original row appears exactly once
        orig = {tuple(r) for r in pb.x}
        seen = {tuple(r) for r in rows}
        assert orig == seen

    def test_qr_reconstructs_transposed_batches(self):
        pb = gen_random_lls(18, 9, 0.0, 4)
        _, batches = partition(pb, 6, 4)
        for bf in batches:
            np.testing.assert_allclose(bf.svd.u @ bf.svd.r, bf.x_i.T, atol=1e-12)

    def test_wide_batches_get_square_q(self):
        pb = gen_gaussian_blobs(40, 5, 2, 3.0, 0)
        _, batches = partition(pb, 16, 0)
        assert batches[0].svd.u.shape == (5, 5)
        assert batches[0].svd.r.shape == (5, 16)

    def test_epoch_order_is_seeded_permutation(self):
        pb = gen_random_lls(30, 5, 0.0, 6)
        part, _ = partition(pb, 5, 6)
        o1 = part.epoch_order(0)
        o2 = part.epoch_order(0)
        assert np.array_equal(o1, o2)
        assert sorted(o1.tolist()) == list(range(part.m))
        assert any(
            not np.array_equal(part.epoch_order(e), o1) for e in range(1, 6)
        )
        for e in range(6):
            want = np.random.default_rng([6, 1 + e]).permutation(part.m)
            assert np.array_equal(part.epoch_order(e), want)
        with pytest.raises(ValueError):
            o1[0] = o1[1]

    def test_invalid_batch_size(self):
        pb = gen_random_lls(10, 3, 0.0, 0)
        with pytest.raises(ValueError):
            partition(pb, 0, 0)
        with pytest.raises(ValueError):
            partition(pb, 11, 0)

    def test_rank_deficient_batch_propagates(self):
        x = np.ones((6, 3))  # every batch has repeated rows
        pb = Problem("least-squares", x, np.zeros(6))
        _, batches = partition(pb, 2, 0)  # factored on the first read of svd
        with pytest.raises(RankDeficient):
            batches[0].svd

    def test_kept_on_the_problem_for_the_last_batch_size_and_seed(self):
        pb = gen_random_lls(20, 6, 0.1, 2)
        part, batches = partition(pb, 5, 7)
        assert partition(pb, 5, 7)[0] is part and partition(pb, 5, 7)[1] is batches
        other = partition(pb, 4, 7)[1]
        assert other is not batches
        assert partition(pb, 4, 8)[1] is not other
        assert partition(pb, 5, 7)[1] is not batches  # one partition is kept

    def test_design_and_targets_are_owned_and_read_only(self):
        x, y = np.eye(3), np.ones(3)
        pb = Problem("least-squares", x, y)
        x[0, 0] = 5.0
        assert pb.x[0, 0] == 1.0
        with pytest.raises(ValueError):
            pb.x[0, 0] = 5.0
        with pytest.raises(ValueError):
            pb.targets[0] = 5.0

    def test_reassigned_data_get_a_fresh_partition(self):
        pb = gen_random_lls(20, 6, 0.1, 2)
        _, batches = partition(pb, 5, 7)
        pb.x = 2.0 * pb.x
        _, scaled = partition(pb, 5, 7)
        assert scaled is not batches
        np.testing.assert_array_equal(scaled[0].x_i, 2.0 * batches[0].x_i)
        pb.targets = pb.targets + 1.0
        _, shifted = partition(pb, 5, 7)
        assert shifted is not scaled
        np.testing.assert_array_equal(shifted[0].y_i, scaled[0].y_i + 1.0)
