"""Generators, file formats, and partitioning."""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from splitopt import (
    DatasetSpec,
    Problem,
    gen_gaussian_blobs,
    gen_random_lls,
    gen_tomo_like,
    load_idx,
    load_linear_system,
    loss,
    make_problem,
    partition,
    save_linear_system,
    split_holdout,
    trace_ray,
)
from splitopt import test_error as misclassification
from splitopt.bounds import random_full_rank
from splitopt.errors import (
    BadMagic,
    LabelOutOfRange,
    ParseError,
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


class TestDatasetSpec:
    @pytest.mark.parametrize("kind, name, value, least", [
        ("random-lls", "n", 100.5, 1), ("random-lls", "p", True, 1),
        ("gaussian-blobs", "k", 2.5, 2), ("random-lls", "n", "5", 1),
    ], ids=["fractional-n", "bool-p", "fractional-k", "str-n"])
    def test_non_integer_count_rejected(self, kind, name, value, least):
        """These used to escape as a TypeError that named no field: the
        string from the spec's own check, the others from the generator."""
        message = f"{name} must be an integer >= {least}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            DatasetSpec(kind=kind, **{name: value})


class TestGeneratorSeeds:
    GENERATORS = {
        "random-lls": lambda seed: gen_random_lls(20, 3, 0.0, seed),
        "tomo-like": lambda seed: gen_tomo_like(4, 10, seed),
        "gaussian-blobs": lambda seed: gen_gaussian_blobs(40, 3, 2, 2.0, seed),
        "random-full-rank": lambda seed: random_full_rank(6, seed),
    }

    @pytest.mark.parametrize("seed", [True, -1, 1.5, "1"],
                             ids=["bool", "negative", "fraction", "str"])
    @pytest.mark.parametrize("name", list(GENERATORS))
    def test_bad_seed_rejected(self, name, seed):
        """True used to give the seed-1 data, -1 numpy's message naming no
        field, and 1.5 a TypeError."""
        message = f"seed must be an integer >= 0, got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.GENERATORS[name](seed)


class TestGeneratorArguments:
    CASES = {
        "lls-fractional-n": (lambda: gen_random_lls(2.5, 2, 0.0, 0),
                             "n must be an integer >= 1, got 2.5"),
        "lls-zero-p": (lambda: gen_random_lls(5, 0, 0.0, 0), "p must be an integer >= 1, got 0"),
        "lls-negative-noise": (lambda: gen_random_lls(5, 2, -1.0, 0),
                               "noise_sigma must be finite and nonnegative, got -1.0"),
        "blobs-fractional-k": (lambda: gen_gaussian_blobs(10, 2, 2.5, 1.0, 0),
                               "k must be an integer >= 2, got 2.5"),
        "blobs-one-class": (lambda: gen_gaussian_blobs(10, 2, 1, 1.0, 0),
                            "k must be an integer >= 2, got 1"),
        "blobs-zero-n": (lambda: gen_gaussian_blobs(0, 2, 2, 1.0, 0),
                         "n must be an integer >= 1, got 0"),
        "blobs-nan-separation": (lambda: gen_gaussian_blobs(10, 2, 2, float("nan"), 0),
                                 "separation must be finite and nonnegative, got nan"),
        "tomo-fractional-side": (lambda: gen_tomo_like(2.5, 10, 0),
                                 "image_side must be an integer >= 2, got 2.5"),
        "tomo-side-one": (lambda: gen_tomo_like(1, 10, 0), "image_side must be an integer >= 2, got 1"),
        "tomo-fractional-rays": (lambda: gen_tomo_like(4, 2.5, 0),
                                 "rays must be an integer >= 1, got 2.5"),
        "full-rank-fractional-n": (lambda: random_full_rank(2.5, 0),
                                   "n must be an integer >= 1, got 2.5"),
        "full-rank-zero-n": (lambda: random_full_rank(0, 0), "n must be an integer >= 1, got 0"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bad_argument_rejected(self, case):
        """Checked with a DatasetSpec's wording.  The fractions used to raise
        numpy's TypeError, random_full_rank(0, 0) returned a 0 x 0 matrix
        and a noise_sigma of -1 was accepted."""
        call, message = self.CASES[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


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

    @pytest.mark.parametrize(
        "labels, class_filter, kind, k",
        [([0, 1, 1], (0, 1, 2), "logistic", 1),
         ([0, 1, 2, 2, 1], (0, 1, 2, 3), "softmax", 3)],
        ids=["two-of-three", "three-of-four"],
    )
    def test_classes_are_the_labels_kept(self, tmp_path, labels, class_filter, kind, k):
        """A filter naming a label no row holds used to add a class with an
        all-zero target column: labels [0, 1, 1] under (0, 1, 2) gave K = 3."""
        images = np.zeros((len(labels), 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, labels)
        pb = load_idx(img, lab, class_filter)
        assert (pb.kind, pb.k) == (kind, k)
        if kind == "logistic":
            assert pb.targets.tolist() == [0.0, 1.0, 1.0]
        else:
            assert pb.targets.sum(axis=0).tolist() == [1.0, 2.0, 2.0]

    @pytest.mark.parametrize("class_filter", [(0.7, 1.2), (True, False), ("x", 1)],
                             ids=["fractions", "bools", "str"])
    def test_non_integer_filter_entry_rejected(self, tmp_path, class_filter):
        """The first two used to keep labels 0 and 1 silently, through
        int(), and "x" to raise int()'s message, which named no field."""
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0, 1, 1])
        message = f"class_filter must be an integer >= 0, got {class_filter[0]!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_idx(img, lab, class_filter)
        with pytest.raises(ValueError, match=re.escape(message)):
            DatasetSpec(kind="idx-images", images_path=str(img), labels_path=str(lab),
                        class_filter=class_filter)

    def test_integer_filter_spec_loads(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0, 1, 2])
        spec = DatasetSpec(kind="idx-images", images_path=str(img), labels_path=str(lab),
                           class_filter=(0, 1))
        pb = make_problem(spec)
        assert (pb.kind, pb.n) == ("logistic", 2)
        assert pb.targets.tolist() == [0.0, 1.0]

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

    @pytest.mark.parametrize(
        "labels, class_filter, message",
        [([0, 1, 2], (1,), r"leaves 1 rows of 1 class\(es\)"),
         ([0, 1, 1], (1, 2), r"leaves 2 rows of 1 class\(es\)"),
         ([0, 1, 2], (7, 8), r"leaves 0 rows of 0 class\(es\)"),
         ([3, 3, 3], None, r"leaves 3 rows of 1 class\(es\)")],
        ids=["one-class-filter", "one-class-left", "no-match", "one-class-file"],
    )
    def test_degenerate_class_sets_rejected(self, tmp_path, labels, class_filter, message):
        """A one-class filter used to give a softmax problem with K = 1,
        whose loss and test error are always 0; a filter matching no label
        failed later, on the design matrix's shape."""
        images = np.zeros((len(labels), 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, labels)
        with pytest.raises(ValueError, match=message) as err:
            load_idx(img, lab, class_filter)
        assert str(lab) in str(err.value) and f"class_filter {class_filter!r}" in str(err.value)

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

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file"),
        ("2 1.5\n1 2\n3 4\n", "line 1: header entries must be integers"),
        ("3 1\n1 2\n3 4\n", "header declares 3 rows but file has 2"),
        ("2 1\n1 2\n3 four\n", "line 3: non-numeric value"),
        ("2 1\n1 2\n3 4\n5 6\nfoo bar\n", "line 4: expected no more than the 2 rows declared"),
        ("2 1\n1 2\n3 4\n\nfoo bar\n", "line 5: expected no more than the 2 rows declared"),
    ], ids=["empty", "non-integer-header", "fewer-rows", "non-numeric", "extra-row",
            "text-after-blank"])
    def test_parse_error_names_file_and_line(self, tmp_path, text, message):
        """Each malformed file is refused, naming where; past the declared
        rows only blank lines may follow."""
        path = tmp_path / "sys.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
            load_linear_system(path)

    def test_trailing_blank_lines_are_accepted(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("2 1\n1 2\n3 4\n\n  \n\t\n")
        pb = load_linear_system(path)
        assert pb.x.tolist() == [[1.0], [3.0]] and pb.targets.tolist() == [2.0, 4.0]


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

    @pytest.mark.parametrize(
        "n_holdout, seed, message",
        [(True, 0, "n_holdout must be an integer >= 1"),
         (2.0, 0, "n_holdout must be an integer >= 1"),
         (10, -1, "seed must be an integer >= 0"),
         (10, 1.5, "seed must be an integer >= 0"),
         (10, True, "seed must be an integer >= 0")],
        ids=["bool-count", "float-count", "negative-seed", "fraction-seed", "bool-seed"],
    )
    def test_split_holdout_checks_count_and_seed(self, n_holdout, seed, message):
        """n_holdout = True used to hold out one row."""
        pb = gen_gaussian_blobs(40, 3, 2, 2.0, 2)
        with pytest.raises(ValueError, match=message):
            split_holdout(pb, n_holdout, seed)


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

    @pytest.mark.parametrize(
        "b, seed, message",
        [(True, 0, "batch size must be an integer >= 1"),
         (2.5, 0, "batch size must be an integer >= 1"),
         (5, -1, "seed must be an integer >= 0"),
         (5, 1.5, "seed must be an integer >= 0"),
         (5, "3", "seed must be an integer >= 0")],
        ids=["bool-size", "fraction-size", "negative-seed", "fraction-seed", "str-seed"],
    )
    def test_size_and_seed_checked_where_they_enter(self, b, seed, message):
        """b = True used to run unit batches, b = 2.5 to raise a bare
        TypeError, and a negative seed numpy's message, naming no field."""
        pb = gen_random_lls(10, 3, 0.0, 0)
        with pytest.raises(ValueError, match=message):
            partition(pb, b, seed)

    def test_rank_deficient_batch_propagates(self):
        """A batch's dependent rows reach its SVD, factored on first read, as
        its numerical rank: two equal rows of ones keep one component,
        s = sqrt(6) along the unit diagonal, and still factor x_i^T."""
        x = np.ones((6, 3))  # every batch has repeated rows
        pb = Problem("least-squares", x, np.arange(6.0))
        _, batches = partition(pb, 2, 0)
        svd = batches[0].svd
        assert svd.u.shape == (3, 1) and svd.r.shape == (1, 2)
        assert svd.w == pytest.approx([6.0], rel=1e-15)
        assert np.abs(svd.u[:, 0]) == pytest.approx(np.full(3, 1 / math.sqrt(3)), rel=1e-15)
        np.testing.assert_allclose(svd.u @ svd.r, batches[0].x_i.T, rtol=0, atol=1e-15)

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

    def test_frozen_problem_takes_new_data_through_replace(self):
        """A problem's fields cannot be reassigned; ``replace`` makes a
        problem of new data, with its own partition, and a holdout rebuilt
        with new targets scores by its own labels."""
        pb = gen_random_lls(20, 6, 0.1, 2)
        _, batches = partition(pb, 5, 7)
        for name in ("kind", "x", "targets", "theta_ref"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pb, name, getattr(pb, name))
        _, scaled = partition(dataclasses.replace(pb, x=2.0 * pb.x), 5, 7)
        assert scaled is not batches and partition(pb, 5, 7)[1] is batches
        np.testing.assert_array_equal(scaled[0].x_i, 2.0 * batches[0].x_i)

        blobs = gen_gaussian_blobs(90, 4, 3, 3.0, 1)
        train = Problem(blobs.kind, blobs.x[:60], blobs.targets[:60])
        hold = Problem(blobs.kind, blobs.x[60:], blobs.targets[60:])
        theta = np.linalg.lstsq(train.x, train.targets, rcond=None)[0]
        pred = np.argmax(hold.x @ theta, axis=1)
        labels = np.argmax(hold.targets, axis=1)
        assert misclassification(train, theta, hold) == np.mean(pred != labels)
        zeros = np.zeros_like(hold.targets)
        zeros[:, 0] = 1.0
        rebuilt = dataclasses.replace(hold, targets=zeros)
        assert misclassification(train, theta, rebuilt) == np.mean(pred != 0) > 0.5
