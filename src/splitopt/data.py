"""Dataset generation, file ingestion, and batch partitioning.

Generators are pure functions of their seed.  Partitioning fixes the
batches once (contiguous slices after a single seeded shuffle) and keeps
them on the problem for every run over it; only the per-epoch visit order
is re-randomized, through ``Partition.epoch_order``.

File formats
------------
IDX (MNIST-family), big endian, pre-decompressed:
    images: magic 0x00000803, count, rows, cols, then uint8 pixels
    labels: magic 0x00000801, count, then uint8 labels
Linear-system text format:
    header line "n p", then n lines of p+1 scalars (a row of X, then y).
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagic,
    LabelOutOfRange,
    ParseError,
    TruncatedFile,
)
from .problems import BatchFactorization, Problem

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

DATASET_KINDS = (
    "random-lls",
    "tomo-like",
    "idx-images",
    "linear-system-file",
    "gaussian-blobs",
)


@dataclass
class DatasetSpec:
    """Declarative description of a dataset; see ``make_problem``."""

    kind: str
    n: int = 1000
    p: int = 50
    k: int = 2
    noise_sigma: float = 0.0
    seed: int = 0
    separation: float = 4.0
    image_side: int = 10
    rays: int = 200
    path: str | None = None
    images_path: str | None = None
    labels_path: str | None = None
    class_filter: tuple | None = None

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be at least 1")
        for name, least in (("k", 2), ("rays", 1), ("image_side", 2)):
            if (val := getattr(self, name)) < least:
                raise ValueError(f"{name} must be at least {least}, got {val!r}")
        for name in ("noise_sigma", "separation"):
            val = getattr(self, name)
            if not val >= 0:  # NaN fails too
                raise ValueError(f"{name} must be nonnegative, got {val!r}")
        if self.kind == "linear-system-file" and self.path is None:
            raise ValueError("linear-system-file needs a path")
        if self.kind == "idx-images" and None in (self.images_path, self.labels_path):
            raise ValueError("idx-images needs images_path and labels_path")


def make_problem(spec: DatasetSpec) -> Problem:
    """Materialize the dataset a spec describes."""
    if spec.kind == "random-lls":
        return gen_random_lls(spec.n, spec.p, spec.noise_sigma, spec.seed)
    if spec.kind == "tomo-like":
        return gen_tomo_like(spec.image_side, spec.rays, spec.seed)
    if spec.kind == "idx-images":
        return load_idx(spec.images_path, spec.labels_path, spec.class_filter)
    if spec.kind == "linear-system-file":
        return load_linear_system(spec.path)
    return gen_gaussian_blobs(spec.n, spec.p, spec.k, spec.separation, spec.seed)


def gen_random_lls(n: int, p: int, noise_sigma: float, seed: int) -> Problem:
    """Random dense least-squares instance with a planted solution.

    X has iid standard normal entries, the hidden theta* is standard
    normal, and y = X theta* plus Gaussian noise with standard deviation
    ``noise_sigma``.  theta* is retained on the problem for error metrics.
    """
    if n < p:
        raise ValueError("gen_random_lls expects n >= p")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    theta_star = rng.standard_normal(p)
    y = x @ theta_star + noise_sigma * rng.standard_normal(n)
    return Problem(kind="least-squares", x=x, targets=y, theta_ref=theta_star)


def trace_ray(image_side: int, angle: float, offset: float) -> np.ndarray:
    """Intersection lengths of one ray with every cell of a pixel grid.

    The grid is [0, S]^2 with unit pixels; the ray has direction
    (cos angle, sin angle) and passes at signed perpendicular distance
    ``offset`` from the grid center.  Returns a flat row in C order
    (row-major over image[row, col], x along columns, y along rows).
    """
    s = int(image_side)
    d = np.array([np.cos(angle), np.sin(angle)])
    p0 = np.array([s / 2.0, s / 2.0]) + offset * np.array([-d[1], d[0]])
    # Clip the line to the grid square (slab method).
    t_lo, t_hi = -np.inf, np.inf
    for ax in range(2):
        if abs(d[ax]) > 1e-300:
            ta, tb = (0.0 - p0[ax]) / d[ax], (s - p0[ax]) / d[ax]
            t_lo = max(t_lo, min(ta, tb))
            t_hi = min(t_hi, max(ta, tb))
        elif not (0.0 <= p0[ax] <= s):
            return np.zeros(s * s)
    row = np.zeros(s * s)
    if not (t_hi > t_lo) or not np.isfinite(t_lo) or not np.isfinite(t_hi):
        return row
    crossings = [t_lo, t_hi]
    for ax in range(2):
        if abs(d[ax]) > 1e-300:
            ts = (np.arange(1, s) - p0[ax]) / d[ax]
            crossings.extend(t for t in ts if t_lo < t < t_hi)
    ts = np.array(sorted(crossings))
    for a, b in zip(ts[:-1], ts[1:]):
        if b - a <= 1e-12:
            continue
        mid = p0 + d * (a + b) / 2.0
        col = min(max(int(np.floor(mid[0])), 0), s - 1)
        r = min(max(int(np.floor(mid[1])), 0), s - 1)
        row[r * s + col] += b - a
    return row


def _phantom(image_side: int, rng) -> np.ndarray:
    """Smooth nonnegative test image: a few random Gaussian bumps."""
    s = image_side
    yy, xx = np.mgrid[0:s, 0:s] + 0.5
    img = np.zeros((s, s))
    for _ in range(4):
        cx, cy = rng.uniform(0.2 * s, 0.8 * s, 2)
        width = rng.uniform(0.1 * s, 0.3 * s)
        amp = rng.uniform(0.5, 1.0)
        img += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * width**2))
    return img


def gen_tomo_like(image_side: int, rays: int, seed: int) -> Problem:
    """Synthetic tomography-style system: random line integrals of a phantom.

    Each row of X holds the per-pixel intersection lengths of one random
    ray (uniform angle, offset within the inscribed band so every ray hits
    the grid); y = X vec(phantom), noise-free.  The phantom is retained as
    theta_ref.
    """
    if image_side < 2:
        raise ValueError("image_side must be at least 2")
    rng = np.random.default_rng(seed)
    img = _phantom(image_side, rng)
    s = image_side
    rows = np.empty((rays, s * s))
    for i in range(rays):
        angle = rng.uniform(0.0, np.pi)
        offset = rng.uniform(-0.495 * s, 0.495 * s)
        rows[i] = trace_ray(s, angle, offset)
    phantom = img.ravel()
    return Problem(
        kind="least-squares", x=rows, targets=rows @ phantom, theta_ref=phantom
    )


def _read_exact(f, count, path):
    data = f.read(count)
    if len(data) != count:
        raise TruncatedFile(f"{path}: expected {count} more bytes, got {len(data)}")
    return data


def load_idx(images_path, labels_path, class_filter=None) -> Problem:
    """Load an IDX image/label pair as a classification problem.

    Pixels are scaled to [0, 1] and flattened row-major.  With a two-class
    filter the result is a logistic problem ({0, 1} targets, smaller label
    mapped to 0); otherwise labels are one-hot encoded over the classes
    kept.  Labels above 9 are rejected.
    """
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGE_MAGIC:
            raise BadMagic(f"{images_path}: magic {magic:#010x}, expected image IDX")
        pixels = np.frombuffer(
            _read_exact(f, count * rows * cols, images_path), dtype=np.uint8
        )
    with open(labels_path, "rb") as f:
        magic, lcount = struct.unpack(">ii", _read_exact(f, 8, labels_path))
        if magic != IDX_LABEL_MAGIC:
            raise BadMagic(f"{labels_path}: magic {magic:#010x}, expected label IDX")
        labels = np.frombuffer(_read_exact(f, lcount, labels_path), dtype=np.uint8)
    if count != lcount:
        raise TruncatedFile(
            f"image count {count} != label count {lcount} "
            f"({images_path}, {labels_path})"
        )
    if labels.size and labels.max() > 9:
        raise LabelOutOfRange(f"{labels_path}: label {labels.max()} > 9")
    x = pixels.reshape(count, rows * cols).astype(float) / 255.0
    labels = labels.astype(int)
    if class_filter:
        classes = sorted(set(int(c) for c in class_filter))
        keep = np.isin(labels, classes)
        x, labels = x[keep], labels[keep]
    else:
        classes = sorted(set(labels.tolist()))
    if len(classes) == 2:
        y = (labels == classes[1]).astype(float)
        return Problem(kind="logistic", x=x, targets=y)
    onehot = (labels[:, None] == np.array(classes)).astype(float)
    return Problem(kind="softmax", x=x, targets=onehot)


def load_linear_system(path) -> Problem:
    """Read the "n p" text format into a least-squares problem."""
    with open(path, "r") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: line 1: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"{path}: line 1: expected header 'n p'")
    try:
        n, p = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"{path}: line 1: header entries must be integers") from None
    if n < 1 or p < 1 or len(lines) < n + 1:
        raise ParseError(f"{path}: header declares {n} rows but file has {len(lines) - 1}")
    x = np.empty((n, p))
    y = np.empty(n)
    for i in range(n):
        parts = lines[1 + i].split()
        if len(parts) != p + 1:
            raise ParseError(
                f"{path}: line {i + 2}: expected {p + 1} values, got {len(parts)}"
            )
        try:
            vals = [float(v) for v in parts]
        except ValueError:
            raise ParseError(f"{path}: line {i + 2}: non-numeric value") from None
        x[i] = vals[:p]
        y[i] = vals[p]
    return Problem(kind="least-squares", x=x, targets=y)


def save_linear_system(pb: Problem, path) -> None:
    """Write a least-squares problem in the text format, full precision."""
    if pb.kind != "least-squares":
        raise ValueError("only least-squares problems have a linear-system form")
    with open(path, "w") as f:
        f.write(f"{pb.n} {pb.p}\n")
        for row, yv in zip(pb.x, pb.targets):
            f.write(" ".join(repr(float(v)) for v in row) + f" {float(yv)!r}\n")


def gen_gaussian_blobs(n: int, p: int, k: int, separation: float, seed: int) -> Problem:
    """Balanced Gaussian clusters: unit covariance, means at
    separation * (random unit vectors).  Two classes give a logistic
    problem, more give one-hot softmax targets."""
    if k < 2:
        raise ValueError("gen_gaussian_blobs needs at least 2 classes")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((k, p))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    counts = [n // k + (1 if i < n % k else 0) for i in range(k)]
    xs, labels = [], []
    for cls, cnt in enumerate(counts):
        xs.append(means[cls] + rng.standard_normal((cnt, p)))
        labels.extend([cls] * cnt)
    x = np.vstack(xs)
    labels = np.array(labels)
    perm = rng.permutation(n)
    x, labels = x[perm], labels[perm]
    if k == 2:
        return Problem(kind="logistic", x=x, targets=labels.astype(float))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    return Problem(kind="softmax", x=x, targets=onehot)


def split_holdout(pb: Problem, n_holdout: int, seed: int) -> tuple:
    """Split a problem into (train, holdout) by a seeded permutation."""
    if not (0 < n_holdout < pb.n):
        raise ValueError("n_holdout must be in (0, n)")
    perm = np.random.default_rng(seed).permutation(pb.n)
    tr, ho = perm[:-n_holdout], perm[-n_holdout:]
    train = Problem(pb.kind, pb.x[tr], pb.targets[tr], theta_ref=pb.theta_ref)
    hold = Problem(pb.kind, pb.x[ho], pb.targets[ho], theta_ref=pb.theta_ref)
    return train, hold


@dataclass
class Partition:
    """Fixed batch layout plus the seed driving per-epoch visit orders.
    Each order (8 m bytes) is built once and shared read-only by every run
    and thread; threads racing to a new epoch draw equal orders."""

    batch_size: int
    m: int
    order_seed: int
    _orders: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def epoch_order(self, epoch: int) -> np.ndarray:
        """Batch visit order for one epoch: a seeded permutation, read-only."""
        order = self._orders.get(epoch)
        if order is None:
            order = np.random.default_rng([self.order_seed, 1 + epoch]).permutation(self.m)
            order.flags.writeable = False
            order = self._orders.setdefault(epoch, order)
        return order


def partition(pb: Problem, b: int, seed: int):
    """Fixed contiguous batches after one seeded shuffle, kept on the problem.

    Returns ``(Partition, [BatchFactorization, ...])``; a trailing short
    batch keeps its own size.  The problem keeps the partition of its last
    key (b, seed, pb.x, pb.targets), so calls with that key, from any
    thread, share batches that keep their SVDs and last gains, and a
    ``Partition`` that keeps its epoch orders.
    """
    if not (1 <= b <= pb.n):
        raise ValueError(f"batch size must be in [1, {pb.n}], got {b}")
    x, y = pb.x, pb.targets
    key = (b, seed, id(x), id(y))  # the entry holds x and y, so the ids stay theirs
    kept = pb._partition.get(key)
    if kept is None:
        perm = np.random.default_rng([seed, 0]).permutation(pb.n)
        xs, ys = x[perm], y[perm]
        batches = [BatchFactorization(xs[lo : lo + b], ys[lo : lo + b]) for lo in range(0, pb.n, b)]
        kept = pb._partition.setdefault(key, (Partition(b, len(batches), seed), batches, x, y))
        for stale in pb._partition.keys() - {key}:
            pb._partition.pop(stale, None)
    return kept[0], kept[1]
