"""Dataset ingestion, noise injection, patch cropping, and quality metrics.

Images are float arrays normalized to [0, 1]; classification datasets are
(n, C, H, W).  Noise follows the 8-bit convention: a Gaussian of standard
deviation ``sigma`` gray levels is added on the 0-255 scale, clipped, and
the result renormalized.  No downloading happens here; loaders read local
files in the exact distribution formats (IDX, CIFAR-10 binary batches).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD = 3073  # 1 label byte + 3 * 1024 channel-planar pixels


@dataclass
class LabeledDataset:
    images: np.ndarray          # (n, C, H, W) in [0, 1]
    labels: np.ndarray          # (n,) class indices
    split: str = ""
    class_names: tuple = ()

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels must have the same length")
        if self.class_names and self.labels.size:
            if int(self.labels.max()) >= len(self.class_names):
                raise ValueError("label index exceeds class count")

    def __len__(self) -> int:
        return len(self.images)


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.PCG64(seed_or_rng))


# ---------------------------------------------------------------------------
# IDX (Fashion-MNIST distribution format)
# ---------------------------------------------------------------------------

def load_idx_images(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated IDX image header")
    magic = int.from_bytes(raw[0:4], "big")
    if magic != IDX_IMAGE_MAGIC:
        raise ValueError(f"{path}: bad IDX image magic 0x{magic:08x}")
    n = int.from_bytes(raw[4:8], "big")
    rows = int.from_bytes(raw[8:12], "big")
    cols = int.from_bytes(raw[12:16], "big")
    payload = raw[16:]
    if len(payload) != n * rows * cols:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, header promises {n * rows * cols}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(n, 1, rows, cols)
    return pixels.astype(float) / 255.0


def load_idx_labels(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated IDX label header")
    magic = int.from_bytes(raw[0:4], "big")
    if magic != IDX_LABEL_MAGIC:
        raise ValueError(f"{path}: bad IDX label magic 0x{magic:08x}")
    n = int.from_bytes(raw[4:8], "big")
    payload = raw[8:]
    if len(payload) != n:
        raise ValueError(f"{path}: payload holds {len(payload)} labels, header promises {n}")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def load_idx(images_path, labels_path, split: str = "", class_names=()) -> LabeledDataset:
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(images) != len(labels):
        raise ValueError(
            f"image file has {len(images)} samples but label file has {len(labels)}"
        )
    return LabeledDataset(images, labels, split, tuple(class_names))


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches, filtered to four classes
# ---------------------------------------------------------------------------

def load_cifar4(paths, classes=(0, 1, 2, 3), class_names=(), split: str = "") -> LabeledDataset:
    """Read CIFAR-10 binary batches keeping only ``classes``, relabeled 0..3."""
    classes = tuple(classes)
    images, labels = [], []
    for path in paths:
        raw = Path(path).read_bytes()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD != 0:
            raise ValueError(f"{path}: truncated CIFAR record ({len(raw)} bytes)")
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        batch_labels = arr[:, 0]
        if int(batch_labels.max()) > 9:
            raise ValueError(f"{path}: unknown class id {int(batch_labels.max())}")
        keep = np.isin(batch_labels, classes)
        kept = arr[keep]
        images.append(kept[:, 1:].reshape(-1, 3, 32, 32).astype(float) / 255.0)
        relabel = np.full(10, -1, dtype=np.int64)
        for new, old in enumerate(classes):
            relabel[old] = new
        labels.append(relabel[batch_labels[keep]])
    return LabeledDataset(
        np.concatenate(images), np.concatenate(labels), split, tuple(class_names)
    )


# ---------------------------------------------------------------------------
# noise model and patch cropping
# ---------------------------------------------------------------------------

@dataclass
class NoisySample:
    clean: np.ndarray
    noisy: np.ndarray
    noise: np.ndarray      # noisy - clean, i.e. the effective (clipped) noise
    sigma: float


def add_awgn(img, sigma: float, seed_or_rng=0) -> NoisySample:
    """Additive Gaussian noise of ``sigma`` gray levels (0-255 convention)."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    img = np.asarray(img, dtype=float)
    rng = _rng(seed_or_rng)
    if sigma == 0.0:
        return NoisySample(img, img.copy(), np.zeros_like(img), 0.0)
    levels = img * 255.0 + rng.normal(0.0, sigma, size=img.shape)
    noisy = np.clip(levels, 0.0, 255.0) / 255.0
    return NoisySample(img, noisy, noisy - img, float(sigma))


def bilinear_resize(img, size: int) -> np.ndarray:
    """Bilinear resample of a square grayscale image to size x size."""
    img = np.asarray(img, dtype=float)
    n = img.shape[0]
    if img.shape[0] != img.shape[1]:
        raise ValueError("bilinear_resize expects a square image")
    if n == size:
        return img.copy()
    pos = np.linspace(0.0, n - 1, size)
    i0 = np.clip(pos.astype(int), 0, n - 2)
    frac = pos - i0
    rows = (
        img[i0][:, i0] * np.outer(1 - frac, 1 - frac)
        + img[i0 + 1][:, i0] * np.outer(frac, 1 - frac)
        + img[i0][:, i0 + 1] * np.outer(1 - frac, frac)
        + img[i0 + 1][:, i0 + 1] * np.outer(frac, frac)
    )
    return rows


def center_square(img) -> np.ndarray:
    """Largest centered square crop of a grayscale image."""
    img = np.asarray(img, dtype=float)
    side = min(img.shape)
    top = (img.shape[0] - side) // 2
    left = (img.shape[1] - side) // 2
    return img[top:top + side, left:left + side]


def load_grayscale_dir(directory, size: int | None = None) -> list[np.ndarray]:
    """Read every .pgm in a directory (sorted), optionally center-cropped to
    a square and resampled to size x size (the Set12-style test convention)."""
    from .pgm import read_pgm

    directory = Path(directory)
    files = sorted(directory.glob("*.pgm"))
    if not files:
        raise ValueError(f"no .pgm files in {directory}")
    images = [read_pgm(f) for f in files]
    if size is not None:
        images = [bilinear_resize(center_square(img), size) for img in images]
    return images


def crop_patches(images, patch: int, count_per_image: int, seed_or_rng=0) -> np.ndarray:
    """Seeded random square crops, ``count_per_image`` from each image."""
    rng = _rng(seed_or_rng)
    out = []
    for img in images:
        img = np.asarray(img, dtype=float)
        if img.ndim != 2:
            raise ValueError("crop_patches expects 2-D grayscale images")
        if img.shape[0] < patch or img.shape[1] < patch:
            raise ValueError(f"image {img.shape} smaller than patch {patch}")
        hi_i = img.shape[0] - patch + 1
        hi_j = img.shape[1] - patch + 1
        for _ in range(count_per_image):
            i = int(rng.integers(0, hi_i))
            j = int(rng.integers(0, hi_j))
            out.append(img[i:i + patch, j:j + patch])
    return np.stack(out)


# ---------------------------------------------------------------------------
# quality metrics
# ---------------------------------------------------------------------------

def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB between two [0, 1] images (peak 255)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = (a - b) * 255.0
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def accuracy(preds, labels) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("prediction/label shape mismatch")
    return float(np.mean(preds == labels))


def confusion(preds, labels, num_classes: int) -> np.ndarray:
    """Confusion counts, rows = true class, columns = predicted class."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("prediction/label shape mismatch")
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (labels, preds), 1)
    return mat


# ---------------------------------------------------------------------------
# procedural grayscale corpus (stands in for a natural-image training set)
# ---------------------------------------------------------------------------

def _smooth_noise(rng: np.random.Generator, size: int, cells: int) -> np.ndarray:
    """Bilinearly upsampled coarse noise in [0, 1]."""
    return bilinear_resize(rng.random((cells + 1, cells + 1)), size)


def synthetic_image(size: int, seed: int, grain: float = 0.15) -> np.ndarray:
    """Deterministic natural-looking grayscale image.

    Smooth background, a few hard-edged shapes spanning dark to bright,
    multi-octave texture, and fine pixel grain.  The grain mimics the
    irreducible detail of photographs: denoisers cannot reconstruct it, so
    restoration quality saturates at a texture-set floor the way it does on
    real image corpora.
    """
    rng = _rng(np.random.SeedSequence((0xC0FFEE, seed)))
    img = 0.38 + 0.30 * _smooth_noise(rng, size, 5)
    yy, xx = np.mgrid[0:size, 0:size] / size

    tilt = rng.uniform(-0.12, 0.12, size=2)
    img += tilt[0] * (xx - 0.5) + tilt[1] * (yy - 0.5)

    for _ in range(int(rng.integers(3, 6))):
        cy, cx = rng.uniform(0.15, 0.85, size=2)
        radius = rng.uniform(0.06, 0.18)
        value = rng.choice([rng.uniform(0.06, 0.2), rng.uniform(0.8, 0.94)])
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 < radius ** 2
        img[mask] = value
    for _ in range(int(rng.integers(2, 4))):
        y0, x0 = rng.uniform(0.05, 0.6, size=2)
        hgt, wid = rng.uniform(0.08, 0.3, size=2)
        value = rng.choice([rng.uniform(0.07, 0.2), rng.uniform(0.8, 0.93)])
        mask = (yy >= y0) & (yy < y0 + hgt) & (xx >= x0) & (xx < x0 + wid)
        img[mask] = value

    for cells, amp in ((12, 0.12), (24, 0.09), (48, 0.07), (96, 0.05)):
        img += amp * (_smooth_noise(rng, size, min(cells, size - 1)) - 0.5)
    img += grain * (rng.random((size, size)) - 0.5)
    return np.clip(img, 0.02, 0.98)


def synthetic_corpus(count: int, size: int, seed: int = 0) -> np.ndarray:
    """Stack of deterministic synthetic grayscale images."""
    return np.stack([synthetic_image(size, seed * 100003 + i) for i in range(count)])


def synthetic_blobs(count: int, size: int = 8, seed: int = 0) -> LabeledDataset:
    """Two linearly separable classes: a bright blob in opposite corners."""
    if size < 2:
        raise ValueError(f"blob images need at least 2 pixels a side, got {size}")
    rng = _rng(np.random.SeedSequence((0xB10B, seed)))
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1)
    centers = ((0.25, 0.25), (0.75, 0.75))
    images = np.empty((count, 1, size, size))
    labels = rng.integers(0, 2, size=count)
    for i, cls in enumerate(labels):
        cy, cx = centers[cls]
        bump = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / 0.04))
        images[i, 0] = np.clip(0.8 * bump + 0.1 * rng.random((size, size)), 0.0, 1.0)
    return LabeledDataset(images, labels.astype(np.int64), "synthetic",
                          ("corner_a", "corner_b"))


def synthetic_contrast_image(size: int = 256, seed: int = 5) -> np.ndarray:
    """Deterministic high-contrast test image (two dominant gray levels).

    Used as the held-out target for kernel-emulation evaluation: large
    two-level regions with mild texture keep the comparison honest for
    both sum-zero and sum-preserving kernels.
    """
    rng = _rng(np.random.SeedSequence((0xBEEF, seed)))
    lo, hi = 0.14, 0.86
    base = _smooth_noise(rng, size, 4)
    img = np.where(base > 0.5, hi, lo).astype(float)
    yy, xx = np.mgrid[0:size, 0:size] / size
    for _ in range(4):
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        radius = rng.uniform(0.07, 0.18)
        value = hi if rng.random() > 0.5 else lo
        img[(yy - cy) ** 2 + (xx - cx) ** 2 < radius ** 2] = value
    img += 0.025 * (_smooth_noise(rng, size, 32) - 0.5)
    img += 0.01 * (rng.random((size, size)) - 0.5)
    return np.clip(img, 0.02, 0.98)
