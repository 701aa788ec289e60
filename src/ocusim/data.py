"""Dataset ingestion, noise injection, patch cropping, and quality metrics.

Images are float arrays normalized to [0, 1]; classification datasets are
(n, C, H, W) float32, the dtype of the networks' column work, each value
the float64 one rounded to float32.  The denoiser's images and their noise
stay float64.  Noise follows the 8-bit convention: a Gaussian of standard
deviation ``sigma`` gray levels is added on the 0-255 scale, clipped, and
the result renormalized.  No downloading happens here; loaders read local
files in the exact distribution formats (IDX, CIFAR-10 binary batches).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD = 3073  # 1 label byte + 3 * 1024 channel-planar pixels

# float32(v / 255) of each 8-bit level v, the float64 quotient rounded once
_LEVELS = (np.arange(256) / 255.0).astype(np.float32)
# 8-bit values converted per call: np.take makes an index copy of 8 bytes each
_LEVEL_CHUNK = 1 << 15


@dataclass
class LabeledDataset:
    images: np.ndarray          # (n, C, H, W) float32 in [0, 1]
    labels: np.ndarray          # (n,) class indices
    split: str = ""

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels must have the same length")

    def __len__(self) -> int:
        return len(self.images)


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.PCG64(seed_or_rng))


def _levels(pixels: np.ndarray, out: np.ndarray) -> None:
    """Write the 8-bit ``pixels`` into the contiguous float32 ``out`` of the
    same size as [0, 1] values, through _LEVELS, a chunk at a time."""
    src, dst = pixels.reshape(-1), out.reshape(-1)
    for start in range(0, src.size, _LEVEL_CHUNK):
        stop = start + _LEVEL_CHUNK
        np.take(_LEVELS, src[start:stop], out=dst[start:stop], mode="clip")


# ---------------------------------------------------------------------------
# IDX (Fashion-MNIST distribution format)
# ---------------------------------------------------------------------------

def load_idx_images(path) -> np.ndarray:
    """(n, 1, rows, cols) float32 images of an IDX file, read a chunk at a
    time into the one array they fill."""
    with open(path, "rb") as f:
        head = f.read(16)
        if len(head) < 16:
            raise ValueError(f"{path}: truncated IDX image header")
        magic = int.from_bytes(head[0:4], "big")
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(f"{path}: bad IDX image magic 0x{magic:08x}")
        n = int.from_bytes(head[4:8], "big")
        rows = int.from_bytes(head[8:12], "big")
        cols = int.from_bytes(head[12:16], "big")
        payload = os.fstat(f.fileno()).st_size - 16
        if payload != n * rows * cols:
            raise ValueError(f"{path}: payload holds {payload} bytes, header promises "
                             f"{n * rows * cols}")
        images = np.empty((n, 1, rows, cols), dtype=np.float32)
        flat = images.reshape(-1)
        chunk = np.empty(_LEVEL_CHUNK, dtype=np.uint8)
        for start in range(0, flat.size, _LEVEL_CHUNK):
            part = chunk[:flat.size - start]
            if f.readinto(part) != len(part):
                raise ValueError(f"{path}: payload ended early")
            _levels(part, flat[start:start + len(part)])
    return images


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


def load_idx(images_path, labels_path, split: str = "") -> LabeledDataset:
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(images) != len(labels):
        raise ValueError(
            f"image file has {len(images)} samples but label file has {len(labels)}"
        )
    return LabeledDataset(images, labels, split)


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches, filtered to four classes
# ---------------------------------------------------------------------------

def load_cifar4(paths, classes=(0, 1, 2, 3), split: str = "") -> LabeledDataset:
    """Read CIFAR-10 binary batches keeping only ``classes``, relabeled 0..3."""
    if not paths:
        raise ValueError("no CIFAR-10 batch files given")
    classes = tuple(classes)
    relabel = np.full(10, -1, dtype=np.int64)
    for new, old in enumerate(classes):
        relabel[old] = new
    pixels, labels = [], []     # the kept 8-bit records of each batch
    for path in paths:
        raw = Path(path).read_bytes()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD != 0:
            raise ValueError(f"{path}: truncated CIFAR record ({len(raw)} bytes)")
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        batch_labels = arr[:, 0]
        if int(batch_labels.max()) > 9:
            raise ValueError(f"{path}: unknown class id {int(batch_labels.max())}")
        keep = np.isin(batch_labels, classes)
        pixels.append(np.ascontiguousarray(arr[keep, 1:]))
        labels.append(relabel[batch_labels[keep]])
    images = np.empty((sum(map(len, pixels)), 3, 32, 32), dtype=np.float32)
    start = 0
    for kept in pixels:
        _levels(kept, images[start:start + len(kept)])
        start += len(kept)
    return LabeledDataset(images, np.concatenate(labels), split)


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
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma!r}")
    img = np.asarray(img, dtype=float)
    rng = _rng(seed_or_rng)
    if sigma == 0.0:
        return NoisySample(img, img.copy(), np.zeros_like(img), 0.0)
    levels = img * 255.0 + rng.normal(0.0, sigma, size=img.shape)
    noisy = np.clip(levels, 0.0, 255.0) / 255.0
    return NoisySample(img, noisy, noisy - img, float(sigma))


@functools.lru_cache(maxsize=16)
def _resize_tables(n: int, size: int):
    """Read-only tables of a bilinear n -> size resample: the source rows i0
    and i0 + 1 of each output row and their weights 1 - frac and frac.  The
    memo keeps the 16 latest (n, size) pairs."""
    pos = np.linspace(0.0, n - 1, size)
    i0 = np.clip(pos.astype(int), 0, n - 2)
    frac = pos - i0
    tables = (i0, i0 + 1, 1 - frac, frac)
    for table in tables:
        table.setflags(write=False)
    return tables


def bilinear_resize(img, size: int) -> np.ndarray:
    """Bilinear resample of a square grayscale image to size x size."""
    img = np.asarray(img, dtype=float)
    n = img.shape[0]
    if img.shape[0] != img.shape[1]:
        raise ValueError("bilinear_resize expects a square image")
    if n == size:
        return img.copy()
    i0, i1, rest, frac = _resize_tables(n, size)
    top, bottom = img[i0], img[i1]
    # the four corner terms, summed in this order
    out = top[:, i0] * np.outer(rest, rest)
    out += bottom[:, i0] * np.outer(frac, rest)
    out += top[:, i1] * np.outer(rest, frac)
    out += bottom[:, i1] * np.outer(frac, frac)
    return out


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


@dataclass
class CropSet:
    """Square crops of a list of images, held as their corners, not their
    pixels.  Crop k is cut from image k // ``per_image``, its top-left pixel
    at ``corners[k]``; ``windows`` holds each image's sliding-window view,
    so images of different sizes mix freely."""

    windows: list[np.ndarray]   # (H - patch + 1, W - patch + 1, patch, patch) views
    corners: np.ndarray         # (n, 2) top-left (row, column) of each crop
    per_image: int

    def __len__(self) -> int:
        return len(self.corners)

    def gather(self, idx) -> np.ndarray:
        """(len(idx), patch, patch) copy of crops ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        patch = self.windows[0].shape[-1]
        out = np.empty((len(idx), patch, patch))
        images = (idx // self.per_image).tolist()
        for j, (k, (row, col)) in enumerate(zip(images, self.corners[idx].tolist())):
            out[j] = self.windows[k][row, col]
        return out


def draw_crops(images, patch: int, count_per_image: int, seed_or_rng=0) -> CropSet:
    """Seeded random square crops, ``count_per_image`` from each image, as
    the CropSet of their corners.

    Each image draws the (row, column) corners of all its crops in one call,
    the same values, in the same order, as one draw per coordinate.
    """
    if patch < 1:
        raise ValueError(f"patch must be >= 1, got {patch}")
    if count_per_image < 1:
        raise ValueError(f"count_per_image must be >= 1, got {count_per_image}")
    images = [np.asarray(img, dtype=float) for img in images]
    if not images:
        raise ValueError("draw_crops got no images")
    rng = _rng(seed_or_rng)
    corners = np.empty((len(images) * count_per_image, 2), dtype=np.int64)
    windows = []
    for k, img in enumerate(images):
        if img.ndim != 2:
            raise ValueError("draw_crops expects 2-D grayscale images")
        if img.shape[0] < patch or img.shape[1] < patch:
            raise ValueError(f"image {img.shape} smaller than patch {patch}")
        hi = [img.shape[0] - patch + 1, img.shape[1] - patch + 1]
        corners[k * count_per_image:(k + 1) * count_per_image] = \
            rng.integers(0, hi, size=(count_per_image, 2))
        windows.append(sliding_window_view(img, (patch, patch)))
    return CropSet(windows, corners, count_per_image)


def crop_patches(images, patch: int, count_per_image: int, seed_or_rng=0) -> np.ndarray:
    """Every crop of ``draw_crops``, gathered: (images * count_per_image, patch, patch)."""
    crops = draw_crops(images, patch, count_per_image, seed_or_rng)
    return crops.gather(np.arange(len(crops)))


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


@functools.lru_cache(maxsize=8)
def _coords(size: int) -> np.ndarray:
    """Read-only pixel coordinates i / size of one image axis, the rows and
    the columns of the image grid alike."""
    coords = np.arange(size) / size
    coords.setflags(write=False)
    return coords


def _span(inside: np.ndarray) -> slice:
    """The slice from the first to the last True of a 1-D mask."""
    hits = np.flatnonzero(inside)
    return slice(hits[0], hits[-1] + 1) if hits.size else slice(0, 0)


def _fill_disc(img, coords, cy, cx, radius, value) -> None:
    """Set the pixels with (y - cy)^2 + (x - cx)^2 < radius^2 to ``value``.

    A pixel can pass only if its row and its column each pass alone, so the
    test runs in the bounding box of those rows and columns."""
    dy2 = (coords - cy) ** 2
    dx2 = (coords - cx) ** 2
    r2 = radius ** 2
    rows, cols = _span(dy2 < r2), _span(dx2 < r2)
    box = img[rows, cols]
    box[dy2[rows, None] + dx2[None, cols] < r2] = value


def synthetic_image(size: int, seed: int) -> np.ndarray:
    """Deterministic natural-looking grayscale image.

    Smooth background, a few hard-edged shapes spanning dark to bright,
    multi-octave texture, and fine pixel grain.  The grain mimics the
    irreducible detail of photographs: denoisers cannot reconstruct it, so
    restoration quality saturates at a texture-set floor the way it does on
    real image corpora.
    """
    rng = _rng(np.random.SeedSequence((0xC0FFEE, seed)))
    img = 0.38 + 0.30 * _smooth_noise(rng, size, 5)
    coords = _coords(size)

    tilt = rng.uniform(-0.12, 0.12, size=2)
    img += tilt[0] * (coords - 0.5) + (tilt[1] * (coords - 0.5))[:, None]

    for _ in range(int(rng.integers(3, 6))):
        cy, cx = rng.uniform(0.15, 0.85, size=2)
        radius = rng.uniform(0.06, 0.18)
        value = rng.choice([rng.uniform(0.06, 0.2), rng.uniform(0.8, 0.94)])
        _fill_disc(img, coords, cy, cx, radius, value)
    for _ in range(int(rng.integers(2, 4))):
        y0, x0 = rng.uniform(0.05, 0.6, size=2)
        hgt, wid = rng.uniform(0.08, 0.3, size=2)
        value = rng.choice([rng.uniform(0.07, 0.2), rng.uniform(0.8, 0.93)])
        img[_span((coords >= y0) & (coords < y0 + hgt)),
            _span((coords >= x0) & (coords < x0 + wid))] = value

    for cells, amp in ((12, 0.12), (24, 0.09), (48, 0.07), (96, 0.05)):
        img += amp * (_smooth_noise(rng, size, min(cells, size - 1)) - 0.5)
    img += 0.15 * (rng.random((size, size)) - 0.5)     # the pixel grain
    return np.clip(img, 0.02, 0.98)


def synthetic_corpus(count: int, size: int, seed: int = 0) -> np.ndarray:
    """(count, size, size) deterministic synthetic grayscale images."""
    corpus = np.empty((count, size, size))
    for i in range(count):
        corpus[i] = synthetic_image(size, seed * 100003 + i)
    return corpus


# noise values drawn per call by synthetic_blobs (512 KB): as fast as one
# draw for all images, whose (count, size, size) temporaries raise the peak
# memory
_BLOB_CHUNK_VALUES = 1 << 16


def synthetic_blobs(count: int, size: int = 8, seed: int = 0) -> LabeledDataset:
    """Two linearly separable classes: a bright blob in opposite corners.

    The noise of a chunk of images is drawn in one call, the same stream,
    in the same order, as one draw per image.  The pixels are computed in
    float64 and stored in float32.
    """
    if size < 2:
        raise ValueError(f"blob images need at least 2 pixels a side, got {size}")
    rng = _rng(np.random.SeedSequence((0xB10B, seed)))
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1)
    centers = ((0.25, 0.25), (0.75, 0.75))
    bumps = np.stack([0.8 * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / 0.04))
                      for cy, cx in centers])
    images = np.empty((count, 1, size, size), dtype=np.float32)
    labels = rng.integers(0, 2, size=count)
    chunk = max(1, _BLOB_CHUNK_VALUES // (size * size))
    for start in range(0, count, chunk):
        classes = labels[start:start + chunk]
        noise = rng.random((len(classes), size, size))
        noise *= 0.1
        noise += bumps[classes]
        np.clip(noise, 0.0, 1.0, out=images[start:start + chunk, 0])
    return LabeledDataset(images, labels.astype(np.int64), "synthetic")


def _bar(u, v, angle: float) -> np.ndarray:
    """Distance from (u, v) to a segment of half-length 0.3 through the
    origin at ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    along = np.abs(u * c + v * s) - 0.3
    return np.hypot(np.maximum(along, 0.0), v * c - u * s)


# synthetic_shapes' ten classes: the distance from shape coordinates (u, v)
# to the class's strokes, or to its filled region
SHAPES = (
    ("bar 0", lambda u, v: _bar(u, v, 0.0)),
    ("bar 45", lambda u, v: _bar(u, v, math.pi / 4)),
    ("bar 90", lambda u, v: _bar(u, v, math.pi / 2)),
    ("bar 135", lambda u, v: _bar(u, v, 3 * math.pi / 4)),
    ("plus", lambda u, v: np.minimum(_bar(u, v, 0.0), _bar(u, v, math.pi / 2))),
    ("cross", lambda u, v: np.minimum(_bar(u, v, math.pi / 4), _bar(u, v, 3 * math.pi / 4))),
    ("ring", lambda u, v: np.abs(np.hypot(u, v) - 0.25)),
    ("disc", lambda u, v: np.maximum(np.hypot(u, v) - 0.22, 0.0)),
    ("square", lambda u, v: np.abs(np.maximum(np.abs(u), np.abs(v)) - 0.22)),
    ("dot pair", lambda u, v: np.maximum(
        np.minimum(np.hypot(u - 0.18, v), np.hypot(u + 0.18, v)) - 0.08, 0.0)),
)

# (low, high) of each image's jitter, in image widths and radians
SHAPE_JITTER = np.array([
    (0.32, 0.68),     # centre row
    (0.32, 0.68),     # centre column
    (-0.2, 0.2),      # rotation
    (0.75, 1.15),     # scale
    (0.025, 0.045),   # stroke half-width
    (0.4, 1.0),       # contrast
    (0.0, 0.25),      # background
])
SHAPE_NOISE = 0.4     # amplitude of the uniform pixel noise


def synthetic_shapes(count: int, size: int = 28, seed: int = 0) -> LabeledDataset:
    """Ten classes of jittered strokes (SHAPES): four bar orientations, a
    plus, a cross, a ring, a disc, a square outline and a dot pair.

    Each image moves, rotates and scales its shape, and draws its stroke
    width, contrast and background (SHAPE_JITTER), with a one-pixel soft
    edge and uniform pixel noise.  The labels, then every image's jitter,
    then the noise of chunks of images are drawn in one call each; the
    images of a chunk are made in whole-array passes, one per class, in
    float64, and stored in float32.
    """
    if size < 2:
        raise ValueError(f"shape images need at least 2 pixels a side, got {size}")
    rng = _rng(np.random.SeedSequence((0x5BA9E5, seed)))
    labels = rng.integers(0, len(SHAPES), size=count)
    low, high = SHAPE_JITTER.T
    jitter = low + (high - low) * rng.random((count, len(SHAPE_JITTER)))
    grid = (np.arange(size) + 0.5) / size
    images = np.empty((count, 1, size, size), dtype=np.float32)
    chunk = max(1, _BLOB_CHUNK_VALUES // (size * size))
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        cy, cx, theta, scale, width, contrast, background = (
            a[:, None, None] for a in jitter[start:stop].T)
        dy, dx = grid[:, None] - cy, grid[None, :] - cx
        cos, sin = np.cos(theta), np.sin(theta)
        u = (dx * cos + dy * sin) / scale
        v = (dy * cos - dx * sin) / scale
        dist = np.empty(u.shape)
        for cls, (_, shape) in enumerate(SHAPES):
            mine = labels[start:stop] == cls
            dist[mine] = shape(u[mine], v[mine])
        ink = np.clip(0.5 + (width - dist * scale) * size, 0.0, 1.0)
        noise = rng.random((stop - start, size, size))
        img = background + contrast * ink + SHAPE_NOISE * (noise - 0.5)
        np.clip(img, 0.0, 1.0, out=images[start:stop, 0])
    return LabeledDataset(images, labels.astype(np.int64), "synthetic")


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
    coords = _coords(size)
    for _ in range(4):
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        radius = rng.uniform(0.07, 0.18)
        value = hi if rng.random() > 0.5 else lo
        _fill_disc(img, coords, cy, cx, radius, value)
    img += 0.025 * (_smooth_noise(rng, size, 32) - 0.5)
    img += 0.01 * (rng.random((size, size)) - 0.5)
    return np.clip(img, 0.02, 0.98)
