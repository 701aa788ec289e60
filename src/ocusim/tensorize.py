"""Image <-> patch-matrix conversions (im2col convolution plumbing).

Patches are laid out so that a flattened kernel row-vector times the patch
matrix reproduces the sliding-window convolution: column m holds the pixels
under the window at sliding index m (row-major scan), and within a column
the channels form contiguous blocks, each block row-major over the window.
No padding is applied anywhere in this module; non-square images are
rejected rather than padded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def feature_dim(n: int, h: int, s: int = 1) -> int:
    """Output side length G = floor((N - H)/S) + 1 of a valid convolution."""
    if h < 1 or s < 1:
        raise ValueError("kernel size and stride must be >= 1")
    if h > n:
        raise ValueError(f"kernel size {h} exceeds image size {n}")
    return (n - h) // s + 1


@dataclass
class PatchMatrix:
    """Flattened sliding patches of one image: (C*H^2, G^2) real matrix."""

    values: np.ndarray
    image_size: int
    kernel_size: int
    stride: int
    channels: int

    @property
    def grid(self) -> int:
        return feature_dim(self.image_size, self.kernel_size, self.stride)


def _check_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=float)
    if img.ndim == 2:
        img = img[None]
    if img.ndim != 3:
        raise ValueError("image must be (N, N) or (C, N, N)")
    if img.shape[1] != img.shape[2]:
        raise ValueError(f"image must be square, got {img.shape[1]}x{img.shape[2]}")
    return img


def im2col(img, h: int, s: int = 1) -> PatchMatrix:
    """Rearrange sliding H x H patches of an image into matrix columns."""
    img = _check_image(img)
    c, n, _ = img.shape
    return PatchMatrix(im2col_batch(img[None], h, s), n, h, s, c)


def im2col_batch(imgs: np.ndarray, h: int, s: int = 1) -> np.ndarray:
    """Batched im2col: (B, C, N, N) -> (C*H^2, B*G^2), batch-major columns."""
    imgs = np.asarray(imgs, dtype=float)
    if imgs.ndim != 4 or imgs.shape[2] != imgs.shape[3]:
        raise ValueError("batch must be (B, C, N, N) with square images")
    b, c, n, _ = imgs.shape
    g = feature_dim(n, h, s)
    windows = sliding_window_view(imgs, (h, h), axis=(2, 3))[:, :, ::s, ::s]
    # (B, C, G, G, h, h) -> rows (C, h, h), columns (B, G, G)
    cols = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * h * h, b * g * g)
    return np.ascontiguousarray(cols)


def fold_batch(cols: np.ndarray, batch_shape: tuple, h: int, s: int = 1) -> np.ndarray:
    """Adjoint of im2col_batch: scatter-add columns back onto images.

    Used for gradient flow through patch extraction; overlapping windows
    accumulate.
    """
    b, c, n, _ = batch_shape
    g = feature_dim(n, h, s)
    blocks = cols.reshape(c, h, h, b, g, g)
    out = np.zeros(batch_shape, dtype=cols.dtype)
    for ki in range(h):
        i_max = ki + s * g
        for kj in range(h):
            j_max = kj + s * g
            out[:, :, ki:i_max:s, kj:j_max:s] += blocks[:, ki, kj].transpose(1, 0, 2, 3)
    return out


def col2im(v: np.ndarray, g: int) -> np.ndarray:
    """Reshape a detected G^2 vector into its row-major G x G feature map."""
    v = np.asarray(v)
    if v.size != g * g:
        raise ValueError(f"expected {g * g} values, got {v.size}")
    return v.reshape(g, g)
