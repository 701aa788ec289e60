"""Image <-> patch-matrix conversions (im2col convolution plumbing).

Patches are laid out so that a flattened kernel row-vector times the patch
matrix reproduces the sliding-window convolution: column m holds the pixels
under the window at sliding index m (row-major scan), and within a column
the channels form contiguous blocks, each block row-major over the window.
This module is the one window primitive: every layer that slides a window
(convolution, pooling) goes through it.  im2col_batch and its adjoint
fold_batch build and scatter the whole patch matrix; a column source
(``windows``) hands the same columns to the detection engine and the
convolution layers block by block.  At stride 1 the source is PaddedWindows,
which keeps only the padded input and never holds the whole matrix.
The only padding is reflection (the edge pixel is not repeated, as numpy's
"reflect" mode), applied on the way in and folded back on the way out;
non-square images are rejected.
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


def _check_pad(n: int, pad: int) -> None:
    if not 0 <= pad < n:
        raise ValueError(f"reflection pad must be in [0, {n}) for a {n}x{n} image, got {pad}")


def _reflect_pad(imgs: np.ndarray, pad: int) -> np.ndarray:
    """Reflect-pad the last two (square) axes by ``pad`` pixels on every side."""
    if not pad:
        return imgs
    _check_pad(imgs.shape[-1], pad)
    return np.pad(imgs, ((0, 0),) * (imgs.ndim - 2) + ((pad, pad),) * 2, mode="reflect")


def _unpad_adjoint(padded: np.ndarray, n: int, pad: int) -> np.ndarray:
    """Adjoint of _reflect_pad: (..., n + 2 pad, n + 2 pad) -> (..., n, n),
    each reflected border pixel added onto the pixel it mirrors."""
    if pad == 0:
        return padded
    # padded row pad - i mirrors row i (1 <= i <= pad), row pad+n-1 + i mirrors n-1-i
    rows = padded[..., pad:pad + n, :].copy()
    rows[..., 1:pad + 1, :] += padded[..., pad - 1::-1, :]
    rows[..., n - 1 - pad:n - 1, :] += padded[..., 2 * pad + n - 1:pad + n - 1:-1, :]
    out = rows[..., pad:pad + n].copy()
    out[..., 1:pad + 1] += rows[..., pad - 1::-1]
    out[..., n - 1 - pad:n - 1] += rows[..., 2 * pad + n - 1:pad + n - 1:-1]
    return out


def _check_batch(imgs) -> np.ndarray:
    imgs = np.asarray(imgs, dtype=float)
    if imgs.ndim != 4 or imgs.shape[2] != imgs.shape[3]:
        raise ValueError("batch must be (B, C, N, N) with square images")
    return imgs


def im2col_batch(imgs: np.ndarray, h: int, s: int = 1, pad: int = 0) -> np.ndarray:
    """Batched im2col: (B, C, N, N) -> (C*H^2, B*G^2), batch-major columns.

    The images are first reflect-padded by ``pad`` pixels on every side, so
    G = floor((N + 2 pad - H)/S) + 1.
    """
    imgs = _reflect_pad(_check_batch(imgs), pad)
    b, c, n, _ = imgs.shape
    g = feature_dim(n, h, s)
    windows = sliding_window_view(imgs, (h, h), axis=(2, 3))[:, :, ::s, ::s]
    # (B, C, G, G, h, h) -> rows (C, h, h), columns (B, G, G)
    cols = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * h * h, b * g * g)
    return np.ascontiguousarray(cols)


def fold_batch(cols: np.ndarray, batch_shape: tuple, h: int, s: int = 1,
               pad: int = 0) -> np.ndarray:
    """Adjoint of im2col_batch: scatter-add columns back onto the unpadded
    (B, C, N, N) images of ``batch_shape``.

    Used for gradient flow through patch extraction; overlapping windows
    accumulate, and each reflected border pixel adds onto the pixel it mirrors.
    """
    b, c, n, _ = batch_shape
    _check_pad(n, pad)
    m = n + 2 * pad
    g = feature_dim(m, h, s)
    blocks = cols.reshape(c, h, h, b, g, g)
    padded = np.zeros((b, c, m, m), dtype=cols.dtype)
    for ki in range(h):
        i_max = ki + s * g
        for kj in range(h):
            j_max = kj + s * g
            padded[:, :, ki:i_max:s, kj:j_max:s] += blocks[:, ki, kj].transpose(1, 0, 2, 3)
    return _unpad_adjoint(padded, n, pad)


# ---------------------------------------------------------------------------
# column sources: patch columns handed out block by block
# ---------------------------------------------------------------------------
#
# A column source has ``n`` columns and yields them as (column slice,
# (C, H^2, width) block) pairs; ``add_grad`` takes each block's gradient
# back and ``gradient`` returns the sum, with respect to the source's input.
# The window sources add ``crop`` and ``spread``, which map (..., n) column
# arrays to the (..., B, G, G) maps of a convolution output and back.

class Columns:
    """Patch columns held whole, (C, H^2, n); its blocks are views of them.

    Blocks never overlap, so each block's gradient is stored, not added,
    and ``gradient`` is dJ/d the columns themselves.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self.n = values.shape[-1]
        self._grad = None

    def blocks(self, width: int):
        for start in range(0, self.n, width):
            blk = slice(start, min(start + width, self.n))
            yield blk, self.values[:, :, blk]

    def add_grad(self, blk: slice, d: np.ndarray) -> None:
        if self._grad is None:
            self._grad = np.empty(self.values.shape)
        self._grad[:, :, blk] = d

    def gradient(self) -> np.ndarray:
        grad, self._grad = self._grad, None
        return grad


class _StridedWindows(Columns):
    """Windows at stride > 1: the whole im2col_batch matrix, its gradient
    folded back onto the input batch by fold_batch."""

    def __init__(self, imgs: np.ndarray, h: int, s: int, pad: int):
        super().__init__(im2col_batch(imgs, h, s, pad).reshape(imgs.shape[1], h * h, -1))
        self._fold = (imgs.shape, h, s, pad)
        self.grid = feature_dim(imgs.shape[-1] + 2 * pad, h, s)

    def gradient(self) -> np.ndarray:
        grad = super().gradient()
        return fold_batch(grad.reshape(-1, self.n), *self._fold)

    def crop(self, a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape[:-1] + (-1, self.grid, self.grid))

    def spread(self, a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape[:-3] + (-1,))


class PaddedWindows:
    """Stride-1 H x H windows of a (B, C, N, N) batch, streamed from its
    reflect-padded copy without building the patch matrix.

    The padded batch is kept channel-major as one flat (C, B*Np*Np) buffer,
    Np = N + 2 pad.  Column p of the padded grid is the window whose top-left
    pixel is flat element p, so window tap (ki, kj) of columns [a, b) is the
    contiguous slice [a + ki*Np + kj, b + ki*Np + kj).  Of the n = B*Np^2 grid
    columns, those with a row or column index >= G wrap around an image
    edge; blocks of whole padded rows run up to the last window, and ``crop``
    keeps the B*G^2 windows, batch-major.  A block's gradient is added back
    into a padded gradient buffer by the same slices.
    """

    def __init__(self, imgs: np.ndarray, h: int, pad: int = 0):
        imgs = _check_batch(imgs)
        b, c, n, _ = imgs.shape
        side = n + 2 * pad
        g = feature_dim(side, h)
        channel_major = imgs.transpose(1, 0, 2, 3)
        # a copy either way: the cached buffer must not alias the caller's batch
        padded = _reflect_pad(channel_major, pad) if pad else channel_major.copy()
        self.buffer = padded.reshape(c, -1)
        self.shape, self.h, self.pad, self.side, self.grid = imgs.shape, h, pad, side, g
        self.n = b * side * side
        self._end = self.n - (side - g) * (side + 1)    # one past the last window
        self._taps = [ki * side + kj for ki in range(h) for kj in range(h)]
        self._grad = None

    def blocks(self, width: int):
        """Blocks of the whole padded rows nearest ``width`` columns (at
        least one); every block is written into one reused array, valid
        until the next block is yielded."""
        c, h2 = self.buffer.shape[0], len(self._taps)
        width = max(1, (width + self.side // 2) // self.side) * self.side
        block = np.empty((c, h2, min(width, self._end)))
        for start in range(0, self._end, width):
            stop = min(start + width, self._end)
            out = block[:, :, :stop - start]
            for t, off in enumerate(self._taps):
                out[:, t] = self.buffer[:, start + off:stop + off]
            yield slice(start, stop), out

    def add_grad(self, blk: slice, d: np.ndarray) -> None:
        if self._grad is None:
            self._grad = np.zeros(self.buffer.shape)
        for t, off in enumerate(self._taps):
            self._grad[:, blk.start + off:blk.stop + off] += d[:, t]

    def gradient(self) -> np.ndarray:
        """dJ/d input batch, (B, C, N, N), from the added block gradients."""
        b, c, n, _ = self.shape
        grad, self._grad = self._grad, None
        grad = _unpad_adjoint(grad.reshape(c, b, self.side, self.side), n, self.pad)
        return grad.transpose(1, 0, 2, 3)

    def crop(self, a: np.ndarray) -> np.ndarray:
        """(..., n) grid columns -> (..., B, G, G) maps of the windows, a view."""
        b, g = self.shape[0], self.grid
        return a.reshape(a.shape[:-1] + (b, self.side, self.side))[..., :g, :g]

    def spread(self, a: np.ndarray) -> np.ndarray:
        """(..., B, G, G) maps -> (..., n) grid columns, zero where no window."""
        out = np.zeros(a.shape[:-3] + (self.n,))
        self.crop(out)[...] = a
        return out


def windows(imgs: np.ndarray, h: int, s: int = 1, pad: int = 0):
    """Column source of the H x H windows of a (B, C, N, N) batch: streamed
    from the padded input at stride 1, the whole patch matrix otherwise."""
    if s == 1:
        return PaddedWindows(imgs, h, pad)
    return _StridedWindows(imgs, h, s, pad)


def col2im(v: np.ndarray, g: int) -> np.ndarray:
    """Reshape a detected G^2 vector into its row-major G x G feature map."""
    v = np.asarray(v)
    if v.size != g * g:
        raise ValueError(f"expected {g * g} values, got {v.size}")
    return v.reshape(g, g)
