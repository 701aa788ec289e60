"""Standard real-valued 3x3 convolution kernels used as emulation targets."""

from __future__ import annotations

import numpy as np

STANDARD_KERNELS: dict[str, np.ndarray] = {
    "edge4": np.array([[0, -1, 0], [-1, 4, -1], [0, -1, 0]], dtype=float),
    "edge8": np.array([[-1, -1, -1], [-1, 8, -1], [-1, -1, -1]], dtype=float),
    "sobel_x": np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float),
    "sobel_y": np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=float),
    "sharpen": np.array([[0, -1, 0], [-1, 5, -1], [0, -1, 0]], dtype=float),
    "gaussian_blur": np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=float) / 16.0,
    "box_blur": np.full((3, 3), 1.0 / 9.0),
    "emboss": np.array([[-2, -1, 0], [-1, 1, 1], [0, 1, 2]], dtype=float),
    "identity": np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=float),
}

# the eight-kernel emulation suite (identity is extra, used for sanity checks)
KERNEL_SUITE = (
    "edge4", "edge8", "sobel_x", "sobel_y",
    "sharpen", "gaussian_blur", "box_blur", "emboss",
)

