import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocusim.nn import Conv2dLayer
from ocusim.srp import conv2d_reference
from ocusim.tensorize import (
    PaddedWindows,
    PatchMatrix,
    col2im,
    feature_dim,
    fold_batch,
    im2col,
    im2col_batch,
)

from helpers import naive_patch_columns, reflect_pad_grad_loop, reflect_pad_loop


def walk(src, width, dcols=None):
    """Block spans and the cropped (C, H^2, B*G^2) columns of one walk of the
    window source ``src``; each block's share of ``dcols``, if given, is added
    back as its gradient."""
    c, h2 = src.buffer.shape[0], src.h ** 2
    grid = np.zeros((c, h2, src.n))
    if dcols is not None:
        grad = src.spread(dcols.reshape(c, h2, src.shape[0], src.grid, src.grid))
    spans = []
    for blk, block in src.blocks(width):
        grid[:, :, blk] = block
        spans.append((blk.start, blk.stop))
        if dcols is not None:
            src.add_grad(blk, grad[:, :, blk])
    return spans, src.crop(grid).reshape(c, h2, -1)


class TestFeatureDim:
    def test_formula(self):
        assert feature_dim(5, 3, 1) == 3
        assert feature_dim(128, 3, 1) == 126
        assert feature_dim(28, 3, 1) == 26

    def test_single_placement(self):
        assert feature_dim(7, 7, 1) == 1
        assert feature_dim(7, 7, 3) == 1

    def test_rejects_oversized_kernel(self):
        with pytest.raises(ValueError):
            feature_dim(4, 5, 1)


class TestIm2col:
    def test_single_patch_is_flattened_image(self):
        img = np.arange(9.0).reshape(3, 3)
        pm = im2col(img, 3)
        assert pm.values.shape == (9, 1)
        assert np.array_equal(pm.values[:, 0], img.ravel())

    def test_two_by_two_windows(self):
        img = np.arange(1.0, 10.0).reshape(3, 3)
        pm = im2col(img, 2)
        expected = np.array([
            [1, 2, 4, 5],
            [2, 3, 5, 6],
            [4, 5, 7, 8],
            [5, 6, 8, 9],
        ], dtype=float).T
        assert np.array_equal(pm.values, expected)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        img = rng.random((2, 7, 7))
        pm = im2col(img, 3, 2)
        assert np.array_equal(pm.values, naive_patch_columns(img, 3, 2))

    def test_channel_major_blocks(self):
        rng = np.random.default_rng(1)
        img = rng.random((3, 5, 5))
        pm = im2col(img, 2)
        per_channel = [im2col(img[c], 2).values for c in range(3)]
        assert np.array_equal(pm.values, np.vstack(per_channel))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((4, 5)), 2)

    def test_grid_metadata(self):
        pm = im2col(np.zeros((128, 128)), 3)
        assert isinstance(pm, PatchMatrix)
        assert pm.grid == 126
        assert pm.values.shape == (9, 126 * 126)

    def test_batch_matches_per_image(self):
        rng = np.random.default_rng(2)
        imgs = rng.random((3, 2, 6, 6))
        cols = im2col_batch(imgs, 3)
        g2 = feature_dim(6, 3) ** 2
        for b in range(3):
            assert np.array_equal(cols[:, b * g2:(b + 1) * g2],
                                  im2col(imgs[b], 3).values)


class TestReflectPad:
    """The window source reflect-pads its input as the loop reference does."""

    def test_equals_im2col_of_loop_padding(self):
        rng = np.random.default_rng(6)
        for n in range(2, 7):
            x = rng.standard_normal((2, 3, n, n))
            for pad in range(n):
                h = min(3, n + 2 * pad)
                expected = im2col_batch(reflect_pad_loop(x, pad), h)
                _, cols = walk(PaddedWindows(x, h, pad), 64)
                assert np.array_equal(cols.reshape(expected.shape), expected)

    @pytest.mark.parametrize("pad", [-1, 4, 5])
    def test_rejects_pad_outside_image(self, pad):
        with pytest.raises(ValueError):
            PaddedWindows(np.zeros((1, 1, 4, 4)), 3, pad)


class TestConvEquivalence:
    def test_matrix_path_equals_reference(self):
        rng = np.random.default_rng(3)
        img = rng.random((5, 5))
        kernel = rng.random((3, 3))
        pm = im2col(img, 3)
        product = kernel.ravel() @ pm.values
        assert np.allclose(col2im(product, pm.grid),
                           conv2d_reference(img, kernel), rtol=1e-12, atol=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 16), st.integers(1, 5),
           st.integers(1, 2))
    def test_oracle_equivalence_random(self, seed, n, h, s):
        if h > n:
            h = n
        rng = np.random.default_rng(seed)
        img = rng.random((n, n))
        kernel = rng.normal(size=(h, h))
        pm = im2col(img, h, s)
        product = kernel.ravel() @ pm.values
        reference = conv2d_reference(img, kernel, s)
        assert np.allclose(col2im(product, pm.grid), reference,
                           rtol=1e-12, atol=1e-12)


class TestCol2im:
    def test_row_major(self):
        assert np.array_equal(col2im(np.array([1.0, 2, 3, 4]), 2),
                              np.array([[1.0, 2], [3, 4]]))

    def test_inverse_pair(self):
        rng = np.random.default_rng(4)
        m = rng.random((6, 6))
        assert np.array_equal(col2im(m.ravel(), 6), m)

    def test_large_grid(self):
        v = np.zeros(126 * 126)
        assert col2im(v, 126).shape == (126, 126)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            col2im(np.zeros(5), 2)


class TestFold:
    def test_interior_multiplicity(self):
        # at stride 1 each fully interior pixel is visited h^2 times
        h, n = 3, 8
        g = feature_dim(n, h)
        cols = np.ones((h * h, g * g))
        counts = fold_batch(cols, (1, 1, n, n), h)[0, 0]
        assert np.all(counts[h - 1:n - h + 1, h - 1:n - h + 1] == h * h)
        assert counts[0, 0] == 1

    def test_adjoint_of_im2col(self):
        # <fold(c), x> == <c, im2col(x)> makes fold the exact gradient
        rng = np.random.default_rng(5)
        x = rng.random((2, 3, 6, 6))
        for s in (1, 2, 3):
            cols = im2col_batch(x, 3, s)
            c = rng.random(cols.shape)
            lhs = np.sum(fold_batch(c, x.shape, 3, s) * x)
            rhs = np.sum(c * cols)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPaddedWindows:
    """The streamed stride-1 source gives exactly the columns of im2col_batch
    of the loop-padded input, and its gradient equals fold_batch's folded
    back by the loop adjoint of padding, to round-off."""

    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("h", [2, 3])
    def test_equals_im2col_and_fold(self, h, pad):
        rng = np.random.default_rng(50 + 10 * h + pad)
        x = rng.random((2, 3, 5, 5))
        src = PaddedWindows(x, h, pad)
        side = 5 + 2 * pad
        image = side * side
        expected = im2col_batch(reflect_pad_loop(x, pad), h)
        dcols = rng.standard_normal(expected.shape)
        folded = reflect_pad_grad_loop(fold_batch(dcols, (2, 3, side, side), h), pad, 5)
        # one block, a row per block, and four rows per block: the last block
        # ragged and one block straddling the two images
        for rows in (2 * side, 1, 4):
            spans, cols = walk(src, rows * side, dcols)
            assert np.array_equal(cols, expected.reshape(3, h * h, -1))
            assert spans[0][0] == 0
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            assert all(stop - start == rows * side for start, stop in spans[:-1])
            if rows == 4:
                assert spans[-1][1] - spans[-1][0] < rows * side
                assert any(start < image < stop for start, stop in spans)
            grad = src.gradient()
            assert grad.shape == x.shape
            assert np.max(np.abs(grad - folded)) <= 1e-12 * np.max(np.abs(folded))

    def test_width_rounds_to_whole_rows(self):
        src = PaddedWindows(np.zeros((1, 1, 6, 6)), 3, 1)     # rows of 8 columns
        for width, expected in ((1, 8), (11, 8), (12, 16), (19, 16)):
            (blk, block), *_ = src.blocks(width)
            assert blk.stop - blk.start == block.shape[-1] == expected

    def test_rejects_bad_pad(self):
        # through a convolution, which builds its source at each forward
        rng = np.random.default_rng(0)
        for pad in (-1, 4, 5):
            with pytest.raises(ValueError):
                Conv2dLayer(1, 1, 3, rng, pad=pad).forward(np.zeros((1, 1, 4, 4)))
