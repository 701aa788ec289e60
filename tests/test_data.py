import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocusim.data import (
    LabeledDataset,
    add_awgn,
    accuracy,
    confusion,
    crop_patches,
    draw_crops,
    load_cifar4,
    load_idx,
    load_idx_images,
    load_idx_labels,
    psnr,
    synthetic_blobs,
    synthetic_contrast_image,
    synthetic_corpus,
    synthetic_image,
    synthetic_shapes,
)
from ocusim.pgm import read_pgm, write_pgm

from helpers import (
    bilinear_resize_reference,
    crop_patches_loop,
    synthetic_blobs_loop,
    synthetic_contrast_image_reference,
    synthetic_image_reference,
    synthetic_shapes_loop,
)


def make_idx_images(path, images: np.ndarray) -> None:
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())


def make_idx_labels(path, labels: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10, dtype=np.uint8)
        make_idx_images(tmp_path / "imgs", images)
        make_idx_labels(tmp_path / "labels", labels)
        ds = load_idx(tmp_path / "imgs", tmp_path / "labels", "train")
        assert len(ds) == 10
        assert ds.images.shape == (10, 1, 28, 28)
        assert np.array_equal(ds.labels, labels)

    def test_pixel_checksum_against_byte_reader(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(3, 5, 5), dtype=np.uint8)
        make_idx_images(tmp_path / "imgs", images)
        loaded = load_idx_images(tmp_path / "imgs")
        # independent byte-level read of the first image
        raw = (tmp_path / "imgs").read_bytes()
        first = [raw[16 + i] for i in range(25)]
        assert float(np.sum(loaded[0])) == pytest.approx(sum(first) / 255.0)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 0x00000899, 1, 2, 2) + bytes(4))
        with pytest.raises(ValueError, match="magic"):
            load_idx_images(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 4, 4) + bytes(10))
        with pytest.raises(ValueError, match="payload"):
            load_idx_images(path)

    def test_rejects_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(2)
        make_idx_images(tmp_path / "imgs",
                        rng.integers(0, 256, size=(4, 3, 3), dtype=np.uint8))
        make_idx_labels(tmp_path / "labels",
                        rng.integers(0, 10, size=3, dtype=np.uint8))
        with pytest.raises(ValueError, match="samples"):
            load_idx(tmp_path / "imgs", tmp_path / "labels")

    def test_label_magic_checked(self, tmp_path):
        path = tmp_path / "labels"
        path.write_bytes(struct.pack(">II", 0x00000803, 1) + bytes(1))
        with pytest.raises(ValueError, match="magic"):
            load_idx_labels(path)

    def test_pixels_are_the_float64_quotients_in_float32(self, tmp_path):
        # every level, in a file that spans several read chunks
        images = np.arange(300 * 28 * 28).reshape(300, 28, 28) % 256
        make_idx_images(tmp_path / "imgs", images)
        loaded = load_idx_images(tmp_path / "imgs")
        assert loaded.dtype == np.float32 and loaded.shape == (300, 1, 28, 28)
        expected = (images.astype(np.uint8).astype(float) / 255.0).astype(np.float32)
        assert loaded.tobytes() == expected.tobytes()

    def test_holds_no_more_than_its_images(self, tmp_path):
        # no float64 copy and no copy of the file's bytes: the float32
        # images and at most 0.5 MB of read buffers
        make_idx_images(tmp_path / "imgs",
                        np.random.default_rng(6).integers(0, 256, size=(2000, 28, 28)))
        load_idx_images(tmp_path / "imgs")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            images = load_idx_images(tmp_path / "imgs")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert images.nbytes == 2000 * 28 * 28 * 4
        assert peak <= images.nbytes + 2**19

    def test_rereading_is_bitwise_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        make_idx_images(tmp_path / "imgs",
                        rng.integers(0, 256, size=(6, 8, 8), dtype=np.uint8))
        first = load_idx_images(tmp_path / "imgs")
        second = load_idx_images(tmp_path / "imgs")
        assert np.array_equal(first, second)


class TestCifar:
    def _write_batch(self, path, labels, value=7):
        with open(path, "wb") as f:
            for lab in labels:
                f.write(bytes([lab]) + bytes([value]) * 3072)

    def test_no_batch_files(self):
        with pytest.raises(ValueError, match="no CIFAR-10 batch files given"):
            load_cifar4([])

    def test_filters_and_relabels(self, tmp_path):
        path = tmp_path / "batch.bin"
        self._write_batch(path, [0, 5, 1, 9, 2, 3, 3, 7])
        ds = load_cifar4([path], classes=(0, 1, 2, 3))
        assert len(ds) == 5
        assert list(ds.labels) == [0, 1, 2, 3, 3]
        assert ds.images.shape == (5, 3, 32, 32)

    def test_record_layout(self, tmp_path):
        path = tmp_path / "batch.bin"
        with open(path, "wb") as f:
            f.write(bytes([2]) + bytes([10]) * 1024 + bytes([20]) * 1024
                    + bytes([30]) * 1024)
        ds = load_cifar4([path], classes=(2,))
        assert np.allclose(ds.images[0, 0], 10 / 255.0)
        assert np.allclose(ds.images[0, 1], 20 / 255.0)
        assert np.allclose(ds.images[0, 2], 30 / 255.0)

    def test_pixels_are_the_float64_quotients_in_float32(self, tmp_path):
        rng = np.random.default_rng(7)
        records = rng.integers(0, 256, size=(40, 3073), dtype=np.uint8)
        records[:, 0] = np.arange(40) % 10
        (tmp_path / "a.bin").write_bytes(records[:25].tobytes())
        (tmp_path / "b.bin").write_bytes(records[25:].tobytes())
        ds = load_cifar4([tmp_path / "a.bin", tmp_path / "b.bin"], classes=(3, 0))
        kept = records[np.isin(records[:, 0], (3, 0))]
        expected = (kept[:, 1:].astype(float) / 255.0).astype(np.float32)
        assert ds.images.dtype == np.float32
        assert ds.images.tobytes() == expected.tobytes()
        assert ds.labels.tolist() == [0 if c == 3 else 1 for c in kept[:, 0]]

    def test_four_of_ten_ratio(self, tmp_path):
        path = tmp_path / "batch.bin"
        self._write_batch(path, list(range(10)) * 5)
        ds = load_cifar4([path])
        assert len(ds) == 20  # 4 of 10 classes kept

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes(3072))
        with pytest.raises(ValueError, match="truncated"):
            load_cifar4([path])

    def test_rejects_unknown_class(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes([11]) + bytes(3072))
        with pytest.raises(ValueError, match="class"):
            load_cifar4([path])


class TestNoise:
    def test_zero_sigma_identity(self):
        img = synthetic_image(32, 0)
        sample = add_awgn(img, 0.0, 1)
        assert np.array_equal(sample.noisy, img)
        assert np.all(sample.noise == 0.0)

    def test_seeded_reproducibility(self):
        img = synthetic_image(32, 1)
        a = add_awgn(img, 15.0, 42)
        b = add_awgn(img, 15.0, 42)
        assert np.array_equal(a.noisy, b.noisy)

    def test_noise_is_consistent(self):
        img = synthetic_image(32, 2)
        sample = add_awgn(img, 20.0, 3)
        assert np.allclose(sample.noisy, sample.clean + sample.noise)
        assert sample.noisy.min() >= 0.0 and sample.noisy.max() <= 1.0

    def test_empirical_std_matches_sigma(self):
        # mid-gray, so clipping never bites; >= 1e6 samples within 1%
        img = np.full((1024, 1024), 0.5)
        sample = add_awgn(img, 12.0, 4)
        measured = np.std(sample.noise) * 255.0
        assert measured == pytest.approx(12.0, rel=0.01)

    def test_table_psnr_values(self):
        # mid-gray corpus reproduces the known noisy PSNR at each sigma
        img = np.full((256, 256), 0.5)
        for sigma, expected in ((10.0, 28.13), (15.0, 24.61), (20.0, 22.10)):
            values = [psnr(add_awgn(img, sigma, seed).noisy, img)
                      for seed in range(8)]
            assert np.mean(values) == pytest.approx(expected, abs=0.2)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            add_awgn(np.zeros((4, 4)), -1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            add_awgn(np.zeros((4, 4)), sigma)


class TestCrops:
    def test_counts(self):
        imgs = synthetic_corpus(4, 50, seed=3)
        patches = crop_patches(imgs, 40, 512, 0)
        assert patches.shape == (4 * 512, 40, 40)
        assert 400 * 512 == 128 * 1600  # the full-protocol bookkeeping

    def test_identity_crop(self):
        imgs = synthetic_corpus(2, 24, seed=4)
        patches = crop_patches(imgs, 24, 3, 1)
        assert np.array_equal(patches[0], imgs[0])
        assert np.array_equal(patches[3], imgs[1])

    def test_rejects_undersized(self):
        with pytest.raises(ValueError):
            crop_patches([np.zeros((16, 16))], 17, 1, 0)

    def test_patches_within_range(self):
        imgs = synthetic_corpus(2, 64, seed=5)
        patches = crop_patches(imgs, 16, 32, 2)
        assert patches.min() >= 0.0 and patches.max() <= 1.0

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_per_crop_draws_bitwise(self, seed):
        rng = np.random.default_rng(30 + seed)
        # non-square images, one as tall as the patch, one as wide
        imgs = [rng.random((40, 48)), rng.random((57, 40)), rng.random((40, 40)),
                rng.random((90, 61))]
        for patch, count in ((1, 3), (5, 1), (17, 9), (40, 48)):
            got = crop_patches(imgs, patch, count, seed)
            assert got.tobytes() == crop_patches_loop(imgs, patch, count, seed).tobytes()
        corpus = synthetic_corpus(3, 64, seed=seed)
        assert (crop_patches(corpus, 40, 48, seed).tobytes()
                == crop_patches_loop(corpus, 40, 48, seed).tobytes())

    def test_shared_generator_left_in_the_same_state(self):
        imgs = [np.random.default_rng(3).random((30, 44))]
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        assert (crop_patches(imgs, 8, 20, ours).tobytes()
                == crop_patches_loop(imgs, 8, 20, theirs).tobytes())
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("sizes", [
        [(64, 64)] * 3,                                     # a corpus
        [(40, 48), (57, 40), (40, 40), (90, 61)],           # a PGM directory
    ])
    def test_gather_equals_the_materialized_crops(self, sizes):
        rng = np.random.default_rng(40)
        imgs = [rng.random(size) for size in sizes]
        crops = draw_crops(imgs, 17, 9, 3)
        whole = crop_patches(imgs, 17, 9, 3)
        assert whole.tobytes() == crop_patches_loop(imgs, 17, 9, 3).tobytes()
        assert len(crops) == len(whole) == 9 * len(imgs)
        for idx in (rng.permutation(len(whole))[:16], [5, 5, 0, len(whole) - 1], [], [3]):
            got = crops.gather(idx)
            assert got.shape == (len(idx), 17, 17)
            assert got.tobytes() == whole[idx].tobytes()

    def test_crop_set_holds_corners_not_pixels(self):
        imgs = synthetic_corpus(4, 64, seed=6)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            crops = draw_crops(imgs, 16, 2000, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(crops) * 16 * 16 * 8 > 16e6      # what crop_patches builds
        assert peak < 1e6

    def test_draw_leaves_shared_generator_as_crop_patches_does(self):
        imgs = [np.random.default_rng(3).random((30, 44))] * 2
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        draw_crops(imgs, 8, 20, ours)
        crop_patches(imgs, 8, 20, theirs)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("patch, count, match", [
        (0, 4, "patch must be >= 1"), (-3, 4, "patch must be >= 1"),
        (4, 0, "count_per_image must be >= 1")])
    def test_rejects_empty_crops(self, patch, count, match):
        with pytest.raises(ValueError, match=match):
            crop_patches([np.zeros((16, 16))], patch, count, 0)

    def test_rejects_no_images(self):
        with pytest.raises(ValueError, match="no images"):
            crop_patches([], 4, 2, 0)
        with pytest.raises(ValueError, match="no images"):
            crop_patches(np.zeros((0, 16, 16)), 4, 2, 0)


class TestMetrics:
    def test_identical_images_infinite(self):
        img = synthetic_image(16, 3)
        assert psnr(img, img) == math.inf

    def test_sixteen_level_difference(self):
        a = np.full((8, 8), 100 / 255.0)
        b = np.full((8, 8), 116 / 255.0)
        assert psnr(a, b) == pytest.approx(10 * math.log10(255 ** 2 / 256), rel=1e-9)
        assert psnr(a, b) == pytest.approx(24.05, abs=0.01)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 2 ** 31))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((6, 6))
        b = rng.random((6, 6))
        assert psnr(a, b) == psnr(b, a)

    def test_accuracy_and_confusion(self):
        preds = np.array([0, 1, 2, 2])
        labels = np.array([0, 1, 2, 1])
        assert accuracy(preds, labels) == 0.75
        mat = confusion(preds, labels, 3)
        assert mat[1, 2] == 1  # true 1 predicted as 2
        assert np.trace(mat) == 3

    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 3])
        assert accuracy(labels, labels) == 1.0
        mat = confusion(labels, labels, 4)
        assert np.array_equal(mat, np.eye(4, dtype=int))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))


class TestSynthetic:
    def test_images_deterministic(self):
        assert np.array_equal(synthetic_image(64, 7), synthetic_image(64, 7))
        assert not np.array_equal(synthetic_image(64, 7), synthetic_image(64, 8))

    def test_corpus_shape_and_range(self):
        corpus = synthetic_corpus(3, 48, seed=9)
        assert corpus.shape == (3, 48, 48)
        assert corpus.min() >= 0.0 and corpus.max() <= 1.0

    def test_contrast_image_is_bimodal(self):
        img = synthetic_contrast_image(128, 5)
        near_levels = np.mean((np.abs(img - 0.14) < 0.06) | (np.abs(img - 0.86) < 0.06))
        assert near_levels > 0.8
        assert img.var() > 0.05

    def test_blobs_are_separable_by_corner(self):
        ds = synthetic_blobs(64, 8, seed=1)
        top_left = ds.images[:, 0, :4, :4].mean(axis=(1, 2))
        bottom_right = ds.images[:, 0, 4:, 4:].mean(axis=(1, 2))
        predicted = (bottom_right > top_left).astype(int)
        assert np.array_equal(predicted, ds.labels)

    @pytest.mark.parametrize("size", [0, 1])
    def test_blobs_reject_images_below_two_pixels(self, size):
        # the blob coordinates divide by size - 1
        with pytest.raises(ValueError, match="at least 2 pixels"):
            synthetic_blobs(4, size)

    def test_smallest_blobs_are_finite(self):
        assert np.all(np.isfinite(synthetic_blobs(4, 2).images))

    @pytest.mark.parametrize("size", [0, 1])
    def test_shapes_reject_images_below_two_pixels(self, size):
        with pytest.raises(ValueError, match="at least 2 pixels"):
            synthetic_shapes(4, size)

    def test_shapes_cover_ten_classes_in_range(self):
        ds = synthetic_shapes(500, 28, seed=3)
        assert ds.images.shape == (500, 1, 28, 28) and ds.images.dtype == np.float32
        assert 0.0 <= ds.images.min() and ds.images.max() <= 1.0
        assert np.array_equal(np.unique(ds.labels), np.arange(10))

    def test_empty_corpus(self):
        assert synthetic_corpus(0, 16).shape == (0, 16, 16)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 1, 4, 4)), np.zeros(2, dtype=int))

    @pytest.mark.parametrize("make, digest", [
        (lambda: synthetic_image(64, 7),
         "b5c9390c27944e924fcea6ef5807cdf6fb1f5471fcdf04424ad674e05f67b47f"),
        (lambda: synthetic_contrast_image(64, 5),
         "8098d2e6e6d05d4dda348d0b189a222c67c9f36ef3fe719e73a49e6e80c95b4e"),
        (lambda: synthetic_corpus(3, 48, 21),
         "511a45bf75466c90f4555acc67a45e7a442432e3e9c7ab923c74eefe1f565bb2"),
    ], ids=["image", "contrast", "corpus"])
    def test_pixels_pinned(self, make, digest):
        # the acceptance thresholds were set on exactly these arrays
        img = make()
        assert img.dtype == np.float64
        assert hashlib.sha256(np.ascontiguousarray(img).tobytes()).hexdigest() == digest


class TestGeneratorsMatchReference:
    """The whole-array generators equal the per-image float64 ones cast to
    float32, byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("size", [2, 5, 8, 28])
    def test_blobs(self, seed, size):
        for count in (0, 1, 300, 3200):
            ds = synthetic_blobs(count, size, seed)
            images, labels = synthetic_blobs_loop(count, size, seed)
            assert ds.images.shape == (count, 1, size, size)
            assert ds.images.tobytes() == images.astype(np.float32).tobytes()
            assert ds.labels.dtype == labels.dtype
            assert ds.labels.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("size", [2, 5, 28, 32])
    def test_shapes(self, seed, size):
        # 300 images span several chunks at every size above 14
        for count in (0, 1, 300):
            ds = synthetic_shapes(count, size, seed)
            images, labels = synthetic_shapes_loop(count, size, seed)
            assert ds.images.shape == (count, 1, size, size)
            assert ds.images.tobytes() == images.astype(np.float32).tobytes()
            assert ds.labels.dtype == labels.dtype
            assert ds.labels.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("seed", [0, 3, 11, 9000])
    def test_images(self, seed):
        # below 97 pixels the octave cell counts are clamped to size - 1
        for size in (1, 2, 3, 4, 5, 6, 7, 32, 48, 180, 256):
            assert (synthetic_image(size, seed).tobytes()
                    == synthetic_image_reference(size, seed).tobytes()), size

    @pytest.mark.parametrize("seed", [1, 5, 8])
    def test_contrast_images(self, seed):
        for size in (2, 5, 33, 64, 256):
            assert (synthetic_contrast_image(size, seed).tobytes()
                    == synthetic_contrast_image_reference(size, seed).tobytes()), size

    def test_corpus(self):
        corpus = synthetic_corpus(5, 37, seed=4)
        expected = np.stack([synthetic_image_reference(37, 4 * 100003 + i) for i in range(5)])
        assert corpus.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, size", [
        (2, 2), (9, 9), (2, 7), (2, 1), (6, 180), (13, 256), (97, 180),
        (64, 31), (180, 40), (7, 3), (3, 2)])
    def test_resize(self, n, size):
        from ocusim.data import bilinear_resize

        img = np.random.default_rng(n * 1000 + size).random((n, n))
        for _ in range(2):   # the call that fills the memo and one that reads it
            got = bilinear_resize(img, size)
            assert got.shape == (size, size)
            assert got.tobytes() == bilinear_resize_reference(img, size).tobytes()
        if n == size:
            assert got is not img

    def test_disc_edge_pixels_stay_outside(self):
        # centers and radii on the pixel grid put pixels exactly on the rim,
        # where the strict inequality of the whole-grid mask leaves them out
        from ocusim.data import _coords, _fill_disc

        size = 16
        yy, xx = np.mgrid[0:size, 0:size] / size
        # (row, column) offsets (3, 4) of a 5-pixel radius lie on the rim
        for cy, cx, radius in ((0.5, 0.5, 0.3125), (0.25, 0.5, 0.3125), (0.5, 0.5, 0.25)):
            img = np.zeros((size, size))
            _fill_disc(img, _coords(size), cy, cx, radius, 1.0)
            expected = ((yy - cy) ** 2 + (xx - cx) ** 2 < radius ** 2).astype(float)
            assert img.tobytes() == expected.tobytes()
            if radius == 0.3125:
                assert img[int(cy * size) + 3, int(cx * size) + 4] == 0.0
                assert img[int(cy * size) + 3, int(cx * size) + 3] == 1.0

    def test_memo_arrays_are_read_only(self):
        from ocusim.data import _coords, _resize_tables

        for table in _resize_tables(5, 21) + (_coords(21),):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_memos_stay_bounded(self):
        from ocusim.data import _coords, _resize_tables, bilinear_resize, synthetic_image

        for size in range(3, 40):
            bilinear_resize(np.ones((2, 2)), size)
            synthetic_image(size, 0)
        assert _resize_tables.cache_info().currsize <= _resize_tables.cache_info().maxsize
        assert _coords.cache_info().currsize <= _coords.cache_info().maxsize
        assert _resize_tables.cache_info().maxsize <= 16
        assert _coords.cache_info().maxsize <= 8


class TestGrayscaleDir:
    def test_center_crop_and_resize(self, tmp_path):
        from ocusim.data import bilinear_resize, center_square, load_grayscale_dir

        rng = np.random.default_rng(17)
        tall = rng.random((300, 260))
        write_pgm(tmp_path / "a.pgm", tall)
        write_pgm(tmp_path / "b.pgm", rng.random((256, 256)))
        images = load_grayscale_dir(tmp_path, 256)
        assert len(images) == 2
        assert all(img.shape == (256, 256) for img in images)
        square = center_square(tall)
        assert square.shape == (260, 260)
        assert bilinear_resize(square, 256).shape == (256, 256)

    def test_resize_identity_when_same_size(self):
        from ocusim.data import bilinear_resize

        img = synthetic_image(64, 21)
        assert np.array_equal(bilinear_resize(img, 64), img)

    def test_empty_dir_rejected(self, tmp_path):
        from ocusim.data import load_grayscale_dir

        with pytest.raises(ValueError, match="no .pgm"):
            load_grayscale_dir(tmp_path)


class TestPgm:
    def test_round_trip(self, tmp_path):
        img = synthetic_image(32, 11)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    @pytest.mark.parametrize("raw", [b"P5\n8 x\n255\n", b"P5\n8"],
                             ids=["non_numeric", "truncated"])
    def test_bad_header_names_path(self, tmp_path, raw):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="bad.pgm: malformed or truncated PGM header"):
            read_pgm(path)
