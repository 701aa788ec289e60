import subprocess
import sys

import numpy as np
import pytest

from ocusim.pgm import read_pgm, write_pgm


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "ocusim.cli", *argv],
        capture_output=True, text=True, cwd=cwd,
    )


FIT_CONFIG = """
[geometry]
metaunits_per_layer = 8
num_layers = 3

[fit]
kernels = box_blur
epochs = 40
seed = 3
pattern_size = 16
pattern_seed = 2
holdout = none

[output]
dir = {out}
"""

CUSTOM_KERNEL_CONFIG = """
[geometry]
metaunits_per_layer = 8

[fit]
kernels = mykernel
epochs = 5
seed = 1
pattern_size = 12
holdout = none

[kernel:mykernel]
size = 3
values = 0 0 0 0 1 0 0 0 0

[output]
dir = {out}
"""

BLOBS_CONFIG = """
[dataset]
kind = blobs
train_count = 64
test_count = 32
size = 8
seed = 0

[geometry]
metaunits_per_layer = 8

[network]
kernels = 1
hidden = 8
seed = 1

[train]
epochs = 2
batch_size = 16
seed = 1

[output]
dir = {out}
"""

DENOISE_CONFIG = """
[dataset]
kind = synthetic
count = 3
size = 32
seed = 4

[geometry]
metaunits_per_layer = 8

[network]
input_kernels = 2
middle_kernels = 2
seed = 2

[denoise]
sigma = 20
epochs = 1
batch_size = 8
patch = 16
crops_per_image = 8
seed = 2

[output]
dir = {out}
"""

PERF_CONFIG = """
[perf]
kernel_size = 3
channels = 3
kernels = 16
rate_gbaud = 100
pixels = 8e6
bit_depth = 8
energy_fj_per_bit = 100
detector_power_mw = 100

[output]
dir = {out}
"""


class TestPerfCommand:
    def test_paper_numbers_in_output(self, tmp_path):
        cfg = tmp_path / "perf.ini"
        cfg.write_text(PERF_CONFIG.format(out=tmp_path / "out"))
        proc = run_cli("perf", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert "1.7 TOPS" in proc.stdout
        assert "81.6 TOPS" in proc.stdout
        assert "0.0001808" in proc.stdout
        csv = (tmp_path / "out" / "perf.csv").read_text().splitlines()
        assert csv[0].startswith("O_conv,")

    def test_missing_config_exits_2(self):
        proc = run_cli("perf", "--config", "/nonexistent.ini")
        assert proc.returncode == 2
        assert "config error" in proc.stderr


class TestFitKernelCommand:
    def test_outputs_and_idempotence(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "fit.ini"
        cfg.write_text(FIT_CONFIG.format(out=out))
        proc = run_cli("fit-kernel", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert (out / "box_blur.ckpt").is_file()
        assert (out / "box_blur_history.csv").is_file()
        assert (out / "box_blur_geometry.csv").is_file()
        assert (out / "summary.csv").is_file()
        assert "train_mse=" in proc.stdout

        first = (out / "box_blur.ckpt").read_bytes()
        proc2 = run_cli("fit-kernel", "--config", str(cfg))
        assert proc2.returncode == 0
        assert (out / "box_blur.ckpt").read_bytes() == first

    def test_custom_kernel_section(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "fit.ini"
        cfg.write_text(CUSTOM_KERNEL_CONFIG.format(out=out))
        proc = run_cli("fit-kernel", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert (out / "mykernel.ckpt").is_file()

    def test_missing_key_names_it(self, tmp_path):
        cfg = tmp_path / "fit.ini"
        cfg.write_text("[fit]\nepochs = 5\n")
        proc = run_cli("fit-kernel", "--config", str(cfg))
        assert proc.returncode == 2
        assert "[fit] kernels" in proc.stderr

    def test_unknown_kernel_name(self, tmp_path):
        cfg = tmp_path / "fit.ini"
        cfg.write_text("[fit]\nkernels = nosuch\n")
        proc = run_cli("fit-kernel", "--config", str(cfg))
        assert proc.returncode == 2
        assert "nosuch" in proc.stderr

    def test_divergence_exits_3(self, tmp_path):
        cfg = tmp_path / "fit.ini"
        cfg.write_text(FIT_CONFIG.format(out=tmp_path / "out")
                       + "\n[DEFAULT]\n")
        text = cfg.read_text().replace("epochs = 40", "epochs = 5\nlearning_rate = 1e300")
        cfg.write_text(text)
        proc = run_cli("fit-kernel", "--config", str(cfg))
        assert proc.returncode == 3
        assert "diverged" in proc.stderr


class TestConvolveCommand:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        out = tmp_path / "fitout"
        cfg = tmp_path / "fit.ini"
        cfg.write_text(FIT_CONFIG.format(out=out))
        proc = run_cli("fit-kernel", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        return out / "box_blur.ckpt"

    def test_feature_map_emitted(self, tmp_path, checkpoint):
        rng = np.random.default_rng(0)
        img_path = tmp_path / "input.pgm"
        write_pgm(img_path, rng.random((12, 12)))
        out = tmp_path / "conv"
        proc = run_cli("convolve", "--checkpoint", str(checkpoint),
                       "--image", str(img_path), "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        fm = np.array([[float(v) for v in line.split(",")]
                       for line in (out / "feature_map.csv").read_text().splitlines()])
        assert fm.shape == (10, 10)
        assert (out / "feature_map.pgm").is_file()
        assert read_pgm(out / "feature_map.pgm").shape == (10, 10)

    def test_zero_image_zero_map(self, tmp_path, checkpoint):
        img_path = tmp_path / "zero.pgm"
        write_pgm(img_path, np.zeros((8, 8)))
        out = tmp_path / "conv0"
        proc = run_cli("convolve", "--checkpoint", str(checkpoint),
                       "--image", str(img_path), "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        fm = np.array([[float(v) for v in line.split(",")]
                       for line in (out / "feature_map.csv").read_text().splitlines()])
        assert np.all(fm == 0.0)

    def test_undersized_image_exits_2(self, tmp_path, checkpoint):
        img_path = tmp_path / "tiny.pgm"
        write_pgm(img_path, np.zeros((2, 2)))
        proc = run_cli("convolve", "--checkpoint", str(checkpoint),
                       "--image", str(img_path), "--out-dir", str(tmp_path / "c"))
        assert proc.returncode == 2

    def test_missing_checkpoint_exits_2(self, tmp_path):
        img_path = tmp_path / "img.pgm"
        write_pgm(img_path, np.zeros((8, 8)))
        proc = run_cli("convolve", "--checkpoint", str(tmp_path / "none.ckpt"),
                       "--image", str(img_path))
        assert proc.returncode == 2


class TestExportGeometry:
    def test_exports_table(self, tmp_path):
        out = tmp_path / "fitout"
        cfg = tmp_path / "fit.ini"
        cfg.write_text(FIT_CONFIG.format(out=out))
        assert run_cli("fit-kernel", "--config", str(cfg)).returncode == 0
        geo_out = tmp_path / "geo"
        proc = run_cli("export-geometry", "--checkpoint", str(out / "box_blur.ckpt"),
                       "--out-dir", str(geo_out))
        assert proc.returncode == 0, proc.stderr
        lines = (geo_out / "geometry.csv").read_text().splitlines()
        assert lines[0] == "layer,metaunit,y_um,delta_phi_rad,w2_nm"
        assert len(lines) == 1 + 2 * 8  # 2 metalines x 8 units


class TestClassifierPipeline:
    def test_train_then_eval(self, tmp_path):
        out = tmp_path / "clf"
        cfg = tmp_path / "train.ini"
        cfg.write_text(BLOBS_CONFIG.format(out=out))
        proc = run_cli("train-classifier", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert (out / "classifier.ckpt").is_file()
        assert (out / "history.csv").is_file()
        assert (out / "confusion.csv").is_file()
        assert "test accuracy:" in proc.stdout

        eval_cfg = tmp_path / "eval.ini"
        eval_cfg.write_text(f"""
[eval]
checkpoint = {out / 'classifier.ckpt'}

[dataset]
kind = blobs
test_count = 32
size = 8
seed = 0

[output]
dir = {tmp_path / 'evalout'}
""")
        proc2 = run_cli("eval", "--config", str(eval_cfg))
        assert proc2.returncode == 0, proc2.stderr
        assert "accuracy:" in proc2.stdout
        assert (tmp_path / "evalout" / "confusion.csv").is_file()

        geo_out = tmp_path / "geo"
        proc3 = run_cli("export-geometry", "--checkpoint", str(out / "classifier.ckpt"),
                        "--out-dir", str(geo_out))
        assert proc3.returncode == 0, proc3.stderr
        assert (geo_out / "geometry_layer0_ock0_ocu0.csv").is_file()


class TestEvalDatasetMismatch:
    """eval of a classifier on images unlike its training images exits 2:
    blobs of another size name [dataset] size, other datasets their shape."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("clf")
        cfg = out / "train.ini"
        cfg.write_text(BLOBS_CONFIG.format(out=out))
        proc = run_cli("train-classifier", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        return out / "classifier.ckpt"

    @staticmethod
    def run_eval(tmp_path, checkpoint, dataset):
        cfg = tmp_path / "eval.ini"
        cfg.write_text(f"[eval]\ncheckpoint = {checkpoint}\n\n[dataset]\n{dataset}\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        return run_cli("eval", "--config", str(cfg))

    def test_blobs_of_another_size(self, tmp_path, checkpoint):
        proc = self.run_eval(tmp_path, checkpoint, "kind = blobs\ntest_count = 8\nsize = 10\n")
        assert proc.returncode == 2, proc.stderr
        assert "[dataset] size" in proc.stderr
        assert "(1, 10, 10)" in proc.stderr and "(1, 8, 8)" in proc.stderr

    def test_idx_images_of_another_size(self, tmp_path, checkpoint):
        from test_data import make_idx_images, make_idx_labels

        make_idx_images(tmp_path / "img.idx", np.zeros((3, 10, 10)))
        make_idx_labels(tmp_path / "lbl.idx", np.zeros(3))
        proc = self.run_eval(tmp_path, checkpoint,
                             f"kind = idx\ntest_images = {tmp_path / 'img.idx'}\n"
                             f"test_labels = {tmp_path / 'lbl.idx'}\n")
        assert proc.returncode == 2, proc.stderr
        assert "(1, 10, 10)" in proc.stderr and "(1, 8, 8)" in proc.stderr

    def test_one_pixel_blobs(self, tmp_path, checkpoint):
        # rejected before synthetic_blobs would divide by size - 1
        proc = self.run_eval(tmp_path, checkpoint, "kind = blobs\nsize = 1\n")
        assert proc.returncode == 2, proc.stderr
        assert "[dataset] size" in proc.stderr
        assert "Warning" not in proc.stderr


class TestDenoiserPipeline:
    def test_train_then_eval(self, tmp_path):
        out = tmp_path / "dn"
        cfg = tmp_path / "train.ini"
        cfg.write_text(DENOISE_CONFIG.format(out=out))
        proc = run_cli("train-denoiser", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert (out / "denoiser.ckpt").is_file()

        eval_cfg = tmp_path / "eval.ini"
        eval_cfg.write_text(f"""
[eval]
checkpoint = {out / 'denoiser.ckpt'}
sigma = 20
test_kind = synthetic
test_count = 2
test_size = 48
test_seed = 9

[output]
dir = {tmp_path / 'evalout'}
""")
        proc2 = run_cli("eval", "--config", str(eval_cfg))
        assert proc2.returncode == 0, proc2.stderr
        lines = (tmp_path / "evalout" / "psnr.csv").read_text().splitlines()
        assert lines[0] == "image,psnr_noisy,psnr_denoised"
        assert lines[-1].startswith("mean,")
        assert (tmp_path / "evalout" / "denoised_0.pgm").is_file()
        assert (tmp_path / "evalout" / "denoised_1.pgm").is_file()

        # user-supplied test images: mixed sizes, center-cropped + resized
        rng = np.random.default_rng(3)
        img_dir = tmp_path / "setimgs"
        img_dir.mkdir()
        write_pgm(img_dir / "one.pgm", rng.random((40, 52)))
        write_pgm(img_dir / "two.pgm", rng.random((48, 48)))
        eval_cfg2 = tmp_path / "eval2.ini"
        eval_cfg2.write_text(f"""
[eval]
checkpoint = {out / 'denoiser.ckpt'}
sigma = 20
test_kind = pgm-dir
test_dir = {img_dir}
test_resize = 48

[output]
dir = {tmp_path / 'evalout2'}
""")
        proc3 = run_cli("eval", "--config", str(eval_cfg2))
        assert proc3.returncode == 0, proc3.stderr
        denoised = read_pgm(tmp_path / "evalout2" / "denoised_0.pgm")
        assert denoised.shape == (48, 48)

    def test_eval_images_are_the_scored_estimates(self, tmp_path):
        # the written PGMs must be the very estimates psnr.csv scores
        from ocusim.checkpoint import save_network
        from ocusim.data import psnr, synthetic_corpus
        from ocusim.networks import _denoised_images, build_denoiser, calibrate_optical_layers
        from ocusim.optics import OcuGeometry

        geom = OcuGeometry(metaunits_per_layer=8, num_layers=3, num_inputs=9)
        net = build_denoiser(geom, 2, 2, seed=2)
        calibrate_optical_layers(net, np.random.default_rng(0).random((4, 1, 12, 12)))
        topo = {"input_kernels": 2, "middle_kernels": 2, "middle_layers": 1,
                "in_channels": 1, "seed": 2, "optical": "true"}
        ckpt = tmp_path / "dn.ckpt"
        save_network(ckpt, net, "denoiser", geom, topo)
        eval_cfg = tmp_path / "eval.ini"
        eval_cfg.write_text(f"""
[eval]
checkpoint = {ckpt}
sigma = 20
seed = 4
test_kind = synthetic
test_count = 3
test_size = 24
test_seed = 9

[output]
dir = {tmp_path / 'evalout'}
""")
        proc = run_cli("eval", "--config", str(eval_cfg))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "evalout" / "psnr.csv").read_text().splitlines()[1:-1]
        images = synthetic_corpus(3, 24, 9)
        for i, (img, noisy, estimate) in enumerate(_denoised_images(net, images, 20.0, 4)):
            assert lines[i] == f"{i},{psnr(noisy, img)!r},{psnr(estimate, img)!r}"
            written = read_pgm(tmp_path / "evalout" / f"denoised_{i}.pgm")
            assert np.array_equal(written, np.rint(estimate * 255.0) / 255.0)


class TestMalformedCheckpoint:
    """Hand-edited checkpoints with a missing or malformed key exit 2 and name it."""

    @staticmethod
    def rewrite(path, prefix, replacement=None):
        lines = path.read_text().splitlines()
        hits = [i for i, line in enumerate(lines) if line.startswith(prefix)]
        assert len(hits) == 1
        lines[hits[0]:hits[0] + 1] = [] if replacement is None else [replacement]
        path.write_text("\n".join(lines) + "\n")

    @staticmethod
    def ocu_checkpoint(tmp_path):
        from ocusim.checkpoint import save_ocu_model
        from ocusim.optics import OcuGeometry, OcuModel

        path = tmp_path / "unit.ckpt"
        model = OcuModel.random_init(OcuGeometry(metaunits_per_layer=4),
                                     np.random.default_rng(0))
        save_ocu_model(path, model)
        return path

    @staticmethod
    def assert_names(path, key):
        proc = run_cli("export-geometry", "--checkpoint", str(path),
                       "--out-dir", str(path.parent / "geo"))
        assert proc.returncode == 2, proc.stderr
        assert key in proc.stderr

    def test_missing_geometry_key(self, tmp_path):
        path = self.ocu_checkpoint(tmp_path)
        self.rewrite(path, "num_layers = ")
        self.assert_names(path, "[geometry] num_layers")

    def test_missing_kappa(self, tmp_path):
        path = self.ocu_checkpoint(tmp_path)
        self.rewrite(path, "kappa = ")
        self.assert_names(path, "kappa")

    def test_non_integer_topology(self, tmp_path):
        from ocusim.checkpoint import save_network
        from ocusim.networks import build_denoiser
        from ocusim.optics import OcuGeometry

        geom = OcuGeometry(metaunits_per_layer=4)
        topo = {"input_kernels": 2, "middle_kernels": 2, "middle_layers": 1,
                "in_channels": 1, "seed": 2, "optical": "true"}
        path = tmp_path / "dn.ckpt"
        save_network(path, build_denoiser(geom, 2, 2, seed=2), "denoiser", geom, topo)
        self.rewrite(path, "topo.middle_layers = ", "topo.middle_layers = x")
        self.assert_names(path, "topo.middle_layers")

    @pytest.mark.parametrize("key, bad", [
        ("pool", "median"), ("optical", "maybe"), ("hidden", "0"),
        ("kernels", "0"), ("n_classes", "0"), ("seed", "-1"),
    ])
    def test_bad_classifier_topology(self, tmp_path, key, bad):
        from ocusim.checkpoint import save_network
        from ocusim.networks import build_classifier
        from ocusim.optics import OcuGeometry

        geom = OcuGeometry(metaunits_per_layer=4)
        topo = {"kernels": 1, "channels": 1, "image_size": 8, "n_classes": 2, "seed": 1,
                "optical": "true", "hidden": "4", "pool": "mean"}
        path = tmp_path / "clf.ckpt"
        save_network(path, build_classifier(geom, 1, 1, 8, 2, seed=1, hidden=(4,)),
                     "classifier", geom, topo)
        self.rewrite(path, f"topo.{key} = ", f"topo.{key} = {bad}")
        self.assert_names(path, f"topo.{key}")


class TestMalformedImage:
    """A PGM with a malformed header, given to convolve or as the fit hold-out,
    exits 2 and names the file."""

    def test_convolve_image(self, tmp_path):
        from ocusim.checkpoint import save_ocu_model
        from ocusim.optics import OcuGeometry, OcuModel

        ckpt = tmp_path / "unit.ckpt"
        save_ocu_model(ckpt, OcuModel.random_init(OcuGeometry(metaunits_per_layer=4),
                                                  np.random.default_rng(0)))
        image = tmp_path / "bad.pgm"
        image.write_bytes(b"P5\n8 x\n255\n")
        proc = run_cli("convolve", "--checkpoint", str(ckpt), "--image", str(image),
                       "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert str(image) in proc.stderr

    def test_fit_holdout(self, tmp_path):
        image = tmp_path / "bad.pgm"
        image.write_bytes(b"P5\n8")
        cfg = tmp_path / "fit.ini"
        cfg.write_text(FIT_CONFIG.format(out=tmp_path / "out")
                       .replace("holdout = none", f"holdout = {image}"))
        proc = run_cli("fit-kernel", "--config", str(cfg))
        assert proc.returncode == 2, proc.stderr
        assert str(image) in proc.stderr


class TestBadNumbers:
    """A count, size or stride below 1, a negative seed, limit or layer count, an
    even denoiser kernel, a malformed list, an unknown pool mode, a rate <= 0, a
    noise level, pixel count or energy that is negative or not finite, a class id
    list that is not distinct ids 0-9, blob images under 2 pixels a side, or
    classifier images too small for the kernel and pool exits 2 naming the key,
    with no warning printed first."""

    @staticmethod
    def convolve_stride_zero(tmp_path):
        from ocusim.checkpoint import save_ocu_model
        from ocusim.optics import OcuGeometry, OcuModel

        ckpt = tmp_path / "unit.ckpt"
        save_ocu_model(ckpt, OcuModel.random_init(OcuGeometry(metaunits_per_layer=4),
                                                  np.random.default_rng(0)))
        write_pgm(tmp_path / "img.pgm", np.zeros((8, 8)))
        return run_cli("convolve", "--checkpoint", str(ckpt), "--image",
                       str(tmp_path / "img.pgm"), "--stride", "0",
                       "--out-dir", str(tmp_path / "out"))

    CASES = {
        "fit_epochs": ("fit-kernel", FIT_CONFIG, "epochs = 40", "epochs = 0", "[fit] epochs"),
        "fit_stride": ("fit-kernel", FIT_CONFIG, "epochs = 40", "epochs = 40\nstride = 0",
                       "[fit] stride"),
        "train_epochs": ("train-classifier", BLOBS_CONFIG, "epochs = 2", "epochs = 0",
                         "[train] epochs"),
        "classifier_kernels": ("train-classifier", BLOBS_CONFIG, "kernels = 1", "kernels = 0",
                               "[network] kernels"),
        "denoiser_even_kernel": ("train-denoiser", DENOISE_CONFIG, "[network]\n",
                                 "[network]\nkernel_size = 2\n", "[network] kernel_size"),
        "denoise_batch": ("train-denoiser", DENOISE_CONFIG, "batch_size = 8", "batch_size = 0",
                          "[denoise] batch_size"),
        "kernel_values": ("fit-kernel", CUSTOM_KERNEL_CONFIG, "values = 0 0 0 0 1",
                          "values = 0 0 0 0 x", "[kernel:mykernel] values"),
        "classifier_hidden": ("train-classifier", BLOBS_CONFIG, "hidden = 8", "hidden = 8 x",
                              "[network] hidden"),
        "classifier_pool": ("train-classifier", BLOBS_CONFIG, "hidden = 8",
                            "hidden = 8\npool = median", "[network] pool"),
        "fit_learning_rate": ("fit-kernel", FIT_CONFIG, "epochs = 40",
                              "epochs = 40\nlearning_rate = 0", "[fit] learning_rate"),
        "train_learning_rate": ("train-classifier", BLOBS_CONFIG, "epochs = 2",
                                "epochs = 2\nlearning_rate = 0", "[train] learning_rate"),
        "denoise_learning_rate": ("train-denoiser", DENOISE_CONFIG, "batch_size = 8",
                                  "batch_size = 8\nlearning_rate = -1",
                                  "[denoise] learning_rate"),
        "limit_train": ("train-classifier", BLOBS_CONFIG, "train_count = 64",
                        "train_count = 64\nlimit_train = -5", "[dataset] limit_train"),
        "eval_every": ("train-classifier", BLOBS_CONFIG, "epochs = 2",
                       "epochs = 2\neval_every = -1", "[train] eval_every"),
        "blobs_count": ("train-classifier", BLOBS_CONFIG, "train_count = 64",
                        "train_count = 0", "[dataset] train_count"),
        "network_seed": ("train-classifier", BLOBS_CONFIG, "hidden = 8\nseed = 1",
                         "hidden = 8\nseed = -1", "[network] seed"),
        "middle_layers": ("train-denoiser", DENOISE_CONFIG, "middle_kernels = 2",
                          "middle_kernels = 2\nmiddle_layers = -1", "[network] middle_layers"),
        "corpus_count": ("train-denoiser", DENOISE_CONFIG, "count = 3", "count = 0",
                         "[dataset] count"),
        "sigma_negative": ("train-denoiser", DENOISE_CONFIG, "sigma = 20", "sigma = -5",
                           "[denoise] sigma"),
        "sigma_nan": ("train-denoiser", DENOISE_CONFIG, "sigma = 20", "sigma = nan",
                      "[denoise] sigma"),
        "perf_rate": ("perf", PERF_CONFIG, "rate_gbaud = 100", "rate_gbaud = 0",
                      "[perf] rate_gbaud"),
        "perf_pixels": ("perf", PERF_CONFIG, "pixels = 8e6", "pixels = -5", "[perf] pixels"),
        "cifar_classes": ("train-classifier", BLOBS_CONFIG, "kind = blobs",
                          "kind = cifar4\ntrain_batches = a.bin\ntest_batches = b.bin\n"
                          "classes = 0 x", "[dataset] classes"),
        "blobs_size_below_kernel": ("train-classifier", BLOBS_CONFIG, "size = 8", "size = 2",
                                    "[dataset] size"),
        "blobs_size_one": ("train-classifier", BLOBS_CONFIG, "size = 8", "size = 1",
                           "[dataset] size"),
    }

    @pytest.mark.parametrize("case", ["convolve_stride", *CASES])
    def test_exits_2_and_names_key(self, tmp_path, case):
        if case == "convolve_stride":
            proc, key = self.convolve_stride_zero(tmp_path), "--stride"
        else:
            command, template, old, new, key = self.CASES[case]
            text = template.format(out=tmp_path / "out")
            assert text.count(old) == 1
            cfg = tmp_path / "bad.ini"
            cfg.write_text(text.replace(old, new))
            proc = run_cli(command, "--config", str(cfg))
        assert proc.returncode == 2, proc.stderr
        assert key in proc.stderr
        assert "Warning" not in proc.stderr
