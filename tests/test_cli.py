import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ocusim.checkpoint import load_ocu_model
from ocusim.cli import write_table
from ocusim.optics import bank_detect, quadrature_rows, transfer_partials
from ocusim.pgm import read_pgm, write_pgm
from ocusim.srp import evaluate_kernel_emulation
from ocusim.tensorize import im2col

from helpers import old_format_lines


ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "ocusim.cli", *argv],
        capture_output=True, text=True, cwd=cwd,
    )


def unit_and_image(tmp_path):
    """A random 3x3 unit's checkpoint and an 8x8 PGM it can convolve."""
    from ocusim.checkpoint import save_ocu_model
    from ocusim.optics import OcuGeometry, OcuModel

    ckpt, image = tmp_path / "unit.ckpt", tmp_path / "img.pgm"
    save_ocu_model(ckpt, OcuModel.random_init(OcuGeometry(metaunits_per_layer=4),
                                              np.random.default_rng(0)))
    write_pgm(image, np.random.default_rng(1).random((8, 8)))
    return ckpt, image


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


class TestWriteTable:
    def test_fields(self, tmp_path):
        path = tmp_path / "t.csv"
        row = (3, np.int64(4), 0.1, np.float64(1e-300), float("nan"), float("inf"), None, "mean")
        write_table(path, [row], ("a", "b", "c", "d", "e", "f", "g", "h"))
        assert path.read_bytes() == b"a,b,c,d,e,f,g,h\n3,4,0.1,1e-300,nan,inf,,mean\n"
        write_table(path, [row])
        assert path.read_bytes() == b"3,4,0.1,1e-300,nan,inf,,mean\n"

    def test_rows_of_an_array_without_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, np.array([[1, 2], [3, 4]], dtype=np.int64))
        assert path.read_bytes() == b"1,2\n3,4\n"
        write_table(path, np.array([[0.5, -2.0]]))
        assert path.read_bytes() == b"0.5,-2.0\n"

    def test_history_csv(self, tmp_path):
        history = [(0, 1.5, 0.25), (1, 1.0, 0.125)]
        path = tmp_path / "h.csv"
        write_table(path, history, ("epoch", "loss", "mse"))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,mse"
        assert lines[1] == "0,1.5,0.25"

    def test_history_csv_header_and_row_width(self, tmp_path):
        path = tmp_path / "h.csv"
        write_table(path, [(0, 0.5, float("nan")), (1, 0.25, 0.75)],
                    ("epoch", "train_loss", "test_accuracy"))
        assert path.read_text() == "epoch,train_loss,test_accuracy\n0,0.5,nan\n1,0.25,0.75\n"
        write_table(path, [(0, 0.5)], ("epoch", "train_loss"))
        assert path.read_text() == "epoch,train_loss\n0,0.5\n"

    def test_geometry_csv_header(self, tmp_path):
        from ocusim.optics import GEOMETRY_COLUMNS, OcuGeometry, OcuModel, geometry_records

        geom = OcuGeometry(metaunits_per_layer=3, num_inputs=4, num_layers=3)
        model = OcuModel.random_init(geom, np.random.default_rng(9))
        path = tmp_path / "geom.csv"
        write_table(path, geometry_records(model), GEOMETRY_COLUMNS)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "layer,metaunit,y_um,delta_phi_rad,w2_nm"
        assert len(lines) == 1 + geom.metaline_count * 3


class TestEveryTable:
    """Every table that every command writes ends its lines in \\n and
    gives each row its header's number of fields."""

    HEADERLESS = ("feature_map.csv", "confusion.csv")

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        from ocusim import cli

        root = tmp_path_factory.mktemp("tables")
        configs = {"fit": FIT_CONFIG, "clf": BLOBS_CONFIG, "dn": DENOISE_CONFIG,
                   "perf": PERF_CONFIG, "clf-eval": f"""
[eval]
checkpoint = {root / 'clf' / 'classifier.ckpt'}

[dataset]
kind = blobs
test_count = 16
size = 8
""", "dn-eval": f"""
[eval]
checkpoint = {root / 'dn' / 'denoiser.ckpt'}
test_count = 2
test_size = 24
"""}
        for name, text in configs.items():
            (root / f"{name}.ini").write_text(text.format(out=root / name))
        write_pgm(root / "img.pgm", np.random.default_rng(1).random((10, 10)))
        runs = [
            ("fit-kernel", "--config", root / "fit.ini"),
            ("convolve", "--checkpoint", root / "fit" / "box_blur.ckpt",
             "--image", root / "img.pgm", "--out-dir", root / "conv"),
            ("export-geometry", "--checkpoint", root / "fit" / "box_blur.ckpt",
             "--out-dir", root / "fit-geometry"),
            ("train-classifier", "--config", root / "clf.ini"),
            ("eval", "--config", root / "clf-eval.ini", "--out-dir", root / "clf-eval"),
            ("train-denoiser", "--config", root / "dn.ini"),
            ("eval", "--config", root / "dn-eval.ini", "--out-dir", root / "dn-eval"),
            ("export-geometry", "--checkpoint", root / "dn" / "denoiser.ckpt",
             "--out-dir", root / "dn-geometry"),
            ("perf", "--config", root / "perf.ini"),
        ]
        for argv in runs:
            assert cli.main([str(arg) for arg in argv]) == 0, argv
        return root

    def test_every_kind_of_table_is_written(self, outputs):
        names = {p.name for p in outputs.rglob("*.csv")}
        assert names >= {"box_blur_history.csv", "box_blur_geometry.csv", "summary.csv",
                         "feature_map.csv", "geometry.csv", "history.csv", "confusion.csv",
                         "metrics.csv", "psnr.csv", "geometry_layer0_ock0_ocu0.csv",
                         "perf.csv"}

    def test_lines_end_in_newline_and_rows_fit_the_header(self, outputs):
        for path in sorted(outputs.rglob("*.csv")):
            data = path.read_bytes()
            assert b"\r" not in data and data.endswith(b"\n"), path
            widths = [line.count(",") + 1 for line in data.decode().splitlines()]
            if path.name in self.HEADERLESS:
                assert len(set(widths)) == 1, path
            else:
                assert len(widths) >= 2 and set(widths[1:]) == {widths[0]}, path

    def test_a_missing_holdout_is_an_empty_field(self, outputs):
        lines = (outputs / "fit" / "summary.csv").read_text().splitlines()
        assert lines[0] == "kernel,train_mse,holdout_mse"
        assert lines[1].startswith("box_blur,") and lines[1].endswith(",")


class TestPerfCommand:
    def test_paper_preset_with_out_dir(self, tmp_path):
        # --out-dir overrides [output] dir, which still counts as a known key
        proc = run_cli("perf", "--config", str(ROOT / "configs" / "perf_paper.ini"),
                       "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "perf.csv").is_file()

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

    @pytest.mark.parametrize("config, kernels, names", [
        (FIT_CONFIG, "", "names no kernel"),
        (FIT_CONFIG, "box_blur box_blur", "twice"),
        (CUSTOM_KERNEL_CONFIG.replace("[kernel:mykernel]", "[kernel:a/b]"), "a/b",
         "path separator"),
    ], ids=["empty", "repeated", "path"])
    def test_kernel_list_that_cannot_name_outputs_exits_2(self, tmp_path, config, kernels,
                                                          names):
        # each name names the kernel's checkpoint and CSVs: an empty list, a
        # repeat (which would overwrite them) or a separator fails before any
        # output directory exists
        out = tmp_path / "out"
        cfg = tmp_path / "fit.ini"
        text = config.format(out=out)
        old = "kernels = box_blur" if "box_blur" in text else "kernels = mykernel"
        cfg.write_text(text.replace(old, f"kernels = {kernels}"))
        proc = run_cli("fit-kernel", "--config", str(cfg))
        assert proc.returncode == 2, proc.stderr
        assert "[fit] kernels" in proc.stderr and names in proc.stderr
        assert not out.exists()

    def test_divergence_exits_3(self, tmp_path):
        cfg = tmp_path / "fit.ini"
        cfg.write_text(FIT_CONFIG.format(out=tmp_path / "out")
                       + "\n[DEFAULT]\n")
        text = cfg.read_text().replace("epochs = 40", "epochs = 5\nlearning_rate = 1e300")
        cfg.write_text(text)
        proc = run_cli("fit-kernel", "--config", str(cfg))
        assert proc.returncode == 3
        assert "diverged" in proc.stderr

    def test_overflowing_detector_power_exits_3(self, tmp_path):
        # eight planes put the detected power past float64 when it is squared
        cfg = tmp_path / "fit.ini"
        cfg.write_text(FIT_CONFIG.format(out=tmp_path / "out")
                       .replace("num_layers = 3", "num_layers = 8"))
        proc = run_cli("fit-kernel", "--config", str(cfg))
        assert proc.returncode == 3, proc.stderr
        assert "diverged" in proc.stderr and "num_layers = 8" in proc.stderr
        assert "Warning" not in proc.stderr


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
        # the map is the checkpoint's unit detected on the image as read back,
        # through the detection engine rather than the CLI's reference path
        model, _ = load_ocu_model(checkpoint)
        cols = im2col(read_pgm(img_path), 3).values
        quad = quadrature_rows(transfer_partials(model).total)
        expected = bank_detect(quad, cols[None], np.full((1, 1), model.detection_gain))[0]
        assert np.abs(expected).max() > 0
        assert np.abs(fm.ravel() - expected).max() <= 1e-12 * np.abs(expected).max()
        assert (out / "feature_map.pgm").is_file()
        assert read_pgm(out / "feature_map.pgm").shape == (10, 10)

    def test_feature_map_is_the_holdout_prediction(self, tmp_path, checkpoint):
        # convolve and the fit's hold-out check detect through one path
        from ocusim.kernels import STANDARD_KERNELS

        img_path = tmp_path / "input.pgm"
        write_pgm(img_path, np.random.default_rng(3).random((14, 14)))
        out = tmp_path / "conv"
        proc = run_cli("convolve", "--checkpoint", str(checkpoint),
                       "--image", str(img_path), "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        fm = np.array([[float(v) for v in line.split(",")]
                       for line in (out / "feature_map.csv").read_text().splitlines()])
        model, _ = load_ocu_model(checkpoint)
        report = evaluate_kernel_emulation(model, STANDARD_KERNELS["box_blur"],
                                           read_pgm(img_path))
        assert np.array_equal(fm, report.predicted)

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

    @pytest.mark.parametrize("kind", ["classifier", "denoiser"])
    def test_electrical_network_exits_2(self, tmp_path, kind):
        # an electrical network has no device to fabricate
        from ocusim.checkpoint import save_network
        from ocusim.networks import build_classifier, build_denoiser
        from ocusim.optics import OcuGeometry

        geom = OcuGeometry(metaunits_per_layer=4)
        net = (build_classifier(geom, 1, 1, 8, 2, optical=False, hidden=(4,))
               if kind == "classifier" else build_denoiser(geom, 2, 2, optical=False))
        path = tmp_path / "net.ckpt"
        save_network(path, net)
        out = tmp_path / "geo"
        proc = run_cli("export-geometry", "--checkpoint", str(path), "--out-dir", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "topo.optical" in proc.stderr
        assert not out.exists()


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


class TestDatasetLimit:
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_kept_arrays_own_their_data(self, tmp_path, split):
        # views of the first images would keep the whole set alive
        from ocusim.cli import _load_classification_dataset
        from ocusim.config import Config
        from ocusim.data import synthetic_blobs

        cfg = tmp_path / "data.ini"
        cfg.write_text(f"[dataset]\nkind = blobs\n{split}_count = 64\nsize = 8\n"
                       f"limit_{split} = 10\n")
        ds = _load_classification_dataset(Config.load(cfg), split)
        full = synthetic_blobs(64, 8, seed=0 if split == "train" else 1)
        assert ds.images.flags.owndata and ds.labels.flags.owndata
        assert ds.images.tobytes() == full.images[:10].tobytes()
        assert ds.labels.tobytes() == full.labels[:10].tobytes()


class TestEvalDatasetMismatch:
    """eval of a classifier on images unlike its training images exits 2:
    blobs of another size name [dataset] size, other datasets their shape,
    and labels beyond the trained classes topo.n_classes.  So does eval of a
    checkpoint with a misspelled key, naming it."""

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

    def test_labels_beyond_the_trained_classes(self, tmp_path, checkpoint):
        from test_data import make_idx_images, make_idx_labels

        make_idx_images(tmp_path / "img.idx", np.zeros((16, 8, 8)))
        make_idx_labels(tmp_path / "lbl.idx", np.arange(16) % 10)
        proc = self.run_eval(tmp_path, checkpoint,
                             f"kind = idx\ntest_images = {tmp_path / 'img.idx'}\n"
                             f"test_labels = {tmp_path / 'lbl.idx'}\n")
        assert proc.returncode == 2, proc.stderr
        assert "topo.n_classes = 2" in proc.stderr and "labels reach 9" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_misspelled_topology_key(self, tmp_path, checkpoint):
        mutated = tmp_path / "classifier.ckpt"
        mutated.write_text(checkpoint.read_text().replace("topo.hidden = 8", "topo.hiden = 8"))
        proc = self.run_eval(tmp_path, mutated, "kind = blobs\ntest_count = 8\nsize = 8\n")
        assert proc.returncode == 2, proc.stderr
        assert "topo.hiden" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_one_pixel_blobs(self, tmp_path, checkpoint):
        # rejected before synthetic_blobs would divide by size - 1
        proc = self.run_eval(tmp_path, checkpoint, "kind = blobs\nsize = 1\n")
        assert proc.returncode == 2, proc.stderr
        assert "[dataset] size" in proc.stderr
        assert "Warning" not in proc.stderr


class TestDenoiserPipeline:
    def test_overflowing_detector_power_exits_3(self, tmp_path):
        # calibration fails loudly instead of writing -inf gains that eval refuses
        out = tmp_path / "dn"
        cfg = tmp_path / "train.ini"
        cfg.write_text(DENOISE_CONFIG.format(out=out).replace(
            "metaunits_per_layer = 8", "metaunits_per_layer = 8\nnum_layers = 8"))
        proc = run_cli("train-denoiser", "--config", str(cfg))
        assert proc.returncode == 3, proc.stderr
        assert "diverged" in proc.stderr and "num_layers = 8" in proc.stderr
        assert "layer 0 (OclLayer)" in proc.stderr and "Warning" not in proc.stderr
        assert not out.exists()     # the failed run removes the directory it made

    def test_last_batch_of_one_trains_without_batch_norm(self, tmp_path):
        # 24 crops in batches of 23: a one-crop batch is fine with no batch norm
        out = tmp_path / "dn"
        cfg = tmp_path / "train.ini"
        cfg.write_text(DENOISE_CONFIG.format(out=out)
                       .replace("middle_kernels = 2", "middle_kernels = 2\nmiddle_layers = 0")
                       .replace("batch_size = 8", "batch_size = 23"))
        proc = run_cli("train-denoiser", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert (out / "denoiser.ckpt").is_file()

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
        ckpt = tmp_path / "dn.ckpt"
        save_network(ckpt, net)
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


class TestUncalibratedEval:
    """eval of a network whose gains were never calibrated exits 3 naming the
    layer whose detected output overflows, as an evaluation failure, and
    leaves no output directory: at gain 1 that output keeps the physical
    field scale."""

    @pytest.fixture(params=["denoiser", "classifier"])
    def config(self, request, tmp_path):
        from ocusim.checkpoint import save_network
        from ocusim.networks import build_classifier, build_denoiser
        from ocusim.optics import OcuGeometry

        geometry = OcuGeometry(metaunits_per_layer=8)
        if request.param == "denoiser":
            net = build_denoiser(geometry, 2, 2)
            (tmp_path / "pgms").mkdir()
            write_pgm(tmp_path / "pgms" / "a.pgm", np.random.default_rng(0).random((24, 24)))
            data = f"test_kind = pgm-dir\ntest_dir = {tmp_path / 'pgms'}\n"
        else:
            net = build_classifier(geometry, 1, 1, 8, 2, hidden=(4,))
            data = "\n[dataset]\nkind = blobs\ntest_count = 8\n"
        save_network(tmp_path / "net.ckpt", net)
        cfg = tmp_path / "eval.ini"
        cfg.write_text(f"[eval]\ncheckpoint = {tmp_path / 'net.ckpt'}\n{data}\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        return cfg

    @staticmethod
    def check(code, err, out):
        assert code == 3, err
        assert err.startswith("evaluation failed: layer 0 (OclLayer)") and "calibrated" in err
        assert "training" not in err and "Warning" not in err
        assert not out.exists()

    def test_in_process(self, config, tmp_path, capsys):
        from ocusim import cli

        code = cli.main(["eval", "--config", str(config)])
        self.check(code, capsys.readouterr().err, tmp_path / "out")

    def test_without_warning_filters(self, config, tmp_path):
        # a subprocess runs with numpy's default warnings, not pytest's errors
        proc = run_cli("eval", "--config", str(config))
        self.check(proc.returncode, proc.stderr, tmp_path / "out")


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

    @pytest.mark.parametrize("bad", ["inf", "nan", "0", "-1"])
    def test_bad_kappa_stops_convolve(self, tmp_path, bad):
        path = self.ocu_checkpoint(tmp_path)
        self.rewrite(path, "kappa = ", f"kappa = {bad}")
        write_pgm(tmp_path / "img.pgm", np.random.default_rng(0).random((8, 8)))
        out = tmp_path / "conv"
        proc = run_cli("convolve", "--checkpoint", str(path), "--image",
                       str(tmp_path / "img.pgm"), "--out-dir", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "kappa" in proc.stderr and "Warning" not in proc.stderr
        assert not out.exists()

    def test_non_integer_topology(self, tmp_path):
        from ocusim.checkpoint import save_network
        from ocusim.networks import build_denoiser
        from ocusim.optics import OcuGeometry

        path = tmp_path / "dn.ckpt"
        save_network(path, build_denoiser(OcuGeometry(metaunits_per_layer=4), 2, 2, seed=2))
        self.rewrite(path, "topo.middle_layers = ", "topo.middle_layers = x")
        self.assert_names(path, "topo.middle_layers")

    @staticmethod
    def old_classifier(tmp_path):
        """A small classifier's checkpoint as an older version wrote it, with
        every retired line at its old default."""
        from ocusim.checkpoint import save_network
        from ocusim.networks import build_classifier
        from ocusim.optics import OcuGeometry

        path = tmp_path / "clf.ckpt"
        save_network(path, build_classifier(OcuGeometry(metaunits_per_layer=4), 1, 1, 8, 2,
                                            seed=1, hidden=(4,)))
        path.write_text("\n".join(old_format_lines(path.read_text().splitlines())) + "\n")
        return path

    @pytest.mark.parametrize("key, bad", [
        ("pool", "median"), ("optical", "maybe"), ("hidden", "0"),
        ("kernels", "0"), ("n_classes", "0"), ("seed", "-1"),
    ])
    def test_bad_classifier_topology(self, tmp_path, key, bad):
        # the retired topo.pool line loads only as mean
        path = self.old_classifier(tmp_path)
        self.rewrite(path, f"topo.{key} = ", f"topo.{key} = {bad}")
        self.assert_names(path, f"topo.{key}")

    @pytest.mark.parametrize("line, named", [("[geometry]", "[geometry]")])
    def test_deleted_line_of_electrical_classifier(self, tmp_path, line, named):
        # does not fail on the missing geometry as a runtime error (exit 3)
        from ocusim.checkpoint import save_network
        from ocusim.networks import build_classifier
        from ocusim.optics import OcuGeometry

        path = tmp_path / "clf.ckpt"
        save_network(path, build_classifier(OcuGeometry(metaunits_per_layer=4), 1, 1, 8, 2,
                                            optical=False, hidden=(4,)))
        self.rewrite(path, line)
        self.assert_names(path, named)

    def test_old_classifier(self, tmp_path):
        # loads with every retired line at its old default, but an amplitude
        # factor of 0.5 would load every field mis-scaled
        path = self.old_classifier(tmp_path)
        proc = run_cli("export-geometry", "--checkpoint", str(path),
                       "--out-dir", str(tmp_path / "geo"))
        assert proc.returncode == 0, proc.stderr
        self.rewrite(path, "amplitude_coeff = ", "amplitude_coeff = 0.5")
        self.assert_names(path, "[geometry] amplitude_coeff")


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

    def test_fit_holdout_smaller_than_kernel(self, tmp_path):
        image = tmp_path / "small.pgm"
        write_pgm(image, np.full((2, 5), 0.5))
        cfg = tmp_path / "fit.ini"
        cfg.write_text(FIT_CONFIG.format(out=tmp_path / "out")
                       .replace("holdout = none", f"holdout = {image}"))
        proc = run_cli("fit-kernel", "--config", str(cfg))
        assert proc.returncode == 2, proc.stderr
        assert "[fit] holdout" in proc.stderr and "Warning" not in proc.stderr
        assert not (tmp_path / "out").exists()

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
    """A count or size below 1, a negative seed, limit or layer count, an
    even denoiser kernel, a malformed list, a rate <= 0, a noise level, pixel
    count or energy that is negative or not finite, a class id list that is not
    distinct ids 0-9, blob images under 2 pixels a side, classifier images too
    small for the kernel and pool, a fit pattern or hold-out smaller than the
    kernel, a hold-out file that does not exist, a denoiser crop larger than the
    images or smaller than the padding, denoiser test images smaller than the
    padding, a denoiser batch of one crop, or a key or flag that nothing reads
    exits 2 naming the key, with no warning printed first and no output
    written.  A unit slides at stride 1: [fit] stride and convolve --stride are
    unknown, and so are the retired [network] pool, [fit] holdout_seed and
    [geometry] amplitude_coeff, and [geometry] num_inputs, which the kernel
    size sets."""

    @staticmethod
    def convolve_stride(tmp_path):
        ckpt, image = unit_and_image(tmp_path)
        return run_cli("convolve", "--checkpoint", str(ckpt), "--image", str(image),
                       "--stride", "2", "--out-dir", str(tmp_path / "out"))

    @staticmethod
    def eval_test_size_one(tmp_path):
        # a 3x3 denoiser reflect-pads by one pixel, which a 1x1 image cannot
        from ocusim.checkpoint import save_network
        from ocusim.networks import build_denoiser
        from ocusim.optics import OcuGeometry

        geom = OcuGeometry(metaunits_per_layer=8, num_layers=3, num_inputs=9)
        ckpt = tmp_path / "dn.ckpt"
        save_network(ckpt, build_denoiser(geom, 2, 2, seed=2))
        cfg = tmp_path / "eval.ini"
        cfg.write_text(f"[eval]\ncheckpoint = {ckpt}\ntest_count = 1\ntest_size = 1\n\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        return run_cli("eval", "--config", str(cfg))

    CASES = {
        "fit_epochs": ("fit-kernel", FIT_CONFIG, "epochs = 40", "epochs = 0", "[fit] epochs"),
        "fit_stride": ("fit-kernel", FIT_CONFIG, "epochs = 40", "epochs = 40\nstride = 2",
                       "unknown key [fit] stride"),
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
        "network_channels": ("train-classifier", BLOBS_CONFIG, "hidden = 8",
                             "hidden = 8\nchannels = 1", "unknown key [network] channels"),
        # the pool is always the 2x2 mean pool
        "classifier_pool": ("train-classifier", BLOBS_CONFIG, "hidden = 8",
                            "hidden = 8\npool = mean", "unknown key [network] pool"),
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
        "fit_pattern_below_kernel": ("fit-kernel", FIT_CONFIG, "pattern_size = 16",
                                     "pattern_size = 2", "[fit] pattern_size"),
        "fit_holdout_below_kernel": ("fit-kernel", FIT_CONFIG, "holdout = none",
                                     "holdout = contrast\nholdout_size = 2",
                                     "[fit] holdout_size"),
        # only the contrast image has a size to set
        "fit_holdout_size_without_contrast": ("fit-kernel", FIT_CONFIG, "holdout = none",
                                              "holdout = none\nholdout_size = 2",
                                              "unknown key [fit] holdout_size"),
        # the hold-out is none, the contrast image (seed 5) or a PGM file
        "fit_holdout_scene": ("fit-kernel", FIT_CONFIG, "holdout = none", "holdout = scene",
                              "[fit] holdout file not found: scene"),
        "fit_holdout_seed": ("fit-kernel", FIT_CONFIG, "holdout = none",
                             "holdout = contrast\nholdout_seed = 11",
                             "unknown key [fit] holdout_seed"),
        "denoise_patch_above_images": ("train-denoiser", DENOISE_CONFIG, "patch = 16",
                                       "patch = 33", "[denoise] patch"),
        # a 3x3 kernel reflect-pads by one pixel, which a 1-pixel crop cannot
        "denoise_patch_below_pad": ("train-denoiser", DENOISE_CONFIG, "patch = 16",
                                    "patch = 1", "[denoise] patch"),
        # the default patch of 40 does not fit the 32-pixel images
        "denoise_default_patch": ("train-denoiser", DENOISE_CONFIG, "patch = 16\n", "",
                                  "[denoise] patch"),
        "denoise_batch_one": ("train-denoiser", DENOISE_CONFIG, "batch_size = 8",
                              "batch_size = 1", "[denoise] batch_size"),
        # 3 images x 8 crops = 24 crops = 23 + 1: the last batch holds one crop
        "denoise_last_batch_one": ("train-denoiser", DENOISE_CONFIG, "batch_size = 8",
                                   "batch_size = 23", "[denoise] batch_size"),
        # keys that nothing reads: a typo, a key of another dataset kind, a
        # geometry field that no longer exists, an unreferenced kernel section
        "perf_unknown_key": ("perf", PERF_CONFIG, "pixels = 8e6", "pixel = 5",
                             "unknown key [perf] pixel"),
        "dataset_key_of_other_kind": ("train-classifier", BLOBS_CONFIG, "size = 8",
                                      "size = 8\ntrain_images = a.idx",
                                      "[dataset] train_images"),
        "geometry_slot_key": ("fit-kernel", FIT_CONFIG, "num_layers = 3",
                              "num_layers = 3\nslot_width = 1e-7", "[geometry] slot_width"),
        "geometry_amplitude_coeff": ("fit-kernel", FIT_CONFIG, "num_layers = 3",
                                     "num_layers = 3\namplitude_coeff = 1.0",
                                     "unknown key [geometry] amplitude_coeff"),
        # the kernel size sets num_inputs, so the key would be overwritten
        "fit_num_inputs": ("fit-kernel", FIT_CONFIG, "num_layers = 3",
                           "num_layers = 3\nnum_inputs = 25", "unknown key [geometry] num_inputs"),
        "classifier_num_inputs": ("train-classifier", BLOBS_CONFIG, "metaunits_per_layer = 8",
                                  "metaunits_per_layer = 8\nnum_inputs = 25",
                                  "unknown key [geometry] num_inputs"),
        "denoiser_num_inputs": ("train-denoiser", DENOISE_CONFIG, "metaunits_per_layer = 8",
                                "metaunits_per_layer = 8\nnum_inputs = 25",
                                "unknown key [geometry] num_inputs"),
        "unreferenced_kernel": ("fit-kernel", FIT_CONFIG, "[output]",
                                "[kernel:unused]\nsize = 3\n\n[output]",
                                "[kernel:unused] size"),
    }

    @pytest.mark.parametrize("case", ["convolve_stride", "eval_test_size", *CASES])
    def test_exits_2_and_names_key(self, tmp_path, case):
        if case == "convolve_stride":
            proc, key = self.convolve_stride(tmp_path), "unrecognized arguments: --stride"
        elif case == "eval_test_size":
            proc, key = self.eval_test_size_one(tmp_path), "[eval] test_size"
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
        assert not (tmp_path / "out").exists()    # nothing was run or written


class TestSeedFlag:
    """--seed belongs to the commands that draw random numbers; the others
    reject it as argparse rejects any unknown flag (exit 2), before any output.
    eval draws noise only for a denoiser, so a classifier's eval rejects it
    once the checkpoint says what it is."""

    @pytest.mark.parametrize("command", ["convolve", "export-geometry", "perf"])
    def test_rejected_where_nothing_reads_it(self, tmp_path, command):
        ckpt, image = unit_and_image(tmp_path)
        cfg = tmp_path / "perf.ini"
        cfg.write_text(PERF_CONFIG.format(out=tmp_path / "out"))
        inputs = {"convolve": ["--checkpoint", str(ckpt), "--image", str(image)],
                  "export-geometry": ["--checkpoint", str(ckpt)],
                  "perf": ["--config", str(cfg)]}[command]
        proc = run_cli(command, *inputs, "--seed", "12345", "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "unrecognized arguments: --seed" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit-kernel", "train-classifier", "train-denoiser",
                                         "eval"])
    def test_accepted_where_a_seed_is_drawn(self, command):
        from ocusim.cli import build_parser

        args = build_parser().parse_args([command, "--config", "x.ini", "--seed", "5"])
        assert args.seed == 5

    def test_rejected_by_a_classifier_eval(self, tmp_path):
        from ocusim.checkpoint import save_network
        from ocusim.networks import build_classifier, calibrate_optical_layers
        from ocusim.optics import OcuGeometry

        ckpt = tmp_path / "clf.ckpt"
        net = build_classifier(OcuGeometry(metaunits_per_layer=8, num_inputs=9), 1, 1, 8, 2,
                               hidden=(8,))
        # an uncalibrated network cannot run: its detected output overflows
        calibrate_optical_layers(net, np.random.default_rng(0).random((2, 1, 8, 8)))
        save_network(ckpt, net)
        cfg = tmp_path / "eval.ini"
        cfg.write_text(f"[eval]\ncheckpoint = {ckpt}\n\n[dataset]\nkind = blobs\n"
                       f"test_count = 8\n\n[output]\ndir = {tmp_path / 'out'}\n")
        proc = run_cli("eval", "--config", str(cfg), "--seed", "5")
        assert proc.returncode == 2, proc.stderr
        assert "--seed" in proc.stderr and "classifier" in proc.stderr
        assert not (tmp_path / "out").exists()
        assert run_cli("eval", "--config", str(cfg)).returncode == 0


class TestLibraryDefaults:
    """A config that leaves a setting out hands the library its own default:
    the CLI passes only the keys a config sets, so each default lives in one
    place, the library's dataclass or builder."""

    class Captured(Exception):
        pass

    def captured(self, monkeypatch, tmp_path, module, name, command, config):
        """The positional arguments of ``module.name`` when ``command`` runs ``config``."""
        from ocusim.cli import build_parser

        calls = []

        def capture(*args, **kwargs):
            calls.append(args)
            raise self.Captured

        monkeypatch.setattr(module, name, capture)
        path = tmp_path / "exp.ini"
        path.write_text(config + f"\n[output]\ndir = {tmp_path / 'out'}\n")
        args = build_parser().parse_args([command, "--config", str(path)])
        with pytest.raises(self.Captured):
            args.handler(args)
        return calls[0]

    @staticmethod
    def builder_defaults(builder, *names):
        import inspect

        params = inspect.signature(builder).parameters
        return {name: params[name].default for name in names}

    def test_fit_kernel(self, monkeypatch, tmp_path):
        from ocusim import srp

        _, _, _, fit_cfg = self.captured(monkeypatch, tmp_path, srp, "fit_kernel", "fit-kernel",
                                         "[fit]\nkernels = box_blur\nholdout = none\n")
        assert fit_cfg == srp.FitConfig(seed=7)
        assert fit_cfg.epochs == 4000

    def test_train_classifier(self, monkeypatch, tmp_path):
        from ocusim import networks

        config = ("[dataset]\nkind = blobs\ntrain_count = 8\ntest_count = 4\n\n"
                  "[geometry]\nmetaunits_per_layer = 8\n")
        net, *_, train_cfg = self.captured(monkeypatch, tmp_path, networks, "train_classifier",
                                           "train-classifier", config)
        assert train_cfg == networks.TrainConfig()
        defaults = self.builder_defaults(networks.build_classifier, "hidden", "optical")
        assert {k: net.topology[k] for k in defaults} == defaults

    def test_train_denoiser(self, monkeypatch, tmp_path):
        from ocusim import networks

        config = ("[dataset]\nkind = synthetic\ncount = 2\nsize = 48\n\n"
                  "[geometry]\nmetaunits_per_layer = 8\n")
        net, _, _, train_cfg = self.captured(monkeypatch, tmp_path, networks, "train_denoiser",
                                             "train-denoiser", config)
        assert train_cfg == networks.DenoiseTrainConfig()
        defaults = self.builder_defaults(networks.build_denoiser, "input_kernels",
                                         "middle_kernels", "middle_layers", "optical")
        assert {k: net.topology[k] for k in defaults} == defaults

    def test_perf(self, monkeypatch, tmp_path):
        from ocusim import perf

        (spec,) = self.captured(monkeypatch, tmp_path, perf, "report_rows", "perf", "[perf]\n")
        assert spec == perf.PerfSpec()
