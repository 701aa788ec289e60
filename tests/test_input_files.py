"""Every file a command reads, and the output directory it makes, is named by
a flag or a config key.  A missing, unreadable or malformed one exits 2
naming that flag or key, before any output directory exists.

TestEveryInput points each file-naming flag and key of every command at a
missing path, a directory, an empty file, non-UTF-8 garbage and a valid file
of another format, and each output-directory flag and key at a file or a
path beneath one (a missing path or a directory is a valid output
directory).  TestUnusableDatasets covers files that load alone but not as a
dataset.  Runs are in process, through ``cli.main``.
"""

from pathlib import Path

import numpy as np
import pytest

from ocusim import cli
from ocusim.checkpoint import save_network, save_ocu_model
from ocusim.networks import build_classifier, build_denoiser, calibrate_optical_layers
from ocusim.optics import OcuGeometry, OcuModel
from ocusim.pgm import write_pgm

from test_data import make_idx_images, make_idx_labels

GARBAGE = bytes(range(256)) * 20   # no magic number, no header, not UTF-8

FIT = """[geometry]
metaunits_per_layer = 8

[fit]
kernels = box_blur
epochs = 5
pattern_size = 12
holdout = {holdout}

[output]
dir = {out}
"""

CLASSIFIER_TRAIN = """[geometry]
metaunits_per_layer = 8

[network]
kernels = 1
hidden = 4

[train]
epochs = 1
batch_size = 4

[output]
dir = {out}
"""

IDX = """[dataset]
kind = idx
train_images = {train_images}
train_labels = {train_labels}
test_images = {test_images}
test_labels = {test_labels}

"""

CIFAR = """[dataset]
kind = cifar4
train_batches = {train_batches}
test_batches = {test_batches}

"""

DENOISE = """[dataset]
kind = pgm-dir
dir = {train_dir}

[geometry]
metaunits_per_layer = 8

[network]
input_kernels = 2
middle_kernels = 2

[denoise]
epochs = 1
batch_size = 4
patch = 12
crops_per_image = 2

[output]
dir = {out}
"""

EVAL_CLASSIFIER = """[eval]
checkpoint = {classifier}

[dataset]
kind = idx
test_images = {test_images}
test_labels = {test_labels}

[output]
dir = {out}
"""

EVAL_CIFAR = """[eval]
checkpoint = {cifar_classifier}

[dataset]
kind = cifar4
test_batches = {test_batches}

[output]
dir = {out}
"""

EVAL_DENOISER = """[eval]
checkpoint = {denoiser}
test_kind = pgm-dir
test_dir = {test_dir}

[output]
dir = {out}
"""

PERF = """[perf]
kernel_size = 3

[output]
dir = {out}
"""

# each command's run on valid inputs: its arguments, and its config or None
COMMANDS = {
    "fit-kernel": (["fit-kernel", "--config", "{config}"], FIT),
    "convolve": (["convolve", "--checkpoint", "{unit}", "--image", "{image}",
                  "--out-dir", "{out}"], None),
    "export-geometry": (["export-geometry", "--checkpoint", "{unit}", "--out-dir", "{out}"],
                        None),
    "train-classifier-idx": (["train-classifier", "--config", "{config}"],
                             IDX + CLASSIFIER_TRAIN),
    "train-classifier-cifar4": (["train-classifier", "--config", "{config}"],
                                CIFAR + CLASSIFIER_TRAIN),
    "train-denoiser": (["train-denoiser", "--config", "{config}"], DENOISE),
    "eval-classifier-idx": (["eval", "--config", "{config}"], EVAL_CLASSIFIER),
    "eval-classifier-cifar4": (["eval", "--config", "{config}"], EVAL_CIFAR),
    "eval-denoiser": (["eval", "--config", "{config}"], EVAL_DENOISER),
    "perf": (["perf", "--config", "{config}"], PERF),
}
CONFIGURED = [name for name, (_, config) in COMMANDS.items() if config]

# (the flag or key that names the input, the command, the slot it fills,
#  a valid file of another format for it)
INPUT_FILES = [
    *(("--config", command, "config", "unit") for command in CONFIGURED),
    ("--checkpoint", "convolve", "unit", "image"),
    ("--image", "convolve", "image", "unit"),
    ("--checkpoint", "export-geometry", "unit", "image"),
    ("[eval] checkpoint", "eval-classifier-idx", "classifier", "image"),
    ("[eval] checkpoint", "eval-denoiser", "denoiser", "unit"),
    ("[fit] holdout", "fit-kernel", "holdout", "unit"),
    *((f"[dataset] {split}_images and {split}_labels", "train-classifier-idx", slot, other)
      for split in ("train", "test")
      for slot, other in ((f"{split}_images", "image"), (f"{split}_labels", "test_images"))),
    ("[dataset] test_images and test_labels", "eval-classifier-idx", "test_images", "image"),
    ("[dataset] test_images and test_labels", "eval-classifier-idx", "test_labels",
     "test_images"),
    ("[dataset] train_batches", "train-classifier-cifar4", "train_batches", "image"),
    ("[dataset] test_batches", "train-classifier-cifar4", "test_batches", "test_images"),
    ("[dataset] test_batches", "eval-classifier-cifar4", "test_batches", "image"),
]
INPUT_DIRS = [
    ("[dataset] dir", "train-denoiser", "train_dir"),
    ("[eval] test_dir", "eval-denoiser", "test_dir"),
]
# an empty config is a valid one that sets no key, so it has no empty case
BAD_FILES = [(*entry, variant) for entry in INPUT_FILES
             for variant in ("missing", "directory", "empty", "garbage", "other_format")
             if not (entry[2] == "config" and variant == "empty")]
OUTPUT_DIRS = [
    *(("--out-dir", command, "out") for command in ("convolve", "export-geometry")),
    *(("--out-dir", command, "--out-dir") for command in CONFIGURED),
    *(("[output] dir", command, "out") for command in CONFIGURED),
]


def make_bad(path, variant: str, other) -> None:
    """Make ``path`` the ``variant`` of a bad input; ``other`` is a valid file
    of another format."""
    if variant == "directory":
        path.mkdir()
    elif variant == "empty":
        path.write_bytes(b"")
    elif variant == "garbage":
        path.write_bytes(GARBAGE)
    elif variant == "other_format":
        path.write_bytes(other.read_bytes())
    else:
        assert variant == "missing"


def make_bad_dir(path, variant: str, other) -> None:
    """Make ``path`` a PGM directory that cannot be read: missing, empty, a
    file, or holding one .pgm that is empty, garbage or of another format."""
    if variant == "file":
        path.write_bytes(b"")
    elif variant != "missing":
        path.mkdir()
        if variant != "empty_directory":
            make_bad(path / "a.pgm", variant.removesuffix("_pgm"), other)


def make_bad_out(path, variant: str) -> str:
    """A path that cannot be made a directory: a file, or a path beneath one."""
    path.write_bytes(GARBAGE)
    return str(path / "out" if variant == "beneath_a_file" else path)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A valid file for every slot of COMMANDS."""
    root = tmp_path_factory.mktemp("world")
    rng = np.random.default_rng(0)
    geometry = OcuGeometry(metaunits_per_layer=8, num_inputs=9)
    files = {name: root / name for name in (
        "unit", "image", "classifier", "cifar_classifier", "denoiser", "train_images",
        "train_labels", "test_images", "test_labels", "train_batches", "pgms")}
    save_ocu_model(files["unit"], OcuModel.random_init(geometry, rng))
    write_pgm(files["image"], rng.random((12, 12)))
    # every network calibrated: an uncalibrated one's detected output overflows
    for name, net, size in (
            ("classifier", build_classifier(geometry, 1, 1, 8, 2, hidden=(4,)), 8),
            ("cifar_classifier", build_classifier(geometry, 1, 3, 32, 4, hidden=(4,)), 32),
            ("denoiser", build_denoiser(geometry, 2, 2), 12)):
        channels = net.layers[0].c
        calibrate_optical_layers(net, rng.random((2, channels, size, size)))
        save_network(files[name], net)
    for split in ("train", "test"):
        make_idx_images(files[f"{split}_images"], rng.integers(0, 256, (8, 8, 8)))
        make_idx_labels(files[f"{split}_labels"], np.arange(8) % 2)
    records = rng.integers(0, 256, (8, 3073), dtype=np.uint8)
    records[:, 0] = np.arange(8) % 4
    files["train_batches"].write_bytes(records.tobytes())
    files["pgms"].mkdir()
    for i in range(2):
        write_pgm(files["pgms"] / f"{i}.pgm", rng.random((24, 24)))
    slots = {name: str(path) for name, path in files.items()}
    return dict(slots, holdout=slots["image"], test_batches=slots["train_batches"],
                train_dir=slots["pgms"], test_dir=slots["pgms"])


def run(tmp_path, capsys, world, command, **slots):
    """(exit code, stderr) of ``command`` on the world's files, with ``slots``
    put in their place; the output directory is tmp_path/out unless a slot
    says otherwise."""
    argv, config = COMMANDS[command]
    values = dict(world, out=str(tmp_path / "out"), config=str(tmp_path / "exp.ini"))
    extra = ["--out-dir", slots.pop("--out-dir")] if "--out-dir" in slots else []
    values.update(slots)
    if config is not None and "config" not in slots:
        (tmp_path / "exp.ini").write_text(config.format(**values))
    code = cli.main([arg.format(**values) for arg in argv] + extra)
    return code, capsys.readouterr().err


def assert_named_exit_2(code, err, token, tmp_path):
    assert code == 2, err
    assert token in err, err
    assert not (tmp_path / "out").exists()


class TestEveryInput:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_valid_inputs_run(self, tmp_path, capsys, world, command):
        """The control: every command runs on the valid files."""
        code, err = run(tmp_path, capsys, world, command)
        assert code == 0, err
        assert (tmp_path / "out").is_dir()

    @pytest.mark.parametrize("token, command, slot, other, variant", BAD_FILES,
                             ids=[f"{command}:{slot}-{variant}"
                                  for _, command, slot, _, variant in BAD_FILES])
    def test_bad_file(self, tmp_path, capsys, world, token, command, slot, other, variant):
        bad = tmp_path / "bad"
        make_bad(bad, variant, Path(world[other]))
        code, err = run(tmp_path, capsys, world, command, **{slot: str(bad)})
        assert_named_exit_2(code, err, token, tmp_path)

    @pytest.mark.parametrize("variant", ["missing", "empty_directory", "file", "empty_pgm",
                                         "garbage_pgm", "other_format_pgm"])
    @pytest.mark.parametrize("token, command, slot", INPUT_DIRS,
                             ids=[f"{command}:{slot}" for _, command, slot in INPUT_DIRS])
    def test_bad_directory(self, tmp_path, capsys, world, token, command, slot, variant):
        bad = tmp_path / "bad"
        make_bad_dir(bad, variant, Path(world["unit"]))
        code, err = run(tmp_path, capsys, world, command, **{slot: str(bad)})
        assert_named_exit_2(code, err, token, tmp_path)

    @pytest.mark.parametrize("variant", ["file", "beneath_a_file"])
    @pytest.mark.parametrize("token, command, slot", OUTPUT_DIRS,
                             ids=[f"{command}:{token}" for token, command, _ in OUTPUT_DIRS])
    def test_bad_output_directory(self, tmp_path, capsys, world, token, command, slot,
                                  variant):
        bad = make_bad_out(tmp_path / "bad", variant)
        code, err = run(tmp_path, capsys, world, command, **{slot: bad})
        assert_named_exit_2(code, err, token, tmp_path)
        assert (tmp_path / "bad").is_file()


class TestUnusableDatasets:
    """Dataset files that each load but cannot make a dataset, or make an
    empty one, exit 2 naming [dataset] before any output directory exists."""

    @staticmethod
    def idx_pair(tmp_path, images: int, labels: int) -> dict:
        make_idx_images(tmp_path / "img.idx", np.zeros((images, 8, 8)))
        make_idx_labels(tmp_path / "lbl.idx", np.zeros(labels))
        return {"img": str(tmp_path / "img.idx"), "lbl": str(tmp_path / "lbl.idx")}

    def test_idx_counts_differ(self, tmp_path, capsys, world):
        pair = self.idx_pair(tmp_path, 2, 3)
        code, err = run(tmp_path, capsys, world, "train-classifier-idx",
                        train_images=pair["img"], train_labels=pair["lbl"])
        assert_named_exit_2(code, err, "[dataset] train_images and train_labels", tmp_path)
        assert "has 2 samples but label file has 3" in err

    @pytest.mark.parametrize("command", ["train-classifier-idx", "eval-classifier-idx"])
    def test_idx_of_no_images(self, tmp_path, capsys, world, command):
        pair = self.idx_pair(tmp_path, 0, 0)
        code, err = run(tmp_path, capsys, world, command,
                        test_images=pair["img"], test_labels=pair["lbl"])
        assert_named_exit_2(code, err, "[dataset] test set holds no images", tmp_path)

    def test_no_batches(self, tmp_path, capsys, world):
        code, err = run(tmp_path, capsys, world, "train-classifier-cifar4", train_batches="")
        assert_named_exit_2(code, err, "[dataset] train_batches", tmp_path)

    @pytest.mark.parametrize("command", ["train-classifier-cifar4", "eval-classifier-cifar4"])
    def test_cifar_batch_without_the_classes(self, tmp_path, capsys, world, command):
        records = np.zeros((4, 3073), dtype=np.uint8)
        records[:, 0] = [4, 5, 6, 9]      # none of the default classes 0-3
        (tmp_path / "other.bin").write_bytes(records.tobytes())
        code, err = run(tmp_path, capsys, world, command,
                        test_batches=str(tmp_path / "other.bin"))
        assert_named_exit_2(code, err, "[dataset] test set holds no images", tmp_path)


class TestMessagesNameTheFile:
    """The message of a malformed input says what is wrong with that file."""

    def test_config_without_section_header(self, tmp_path, capsys, world):
        config = tmp_path / "exp.ini"
        config.write_text("kernel_size = 3\n")
        code, err = run(tmp_path, capsys, world, "perf", config=str(config))
        assert_named_exit_2(code, err, f"--config {config}", tmp_path)
        assert f"file: '{config}', line: 1" in err and "<string>" not in err

    def test_checkpoint_of_another_binary_format(self, tmp_path, capsys, world):
        # a binary PGM is named as not a checkpoint, not by a byte ASCII rejects
        code, err = run(tmp_path, capsys, world, "convolve", unit=world["image"])
        assert_named_exit_2(code, err, "--checkpoint", tmp_path)
        assert "not an ocusim-checkpoint file" in err and "codec" not in err
