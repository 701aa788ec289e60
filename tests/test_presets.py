from pathlib import Path

import pytest

from ocusim.config import Config, count, geometry_from_config, positive

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PRESETS = sorted(CONFIG_DIR.glob("*.ini"))


def test_presets_exist():
    names = {p.name for p in PRESETS}
    assert {"fit_kernels.ini", "perf_paper.ini", "fashion_mnist_desk.ini",
            "fashion_mnist_full.ini", "cifar4_full.ini", "denoise_desk.ini",
            "denoise_sigma20_full.ini"} <= names


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.name)
def test_preset_parses(preset):
    cfg = Config.load(preset)
    if cfg.has("geometry"):
        geom = geometry_from_config(cfg, 9)
        assert geom.metaunits_per_layer >= 1
    assert cfg.has("output", "dir")


def test_fit_preset_schema():
    cfg = Config.load(CONFIG_DIR / "fit_kernels.ini")
    kernels = cfg.require("fit", "kernels").split()
    assert len(kernels) == 8
    assert cfg.typed("fit", "epochs", count) >= 1
    assert cfg.typed("fit", "pattern_size", count) == 128


def test_training_preset_schemas():
    for name in ("fashion_mnist_desk.ini", "fashion_mnist_full.ini", "cifar4_full.ini"):
        cfg = Config.load(CONFIG_DIR / name)
        assert cfg.require("dataset", "kind") in ("idx", "cifar4")
        assert cfg.typed("train", "epochs", count) >= 100
        assert cfg.typed("network", "kernels", count) in (4, 16)
    for name in ("denoise_desk.ini", "denoise_sigma20_full.ini"):
        cfg = Config.load(CONFIG_DIR / name)
        assert cfg.typed("denoise", "sigma", positive) == 20.0
        assert cfg.typed("network", "input_kernels", count) == 8
