from dataclasses import fields

import numpy as np
import pytest

from ocusim.checkpoint import (
    load_network,
    load_ocu_model,
    read_checkpoint,
    save_network,
    save_ocu_model,
    write_checkpoint,
)
from ocusim.config import ConfigError
from ocusim.networks import build_classifier, build_denoiser, calibrate_optical_layers
from ocusim.optics import OcuGeometry, OcuModel


def small_geometry():
    return OcuGeometry(metaunits_per_layer=6, num_inputs=9, num_layers=3)


# an ocu checkpoint as written before OcuGeometry lost its slot_width,
# slot_gap and slot_height fields, which no computation read
SLOT_CHECKPOINT = """\
ocusim-checkpoint 1
kind = ocu
kappa = 3.5e-21
kernel = sharpen
[geometry]
wavelength = 1.55e-06
slab_index = 2.85
slot_index = 1.44
layer_gap = 7.5e-05
aperture = 0.0003
metaunit_period = 1.5e-06
slot_width = 2e-07
slot_gap = 5e-07
slot_height = 2.2e-07
num_layers = 3
metaunits_per_layer = 2
num_inputs = 4
amplitude_coeff = 1.0
phase_coeff = 0.0
input_positions = -8.999999999999999e-05 -2.9999999999999997e-05 2.9999999999999997e-05 8.999999999999999e-05
output_positions = 7.5e-05 -7.5e-05
[array phases]
shape = 2 2
0.5 1.25
2.0 -0.75
"""


class TestOcuCheckpoint:
    def test_round_trip_values(self, tmp_path):
        geom = small_geometry()
        model = OcuModel.random_init(geom, np.random.default_rng(0))
        model.detection_gain = 2.4387e-61
        path = tmp_path / "unit.ckpt"
        save_ocu_model(path, model, {"seed": 7, "epochs": 40})
        loaded, meta = load_ocu_model(path)
        assert np.array_equal(loaded.phases, model.phases)
        assert loaded.detection_gain == model.detection_gain
        assert loaded.geometry.wavelength == geom.wavelength
        assert np.array_equal(loaded.geometry.input_positions, geom.input_positions)
        assert meta["seed"] == "7"

    def test_save_load_save_is_byte_identical(self, tmp_path):
        geom = small_geometry()
        model = OcuModel.random_init(geom, np.random.default_rng(1))
        model.detection_gain = 1.7e-55
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_ocu_model(first, model, {"seed": 1})
        loaded, meta = load_ocu_model(first)
        save_ocu_model(second, loaded, {"seed": meta["seed"]})
        assert first.read_bytes() == second.read_bytes()

    def test_loads_checkpoint_with_slot_lines(self, tmp_path):
        old = tmp_path / "old.ckpt"
        old.write_text(SLOT_CHECKPOINT)
        model, meta = load_ocu_model(old)
        geom = OcuGeometry(metaunits_per_layer=2, num_inputs=4)
        for f in fields(OcuGeometry):
            assert np.array_equal(getattr(model.geometry, f.name), getattr(geom, f.name)), f.name
        assert np.array_equal(model.phases, [[0.5, 1.25], [2.0, -0.75]])
        assert model.detection_gain == 3.5e-21 and meta["kernel"] == "sharpen"
        # written again, it loses the three slot lines and nothing else
        new = tmp_path / "new.ckpt"
        save_ocu_model(new, model, {"kernel": "sharpen"})
        slots = ("slot_width = ", "slot_gap = ", "slot_height = ")
        kept = [line for line in SLOT_CHECKPOINT.splitlines() if not line.startswith(slots)]
        assert len(kept) == len(SLOT_CHECKPOINT.splitlines()) - 3
        assert new.read_text().splitlines() == kept

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, "mystery", {}, None, {})
        with pytest.raises(ValueError, match="kind|expected"):
            load_ocu_model(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_text("ocusim-checkpoint 99\nkind = ocu\n")
        with pytest.raises(ValueError, match="version"):
            read_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            read_checkpoint(path)


class TestNetworkCheckpoint:
    def test_classifier_round_trip(self, tmp_path):
        geom = small_geometry()
        topo = {"kernels": 2, "channels": 1, "image_size": 8, "n_classes": 3,
                "seed": 4, "optical": "true", "hidden": "16 8", "pool": "mean"}
        net = build_classifier(geom, 2, 1, 8, 3, seed=4, hidden=(16, 8))
        x = np.random.default_rng(2).random((4, 1, 8, 8))
        calibrate_optical_layers(net, x)
        before = net.forward(x)
        path = tmp_path / "clf.ckpt"
        save_network(path, net, "classifier", geom, topo, {"seed": 4})
        loaded, kind, topo2, _ = load_network(path)
        assert kind == "classifier"
        assert topo2["kernels"] == "2"
        assert np.array_equal(loaded.forward(x), before)

    def test_denoiser_round_trip_with_bn_stats(self, tmp_path):
        geom = small_geometry()
        topo = {"input_kernels": 2, "middle_kernels": 2, "middle_layers": 1,
                "in_channels": 1, "seed": 5, "optical": "true"}
        net = build_denoiser(geom, 2, 2, seed=5)
        x = np.random.default_rng(3).random((4, 1, 10, 10))
        calibrate_optical_layers(net, x)
        net.forward(x, training=True)  # move the BN running stats
        before = net.forward(x, training=False)
        path = tmp_path / "dn.ckpt"
        save_network(path, net, "denoiser", geom, topo)
        loaded, kind, _, _ = load_network(path)
        assert kind == "denoiser"
        assert np.array_equal(loaded.forward(x, training=False), before)

    def test_electrical_round_trip(self, tmp_path):
        geom = small_geometry()
        topo = {"kernels": 2, "channels": 1, "image_size": 8, "n_classes": 2,
                "seed": 6, "optical": "false", "hidden": "8", "pool": "max"}
        net = build_classifier(geom, 2, 1, 8, 2, seed=6, optical=False,
                               hidden=(8,), pool_mode="max")
        x = np.random.default_rng(4).random((2, 1, 8, 8))
        before = net.forward(x)
        path = tmp_path / "e.ckpt"
        save_network(path, net, "classifier", geom, topo)
        loaded, _, _, _ = load_network(path)
        assert np.array_equal(loaded.forward(x), before)


class TestNetworkCheckpointSchema:
    """A network checkpoint whose arrays do not fit the rebuilt stack is a
    schema error that names the array, never a silent broadcast."""

    def saved_denoiser(self, tmp_path):
        geom = small_geometry()
        topo = {"input_kernels": 2, "middle_kernels": 2, "middle_layers": 1,
                "in_channels": 1, "seed": 5, "optical": "true"}
        path = tmp_path / "dn.ckpt"
        save_network(path, build_denoiser(geom, 2, 2, seed=5), "denoiser", geom, topo)
        return path

    @staticmethod
    def replace_section(path, name, body):
        lines = path.read_text().splitlines()
        start = lines.index(f"[array {name}]")
        end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")),
                   len(lines))
        path.write_text("\n".join(lines[:start] + body + lines[end:]) + "\n")

    def test_rejects_wrong_shape(self, tmp_path):
        path = self.saved_denoiser(tmp_path)
        # layer 3 is the batch norm of 2 channels; one value must not broadcast
        self.replace_section(path, "layer3.gamma", ["[array layer3.gamma]", "shape = 1", "7.0"])
        with pytest.raises(ConfigError, match=r"layer3\.gamma"):
            load_network(path)

    def test_rejects_missing_array(self, tmp_path):
        path = self.saved_denoiser(tmp_path)
        self.replace_section(path, "layer0.port_sign", [])
        with pytest.raises(ConfigError, match=r"layer0\.port_sign"):
            load_network(path)

    def test_rejects_non_finite_array(self, tmp_path):
        path = self.saved_denoiser(tmp_path)
        self.replace_section(path, "layer3.running_var",
                             ["[array layer3.running_var]", "shape = 2", "1.0 nan"])
        with pytest.raises(ConfigError, match=r"layer3\.running_var"):
            load_network(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_refuses_non_finite_array(self, tmp_path, bad):
        # what load_network would refuse is never written: the -inf log gains
        # of an overflowed calibration, say
        geom = small_geometry()
        net = build_denoiser(geom, 2, 2, seed=5)
        net.layers[0].log_gain.value[1, 0] = bad
        path = tmp_path / "dn.ckpt"
        with pytest.raises(ValueError, match=r"layer0\.log_gain"):
            save_network(path, net, "denoiser", geom, {"input_kernels": 2})
        assert not path.exists()
        with pytest.raises(ValueError, match="weights"):
            write_checkpoint(path, "ocu", {}, None, {"weights": np.array([1.0, bad])})
        assert not path.exists()


class TestCheckpointKeys:
    """A key the reader would not use, or a name given twice, is a ConfigError
    naming it: a mutated checkpoint never loads as a different network."""

    def saved_classifier(self, tmp_path, pool="max"):
        geom = small_geometry()
        topo = {"kernels": 2, "channels": 1, "image_size": 8, "n_classes": 2,
                "seed": 4, "optical": "true", "hidden": "8", "pool": pool}
        path = tmp_path / "clf.ckpt"
        save_network(path, build_classifier(geom, 2, 1, 8, 2, seed=4, hidden=(8,),
                                            pool_mode=pool), "classifier", geom, topo)
        return path

    @staticmethod
    def edit(path, edit):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")

    def test_misspelled_topology_key(self, tmp_path):
        path = self.saved_classifier(tmp_path)
        assert load_network(path)[0].layers[1].mode == "max"
        self.edit(path, lambda lines: [l.replace("topo.pool =", "topo.pol =") for l in lines])
        with pytest.raises(ConfigError, match=r"unknown key topo\.pol$"):
            load_network(path)

    def test_topology_key_of_another_kind(self, tmp_path):
        geom = small_geometry()
        topo = {"input_kernels": 2, "middle_kernels": 2, "middle_layers": 1,
                "in_channels": 1, "seed": 5, "optical": "true", "hidden": "8"}
        path = tmp_path / "dn.ckpt"
        save_network(path, build_denoiser(geom, 2, 2, seed=5), "denoiser", geom, topo)
        with pytest.raises(ConfigError, match=r"topo\.hidden"):
            load_network(path)

    @pytest.mark.parametrize("line, named", [
        ("topo.pool = max", "key topo.pool appears twice"),
        ("kind = classifier", "key kind appears twice"),
        ("num_layers = 3", r"key \[geometry\] num_layers appears twice"),
    ])
    def test_duplicated_key(self, tmp_path, line, named):
        path = self.saved_classifier(tmp_path)

        def twice(lines):
            i = lines.index(line)
            return lines[:i + 1] + [line.replace(" = max", " = mean")] + lines[i + 1:]
        self.edit(path, twice)
        with pytest.raises(ConfigError, match=named):
            load_network(path)

    def test_duplicated_array(self, tmp_path):
        path = self.saved_classifier(tmp_path)

        def twice(lines):
            i = lines.index("[array layer0.port_sign]")
            return lines + lines[i:i + 4]
        self.edit(path, twice)
        with pytest.raises(ConfigError, match=r"array layer0\.port_sign appears twice"):
            load_network(path)

    def test_duplicated_geometry_section(self, tmp_path):
        path = self.saved_classifier(tmp_path)

        def twice(lines):
            i = lines.index("[geometry]")
            end = next(j for j in range(i + 1, len(lines)) if lines[j].startswith("["))
            return lines + lines[i:end]
        self.edit(path, twice)
        with pytest.raises(ConfigError, match=r"section \[geometry\] appears twice"):
            load_network(path)

    def test_unknown_geometry_key(self, tmp_path):
        old = tmp_path / "old.ckpt"
        old.write_text(SLOT_CHECKPOINT.replace("slot_gap = 5e-07", "slot_gaps = 5e-07"))
        with pytest.raises(ConfigError, match=r"unknown key \[geometry\] slot_gaps"):
            load_ocu_model(old)
