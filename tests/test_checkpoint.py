from dataclasses import fields

import numpy as np
import pytest

from ocusim.checkpoint import (
    RETIRED_KEYS,
    load_network,
    load_ocu_model,
    read_checkpoint,
    save_network,
    save_ocu_model,
    write_checkpoint,
)
from ocusim.config import ConfigError
from ocusim.data import synthetic_blobs, synthetic_corpus
from ocusim.networks import (
    DenoiseTrainConfig,
    TrainConfig,
    build_classifier,
    build_denoiser,
    calibrate_optical_layers,
    denoiser_forward,
    predict_classes,
    train_classifier,
    train_denoiser,
)
from ocusim.optics import OcuGeometry, OcuModel
from ocusim.optim import Param

from helpers import RETIRED_LINES, old_format_lines


def small_geometry():
    return OcuGeometry(metaunits_per_layer=6, num_inputs=9, num_layers=3)


# an ocu checkpoint as written before OcuGeometry lost its slot_width,
# slot_gap and slot_height fields, which no computation read, and its
# amplitude_coeff and phase_coeff, which no result could see
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
        # written again, it loses the five retired lines and nothing else
        new = tmp_path / "new.ckpt"
        save_ocu_model(new, model, {"kernel": "sharpen"})
        lines = new.read_text().splitlines()
        assert len(lines) == len(SLOT_CHECKPOINT.splitlines()) - 5
        assert old_format_lines(lines) == SLOT_CHECKPOINT.splitlines()

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
        net = build_classifier(small_geometry(), 2, 1, 8, 3, seed=4, hidden=(16, 8))
        x = np.random.default_rng(2).random((4, 1, 8, 8))
        calibrate_optical_layers(net, x)
        before = net.forward(x)
        path = tmp_path / "clf.ckpt"
        save_network(path, net, {"seed": 4})
        loaded, meta = load_network(path)
        assert loaded.kind == "classifier" and meta["seed"] == "4"
        assert loaded.topology == {"kernels": 2, "channels": 1, "image_size": 8,
                                   "n_classes": 3, "seed": 4, "optical": True,
                                   "hidden": (16, 8)}
        assert np.array_equal(loaded.forward(x), before)
        # written again, the loaded network gives the same bytes
        again = tmp_path / "again.ckpt"
        save_network(again, loaded, meta)
        assert again.read_bytes() == path.read_bytes()

    def test_denoiser_round_trip_with_bn_stats(self, tmp_path):
        net = build_denoiser(small_geometry(), 2, 2, seed=5)
        x = np.random.default_rng(3).random((4, 1, 10, 10))
        calibrate_optical_layers(net, x)
        net.forward(x, training=True)  # move the BN running stats
        before = net.forward(x, training=False)
        path = tmp_path / "dn.ckpt"
        save_network(path, net)
        loaded, _ = load_network(path)
        assert loaded.kind == "denoiser"
        assert loaded.topology == net.topology
        assert np.array_equal(loaded.forward(x, training=False), before)

    def test_electrical_round_trip(self, tmp_path):
        net = build_classifier(small_geometry(), 2, 1, 8, 2, seed=6, optical=False,
                               hidden=(8,))
        x = np.random.default_rng(4).random((2, 1, 8, 8))
        before = net.forward(x)
        path = tmp_path / "e.ckpt"
        save_network(path, net)
        assert "topo.optical = false" in path.read_text().splitlines()
        loaded, _ = load_network(path)
        assert loaded.topology["optical"] is False
        assert np.array_equal(loaded.forward(x), before)


    @pytest.mark.parametrize("kind", ["denoiser", "classifier"])
    def test_reloaded_network_evaluates_bitwise(self, tmp_path, kind):
        # through the float32 entry points, after a little training
        rng = np.random.default_rng(5)
        if kind == "denoiser":
            net = build_denoiser(small_geometry(), 2, 2, seed=5)
            train_denoiser(net, synthetic_corpus(2, 16, seed=1), 20.0,
                           DenoiseTrainConfig(epochs=1, batch_size=4, patch=10,
                                              crops_per_image=4))
            x = rng.random((2, 1, 14, 14))

            def evaluate(n):
                return [denoiser_forward(n, x)[0]]
        else:
            net = build_classifier(small_geometry(), 2, 1, 8, 2, seed=4, hidden=(4,))
            blobs = synthetic_blobs(16, 8, seed=1)
            train_classifier(net, blobs.images, blobs.labels, blobs.images, blobs.labels, 2,
                             TrainConfig(epochs=1, batch_size=8))
            x = rng.random((6, 1, 8, 8))

            def evaluate(n):
                return [n.forward(x.astype(np.float32)), predict_classes(n, x)]
        path = tmp_path / "net.ckpt"
        save_network(path, net)
        loaded, _ = load_network(path)
        for got, want in zip(evaluate(loaded), evaluate(net)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestNetworkCheckpointSchema:
    """A network checkpoint whose arrays do not fit the rebuilt stack is a
    schema error that names the array, never a silent broadcast."""

    def saved_denoiser(self, tmp_path):
        path = tmp_path / "dn.ckpt"
        save_network(path, build_denoiser(small_geometry(), 2, 2, seed=5))
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
        net = build_denoiser(small_geometry(), 2, 2, seed=5)
        net.layers[0].log_gain.value[1, 0] = bad
        path = tmp_path / "dn.ckpt"
        with pytest.raises(ValueError, match=r"layer0\.log_gain"):
            save_network(path, net)
        assert not path.exists()
        with pytest.raises(ValueError, match="weights"):
            write_checkpoint(path, "ocu", {}, None, {"weights": np.array([1.0, bad])})
        assert not path.exists()


class TestCheckpointKeys:
    """A key the reader would not use, or a name given twice, is a ConfigError
    naming it: a mutated checkpoint never loads as a different network."""

    def saved_classifier(self, tmp_path):
        path = tmp_path / "clf.ckpt"
        save_network(path, build_classifier(small_geometry(), 2, 1, 8, 2, seed=4, hidden=(8,)))
        return path

    @staticmethod
    def edit(path, edit):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")

    def test_misspelled_topology_key(self, tmp_path):
        path = self.saved_classifier(tmp_path)
        self.edit(path, lambda lines: [l.replace("topo.hidden =", "topo.hiden =") for l in lines])
        with pytest.raises(ConfigError, match=r"unknown key topo\.hiden$"):
            load_network(path)

    def test_topology_key_of_another_kind(self, tmp_path):
        path = tmp_path / "dn.ckpt"
        save_network(path, build_denoiser(small_geometry(), 2, 2, seed=5))
        self.edit(path, lambda lines: [*lines[:2], "topo.hidden = 8", *lines[2:]])
        with pytest.raises(ConfigError, match=r"topo\.hidden"):
            load_network(path)

    @pytest.mark.parametrize("line, named", [
        ("topo.hidden = 8", "key topo.hidden appears twice"),
        ("kind = classifier", "key kind appears twice"),
        ("num_layers = 3", r"key \[geometry\] num_layers appears twice"),
        ("ocusim-checkpoint 1", "line 2 'ocusim-checkpoint 1' is not key = value"),
    ])
    def test_duplicated_key(self, tmp_path, line, named):
        path = self.saved_classifier(tmp_path)

        def twice(lines):
            i = lines.index(line)
            return lines[:i + 1] + [line] + lines[i + 1:]
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


class TestRetiredKeys:
    """The lines of retired settings load and are ignored at the value every
    older checkpoint wrote; a value that would load a different network is
    a ConfigError naming the key."""

    @staticmethod
    def old_classifier(tmp_path):
        net = build_classifier(small_geometry(), 2, 1, 8, 3, seed=4, hidden=(8,))
        calibrate_optical_layers(net, np.random.default_rng(2).random((4, 1, 8, 8)))
        path = tmp_path / "clf.ckpt"
        save_network(path, net, {"seed": 4})
        lines = path.read_text().splitlines()
        path.write_text("\n".join(old_format_lines(lines)) + "\n")
        return net, path, lines

    def test_old_classifier_loads_bitwise(self, tmp_path):
        net, path, lines = self.old_classifier(tmp_path)
        assert len(path.read_text().splitlines()) == len(lines) + 6
        loaded, _ = load_network(path)
        assert network_state(loaded) == network_state(net)
        again = tmp_path / "again.ckpt"
        save_network(again, loaded, {"seed": 4})
        assert again.read_text().splitlines() == lines

    @pytest.mark.parametrize("old, new", [("phase_coeff = 0.0", "phase_coeff = 0.3"),
                                          ("slot_gap = 5e-07", "slot_gap = x")])
    def test_value_ignored(self, tmp_path, old, new):
        # a global phase is unobservable, and no computation read the slot sizes
        net, path, _ = self.old_classifier(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        assert network_state(load_network(path)[0]) == network_state(net)

    @pytest.mark.parametrize("old, new, named", [
        ("amplitude_coeff = 1.0", "amplitude_coeff = 0.5", r"\[geometry\] amplitude_coeff"),
        ("topo.pool = mean", "topo.pool = max", r"topo\.pool"),
    ])
    def test_other_value_names_key(self, tmp_path, old, new, named):
        _, path, _ = self.old_classifier(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ConfigError, match=f"key {named} is retired"):
            load_network(path)

    def test_retired_lines_of_older_writers(self):
        retired = {line.partition(" = ")[0] for lines in RETIRED_LINES.values()
                   for line in lines}
        assert {name.removeprefix("[geometry] ") for name in RETIRED_KEYS} == retired


def saved_networks(path):
    """Name -> (network, the lines of its checkpoint, saved at ``path``) of an
    optical classifier, an electrical classifier, a denoiser with batch norm,
    each with calibrated gains and moved running statistics, so that no
    array holds its initial value, and of the optical classifier's checkpoint
    as an older version wrote it, with every retired line."""
    geom = small_geometry()
    x = np.random.default_rng(5).random((4, 1, 8, 8))
    nets = {
        "optical_classifier": build_classifier(geom, 2, 1, 8, 3, seed=4, hidden=(8,)),
        "electrical_classifier": build_classifier(geom, 2, 1, 8, 2, seed=6, optical=False,
                                                  hidden=(8,)),
        "denoiser": build_denoiser(geom, 2, 2, seed=5),
    }
    saved = {}
    for name, net in nets.items():
        calibrate_optical_layers(net, x)
        net.forward(x, training=True)
        save_network(path, net, {"seed": 4, "epochs": 1})
        saved[name] = net, path.read_text().splitlines()
    net, lines = saved["optical_classifier"]
    saved["old_format_classifier"] = net, old_format_lines(lines)
    return saved


def network_state(net):
    """The kind, topology and geometry of ``net`` and each layer's class and
    public attributes, arrays as their shape and bytes: equal states mean
    bitwise-equal networks."""
    def value(v):
        if isinstance(v, Param):
            v = v.value
        if isinstance(v, np.ndarray):
            return v.shape, v.tobytes()
        if isinstance(v, OcuGeometry):
            return tuple(value(getattr(v, f.name)) for f in fields(v))
        return v
    layers = [(type(layer), {k: value(v) for k, v in vars(layer).items()
                             if not k.startswith("_")}) for layer in net.layers]
    return net.kind, net.topology, value(net.geometry), layers


def single_line_mutations(lines):
    """(description, lines) for each mutation of a header, topo.* or [geometry]
    line: delete it, duplicate it, misspell its key, or set its value to x,
    nan, inf or nothing."""
    end = next(i for i, line in enumerate(lines) if line.startswith("[array "))
    for i, line in enumerate(lines[:end]):
        yield f"delete {line!r}", lines[:i] + lines[i + 1:]
        yield f"duplicate {line!r}", lines[:i + 1] + lines[i:]
        key, sep, value = line.partition(" = ")
        if not sep:
            continue
        variants = [(f"misspell {line!r}", f"{key[:-1]} = {value}")]
        variants += [(f"{key} = {bad!r}", f"{key} = {bad}") for bad in ("x", "nan", "inf", "")]
        for what, mutated in variants:
            yield what, lines[:i] + [mutated] + lines[i + 1:]


class TestSingleLineMutations:
    """Every single-line mutation of a saved network's header, topo.* and
    [geometry] lines, retired lines of an older checkpoint included, loads
    the saved network bitwise, or raises ConfigError or ValueError (the
    CLI's exit 2): no deleted, doubled, misspelled or bad line loads as a
    different network."""

    @pytest.mark.parametrize("name", ["optical_classifier", "electrical_classifier",
                                      "denoiser", "old_format_classifier"])
    def test_loads_the_same_network_or_raises(self, tmp_path, name):
        path = tmp_path / "net.ckpt"
        net, lines = saved_networks(path)[name]
        want = network_state(net)
        wrong = []
        for what, mutated in single_line_mutations(lines):
            path.write_text("\n".join(mutated) + "\n")
            try:
                loaded, _ = load_network(path)
            except (ConfigError, ValueError):
                continue
            if network_state(loaded) != want:
                wrong.append(what)
        assert not wrong, f"loaded as a different network: {wrong}"
