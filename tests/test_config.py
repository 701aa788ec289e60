import pytest

from ocusim.config import Config, ConfigError, boolean, count, geometry_from_config, positive


def load(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return Config.load(path)


class TestConfig:
    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            Config.load("/no/such/file.ini")

    def test_require_names_key(self, tmp_path):
        cfg = load(tmp_path, "[fit]\nepochs = 5\n")
        with pytest.raises(ConfigError, match=r"\[fit\] kernels"):
            cfg.require("fit", "kernels")

    def test_typed_getters(self, tmp_path):
        cfg = load(tmp_path, "[a]\nx = 3\ny = 2.5\nz = yes\n")
        assert cfg.typed("a", "x", count) == 3
        assert cfg.typed("a", "y", positive) == 2.5
        assert cfg.typed("a", "z", boolean) is True
        assert cfg.typed("a", "missing", count, 7) == 7

    def test_settings_holds_only_the_keys_set(self, tmp_path):
        cfg = load(tmp_path, "[a]\nx = 3\nz = no\n")
        assert cfg.settings("a", x=count, y=positive, z=boolean) == {"x": 3, "z": False}
        assert cfg.settings("b", x=count) == {}
        cfg.check_all_read()
        with pytest.raises(ConfigError, match=r"\[a\] x must be an integer >= 1"):
            load(tmp_path, "[a]\nx = 0\n").settings("a", x=count)

    def test_bad_type_names_key(self, tmp_path):
        cfg = load(tmp_path, "[a]\nx = hello\n")
        with pytest.raises(ConfigError, match=r"\[a\] x"):
            cfg.typed("a", "x", count)

    def test_count_must_be_positive(self, tmp_path):
        cfg = load(tmp_path, "[a]\nx = 0\ny = 2\n")
        assert cfg.typed("a", "y", count) == 2
        assert cfg.typed("a", "missing", count, 5) == 5
        with pytest.raises(ConfigError, match=r"\[a\] x must be an integer >= 1"):
            cfg.typed("a", "x", count)

    def test_unread_key_is_named(self, tmp_path):
        cfg = load(tmp_path, "[a]\nx = 1\ny = 2\n\n[b]\nz = 3\n")
        assert cfg.typed("a", "x", count) == 1
        assert cfg.has("b", "z")
        with pytest.raises(ConfigError, match=r"unknown key \[a\] y"):
            cfg.check_all_read()
        cfg.get("a", "y")
        cfg.check_all_read()

    def test_default_section_is_not_inherited(self, tmp_path):
        cfg = load(tmp_path, "[DEFAULT]\nseed = 1\n\n[a]\nx = 1\n")
        assert cfg.get("a", "seed") is None
        assert cfg.typed("a", "x", count) == 1
        with pytest.raises(ConfigError, match=r"unknown key \[DEFAULT\] seed"):
            cfg.check_all_read()

    def test_bad_syntax(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("no section header\n")
        with pytest.raises(ConfigError):
            Config.load(path)


class TestGeometryFromConfig:
    def test_defaults_when_sectionless(self, tmp_path):
        cfg = load(tmp_path, "[fit]\nkernels = sobel_x\n")
        geom = geometry_from_config(cfg, 9)
        assert geom.metaunits_per_layer == 50
        assert geom.num_layers == 3
        assert geom.num_inputs == 9

    def test_overrides(self, tmp_path):
        cfg = load(tmp_path, "[geometry]\nmetaunits_per_layer = 10\n"
                             "wavelength = 1.31e-6\noutput_positions = 5e-5 -5e-5\n")
        geom = geometry_from_config(cfg, 4)
        assert geom.metaunits_per_layer == 10
        assert geom.wavelength == 1.31e-6
        assert geom.num_inputs == 4
        assert list(geom.output_positions) == [5e-5, -5e-5]
        cfg.check_all_read()

    def test_num_inputs_key_is_not_read(self, tmp_path):
        # the kernel size is the one source of num_inputs: the key is unknown,
        # never read and then overwritten
        cfg = load(tmp_path, "[geometry]\nnum_inputs = 25\n")
        assert geometry_from_config(cfg, 9).num_inputs == 9
        with pytest.raises(ConfigError, match=r"unknown key \[geometry\] num_inputs"):
            cfg.check_all_read()

    def test_malformed_positions_name_key(self, tmp_path):
        cfg = load(tmp_path, "[geometry]\ninput_positions = 1e-5 x\n")
        with pytest.raises(ConfigError, match=r"\[geometry\] input_positions"):
            geometry_from_config(cfg, 9)

    def test_invalid_geometry_is_config_error(self, tmp_path):
        cfg = load(tmp_path, "[geometry]\nmetaunits_per_layer = 500\n")
        with pytest.raises(ConfigError, match="geometry"):
            geometry_from_config(cfg, 9)
