"""Experiment configuration files: sectioned key = value text (INI dialect).

Every read names the offending section/key on failure so the CLI can
report schema violations precisely (exit code 2) before any work starts.
A Config records every key it is asked about; once a command has read all
it needs, check_all_read names the first key nothing read, so a misspelled
or unknown key is an error, not silently ignored.  There is no [DEFAULT]
inheritance: a [DEFAULT] section is one more section.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .optics import OcuGeometry


class ConfigError(Exception):
    """Configuration or input-schema violation (CLI exit code 2)."""


def read_input(key: str, loader, *args, **kwargs):
    """``loader(*args, **kwargs)``: the read of an input file that ``key`` names,
    a flag or a config path and key.  A file that is missing, unreadable or
    malformed (the loader raises OSError or ValueError) is a ConfigError
    that starts with ``key``."""
    try:
        return loader(*args, **kwargs)
    except FileNotFoundError as exc:
        raise ConfigError(f"{key} file not found: {exc.filename}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def float_row(raw: str) -> np.ndarray:
    return np.array([float(v) for v in raw.split()])


def _checked(parse, ok):
    """A converter: ``parse`` the text, and reject a value that is not ``ok``."""
    def convert(raw: str):
        value = parse(raw)
        if not ok(value):
            raise ValueError(raw)
        return value
    return convert


# the converters of a key's text form; each raises ValueError on a bad value
count = _checked(int, lambda v: v >= 1)                       # a count, size or stride
natural = _checked(int, lambda v: v >= 0)                     # a seed, limit or depth
positive = _checked(float, lambda v: 0.0 < v < math.inf)      # a rate or scale
nonnegative = _checked(float, lambda v: 0.0 <= v < math.inf)  # a noise level
finite_row = _checked(float_row, lambda v: bool(np.all(np.isfinite(v))))
counts = _checked(lambda raw: tuple(int(v) for v in raw.split()),
                  lambda v: all(x >= 1 for x in v))
class_ids = _checked(lambda raw: tuple(int(v) for v in raw.split()),   # CIFAR-10 classes
                     lambda v: 0 < len(v) == len(set(v)) and all(0 <= x <= 9 for x in v))


def boolean(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


TYPE_NAMES = {
    int: "an integer", count: "an integer >= 1", natural: "an integer >= 0",
    float: "a number", positive: "a finite number > 0", nonnegative: "a finite number >= 0",
    float_row: "a list of numbers", finite_row: "a list of finite numbers",
    counts: "a list of integers >= 1", boolean: "a boolean",
    class_ids: "a list of distinct class ids 0-9",
}

# every OcuGeometry field with the parser of its text form, by its annotation
GEOMETRY_FIELDS = {f.name: {"float": float, "int": int, "np.ndarray": float_row}[f.type]
                   for f in fields(OcuGeometry)}


def parse_key(path, key: str, raw: str | None, convert, default=None):
    """The value of ``key`` (its text ``raw``, None when absent) parsed by ``convert``.

    An absent key takes ``default``; an absent key without a default, or a
    value ``convert`` rejects, is a ConfigError naming ``key``.
    """
    if raw is None:
        if default is None:
            raise ConfigError(f"{path}: missing key {key}")
        return default
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(
            f"{path}: key {key} must be {TYPE_NAMES[convert]}, got {raw!r}") from None


class Config:
    def __init__(self, parser: configparser.ConfigParser, path: str):
        self.parser = parser
        self.path = path
        self._read: set[tuple[str, str]] = set()

    @classmethod
    def load(cls, path) -> "Config":
        text = read_input("--config", Path(path).read_text)
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"--config {path}: {exc}") from None
        return cls(parser, str(path))

    def has(self, section: str, key: str | None = None) -> bool:
        if key is None:
            return self.parser.has_section(section)
        self._read.add((section, self.parser.optionxform(key)))
        return self.parser.has_option(section, key)

    def require(self, section: str, key: str) -> str:
        if not self.has(section, key):
            raise ConfigError(f"{self.path}: missing key [{section}] {key}")
        return self.parser.get(section, key)

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        if self.has(section, key):
            return self.parser.get(section, key)
        return default

    def check_all_read(self) -> None:
        """A ConfigError naming the first key, in file order, that nothing has read."""
        for section in self.parser.sections():
            for key in self.parser.options(section):
                if (section, key) not in self._read:
                    raise ConfigError(f"{self.path}: unknown key [{section}] {key}")

    def typed(self, section: str, key: str, convert, default=None):
        """[section] key parsed by ``convert``, one of this module's converters;
        an absent key takes ``default``, and without one is a ConfigError."""
        return parse_key(self.path, f"[{section}] {key}", self.get(section, key),
                         convert, default)

    def settings(self, section: str, **converters) -> dict:
        """{key: value} of the keys of ``converters`` that [section] sets, each
        parsed by its converter.  A key the section leaves out is left out here
        too, so the callee given these as keyword arguments keeps its own default."""
        return {key: self.typed(section, key, convert)
                for key, convert in converters.items() if self.has(section, key)}


def geometry_from_config(cfg: Config, num_inputs: int) -> OcuGeometry:
    """Build an OcuGeometry from the optional [geometry] section.

    Missing keys fall back to the module defaults.  ``num_inputs`` comes
    from the kernel size elsewhere in the config, so the section does not
    read it, and a [geometry] num_inputs line is an unknown key.
    """
    kwargs = cfg.settings("geometry", **{name: convert for name, convert
                                         in GEOMETRY_FIELDS.items() if name != "num_inputs"})
    try:
        return OcuGeometry(**kwargs, num_inputs=num_inputs)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: invalid geometry: {exc}") from None
