"""Experiment configuration files: sectioned key = value text (INI dialect).

Every getter names the offending section/key on failure so the CLI can
report schema violations precisely (exit code 2) before any work starts.
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
pool_mode = _checked(str, lambda v: v in ("mean", "max"))


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
    counts: "a list of integers >= 1", boolean: "a boolean", pool_mode: "mean or max",
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

    @classmethod
    def load(cls, path) -> "Config":
        file = Path(path)
        if not file.is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(file.read_text())
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return cls(parser, str(path))

    def has(self, section: str, key: str | None = None) -> bool:
        if key is None:
            return self.parser.has_section(section)
        return self.parser.has_option(section, key)

    def require(self, section: str, key: str) -> str:
        if not self.parser.has_option(section, key):
            raise ConfigError(f"{self.path}: missing key [{section}] {key}")
        return self.parser.get(section, key)

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        return default

    def _typed(self, section, key, default, convert):
        return parse_key(self.path, f"[{section}] {key}", self.get(section, key),
                         convert, default)

    def getint(self, section, key, default: int | None = None) -> int:
        return self._typed(section, key, default, int)

    def getcount(self, section, key, default: int | None = None) -> int:
        return self._typed(section, key, default, count)

    def getnatural(self, section, key, default: int | None = None) -> int:
        return self._typed(section, key, default, natural)

    def getfloat(self, section, key, default: float | None = None) -> float:
        return self._typed(section, key, default, float)

    def getpositive(self, section, key, default: float | None = None) -> float:
        return self._typed(section, key, default, positive)

    def getnonnegative(self, section, key, default: float | None = None) -> float:
        return self._typed(section, key, default, nonnegative)

    def getfloats(self, section, key) -> np.ndarray:
        """A required whitespace-separated list of finite numbers."""
        return self._typed(section, key, None, finite_row)

    def getcounts(self, section, key, default: tuple[int, ...] | None = None) -> tuple[int, ...]:
        return self._typed(section, key, default, counts)

    def getbool(self, section, key, default: bool | None = None) -> bool:
        return self._typed(section, key, default, boolean)

    def getpool(self, section, key, default: str | None = None) -> str:
        return self._typed(section, key, default, pool_mode)


def geometry_from_config(cfg: Config, num_inputs: int | None = None) -> OcuGeometry:
    """Build an OcuGeometry from the optional [geometry] section.

    Missing keys fall back to the module defaults; ``num_inputs`` (derived
    from the kernel size elsewhere in the config) overrides the section.
    """
    sec = "geometry"
    kwargs = {name: cfg._typed(sec, name, None, convert)
              for name, convert in GEOMETRY_FIELDS.items() if cfg.has(sec, name)}
    if num_inputs is not None:
        kwargs["num_inputs"] = num_inputs
    try:
        return OcuGeometry(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: invalid geometry: {exc}") from None
