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


# every OcuGeometry field with the parser of its text form, by its annotation
GEOMETRY_FIELDS = {f.name: {"float": float, "int": int, "np.ndarray": float_row}[f.type]
                   for f in fields(OcuGeometry)}
_TYPE_NAMES = {float: "a number", int: "an integer", float_row: "a list of numbers"}


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

    def _typed(self, section, key, default, convert, typename):
        raw = self.get(section, key)
        if raw is None:
            if default is None:
                raise ConfigError(f"{self.path}: missing key [{section}] {key}")
            return default
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(
                f"{self.path}: key [{section}] {key} must be {typename}, got {raw!r}"
            ) from None

    def getint(self, section, key, default: int | None = None) -> int:
        return self._typed(section, key, default, int, "an integer")

    def getcount(self, section, key, default: int | None = None) -> int:
        """An integer >= 1: a count, a size or a stride."""
        def conv(raw: str) -> int:
            value = int(raw)
            if value < 1:
                raise ValueError(raw)
            return value
        return self._typed(section, key, default, conv, "an integer >= 1")

    def getfloat(self, section, key, default: float | None = None) -> float:
        return self._typed(section, key, default, float, "a number")

    def getpositive(self, section, key, default: float | None = None) -> float:
        """A finite number > 0: a rate or a scale."""
        def conv(raw: str) -> float:
            value = float(raw)
            if not 0.0 < value < math.inf:
                raise ValueError(raw)
            return value
        return self._typed(section, key, default, conv, "a finite number > 0")

    def getfloats(self, section, key) -> np.ndarray:
        """A required whitespace-separated list of finite numbers."""
        def conv(raw: str) -> np.ndarray:
            values = float_row(raw)
            if not np.all(np.isfinite(values)):
                raise ValueError(raw)
            return values
        return self._typed(section, key, None, conv, "a list of finite numbers")

    def getcounts(self, section, key, default: tuple[int, ...] | None = None) -> tuple[int, ...]:
        """A whitespace-separated list of integers >= 1."""
        def conv(raw: str) -> tuple[int, ...]:
            values = tuple(int(v) for v in raw.split())
            if any(v < 1 for v in values):
                raise ValueError(raw)
            return values
        return self._typed(section, key, default, conv, "a list of integers >= 1")

    def getbool(self, section, key, default: bool | None = None) -> bool:
        def conv(raw: str) -> bool:
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return self._typed(section, key, default, conv, "a boolean")


def geometry_from_config(cfg: Config, num_inputs: int | None = None) -> OcuGeometry:
    """Build an OcuGeometry from the optional [geometry] section.

    Missing keys fall back to the module defaults; ``num_inputs`` (derived
    from the kernel size elsewhere in the config) overrides the section.
    """
    sec = "geometry"
    kwargs = {name: cfg._typed(sec, name, None, convert, _TYPE_NAMES[convert])
              for name, convert in GEOMETRY_FIELDS.items() if cfg.has(sec, name)}
    if num_inputs is not None:
        kwargs["num_inputs"] = num_inputs
    try:
        return OcuGeometry(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: invalid geometry: {exc}") from None
