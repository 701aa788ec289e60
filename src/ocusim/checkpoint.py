"""Versioned plain-text checkpoints for trained models.

The format is line-oriented and human-diffable: a header of key = value
metadata, one [geometry] section, then one [array NAME] section per stored
tensor with its shape and decimal payload rows.  Floats are written with
repr(), which round-trips float64 exactly, so save -> load -> save is
byte-identical.  A key, the [geometry] section or an array named twice is
an error, and so is a [geometry] line that names no OcuGeometry field.
The lines of retired settings that older checkpoints carry are the one
exception: RETIRED_KEYS lists each with the value under which it loads
and is ignored, and any other value is an error naming it, because it
would load a different model.

A network records its own kind, geometry and topology when its builder
makes it, and save_network writes those, so a checkpoint cannot disagree
with its network.  Every topo.* key that TOPOLOGY lists for the kind and
the [geometry] section are required; a deleted line never loads as a
default.  topo.seed does not change the loaded network: the arrays
overwrite every random initial value.

Of the header keys only kind, kappa and topo.* are read.  Every other one
(seed, epochs, sigma, final_loss, accuracy, kernel, train_mse) is
provenance: written for people, parsed by nothing, and free to edit, since
it never changes the loaded model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (GEOMETRY_FIELDS, ConfigError, boolean, count, counts, float_row,
                     natural, parse_key, positive)
from .optics import OcuGeometry, OcuModel

FORMAT_NAME = "ocusim-checkpoint"
FORMAT_VERSION = 1

# each line older checkpoints carry for a setting that no longer exists, by
# the name errors give it, with the one value it loads under (None: any)
RETIRED_KEYS = {
    "[geometry] slot_width": None,       # read by no computation
    "[geometry] slot_gap": None,
    "[geometry] slot_height": None,
    "[geometry] phase_coeff": None,      # a global phase that detection cancels
    "[geometry] amplitude_coeff": "1.0",  # any other value scales every field
    "topo.pool": "mean",                 # the pool is the 2x2 mean pool
}


@dataclass
class Checkpoint:
    kind: str
    meta: dict[str, str]
    geometry: OcuGeometry | None
    arrays: dict[str, np.ndarray]


def _key_values(path, lines: list[str], i: int, section: str = "") -> tuple[dict[str, str], int]:
    """The key = value lines from ``i`` up to the next section, without the
    retired ones, and its index; a key given twice, a line that is not
    key = value, or a retired key at a value it cannot load under, is a
    ConfigError naming it."""
    fields: dict[str, str] = {}
    while i < len(lines) and not lines[i].startswith("["):
        key, sep, value = lines[i].partition(" = ")
        if not sep:
            raise ConfigError(f"{path}: line {i + 1} {lines[i]!r} is not key = value")
        if key in fields:
            raise ConfigError(f"{path}: key {section}{key} appears twice")
        fields[key] = value
        i += 1
    for key in list(fields):
        name = section + key
        if name in RETIRED_KEYS:
            value, loads = fields.pop(key), RETIRED_KEYS[name]
            if loads is not None and value != loads:
                raise ConfigError(f"{path}: key {name} is retired and loads only as "
                                  f"{loads}, got {value!r}")
    return fields, i


def _parse_array(path, name: str, body: list[str]) -> np.ndarray:
    """An [array NAME] section body: a shape line, then the payload rows."""
    try:
        shape = tuple(int(d) for d in body[0].partition(" = ")[2].split())
        arr = np.array([float(v) for line in body[1:] for v in line.split()])
    except (IndexError, ValueError):
        raise ConfigError(f"{path}: array {name} is malformed") from None
    if arr.size != int(np.prod(shape)):
        raise ConfigError(f"{path}: array {name} payload does not match shape")
    return arr.reshape(shape)


def _fmt_row(row) -> str:
    return " ".join(repr(float(x)) for x in row)


def write_checkpoint(path, kind: str, meta: dict, geometry: OcuGeometry | None,
                     arrays: dict[str, np.ndarray]) -> None:
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}", f"kind = {kind}"]
    for key in sorted(meta):
        value = str(meta[key])
        if "\n" in value:
            raise ValueError(f"metadata value for {key!r} must be single-line")
        lines.append(f"{key} = {value}")
    if geometry is not None:
        lines.append("[geometry]")
        for name, convert in GEOMETRY_FIELDS.items():
            value = getattr(geometry, name)
            text = _fmt_row(value) if convert is float_row else repr(convert(value))
            lines.append(f"{name} = {text}")
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=float)
        if not np.all(np.isfinite(arr)):
            # load_network refuses them, so no checkpoint is written with them
            raise ValueError(f"array {name} holds non-finite values")
        lines.append(f"[array {name}]")
        lines.append("shape = " + " ".join(str(d) for d in arr.shape))
        rows = arr.reshape(arr.shape[0], -1) if arr.ndim > 1 else arr.reshape(1, -1)
        for row in rows:
            lines.append(_fmt_row(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_checkpoint(path) -> Checkpoint:
    # the header is checked before the text is decoded, so that a file of
    # another format is named as such, not by the first byte ASCII rejects
    data = Path(path).read_bytes()
    if not data:
        raise ValueError(f"{path}: empty checkpoint")
    head = data.splitlines()[0].split()
    if len(head) != 2 or head[0] != FORMAT_NAME.encode():
        raise ValueError(f"{path}: not an {FORMAT_NAME} file")
    lines = data.decode("ascii").splitlines()
    if head[1] != str(FORMAT_VERSION).encode():
        raise ValueError(f"{path}: unsupported checkpoint version {head[1].decode()}")

    geometry = None
    arrays: dict[str, np.ndarray] = {}
    meta, i = _key_values(path, lines, 1)
    kind = meta.pop("kind", "")
    if not kind:
        raise ValueError(f"{path}: checkpoint missing kind")
    # sections
    while i < len(lines):
        header = lines[i].strip()
        i += 1
        if header == "[geometry]":
            if geometry is not None:
                raise ConfigError(f"{path}: section [geometry] appears twice")
            fields, i = _key_values(path, lines, i, "[geometry] ")
            for key in fields:
                if key not in GEOMETRY_FIELDS:
                    raise ConfigError(f"{path}: unknown key [geometry] {key}")
            geometry = OcuGeometry(**{
                name: parse_key(path, f"[geometry] {name}", fields.get(name), convert)
                for name, convert in GEOMETRY_FIELDS.items()})
        elif header.startswith("[array ") and header.endswith("]"):
            name = header[len("[array "):-1]
            if name in arrays:
                raise ConfigError(f"{path}: array {name} appears twice")
            start = i
            while i < len(lines) and not lines[i].startswith("["):
                i += 1
            arrays[name] = _parse_array(path, name, lines[start:i])
        else:
            raise ValueError(f"{path}: unrecognized section {header!r}")
    return Checkpoint(kind, meta, geometry, arrays)


# ---------------------------------------------------------------------------
# single-unit checkpoints
# ---------------------------------------------------------------------------

def save_ocu_model(path, model: OcuModel, provenance: dict | None = None) -> None:
    meta = {"kappa": repr(model.detection_gain)}
    meta.update({k: str(v) for k, v in (provenance or {}).items()})
    write_checkpoint(path, "ocu", meta, model.geometry, {"phases": model.phases})


def load_ocu_model(path) -> tuple[OcuModel, dict]:
    ckpt = read_checkpoint(path)
    if ckpt.kind != "ocu":
        raise ValueError(f"{path}: expected an ocu checkpoint, found {ckpt.kind!r}")
    if ckpt.geometry is None:
        raise ValueError(f"{path}: ocu checkpoint missing geometry")
    kappa = parse_key(path, "kappa", ckpt.meta.get("kappa"), positive)
    if "phases" not in ckpt.arrays:
        raise ConfigError(f"{path}: missing array phases")
    return OcuModel(ckpt.geometry, ckpt.arrays["phases"], kappa), ckpt.meta


# ---------------------------------------------------------------------------
# network checkpoints
# ---------------------------------------------------------------------------

# each network kind's topo.* keys with their converters, in the order of its
# builder's parameters after the geometry; every key is required
TOPOLOGY = {
    "classifier": {"kernels": count, "channels": count, "image_size": count,
                   "n_classes": count, "seed": natural, "optical": boolean,
                   "hidden": counts},
    "denoiser": {"input_kernels": count, "middle_kernels": count, "in_channels": count,
                 "middle_layers": natural, "seed": natural, "optical": boolean},
}


def _network_arrays(net) -> dict[str, np.ndarray]:
    from .nn import BatchNormLayer, OclLayer

    arrays: dict[str, np.ndarray] = {}
    for idx, layer in enumerate(net.layers):
        for p in layer.params():
            arrays[f"layer{idx}.{p.name}"] = p.value
        if isinstance(layer, BatchNormLayer):
            arrays[f"layer{idx}.running_mean"] = layer.running_mean
            arrays[f"layer{idx}.running_var"] = layer.running_var
        if isinstance(layer, OclLayer):
            arrays[f"layer{idx}.port_sign"] = layer.port_sign
    return arrays


def _topology_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def save_network(path, net, provenance: dict | None = None) -> None:
    """Persist a network that build_classifier or build_denoiser made: its
    recorded kind, geometry and topology rebuild the stack, and the array
    sections restore its parameters and running statistics."""
    meta = {f"topo.{k}": _topology_text(v) for k, v in net.topology.items()}
    meta.update({k: str(v) for k, v in (provenance or {}).items()})
    write_checkpoint(path, net.kind, meta, net.geometry, _network_arrays(net))


def load_network(path):
    """Rebuild a network checkpoint; returns (net, meta).

    The net records its kind and its typed topology, as the builder did.
    Every topo.* key of TOPOLOGY[kind] and [geometry] are required, and a
    topo.* key the kind does not read is a ConfigError naming it, so no
    deleted or misspelled line loads as a different network.
    """
    from .networks import build_classifier, build_denoiser

    ckpt = read_checkpoint(path)
    if ckpt.kind not in TOPOLOGY:
        raise ValueError(f"{path}: unknown network kind {ckpt.kind!r}")
    topo = {k[len("topo."):]: v for k, v in ckpt.meta.items() if k.startswith("topo.")}
    for key in topo:
        if key not in TOPOLOGY[ckpt.kind]:
            raise ConfigError(f"{path}: unknown key topo.{key}")
    if ckpt.geometry is None:
        raise ConfigError(f"{path}: network checkpoint missing section [geometry]")
    build = build_classifier if ckpt.kind == "classifier" else build_denoiser
    net = build(ckpt.geometry, *(parse_key(path, f"topo.{key}", topo.get(key), convert)
                                 for key, convert in TOPOLOGY[ckpt.kind].items()))

    for key, target in _network_arrays(net).items():
        arr = ckpt.arrays.get(key)
        if arr is None:
            raise ConfigError(f"{path}: missing array {key}")
        if arr.shape != target.shape:
            raise ConfigError(f"{path}: array {key} has shape {arr.shape}, "
                              f"expected {target.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{path}: array {key} holds non-finite values")
        target[...] = arr
    return net, ckpt.meta
