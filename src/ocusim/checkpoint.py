"""Versioned plain-text checkpoints for trained models.

The format is line-oriented and human-diffable: a header of key = value
metadata, one [geometry] section, then one [array NAME] section per stored
tensor with its shape and decimal payload rows.  Floats are written with
repr(), which round-trips float64 exactly, so save -> load -> save is
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (GEOMETRY_FIELDS, ConfigError, boolean, count, counts, float_row,
                     natural, parse_key, pool_mode)
from .optics import OcuGeometry, OcuModel

FORMAT_NAME = "ocusim-checkpoint"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    kind: str
    meta: dict[str, str]
    geometry: OcuGeometry | None
    arrays: dict[str, np.ndarray]


def _key_values(lines: list[str], i: int) -> tuple[dict[str, str], int]:
    """The key = value lines from ``i`` up to the next section, and its index."""
    fields: dict[str, str] = {}
    while i < len(lines) and not lines[i].startswith("["):
        key, _, value = lines[i].partition(" = ")
        fields[key] = value
        i += 1
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
        lines.append(f"[array {name}]")
        lines.append("shape = " + " ".join(str(d) for d in arr.shape))
        rows = arr.reshape(arr.shape[0], -1) if arr.ndim > 1 else arr.reshape(1, -1)
        for row in rows:
            lines.append(_fmt_row(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_checkpoint(path) -> Checkpoint:
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty checkpoint")
    head = lines[0].split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise ValueError(f"{path}: not an {FORMAT_NAME} file")
    if head[1] != str(FORMAT_VERSION):
        raise ValueError(f"{path}: unsupported checkpoint version {head[1]}")

    geometry = None
    arrays: dict[str, np.ndarray] = {}
    meta, i = _key_values(lines, 1)
    kind = meta.pop("kind", "")
    if not kind:
        raise ValueError(f"{path}: checkpoint missing kind")
    # sections
    while i < len(lines):
        header = lines[i].strip()
        i += 1
        if header == "[geometry]":
            fields, i = _key_values(lines, i)
            geometry = OcuGeometry(**{
                name: parse_key(path, f"[geometry] {name}", fields.get(name), convert)
                for name, convert in GEOMETRY_FIELDS.items()})
        elif header.startswith("[array ") and header.endswith("]"):
            name = header[len("[array "):-1]
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
    kappa = parse_key(path, "kappa", ckpt.meta.get("kappa"), float)
    if "phases" not in ckpt.arrays:
        raise ConfigError(f"{path}: missing array phases")
    return OcuModel(ckpt.geometry, ckpt.arrays["phases"], kappa), ckpt.meta


# ---------------------------------------------------------------------------
# network checkpoints
# ---------------------------------------------------------------------------

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


def save_network(path, net, kind: str, geometry: OcuGeometry | None,
                 topology: dict, provenance: dict | None = None) -> None:
    """Persist a classifier or denoiser: topology keys rebuild the stack,
    array sections restore its parameters and running statistics."""
    meta = {f"topo.{k}": str(v) for k, v in topology.items()}
    meta.update({k: str(v) for k, v in (provenance or {}).items()})
    write_checkpoint(path, kind, meta, geometry, _network_arrays(net))


def load_network(path):
    """Rebuild a network checkpoint; returns (net, kind, topology, meta)."""
    from .networks import build_classifier, build_denoiser

    ckpt = read_checkpoint(path)
    topo = {k[len("topo."):]: v for k, v in ckpt.meta.items() if k.startswith("topo.")}

    def setting(key, convert=count, default=None):
        return parse_key(path, f"topo.{key}", topo.get(key), convert, default)

    optical = setting("optical", boolean, True)
    if optical and ckpt.geometry is None:
        raise ConfigError(f"{path}: optical network checkpoint missing section [geometry]")
    if ckpt.kind == "classifier":
        net = build_classifier(
            ckpt.geometry,
            kernels=setting("kernels"),
            channels=setting("channels"),
            image_size=setting("image_size"),
            n_classes=setting("n_classes"),
            seed=setting("seed", natural, 0),
            optical=optical,
            hidden=setting("hidden", counts),
            pool_mode=setting("pool", pool_mode, "mean"),
        )
    elif ckpt.kind == "denoiser":
        net = build_denoiser(
            ckpt.geometry,
            input_kernels=setting("input_kernels"),
            middle_kernels=setting("middle_kernels"),
            in_channels=setting("in_channels", default=1),
            middle_layers=setting("middle_layers", natural, 1),
            seed=setting("seed", natural, 0),
            optical=optical,
        )
    else:
        raise ValueError(f"{path}: unknown network kind {ckpt.kind!r}")

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
    return net, ckpt.kind, topo, ckpt.meta
