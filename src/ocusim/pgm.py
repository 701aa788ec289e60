"""Binary PGM (P5) image files, the emission format for grayscale outputs."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_pgm(path, img) -> None:
    """Write a [0, 1] float image as an 8-bit binary PGM."""
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError("PGM writer takes a 2-D grayscale image")
    levels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + levels.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM into a [0, 1] float image."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise ValueError(f"{path}: malformed or truncated PGM header") from None
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    payload = raw[pos:pos + width * height]
    if len(payload) != width * height:
        raise ValueError(f"{path}: truncated PGM payload")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return pixels.astype(float) / 255.0
