"""Pore-map extraction: scale-normalized Laplacian of Gaussian over the
diffuse skin texture, acting as a blob detector for micro displacement.

Computed as separable Gaussian smoothing followed by the discrete
5-point Laplacian, scaled by sigma^2; borders clamp to the edge.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy import ndimage

from .container import encode_json, write_files
from .errors import DataError, InvalidSigma


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    radius = max(1, int(math.ceil(3.0 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def pore_map(texture: np.ndarray, sigma: float) -> np.ndarray:
    """sigma^2 * Laplacian(Gaussian(texture)); linear in the input."""
    if sigma <= 0:
        raise InvalidSigma(f"sigma must be positive, got {sigma}")
    img = np.asarray(texture, dtype=np.float64)
    if img.ndim != 2:
        raise DataError(f"texture must be a 2-D grayscale image, got shape {img.shape}")
    k = gaussian_kernel1d(sigma)
    smooth = ndimage.convolve1d(img, k, axis=0, mode="nearest")
    smooth = ndimage.convolve1d(smooth, k, axis=1, mode="nearest")
    lap_kernel = np.array([[0.0, 1.0, 0.0],
                           [1.0, -4.0, 1.0],
                           [0.0, 1.0, 0.0]])
    lap = ndimage.convolve(smooth, lap_kernel, mode="nearest")
    return sigma * sigma * lap


# ---------------------------------------------------------------------------
# PGM I/O (16-bit export with normalization sidecar; 8/16-bit import)
# ---------------------------------------------------------------------------

def write_pgm16(path, img: np.ndarray, sidecar: dict | None = None) -> None:
    """Min-max normalized 16-bit binary PGM plus a JSON sidecar recording
    the normalization constants."""
    path = Path(path)
    img = np.asarray(img, dtype=np.float64)
    lo, hi = float(img.min()), float(img.max())
    span = hi - lo
    norm = (img - lo) / span if span > 0 else np.zeros_like(img)
    u16 = np.round(norm * 65535.0).astype(">u2")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii")
    meta = {"min": lo, "max": hi}
    if sidecar:
        meta.update(sidecar)
    write_files(path.parent, {path.name: header + u16.tobytes(),
                              path.name + ".json": encode_json(meta)})


def read_pgm(path) -> np.ndarray:
    """P5 (8/16-bit) or P2 grayscale reader returning float64 in [0, 1]."""
    raw = Path(path).read_bytes()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            nl = raw.find(b"\n", pos)
            pos = nl + 1 if nl >= 0 else len(raw)
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated PGM header")
        tokens.append(raw[start:pos])
    magic = tokens[0]
    if magic not in (b"P5", b"P2"):
        raise DataError(f"{path}: unsupported PGM magic {magic!r}")
    if not all(t.isdigit() for t in tokens[1:]) or int(tokens[3]) < 1:
        raise DataError(f"{path}: PGM header needs integer width, height and maxval >= 1")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if magic == b"P5":
        pos += 1   # single whitespace after maxval
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        if len(raw) - pos < w * h * dtype.itemsize:
            raise DataError(f"{path}: PGM body holds fewer than {w}x{h} samples")
        arr = np.frombuffer(raw, dtype=dtype, count=w * h, offset=pos)
    else:
        samples = raw[pos:].split()[:w * h]
        if len(samples) < w * h or not all(t.isdigit() for t in samples):
            raise DataError(f"{path}: PGM body holds fewer than {w}x{h} integer samples")
        arr = np.array(samples, dtype=np.float64)
    return arr.astype(np.float64).reshape(h, w) / maxval
