"""Pore-map extraction: scale-normalized Laplacian of Gaussian over the
diffuse skin texture, acting as a blob detector for micro displacement.

Computed as separable Gaussian smoothing followed by the discrete
5-point Laplacian, scaled by sigma^2; borders clamp to the edge.  The
image is worked in row bands, each with a halo of the rows its filters
reach, on one thread per CPU.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .container import encode_json, write_files
from .errors import DataError, InvalidSigma
from .parallel import cpu_count as _cpu_count, run_workers

# Size of the rows of one band of a float64 image: small enough that a
# band's filter passes run from cache, large enough that its halo of
# recomputed rows stays a small share of it.
_BAND_BYTES = 1 << 20

_LAPLACIAN = np.array([[0.0, 1.0, 0.0],
                       [1.0, -4.0, 1.0],
                       [0.0, 1.0, 0.0]])


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    radius = max(1, int(math.ceil(3.0 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def pore_map(texture: np.ndarray, sigma: float) -> np.ndarray:
    """sigma^2 * Laplacian(Gaussian(texture)); linear in the input.

    Each band of rows is smoothed from the image rows it reaches (its own
    rows and a halo of radius + 1 on either side, cut at the image edges),
    so every pixel goes through the same filter arithmetic as in one pass
    over the whole image: the bytes do not depend on the bands or threads.
    """
    from scipy import ndimage      # here, so that processes making no pore map never load it
    if not 0 < sigma < math.inf:
        raise InvalidSigma(f"sigma must be positive and finite, got {sigma}")
    img = np.asarray(texture, dtype=np.float64)
    if img.ndim != 2:
        raise DataError(f"texture must be a 2-D grayscale image, got shape {img.shape}")
    k = gaussian_kernel1d(sigma)
    scale = sigma * sigma
    h, w = img.shape
    rows = max(1, _BAND_BYTES // (8 * max(w, 1)))
    out = np.empty((h, w))
    starts = range(0, h, rows)
    workers = min(len(starts), _cpu_count())

    def bands(j: int) -> None:
        for a in starts[j::workers]:
            b = min(h, a + rows)
            top, bottom = max(0, a - 1), min(h, b + 1)          # rows the Laplacian reads
            lo, hi = max(0, top - len(k) // 2), min(h, bottom + len(k) // 2)
            smooth = ndimage.convolve1d(img[lo:hi], k, axis=0, mode="nearest")
            smooth = ndimage.convolve1d(smooth[top - lo:bottom - lo], k, axis=1, mode="nearest")
            lap = ndimage.convolve(smooth, _LAPLACIAN, mode="nearest")
            np.multiply(scale, lap[a - top:b - top], out=out[a:b])

    run_workers(bands, workers)
    return out


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
    if not all(t.isdigit() for t in tokens[1:]) or min(map(int, tokens[1:])) < 1:
        raise DataError(f"{path}: PGM header needs integer width, height and maxval >= 1")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval > 65535:
        raise DataError(f"{path}: PGM maxval {maxval} is above 65535")
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
    if arr.max() > maxval:
        raise DataError(
            f"{path}: PGM holds a sample of {arr.max():.0f}, above its maxval {maxval}")
    return np.divide(arr, maxval, dtype=np.float64).reshape(h, w)
