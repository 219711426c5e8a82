"""HDR environment maps: Radiance RGBE reader (flat and new-style RLE
scanlines), yaw-rotation augmentation and the PCA preprocessing chain
(area resize to 64x128 then log(1 + I)).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidParam, NonFiniteInput

PCA_HEIGHT = 64
PCA_WIDTH = 128


@dataclass(frozen=True)
class HdrImage:
    """Linear radiance image, nonnegative finite float (H, W, 3)."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 3 or d.shape[2] != 3:
            raise InvalidParam(f"HDR data must be (H, W, 3), got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise NonFiniteInput("HDR image contains non-finite values")
        if d.min() < 0:
            raise InvalidParam("HDR radiance must be nonnegative")
        object.__setattr__(self, "data", d)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def yaw_shift(img: HdrImage, columns: int) -> HdrImage:
    """Horizontal circular shift: an equirectangular yaw rotation."""
    return HdrImage(np.roll(img.data, columns, axis=1))


def augment_rotations(img: HdrImage, count: int = 5, rng=None) -> list[HdrImage]:
    """`count` random yaw rotations (uniform random column offsets)."""
    rng = np.random.default_rng(rng)
    shifts = rng.integers(0, img.width, size=count)
    return [yaw_shift(img, int(s)) for s in shifts]


def _area_weights(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) row-stochastic interval-overlap box filter weights."""
    scale = n_in / n_out
    o = np.arange(n_out)[:, None]
    i = np.arange(n_in)
    w = np.maximum(np.minimum((o + 1) * scale, i + 1) - np.maximum(o * scale, i), 0.0)
    return w / w.sum(axis=1, keepdims=True)


def resize_area(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Exact area-averaged (box filter) resize of an (H, W, C) array."""
    data = np.asarray(data, dtype=np.float64)
    H, W, C = data.shape
    rows = (_area_weights(H, out_h) @ data.reshape(H, W * C)).reshape(out_h, W, C)
    return _area_weights(W, out_w) @ rows


def preprocess_hdr(img: HdrImage) -> np.ndarray:
    """Resize to (PCA_HEIGHT, PCA_WIDTH) with a box filter, apply
    log(1 + I) and flatten row-major RGB (d = PCA_HEIGHT * PCA_WIDTH * 3)."""
    if not np.all(np.isfinite(img.data)):
        raise NonFiniteInput("HDR image contains non-finite values")
    small = resize_area(img.data, PCA_HEIGHT, PCA_WIDTH)
    return np.log1p(small).ravel()


# ---------------------------------------------------------------------------
# Radiance RGBE (.hdr) I/O
# ---------------------------------------------------------------------------

def _decode_rgbe(rgbe: np.ndarray) -> np.ndarray:
    """(..., 4) uint8 -> (..., 3) float64 via (m + 0.5) * 2^(e - 136)."""
    rgbe = rgbe.astype(np.float64)
    e = rgbe[..., 3]
    scale = np.where(e > 0, np.ldexp(1.0, (e - 136).astype(np.int64)), 0.0)
    return (rgbe[..., :3] + 0.5) * scale[..., None]


def _encode_rgbe(rgb: np.ndarray) -> np.ndarray:
    """(..., 3) float -> (..., 4) uint8, inverse of _decode_rgbe up to 8-bit."""
    rgb = np.asarray(rgb, dtype=np.float64)
    v = rgb.max(axis=-1)
    out = np.zeros(rgb.shape[:-1] + (4,), dtype=np.uint8)
    nz = v >= 1e-32
    if np.any(nz):
        m, e = np.frexp(v[nz])
        scale = np.ldexp(1.0, -e + 8)   # maps v into [128, 256)
        mant = np.clip(rgb[nz] * scale[..., None], 0, 255).astype(np.uint8)
        out[nz, :3] = mant
        out[nz, 3] = (e + 128).astype(np.uint8)
    return out


def read_hdr(path) -> HdrImage:
    """Minimal Radiance picture reader: flat and new-RLE scanlines."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"#?"):
        raise DataError(f"{path}: not a Radiance HDR file")
    pos = raw.find(b"\n\n")
    if pos < 0:
        raise DataError(f"{path}: missing header terminator")
    header = raw[:pos].decode("ascii", errors="replace")
    if "32-bit_rle_rgbe" not in header:
        raise DataError(f"{path}: unsupported FORMAT (expected 32-bit_rle_rgbe)")
    body = raw[pos + 2:]
    nl = body.find(b"\n")
    if nl < 0:
        raise DataError(f"{path}: resolution line is not terminated by a newline")
    dims = body[:nl].split()
    if (len(dims) != 4 or dims[0] != b"-Y" or dims[2] != b"+X"
            or not (dims[1].isdigit() and dims[3].isdigit())
            or int(dims[1]) < 1 or int(dims[3]) < 1):
        raise DataError(f"{path}: unsupported resolution line {body[:nl]!r} "
                        "(expected '-Y <height> +X <width>', both positive)")
    H, W = int(dims[1]), int(dims[3])
    data = np.frombuffer(body[nl + 1:], dtype=np.uint8)
    # shortest scanline: flat 4W bytes, or RLE with 127-pixel runs
    if len(data) < H * min(4 * W, 4 + 8 * -(-W // 127)):
        raise DataError(f"{path}: {len(data)} bytes cannot hold {H} scanlines of width {W}")

    rows = np.empty((H, W, 4), dtype=np.uint8)
    ofs = 0
    for y in range(H):
        if ofs + 4 > len(data):
            raise DataError(f"{path}: truncated at scanline {y}")
        head = data[ofs:ofs + 4]
        if head[0] == 2 and head[1] == 2 and (int(head[2]) << 8 | int(head[3])) == W:
            ofs += 4
            for c in range(4):
                x = 0
                while x < W:
                    if ofs >= len(data):
                        raise DataError(f"{path}: truncated RLE at scanline {y}")
                    count = int(data[ofs]); ofs += 1
                    if count > 128:            # run
                        run = count - 128
                        if x + run > W:
                            raise DataError(f"{path}: RLE run overflow at scanline {y}")
                        rows[y, x:x + run, c] = data[ofs]; ofs += 1
                        x += run
                    else:                      # literals
                        if count == 0 or x + count > W:
                            raise DataError(f"{path}: bad RLE literal at scanline {y}")
                        rows[y, x:x + count, c] = data[ofs:ofs + count]
                        ofs += count
                        x += count
        elif head[0] == 1 and head[1] == 1 and head[2] == 1:
            raise DataError(f"{path}: old-style RLE scanlines are not supported")
        else:                                  # flat scanline
            need = W * 4
            if ofs + need > len(data):
                raise DataError(f"{path}: truncated flat scanline {y}")
            rows[y] = data[ofs:ofs + need].reshape(W, 4)
            ofs += need
    return HdrImage(_decode_rgbe(rows))


def write_hdr(path, img: HdrImage) -> None:
    """Flat (uncompressed) Radiance writer, mainly for fixtures and demos."""
    rgbe = _encode_rgbe(img.data)
    header = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n"
    res = f"-Y {img.height} +X {img.width}\n".encode("ascii")
    Path(path).write_bytes(header + res + rgbe.tobytes())
