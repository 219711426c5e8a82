"""Matrix container: a JSON manifest naming tensors plus one raw blob.

The manifest lists {name, shape, dtype in {f32, f64}, byte_offset} per
tensor; the blob is little-endian, row-major, tensors concatenated in
manifest order.  Writing is deterministic (sorted JSON keys, fixed
separators) so write -> read -> write is byte-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DataError

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_TAGS = {np.dtype("float32"): "f32", np.dtype("float64"): "f64"}
_ENTRY_KEYS = {"name", "shape", "dtype", "byte_offset"}


def save_container(manifest_path, tensors: dict[str, np.ndarray],
                   metadata: dict | None = None) -> None:
    """Write tensors to `<path>` (manifest) and `<path stem>.bin` (blob)."""
    manifest_path = Path(manifest_path)
    blob_path = manifest_path.with_suffix(".bin")
    entries = []
    offset = 0
    chunks = []
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if arr.dtype not in _TAGS:
            arr = arr.astype(np.float64)
        tag = _TAGS[arr.dtype]
        raw = np.ascontiguousarray(arr).astype(_DTYPES[tag]).tobytes()
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": tag,
            "byte_offset": offset,
        })
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "version": 1,
        "blob": blob_path.name,
        "tensors": entries,
    }
    if metadata is not None:
        manifest["metadata"] = metadata
    manifest_path.write_text(
        json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
    blob_path.write_bytes(b"".join(chunks))


def load_container(manifest_path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container; returns (tensors, metadata)."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"invalid container manifest {manifest_path}: {e}") from e
    if not (isinstance(manifest, dict) and isinstance(manifest.get("tensors"), list)
            and "blob" in manifest):
        raise DataError(f"container manifest {manifest_path} missing tensors/blob")
    blob_name = manifest["blob"]
    # the blob must sit next to its manifest
    if (not isinstance(blob_name, str) or blob_name in ("", ".", "..")
            or Path(blob_name).name != blob_name):
        raise DataError(f"blob {blob_name!r} in {manifest_path} is not a bare file name")
    blob = (manifest_path.parent / blob_name).read_bytes()
    tensors = {}
    for ent in manifest["tensors"]:
        if not (isinstance(ent, dict) and _ENTRY_KEYS <= ent.keys()
                and isinstance(ent["name"], str) and isinstance(ent["dtype"], str)):
            raise DataError(f"malformed tensor entry {ent!r} in {manifest_path}")
        dtype = _DTYPES.get(ent["dtype"])
        if dtype is None:
            raise DataError(f"unsupported dtype {ent['dtype']!r} in {manifest_path}")
        shape = ent["shape"]
        start = ent["byte_offset"]
        if not (isinstance(shape, list) and all(map(_is_count, shape))
                and _is_count(start)):
            raise DataError(f"tensor {ent['name']!r} in {manifest_path} needs "
                            "non-negative integer shape dims and byte_offset")
        shape = tuple(shape)
        count = math.prod(shape)
        end = start + count * dtype.itemsize
        if end > len(blob):
            raise DataError(f"tensor {ent['name']!r} overruns blob in {manifest_path}")
        arr = np.frombuffer(blob[start:end], dtype=dtype).reshape(shape)
        tensors[ent["name"]] = arr.astype(np.float64) if ent["dtype"] == "f64" \
            else arr.astype(np.float32)
    metadata = manifest.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataError(f"metadata in {manifest_path} must be an object")
    return tensors, metadata


def _is_count(x) -> bool:
    """A JSON integer >= 0 (booleans are not integers here)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0
