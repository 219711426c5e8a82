"""Matrix container: a JSON manifest naming tensors plus one raw blob;
the strict JSON reading and the one JSON encoder and file-set writer that
every manifest, JSON file and multi-file output of facegen goes through.

The manifest lists {name, shape, dtype in {f32, f64}, byte_offset} per
tensor; the blob is little-endian, row-major, tensors concatenated in
manifest order.  Writing is deterministic (sorted JSON keys, fixed
separators) so write -> read -> write is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DataError, naming

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_TAGS = {np.dtype("float32"): "f32", np.dtype("float64"): "f64"}
_ENTRY_SPEC = {"name": str, "shape": [int], "dtype": set(_DTYPES), "byte_offset": int}
_MANIFEST_SPEC = {"version": int, "blob": str, "tensors": [_ENTRY_SPEC], "metadata": dict}


def save_container(manifest_path, tensors: dict[str, np.ndarray],
                   metadata: dict | None = None) -> dict[str, str]:
    """Write tensors to `<path stem>.bin` (blob) and then `<path>`
    (manifest); returns {file name: sha256} of the two."""
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
    return write_files(manifest_path.parent, {blob_path.name: b"".join(chunks),
                                              manifest_path.name: encode_json(manifest)})


def encode_json(value, indent: int | None = None) -> bytes:
    """`value` as JSON file bytes (sorted keys, compact without `indent`, a
    final newline), the mirror of decode_json.  A NaN or infinity raises
    ValueError: input is checked finite where it is read, so one is a bug."""
    return (json.dumps(value, sort_keys=True, indent=indent, allow_nan=False,
                       separators=None if indent else (",", ":")) + "\n").encode()


def write_files(directory, files: dict[str, bytes]) -> dict[str, str]:
    """Write {file name: bytes} into the existing `directory` in the order
    given, so a commit record such as a manifest goes last; returns {file
    name: sha256 hex digest} of the bytes written."""
    for name, data in files.items():
        Path(directory, name).write_bytes(data)
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


class StrictDict(dict):
    """A dict read from a file: a missing key is a DataError naming `where`
    (the file, or the key's path in it) and the key."""

    def __init__(self, items, where):
        super().__init__(items)
        self.where = where

    def __missing__(self, key):
        raise DataError(f"{self.where} lacks {key!r}")


def load_container(manifest_path, kind: str | None = None) -> tuple[StrictDict, dict]:
    """Read a container; returns (tensors, metadata).  With `kind`, the
    metadata must carry that kind.  Any DataError names the manifest."""
    manifest_path = Path(manifest_path)
    with naming(manifest_path):
        manifest = decode_json(read_json_object(manifest_path), _MANIFEST_SPEC)
        blob_name = manifest["blob"]
        # the blob must sit next to its manifest
        if blob_name in ("", ".", "..") or Path(blob_name).name != blob_name:
            raise DataError(f"blob {blob_name!r} is not a bare file name")
        blob = (manifest_path.parent / blob_name).read_bytes()
        tensors = StrictDict({}, manifest_path)
        for ent in manifest["tensors"]:
            dtype, start, name = _DTYPES[ent["dtype"]], ent["byte_offset"], ent["name"]
            if min((start, *ent["shape"])) < 0:
                raise DataError(f"tensor {name!r} needs non-negative shape dims "
                                "and byte_offset")
            end = start + math.prod(ent["shape"]) * dtype.itemsize
            if end > len(blob):
                raise DataError(f"tensor {name!r} overruns the blob")
            arr = np.frombuffer(blob[start:end], dtype=dtype).reshape(ent["shape"])
            tensors[name] = arr.astype(np.float64 if ent["dtype"] == "f64" else np.float32)
        metadata = manifest.get("metadata", {})
        if kind is not None and metadata.get("kind") != kind:
            raise DataError(f"container kind {metadata.get('kind')!r} is not {kind!r}")
    return tensors, metadata


def read_json_object(path) -> dict:
    """The JSON object in the UTF-8 file `path`; anything else is a
    DataError naming the file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text") from e
    return parse_json_object(text, path)


def parse_json_object(text: str, source="JSON text") -> dict:
    """The JSON object that `text` holds; anything else is a DataError
    naming `source`."""
    try:
        value = json.loads(text)
    # bad JSON, an integer past int's digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as e:
        raise DataError(f"invalid JSON in {source}: {e}") from e
    if not isinstance(value, dict):
        raise DataError(f"{source}: expected a JSON object, got {type(value).__name__}")
    return value


_JSON_TYPES = {float: "a finite number", int: "an integer", str: "a string",
               bool: "a boolean", dict: "an object"}


def decode_json(value, spec, key: str = "$"):
    """`value` checked against `spec` and decoded; any mismatch is a
    DataError naming `key`, the value's path from the document root `$`.

    `spec` is float (any finite JSON number, returned as a float), int,
    str, bool or dict (any object); a dict {name: spec} (an object with
    only those keys, returned as a StrictDict); a one-item list [spec] (an
    array, returned as a tuple); a list of n > 1 specs (an array of exactly
    n items, the i-th checked against the i-th spec, returned as a tuple);
    a set of allowed strings; or a shape
    tuple (a finite number or nested arrays of them that broadcast to that
    shape, returned as an array).
    """
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise DataError(f"{key} must be an object, got {type(value).__name__}")
        unknown = sorted(value.keys() - spec.keys())
        if unknown:
            raise DataError(f"{key} has unknown key(s) {unknown}; "
                            f"accepted keys are {sorted(spec)}")
        return StrictDict({k: decode_json(v, spec[k], f"{key}.{k}")
                           for k, v in value.items()}, key)
    if isinstance(spec, list):
        if not isinstance(value, list):
            raise DataError(f"{key} must be an array, got {type(value).__name__}")
        items = spec if len(spec) > 1 else spec * len(value)
        if len(value) != len(items):
            raise DataError(f"{key} must have {len(items)} items, got {len(value)}")
        return tuple(decode_json(v, s, f"{key}[{i}]")
                     for i, (v, s) in enumerate(zip(value, items)))
    if isinstance(spec, set):
        if not (isinstance(value, str) and value in spec):
            raise DataError(f"{key} must be one of {sorted(spec)}, got {value!r}")
        return value
    if isinstance(spec, tuple):
        try:
            arr = np.asarray(value)
            ok = (arr.dtype.kind in "if" and np.isfinite(arr).all()
                  and np.broadcast_shapes(arr.shape, spec) == spec)
        except ValueError:          # ragged nesting, or shapes that do not broadcast
            ok = False
        if not ok:
            raise DataError(f"{key} must be a finite number or an array broadcastable "
                            f"to shape {spec}, got {value!r}")
        return arr
    if (isinstance(value, bool) != (spec is bool)
            or not isinstance(value, (int, float) if spec is float else spec)
            or spec is float and not abs(value) <= sys.float_info.max):
        raise DataError(f"{key} must be {_JSON_TYPES[spec]}, got {value!r}")
    return float(value) if spec is float else value

