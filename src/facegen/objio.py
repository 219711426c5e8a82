"""Minimal OBJ import/export for quad meshes.

Only `v`, `vt` and quad `f` lines are handled (1-based indices).  Floats
are written with shortest round-trip decimal formatting, so exporting a
mesh and re-importing it reproduces the coordinates bit-exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import orjson

from .errors import DataError, naming
from .mesh import QuadMesh


def float_lines(values: np.ndarray, prefix: bytes) -> bytes:
    """One line per row of a (n, k) float array: `prefix`, then the row's
    values as `repr(float(x))` writes them, separated by spaces.

    orjson formats the rows with Ryu, the shortest string that round-trips,
    rounded to nearest, so its digits are repr's; only the notation can
    differ.  repr switches to exponent form for nonzero magnitudes below
    1e-4 and from 1e16 on, and orjson writes nan and the infinities as
    null: the few rows holding such a value are written with repr, and the
    runs of rows between them each with one orjson call.
    """
    block = np.ascontiguousarray(values, dtype=np.float64)
    mag = np.abs(block)
    # nan fails both comparisons, so its row is redone too; the rows are
    # found from the flat positions, as numpy reduces a short axis slowly
    bad = ~((mag >= 1e-4) & (mag < 1e16)) & (block != 0)
    redo = np.unique(np.flatnonzero(bad) // max(block.shape[1], 1))
    pieces, start = [], 0
    for row in redo.tolist() + [len(block)]:
        if start < row:
            text = orjson.dumps(block[start:row], option=orjson.OPT_SERIALIZE_NUMPY)
            pieces += [prefix, text[2:-2].replace(b"],[", b"\n" + prefix).replace(b",", b" "),
                       b"\n"]
        if row < len(block):
            pieces += [prefix, " ".join(map(repr, block[row].tolist())).encode(), b"\n"]
        start = row + 1
    return b"".join(pieces)


def obj_topology(quads: np.ndarray, uvs: np.ndarray | None = None) -> bytes:
    """The `vt` and `f` lines that `dump_obj` writes after the vertices.

    They depend only on the topology (and the UVs), so callers that
    write many meshes of one topology format them once and pass them to
    `dump_obj`.
    """
    F = len(quads)
    if uvs is None:
        return (b"f %d %d %d %d\n" * F) % tuple((quads + 1).ravel().tolist())
    corner = np.arange(1, 4 * F + 1).reshape(F, 4)
    tokens = np.stack([quads + 1, corner], axis=2).ravel().tolist()
    return (float_lines(uvs.reshape(-1, 2), b"vt ")
            + (b"f %d/%d %d/%d %d/%d %d/%d\n" * F) % tuple(tokens))


def dump_obj(mesh: QuadMesh, topology: bytes | None = None) -> bytes:
    """OBJ file bytes of `mesh`; `topology` is `obj_topology` of its quads
    and UVs, formatted here when not given."""
    if topology is None:
        topology = obj_topology(mesh.quads, mesh.uvs)
    return float_lines(mesh.vertices, b"v ") + topology or b"\n"   # an empty mesh is one newline


def save_obj(path, mesh: QuadMesh) -> None:
    Path(path).write_bytes(dump_obj(mesh))


def parse_obj(text: str) -> QuadMesh:
    verts: list[list[float]] = []
    uvs: list[list[float]] = []
    faces: list[list[int]] = []
    face_uvs: list[list[int]] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "v":
                if len(parts) < 4:
                    raise DataError(f"line {ln}: malformed vertex")
                verts.append([float(p) for p in parts[1:4]])
            elif tag == "vt":
                if len(parts) < 3:
                    raise DataError(f"line {ln}: malformed texture coord")
                uvs.append([float(p) for p in parts[1:3]])
            elif tag == "f":
                if len(parts) != 5:
                    raise DataError(f"line {ln}: only quad faces are supported")
                vids, tids = [], []
                for tok in parts[1:]:
                    fields = tok.split("/")
                    vids.append(int(fields[0]) - 1)
                    if len(fields) > 1 and fields[1]:
                        tids.append(int(fields[1]) - 1)
                if not all(0 <= t < len(uvs) for t in tids):
                    raise DataError(f"line {ln}: texture coord index out of range")
                faces.append(vids)
                if len(tids) == 4:
                    face_uvs.append(tids)
            # other tags (vn, o, g, s, usemtl, ...) are ignored
        except ValueError as e:
            raise DataError(f"line {ln}: {e}") from e
    if not verts:
        raise DataError("OBJ contains no vertices")
    uv_arr = None
    if face_uvs and len(face_uvs) == len(faces):
        uv_pool = np.asarray(uvs, dtype=np.float64)
        uv_arr = uv_pool[np.asarray(face_uvs, dtype=np.int64)]
    return QuadMesh(np.asarray(verts, dtype=np.float64),
                    np.asarray(faces, dtype=np.int64),
                    uv_arr)


def load_obj(path) -> QuadMesh:
    """parse_obj of a file; every DataError it raises names the file."""
    with naming(path):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise DataError("not UTF-8 text") from e
        return parse_obj(text)
