"""Quad-mesh storage, connectivity and the differential quantities used by
the model learner (normals, uniform Laplacian, edge-length energy).

Vertices are float64 meters throughout; indices are int64.  Meshes are
immutable after construction and every operation here is a pure function,
so concurrent evaluation is safe as long as no two threads share a
`Workspace`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .errors import (
    DegenerateQuad,
    IsolatedVertex,
    NonFiniteInput,
    NonManifoldEdge,
    ZeroAreaFace,
)


@dataclass(frozen=True)
class QuadMesh:
    """Fixed-topology quad mesh.

    vertices : (V, 3) float64, meters
    quads    : (F, 4) int64, indices into vertices
    uvs      : optional (F, 4, 2) float64, per-face-corner texture coords
    """

    vertices: np.ndarray
    quads: np.ndarray
    uvs: np.ndarray | None = None

    def __post_init__(self):
        v = _checked_vertices(self.vertices)
        q = np.ascontiguousarray(np.asarray(self.quads, dtype=np.int64))
        if q.ndim != 2 or q.shape[1] != 4:
            raise DegenerateQuad(f"quads must be (F, 4), got {q.shape}")
        if q.size and (q.min() < 0 or q.max() >= len(v)):
            raise DegenerateQuad("quad index out of range")
        # each quad must reference 4 distinct vertices
        s = np.sort(q, axis=1)
        if np.any(s[:, :-1] == s[:, 1:]):
            bad = int(np.argmax(np.any(s[:, :-1] == s[:, 1:], axis=1)))
            raise DegenerateQuad(f"quad {bad} repeats a vertex")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "quads", q)
        if self.uvs is not None:
            uv = np.ascontiguousarray(np.asarray(self.uvs, dtype=np.float64))
            if uv.shape != (len(q), 4, 2):
                raise DegenerateQuad(f"uvs must be (F, 4, 2), got {uv.shape}")
            object.__setattr__(self, "uvs", uv)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_quads(self) -> int:
        return len(self.quads)

    def with_vertices(self, vertices: np.ndarray) -> "QuadMesh":
        """Same topology, new vertex positions.  The quads and UVs were
        checked when this mesh was made, so only the (V, 3) positions are."""
        mesh = object.__new__(QuadMesh)
        object.__setattr__(mesh, "vertices", _checked_vertices(vertices, self.n_vertices))
        object.__setattr__(mesh, "quads", self.quads)
        object.__setattr__(mesh, "uvs", self.uvs)
        return mesh

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def _checked_vertices(vertices, n: int | None = None) -> np.ndarray:
    """`vertices` as a C-ordered (V, 3) float64 array, with V = n when given;
    a non-finite vertex is a NonFiniteInput naming it."""
    v = np.ascontiguousarray(vertices, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 3 or n is not None and len(v) != n:
        raise DegenerateQuad(f"vertices must be ({'V' if n is None else n}, 3), got {v.shape}")
    if not np.isfinite(v).all():
        bad = int(np.argmin(np.isfinite(v).all(axis=1)))
        raise NonFiniteInput(f"vertex {bad} is not finite")
    return v


@dataclass(frozen=True)
class MeshConnectivity:
    """Incidence tables derived deterministically from a quad list.

    edges         : (E, 2) int64, lower index first, lexicographically sorted
    face_edges    : (F, 4) int64, edge id of quad side (v_i, v_{i+1})
    valence       : (V,) int64, edges incident to each vertex
    boundary_edge : (E,) bool, exactly one incident face
    boundary_vertex : (V,) bool, touches a boundary edge
    """

    n_vertices: int
    n_faces: int
    edges: np.ndarray
    face_edges: np.ndarray
    valence: np.ndarray
    boundary_edge: np.ndarray
    boundary_vertex: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def build_connectivity(mesh: QuadMesh) -> MeshConnectivity:
    """Derive the incidence tables of a quad mesh.

    Raises NonManifoldEdge if any undirected edge has more than two
    incident faces.  DegenerateQuad is raised by QuadMesh itself.
    """
    V, F = mesh.n_vertices, mesh.n_quads
    q = mesh.quads

    # directed quad sides (v_i, v_{i+1}), canonicalized to lower-first and
    # keyed lo * V + hi: sorted keys are the pairs in lexicographic order
    a, b = q.ravel(), np.roll(q, -1, axis=1).ravel()                      # (4F,)
    keys, side_to_edge, counts = np.unique(
        np.minimum(a, b) * V + np.maximum(a, b), return_inverse=True, return_counts=True
    )
    edges = np.stack(np.divmod(keys, V), axis=1)
    if np.any(counts > 2):
        bad = edges[np.argmax(counts > 2)]
        raise NonManifoldEdge(f"edge {tuple(bad)} has {int(counts.max())} incident faces")

    boundary_edge = counts == 1
    boundary_vertex = np.zeros(V, dtype=bool)
    boundary_vertex[edges[boundary_edge].ravel()] = True

    return MeshConnectivity(
        n_vertices=V,
        n_faces=F,
        edges=edges,
        face_edges=side_to_edge.reshape(F, 4),
        valence=np.bincount(edges.ravel(), minlength=V),
        boundary_edge=boundary_edge,
        boundary_vertex=boundary_vertex,
    )


def gather_matrix(index: np.ndarray, signs, n: int) -> sparse.csr_matrix:
    """(K, n) CSR matrix whose row k holds signs[c] in column index[k, c]:
    it gathers per-vertex values onto elements (edge vectors, for an edge
    list and signs (1, -1)), and its transpose scatters them back.  Row k
    lists its columns in the order of index[k], which is the order a
    product adds them in; the columns of a row must be distinct."""
    K, c = index.shape
    return sparse.csr_matrix(
        (np.tile(np.asarray(signs, dtype=np.float64), K),
         index.astype(np.int32).ravel(),           # the index type scipy would pick
         np.arange(0, K * c + 1, c, dtype=np.int32)),
        shape=(K, n))


def _kron3(a: sparse.csr_matrix) -> sparse.csr_matrix:
    """kron(I_3, A) for an (R, C) CSR matrix A, built from its arrays
    directly: three copies of A down the diagonal, in A's order."""
    (R, C), nnz = a.shape, a.nnz
    return sparse.csr_matrix(
        (np.tile(a.data, 3),
         np.concatenate([a.indices, a.indices + C, a.indices + 2 * C]),
         np.concatenate([a.indptr[:-1], a.indptr[:-1] + nnz, a.indptr + 2 * nnz])),
        shape=(3 * R, 3 * C))


class Workspace:
    """Scratch arrays for one thread, taken in stack order from one kept
    buffer.  `with ws:` opens a frame: the arrays taken inside it die when
    it closes, and their memory serves the next take.  A take that does
    not fit the buffer is a fresh array; when a frame opens with no array
    live, the buffer first grows to the deepest stack seen, so that the
    arrays of the call that sized it are gone before it is allocated.  So
    a workspace kept across calls stops allocating after its first call,
    and one made for a single call allocates like plain numpy code."""

    _ALIGN = 8      # words: takes start whole 64-byte lines apart

    def __init__(self):
        self._buf = np.empty(0)
        self._top = 0           # words taken by the open frames
        self._peak = 0          # the most words ever taken at once
        self._frames: list[int] = []

    def __enter__(self) -> "Workspace":
        if not self._top and self._peak > self._buf.size:
            self._buf = np.empty(self._peak)
        self._frames.append(self._top)
        return self

    def __exit__(self, *exc) -> None:
        self._top = self._frames.pop()

    def take(self, *shape: int) -> np.ndarray:
        """An uninitialized C-ordered float64 array of `shape`, live until
        the frame it was taken in closes."""
        size = math.prod(shape)
        start = self._top
        self._top = top = start - (-size // self._ALIGN) * self._ALIGN
        if top > self._peak:
            self._peak = top
        if top > self._buf.size:
            return np.empty(shape)
        return self._buf[start:start + size].reshape(shape)


def csr_apply(a: sparse.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`a @ x` for an (R, C) CSR matrix and a (C, n) array, written into a
    C-ordered (R, n) `out`.  scipy's `@` zeroes an output and runs its
    csr_matvecs kernel on it; this does the same on `out`, so the bits are
    those of `@`, without the array `@` would allocate."""
    if a.format != "csr":
        raise ValueError(f"a must be a CSR matrix, not {a.format!r}")
    if x.ndim != 2 or x.shape[0] != a.shape[1]:
        raise ValueError(f"x must be a ({a.shape[1]}, n) array, not {x.shape}")
    shape = (a.shape[0], x.shape[1])
    if out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-ordered {shape} array")
    x = np.ascontiguousarray(x, dtype=np.float64)
    out.fill(0.0)
    _sparsetools.csr_matvecs(a.shape[0], a.shape[1], shape[1], a.indptr, a.indices, a.data,
                             x.ravel(), out.reshape(-1))
    return out


def _block_apply(block: sparse.csr_matrix, x: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
    """`block @ x` on the free (3C, -1) view of x, by csr_apply into `out`
    (a fresh array when None)."""
    # the batch size in full: -1 is undetermined when the operator has no columns
    n = math.prod(x.shape[2:])
    shape = (3, block.shape[0] // 3, *x.shape[2:])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-ordered {shape} array")
    csr_apply(block, x.reshape(block.shape[1], n), out.reshape(block.shape[0], n))
    return out


class BlockOperator(NamedTuple):
    """A sparse (R, C) map A applied to every component slab of a
    component-major (3, C, *batch) array at once: kron(I_3, A) and its
    adjoint kron(I_3, A.T), both stored as CSR.  Each acts on the free
    (3C, -1) view with one product, into a given C-ordered `out` or a
    fresh array."""

    forward: sparse.csr_matrix    # (3R, 3C)
    adjoint: sparse.csr_matrix    # (3C, 3R), forward.T

    @classmethod
    def gather(cls, index: np.ndarray, signs, n: int) -> "BlockOperator":
        """The block operator of `gather_matrix(index, signs, n)`.  Its
        adjoint lists each column's rows in ascending order, so its
        indices are sorted."""
        g = gather_matrix(index, signs, n)
        return cls(_kron3(g), _kron3(g.T.tocsr()))

    @property
    def T(self) -> "BlockOperator":
        return BlockOperator(self.adjoint, self.forward)

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(3, C, *batch) -> (3, R, *batch)"""
        return _block_apply(self.forward, x, out)

    def apply_adjoint(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(3, R, *batch) -> (3, C, *batch)"""
        return _block_apply(self.adjoint, x, out)


@dataclass(frozen=True)
class FaceOperators:
    """Sparse maps between the faces of a quad list and its vertices, on
    component-major (3, K, *batch) arrays.  The normals gather both quad
    diagonals in one product and send each one's gradient back in a
    product of its own, so that every vertex adds its p terms and then its
    r terms; of the diagonals' maps, only these three are kept."""

    accum: BlockOperator            # (V, F) sums face values onto their corners
    diagonals: sparse.csr_matrix    # (6F, 3V) gathers p = v2 - v0, then r = v3 - v1
    p_adjoint: sparse.csr_matrix    # (3V, 3F) adjoint of the gather of p
    r_adjoint: sparse.csr_matrix    # (3V, 3F) adjoint of the gather of r

    @classmethod
    def build(cls, quads: np.ndarray, n_vertices: int) -> "FaceOperators":
        p, r = quads[:, [2, 0]], quads[:, [3, 1]]
        return cls(BlockOperator.gather(quads, (1, 1, 1, 1), n_vertices).T,
                   _kron3(gather_matrix(np.concatenate([p, r]), (1, -1), n_vertices)),
                   *(_kron3(gather_matrix(d, (1, -1), n_vertices).T.tocsr()) for d in (p, r)))

    def gather_diagonals(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(3, V, *batch) -> (3, 2F, *batch): p of every face, then r"""
        return _block_apply(self.diagonals, x, out)

    def scatter_p(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(3, F, *batch) -> (3, V, *batch), the adjoint of the gather of p"""
        return _block_apply(self.p_adjoint, g, out)

    def scatter_r(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(3, F, *batch) -> (3, V, *batch), the adjoint of the gather of r"""
        return _block_apply(self.r_adjoint, g, out)


class Normals(NamedTuple):
    """Vertex normals with the intermediates their adjoint needs."""

    vertex: np.ndarray       # (3, V, *batch) unit vertex normals, zero if degenerate
    face: np.ndarray         # (3, F, *batch) unit face normals, zero if degenerate
    p: np.ndarray            # (3, F, *batch) diagonal v2 - v0
    r: np.ndarray            # (3, F, *batch) diagonal v3 - v1
    face_inv: np.ndarray     # (F, *batch) 1 / |p x r|, zero below 1e-15
    vertex_inv: np.ndarray   # (V, *batch) 1 / |sum of face normals|, zero below 1e-15


def dot3(a: np.ndarray, b: np.ndarray, ws: Workspace) -> np.ndarray:
    """Dot product of component-major (3, K, *batch) arrays of one shape,
    summed component by component, so a mesh rounds alike alone and in a
    batch."""
    out = ws.take(*a.shape[1:])
    np.multiply(a[0], b[0], out=out)
    with ws:
        tmp = ws.take(*out.shape)
        for i in (1, 2):
            out += np.multiply(a[i], b[i], out=tmp)
    return out


def cross3(a: np.ndarray, b: np.ndarray, ws: Workspace) -> np.ndarray:
    """Cross product of component-major (3, K, *batch) arrays of one shape."""
    out = ws.take(*a.shape)
    with ws:
        tmp = ws.take(*out.shape[1:])
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.multiply(a[j], b[k], out=out[i])
            out[i] -= np.multiply(a[k], b[j], out=tmp)
    return out


def _inverse_norm(x: np.ndarray, ws: Workspace) -> np.ndarray:
    out = ws.take(*x.shape[1:])
    with ws:
        mag = dot3(x, x, ws)
        np.sqrt(mag, out=mag)
        out.fill(0.0)     # smaller faces and vertex sums count as zero
        np.divide(1.0, mag, out=out, where=mag >= 1e-15)
    return out


def normals_forward(vertices: np.ndarray, faces: FaceOperators,
                    ws: Workspace | None = None) -> Normals:
    """Vertex normals of component-major (3, V, *batch) vertex sets sharing
    `faces`, their arrays taken from `ws`.

    Face normals come from the cross product of the quad diagonals; each
    vertex normal is the normalized sum of its incident unit face normals.
    """
    ws = ws or Workspace()
    batch = vertices.shape[2:]
    n_faces = faces.diagonals.shape[0] // 6
    diagonals = faces.gather_diagonals(vertices, ws.take(3, 2 * n_faces, *batch))
    p, r = diagonals[:, :n_faces], diagonals[:, n_faces:]
    nhat = cross3(p, r, ws)
    face_inv = _inverse_norm(nhat, ws)
    nhat *= face_inv
    m = faces.accum.apply(nhat, ws.take(3, vertices.shape[1], *batch))
    vertex_inv = _inverse_norm(m, ws)
    m *= vertex_inv
    return Normals(m, nhat, p, r, face_inv, vertex_inv)


def vertex_normals(mesh: QuadMesh | np.ndarray,
                   faces: FaceOperators | None = None) -> np.ndarray:
    """Per-vertex unit normals: normalized sum of incident unit face normals.

    A QuadMesh gets (V, 3) normals.  With `faces`, `mesh` is instead
    component-major (3, V, *batch) vertex sets sharing their quads, the
    operators are reused rather than rebuilt, and the normals come back
    in that layout.  Faces and vertices whose magnitude is below 1e-15 get
    zero normals; zero-area faces are reported with a ZeroAreaFace warning.
    """
    single = faces is None
    if single:
        vertices = np.ascontiguousarray(mesh.vertices.T)
        faces = FaceOperators.build(mesh.quads, mesh.n_vertices)
    else:
        vertices = np.asarray(mesh, dtype=np.float64)
    fwd = normals_forward(vertices, faces)
    n_bad = int(np.count_nonzero(fwd.face_inv == 0.0))
    if n_bad:
        warnings.warn(f"{n_bad} zero-area face(s) skipped in normal computation",
                      ZeroAreaFace)
    return np.ascontiguousarray(fwd.vertex.T) if single else fwd.vertex


def uniform_laplacian_matrix(conn: MeshConnectivity) -> sparse.csr_matrix:
    """Sparse uniform graph Laplacian: (L f)_v = mean of neighbors - f_v."""
    if np.any(conn.valence == 0):
        bad = int(np.nonzero(conn.valence == 0)[0][0])
        raise IsolatedVertex(f"vertex {bad} has no incident edges")
    V = conn.n_vertices
    lo, hi = conn.edges.T
    rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])   # both directions
    off = sparse.csr_matrix((1.0 / conn.valence[rows], (rows, cols)), shape=(V, V))
    return off - sparse.identity(V, format="csr")


def edge_length_energy(vertices: np.ndarray, ref_lengths: np.ndarray,
                       incidence: BlockOperator, ws: Workspace, grad: bool = True
                       ) -> tuple[np.ndarray, np.ndarray | None]:
    """Sum over edges of (|e| - ref_length_e)^2 with its exact gradient.

    Component-major vertices (3, V, *batch) share an edge list;
    `incidence` is its `BlockOperator.gather(edges, (1, -1), V)`.
    Returns (values (*batch), gradient (3, V, *batch), None unless `grad`);
    the gradient is taken from `ws`.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    batch = vertices.shape[2:]
    out = ws.take(*vertices.shape) if grad else None
    with ws:
        d = incidence.apply(vertices, ws.take(3, len(ref_lengths), *batch))
        ln = dot3(d, d, ws)
        np.sqrt(ln, out=ln)
        diff = ws.take(*ln.shape)     # (E,) lengths against (E, *batch)
        np.subtract(ln.T, ref_lengths, out=diff.T)
        values = np.einsum("e...,e...->...", diff, diff)
        if not grad:
            return values, None
        # d|e|/dv_a = (v_a - v_b)/|e|
        np.copyto(ln, 1.0, where=~(ln > 0))
        diff *= 2.0
        diff /= ln
        d *= diff
        incidence.apply_adjoint(d, out)
    return values, out
