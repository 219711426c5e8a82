"""Quad-mesh storage, connectivity and the differential quantities used by
the model learner (normals, uniform Laplacian, edge-length energy).

Vertices are float64 meters throughout; indices are int64.  Meshes are
immutable after construction and every operation here is a pure function,
so concurrent evaluation is safe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

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
    edge_faces    : (E, 2) int64, incident faces, -1 where absent
    face_edges    : (F, 4) int64, edge id of quad side (v_i, v_{i+1})
    vertex_faces  : CSR arrays (vf_indptr, vf_indices)
    neighbors     : CSR arrays (nbr_indptr, nbr_indices) over edge graph
    valence       : (V,) int64, edges incident to each vertex
    boundary_edge : (E,) bool, exactly one incident face
    boundary_vertex : (V,) bool, touches a boundary edge
    """

    n_vertices: int
    n_faces: int
    edges: np.ndarray
    edge_faces: np.ndarray
    face_edges: np.ndarray
    vf_indptr: np.ndarray
    vf_indices: np.ndarray
    nbr_indptr: np.ndarray
    nbr_indices: np.ndarray
    valence: np.ndarray
    boundary_edge: np.ndarray
    boundary_vertex: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    def vertex_face_list(self, v: int) -> np.ndarray:
        return self.vf_indices[self.vf_indptr[v]:self.vf_indptr[v + 1]]

    def vertex_neighbors(self, v: int) -> np.ndarray:
        return self.nbr_indices[self.nbr_indptr[v]:self.nbr_indptr[v + 1]]


def build_connectivity(mesh: QuadMesh) -> MeshConnectivity:
    """Derive all incidence tables for a quad mesh.

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

    E = len(edges)
    face_edges = side_to_edge.reshape(F, 4)

    # edge -> faces (up to 2, -1 padded), filled in face order
    edge_faces = np.full((E, 2), -1, dtype=np.int64)
    face_of_side = np.repeat(np.arange(F, dtype=np.int64), 4)
    order = np.argsort(side_to_edge, kind="stable")
    sorted_edges = side_to_edge[order]
    sorted_faces = face_of_side[order]
    first = np.searchsorted(sorted_edges, np.arange(E))
    cnt = counts
    edge_faces[:, 0] = sorted_faces[first]
    has2 = cnt == 2
    edge_faces[has2, 1] = sorted_faces[first[has2] + 1]

    boundary_edge = cnt == 1

    # vertex -> faces CSR
    vf_order = np.argsort(q.ravel(), kind="stable")
    vf_indices = np.repeat(np.arange(F, dtype=np.int64), 4)[vf_order]
    vf_counts = np.bincount(q.ravel(), minlength=V)
    vf_indptr = np.concatenate([[0], np.cumsum(vf_counts)]).astype(np.int64)

    # vertex neighbors over edges CSR
    both = np.concatenate([edges, edges[:, ::-1]], axis=0)
    nb_order = np.argsort(both[:, 0], kind="stable")
    nbr_indices = both[nb_order, 1]
    valence = np.bincount(edges.ravel(), minlength=V).astype(np.int64)
    nbr_indptr = np.concatenate([[0], np.cumsum(valence)]).astype(np.int64)

    boundary_vertex = np.zeros(V, dtype=bool)
    boundary_vertex[edges[boundary_edge].ravel()] = True

    return MeshConnectivity(
        n_vertices=V,
        n_faces=F,
        edges=edges.astype(np.int64),
        edge_faces=edge_faces,
        face_edges=face_edges,
        vf_indptr=vf_indptr,
        vf_indices=vf_indices,
        nbr_indptr=nbr_indptr,
        nbr_indices=nbr_indices.astype(np.int64),
        valence=valence,
        boundary_edge=boundary_edge,
        boundary_vertex=boundary_vertex,
    )


def signed_incidence(index: np.ndarray, signs, n_vertices: int) -> sparse.csc_matrix:
    """(V, K) matrix whose column k holds signs[c] in row index[k, c]: it
    scatters per-element values onto vertices, and its transpose gathers
    (edge vectors, for an edge list and signs (1, -1)).  The rows of a
    column must be distinct."""
    K, c = index.shape
    data = np.tile(np.asarray(signs, dtype=np.float64), K)
    return sparse.csc_matrix((data, index.ravel(), np.arange(0, K * c + 1, c)),
                             shape=(n_vertices, K))


def _kron3(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
           shape: tuple[int, int]) -> sparse.csr_matrix:
    """kron(I_3, A) for the CSR arrays of an (R, C) matrix A, built from
    them directly: three copies of A down the diagonal, in A's order."""
    (R, C), nnz = shape, len(data)
    return sparse.csr_matrix(
        (np.tile(data, 3),
         np.concatenate([indices, indices + C, indices + 2 * C]),
         np.concatenate([indptr[:-1], indptr[:-1] + nnz, indptr + 2 * nnz])),
        shape=(3 * R, 3 * C))


def _block_apply(block: sparse.csr_matrix, x: np.ndarray) -> np.ndarray:
    return (block @ x.reshape(block.shape[1], -1)).reshape(3, -1, *x.shape[2:])


class BlockOperator(NamedTuple):
    """A sparse (R, C) map A applied to every component slab of a
    component-major (3, C, *batch) array at once: kron(I_3, A) and its
    adjoint kron(I_3, A.T), both stored as CSR.  Each acts on the free
    (3C, -1) view with one product."""

    forward: sparse.csr_matrix    # (3R, 3C)
    adjoint: sparse.csr_matrix    # (3C, 3R), forward.T

    @classmethod
    def gather(cls, index: np.ndarray, signs, n: int) -> "BlockOperator":
        """The (K, n) map whose row k holds signs[c] in column index[k, c],
        the transpose of `signed_incidence(index, signs, n)`: edge vectors
        for an edge list and signs (1, -1).

        Row k lists its columns in the order of index[k], which is the
        order a product adds them in (a face's corners in quad order); the
        adjoint lists each column's rows in ascending order, so its
        indices are sorted."""
        K, c = index.shape
        index = index.astype(np.int32).ravel()   # the index type scipy would pick
        data = np.tile(np.asarray(signs, dtype=np.float64), K)
        by_col = np.argsort(index, kind="stable").astype(np.int32)
        col_ptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(index, minlength=n), out=col_ptr[1:])
        return cls(_kron3(np.arange(0, K * c + 1, c, dtype=np.int32), index, data, (K, n)),
                   _kron3(col_ptr, by_col // c, data[by_col], (n, K)))

    @property
    def T(self) -> "BlockOperator":
        return BlockOperator(self.adjoint, self.forward)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(3, C, *batch) -> (3, R, *batch)"""
        return _block_apply(self.forward, x)

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """(3, R, *batch) -> (3, C, *batch)"""
        return _block_apply(self.adjoint, x)


@dataclass(frozen=True)
class FaceOperators:
    """Sparse maps between the faces of a quad list and its vertices, on
    component-major (3, K, *batch) arrays."""

    accum: BlockOperator      # (V, F) sums face values onto their corners
    diag_p: BlockOperator     # (F, V) gathers the diagonal p = v2 - v0
    diag_r: BlockOperator     # (F, V) gathers the diagonal r = v3 - v1

    @classmethod
    def build(cls, quads: np.ndarray, n_vertices: int) -> "FaceOperators":
        return cls(BlockOperator.gather(quads, (1, 1, 1, 1), n_vertices).T,
                   BlockOperator.gather(quads[:, [2, 0]], (1, -1), n_vertices),
                   BlockOperator.gather(quads[:, [3, 1]], (1, -1), n_vertices))


class Normals(NamedTuple):
    """Vertex normals with the intermediates their adjoint needs."""

    vertex: np.ndarray       # (3, V, *batch) unit vertex normals, zero if degenerate
    face: np.ndarray         # (3, F, *batch) unit face normals, zero if degenerate
    p: np.ndarray            # (3, F, *batch) diagonal v2 - v0
    r: np.ndarray            # (3, F, *batch) diagonal v3 - v1
    face_inv: np.ndarray     # (F, *batch) 1 / |p x r|, zero below 1e-15
    vertex_inv: np.ndarray   # (V, *batch) 1 / |sum of face normals|, zero below 1e-15


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of component-major (3, K, *batch) arrays, summed
    component by component, so a mesh rounds alike alone and in a batch."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of component-major (3, K, *batch) arrays."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    tmp = np.empty(out.shape[1:])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        np.multiply(a[k], b[j], out=tmp)
        out[i] -= tmp
    return out


def _inverse_norm(x: np.ndarray) -> np.ndarray:
    mag = np.sqrt(dot3(x, x))
    ok = mag >= 1e-15     # smaller faces and vertex sums count as zero
    return np.where(ok, 1.0 / np.where(ok, mag, 1.0), 0.0)


def normals_forward(vertices: np.ndarray, faces: FaceOperators) -> Normals:
    """Vertex normals of component-major (3, V, *batch) vertex sets sharing
    `faces`.

    Face normals come from the cross product of the quad diagonals; each
    vertex normal is the normalized sum of its incident unit face normals.
    """
    p = faces.diag_p.apply(vertices)
    r = faces.diag_r.apply(vertices)
    nhat = cross3(p, r)
    face_inv = _inverse_norm(nhat)
    nhat *= face_inv
    m = faces.accum.apply(nhat)
    vertex_inv = _inverse_norm(m)
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
    inv_deg = 1.0 / conn.valence
    rows = np.repeat(np.arange(V), np.diff(conn.nbr_indptr))
    data = inv_deg[rows]
    off = sparse.csr_matrix((data, (rows, conn.nbr_indices)), shape=(V, V))
    return off - sparse.identity(V, format="csr")


def edge_length_energy(vertices: np.ndarray, ref_lengths: np.ndarray,
                       incidence: BlockOperator, grad: bool = True
                       ) -> tuple[np.ndarray, np.ndarray | None]:
    """Sum over edges of (|e| - ref_length_e)^2 with its exact gradient.

    Component-major vertices (3, V, *batch) share an edge list;
    `incidence` is its `BlockOperator.gather(edges, (1, -1), V)`.
    Returns (values (*batch), gradient (3, V, *batch), None unless `grad`).
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    d = incidence.apply(vertices)
    ln = np.sqrt(dot3(d, d))
    diff = (ln.T - ref_lengths).T        # (E,) lengths against (E, *batch)
    values = np.einsum("e...,e...->...", diff, diff)
    if not grad:
        return values, None
    # d|e|/dv_a = (v_a - v_b)/|e|
    safe = np.where(ln > 0, ln, 1.0)
    d *= 2.0 * diff / safe
    return values, incidence.apply_adjoint(d)
