"""Catmull-Clark subdivision for quad meshes.

One level inserts a face point per face and an edge point per edge and
repositions every original vertex, producing V + E + F vertices and 4F
quads.  Boundary edges and vertices follow the cubic B-spline curve
rules; boundary vertices with other than two boundary edges are pinned.

New vertex layout: [original vertices (repositioned) | face points |
edge points], so original vertex indices stay stable across levels.

Every rule is a fixed linear combination of the previous level's
vertices, so `levels` rounds are one sparse matrix S (V_L x V_0) that
depends only on the topology (Stam 1998; OpenSubdiv's Far::StencilTable).
S is built once per topology and each new set of control points costs a
single sparse product.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import InvalidParam
from .mesh import MeshConnectivity, QuadMesh, build_connectivity, gather_matrix

# the most quads a subdivision may make.  Six levels of the 120-quad desk
# head, 491,520 quads, build a 7.6M-entry stencil at a peak of 270 MB.
MAX_QUADS = 1 << 20


def subdivide_catmull_clark(mesh: QuadMesh, levels: int) -> QuadMesh:
    """Apply `levels` rounds of Catmull-Clark subdivision (levels >= 0)."""
    if levels == 0:
        return mesh
    stencil, quads, uvs = catmull_clark_stencil(mesh, levels)
    return QuadMesh(stencil @ mesh.vertices, quads, uvs)


def catmull_clark_stencil(mesh: QuadMesh, levels: int
                          ) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray | None]:
    """Stencil of `levels` rounds of subdivision on the topology of `mesh`.

    Returns (S, quads, uvs): S is the (V_L, V_0) CSR matrix with
    `S @ mesh.vertices` the subdivided vertices, quads the (4^L F, 4)
    subdivided quads, and uvs the refined per-corner UVs (None when the
    mesh has none).  The vertex positions of `mesh` are not used.  More
    than MAX_QUADS output quads is an InvalidParam, raised before any work.
    """
    if levels < 0:
        raise InvalidParam(f"subdivision levels must be >= 0, got {levels}")
    # 4^11 quads per input quad already exceed the cap: no huge power is formed
    F = len(mesh.quads)
    if F << 2 * min(levels, 11) > MAX_QUADS:
        raise InvalidParam(f"{levels} subdivision levels of {F} quads make "
                           f"{F} * 4^{levels} quads, above the limit of 2^20")
    stencil = sparse.identity(mesh.n_vertices, format="csr")
    quads, uvs = mesh.quads, mesh.uvs
    level_mesh = mesh
    for _ in range(levels):
        level_op, quads = _level_operator(build_connectivity(level_mesh), quads)
        stencil = level_op @ stencil
        level_mesh = QuadMesh(np.zeros((level_op.shape[0], 3)), quads)
        if uvs is not None:
            uvs = _subdivide_uvs(uvs)
    return stencil, quads, uvs


def _level_operator(conn: MeshConnectivity, quads: np.ndarray
                    ) -> tuple[sparse.csr_matrix, np.ndarray]:
    """One level as a ((V + F + E) x V) sparse matrix, plus the new quads."""
    V, E, F = conn.n_vertices, conn.n_edges, conn.n_faces
    edges = conn.edges
    boundary_edge = conn.boundary_edge
    face_vert = gather_matrix(quads, (1, 1, 1, 1), V)
    edge_vert = gather_matrix(edges, (1, 1), V)
    bnd_vert = gather_matrix(edges[boundary_edge], (1, 1), V)

    face_pts = 0.25 * face_vert                       # centroids

    # edge points: interior = (v0 + v1 + f0 + f1)/4, boundary = midpoint
    edge_face = gather_matrix(conn.face_edges, (1, 1, 1, 1), E).T
    edge_pts = (_diag(np.where(boundary_edge, 0.5, 0.25)) @ edge_vert
                + _diag(np.where(boundary_edge, 0.0, 0.25)) @ (edge_face @ face_pts))

    # interior vertices: Q/n + 2R/n + S(n-3)/n with n the valence, Q the mean
    # incident face point and R the mean incident edge midpoint; row v of
    # edge_vert.T @ edge_vert is the sum of both ends of v's edges, 2n R.
    # Crease vertices (two boundary edges): (6S + b0 + b1)/8, where row v of
    # bnd_vert.T @ bnd_vert is 2S + b0 + b1.  Other boundary vertices and
    # isolated ones stay pinned.
    interior = ~conn.boundary_vertex & (conn.valence > 0)
    crease = np.bincount(bnd_vert.indices, minlength=V) == 2
    w_face = np.zeros(V)
    w_edge = np.zeros(V)
    w_self = np.ones(V)
    ni = conn.valence[interior].astype(np.float64)
    w_face[interior] = 1.0 / (np.bincount(quads.ravel(), minlength=V)[interior] * ni)
    w_edge[interior] = 1.0 / (ni * ni)
    w_self[interior] = (ni - 3.0) / ni
    w_self[crease] = 0.5
    vert_pts = (_diag(w_face) @ (face_vert.T @ face_pts)
                + _diag(w_edge) @ (edge_vert.T @ edge_vert)
                + _diag(np.where(crease, 0.125, 0.0)) @ (bnd_vert.T @ bnd_vert)
                + _diag(w_self))
    level_op = sparse.vstack([vert_pts, face_pts, edge_pts], format="csr")

    # per face corner i: (v_i, e(v_i, v_{i+1}), f, e(v_{i-1}, v_i))
    face_row = V + np.arange(F)
    e_next = V + F + conn.face_edges              # edge of side (v_i, v_{i+1})
    e_prev = np.roll(e_next, 1, axis=1)           # edge of side (v_{i-1}, v_i)
    new_quads = np.stack(
        [quads, e_next, np.broadcast_to(face_row[:, None], quads.shape), e_prev],
        axis=2,
    ).reshape(-1, 4)
    return level_op, new_quads


def _diag(weights: np.ndarray) -> sparse.csr_matrix:
    return sparse.diags(weights, format="csr")


def _subdivide_uvs(uvs: np.ndarray) -> np.ndarray:
    """Face-varying linear refinement of per-corner UVs."""
    F = uvs.shape[0]
    corner = uvs
    nxt = np.roll(uvs, -1, axis=1)
    prv = np.roll(uvs, 1, axis=1)
    mid_next = 0.5 * (corner + nxt)
    mid_prev = 0.5 * (corner + prv)
    center = uvs.mean(axis=1, keepdims=True)
    center = np.broadcast_to(center, (F, 4, 2))
    out = np.stack([corner, mid_next, center, mid_prev], axis=2)  # (F, 4, 4, 2)
    return out.reshape(-1, 4, 2)
