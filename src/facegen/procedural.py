"""Procedural desk-scale assets: test meshes, a small head model with a
plausible skeleton and skinning weights, and synthetic expression data.

Production assets (the scanned template, sculpted expression shapes,
hand-painted weights) are proprietary; everything here exists so the
toolkit can be exercised and tested end-to-end without them.
"""

from __future__ import annotations

import numpy as np

from .eyes import quad_uv_sphere
from .learning import ScanSet
from .mesh import QuadMesh, build_connectivity
from .model import BlendshapeModel, Skeleton

HEAD_SCALE = 0.1   # desk head radius, meters


def quad_grid(nx: int, ny: int, spacing: float = 1.0) -> QuadMesh:
    """Planar (nx+1)x(ny+1)-vertex grid of nx*ny quads in the plane z = 0."""
    xs = np.arange(nx + 1) * spacing
    ys = np.arange(ny + 1) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    quads = []
    for i in range(nx):
        for j in range(ny):
            a = i * (ny + 1) + j
            b = (i + 1) * (ny + 1) + j
            quads.append((a, b, b + 1, a + 1))
    return QuadMesh(verts, np.asarray(quads, dtype=np.int64))


def cube_mesh(size: float = 1.0) -> QuadMesh:
    """Axis-aligned cube: 8 vertices, 6 quads, outward-facing."""
    s = size
    verts = np.array([
        [0, 0, 0], [s, 0, 0], [s, s, 0], [0, s, 0],
        [0, 0, s], [s, 0, s], [s, s, s], [0, s, s],
    ], dtype=np.float64)
    quads = np.array([
        [0, 3, 2, 1],   # z=0, facing -z
        [4, 5, 6, 7],   # z=s, facing +z
        [0, 1, 5, 4],   # y=0
        [2, 3, 7, 6],   # y=s
        [0, 4, 7, 3],   # x=0
        [1, 2, 6, 5],   # x=s
    ], dtype=np.int64)
    return QuadMesh(verts, quads)


def desk_skeleton(m: int, scale: float = 0.1, identity_offsets: np.ndarray | None = None,
                  ) -> Skeleton:
    """Skeleton with anatomically plausible pivots and rotation limits.

    Head frame: +y up, +z facing direction, origin at head center.
    """
    s = scale
    t0 = np.array([
        [0.0, -1.1 * s, 0.0],    # neck
        [0.0, -0.35 * s, 0.45 * s],  # jaw
        [-0.3 * s, 0.2 * s, 0.6 * s],   # eye_left
        [0.3 * s, 0.2 * s, 0.6 * s],    # eye_right
    ])
    limits = np.array([
        [[-0.6, 0.6], [-1.0, 1.0], [-0.4, 0.4]],
        [[-0.05, 0.45], [-0.08, 0.08], [-0.05, 0.05]],
        [[-0.55, 0.55], [-0.75, 0.75], [-0.02, 0.02]],
        [[-0.55, 0.55], [-0.75, 0.75], [-0.02, 0.02]],
    ])
    a = np.zeros((4, 3, m)) if identity_offsets is None else identity_offsets
    return Skeleton(t0=t0, a=a, limits=limits)


def softmax_skinning_weights(vertices: np.ndarray, pivots: np.ndarray,
                             temperature: float) -> np.ndarray:
    """Distance-to-pivot softmax falloff; rows nonnegative and sum to 1."""
    d = np.linalg.norm(vertices[:, None, :] - pivots[None, :, :], axis=2)
    logits = -d / temperature
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=1, keepdims=True)


def smooth_vertex_fields(mesh: QuadMesh, count: int, amplitude: float,
                         seed: int, smoothing_steps: int = 4) -> np.ndarray:
    """Random per-vertex displacement fields smoothed over the edge graph."""
    rng = np.random.default_rng(seed)
    conn = build_connectivity(mesh)
    fields = rng.standard_normal((count, mesh.n_vertices, 3))
    from .mesh import uniform_laplacian_matrix
    L = uniform_laplacian_matrix(conn)
    for q in range(count):
        f = fields[q]
        for _ in range(smoothing_steps):
            f = f + 0.5 * (L @ f)
        scale = np.abs(f).max()
        fields[q] = amplitude * f / (scale if scale > 0 else 1.0)
    return fields


def desk_head(m: int = 4, n_expression: int = 51, lat: int = 10, lon: int = 12,
              seed: int = 0, identity_coupling: float = 0.0) -> BlendshapeModel:
    """Small all-quad head: squashed sphere template, smooth random bases,
    softmax skinning, eyelid rings near the eye pivots.

    identity_coupling > 0 adds random identity-dependent pivot offsets, to
    exercise the alpha -> pivot path of the pose transform.
    """
    rng = np.random.default_rng(seed)
    scale = HEAD_SCALE
    sphere = quad_uv_sphere(scale, lat, lon)
    verts = sphere.vertices * np.array([0.78, 1.0, 0.88])
    # sphere poles are on +-z; stand the head up so +y is the crown
    verts = verts[:, [0, 2, 1]] * np.array([1.0, 1.0, -1.0])
    template = QuadMesh(verts, sphere.quads)

    identity_offsets = None
    if identity_coupling > 0:
        identity_offsets = identity_coupling * rng.standard_normal((4, 3, m))
    skel = desk_skeleton(m, scale, identity_offsets)
    weights = softmax_skinning_weights(template.vertices, skel.t0, 0.5 * scale)

    identity_basis = smooth_vertex_fields(template, m, 0.08 * scale, seed + 1)
    expression_basis = smooth_vertex_fields(template, n_expression, 0.05 * scale, seed + 2)

    eye_l, eye_r = skel.t0[2], skel.t0[3]
    dl = np.linalg.norm(template.vertices - eye_l, axis=1)
    dr = np.linalg.norm(template.vertices - eye_r, axis=1)
    lid_radius = 0.45 * scale
    return BlendshapeModel(
        template=template,
        identity_basis=identity_basis,
        expression_basis=expression_basis,
        skeleton=skel,
        skinning_weights=weights,
        eyelid_left=np.nonzero(dl < lid_radius)[0],
        eyelid_right=np.nonzero(dr < lid_radius)[0],
    )


def default_base_model(scans: ScanSet, m: int) -> BlendshapeModel:
    """Base model synthesized from a scan set: mean-scan template, zero
    51-shape expression basis, desk skeleton scaled to the data."""
    template = QuadMesh(scans.vertices.mean(axis=0), scans.quads)
    lo, hi = template.bounding_box()
    scale = 0.5 * float(np.linalg.norm(hi - lo)) or 1.0
    center = 0.5 * (lo + hi)
    skel = desk_skeleton(m, scale)
    skel = Skeleton(t0=skel.t0 + center, a=skel.a, limits=skel.limits)
    weights = softmax_skinning_weights(template.vertices, skel.t0, 0.5 * scale)
    return BlendshapeModel(
        template=template,
        identity_basis=np.zeros((m, template.n_vertices, 3)),
        expression_basis=np.zeros((51, template.n_vertices, 3)),
        skeleton=skel,
        skinning_weights=weights,
    )


def synthetic_expression_library(n_entries: int, n_expr: int = 51,
                                 seed: int = 0) -> np.ndarray:
    """Random sparse activations, 3 per entry, standing in for the captured
    library."""
    rng = np.random.default_rng(seed)
    betas = np.zeros((n_entries, n_expr))
    for i in range(n_entries):
        idx = rng.choice(n_expr, size=min(3, n_expr), replace=False)
        betas[i, idx] = rng.uniform(0.1, 1.0, size=len(idx))
    return betas
