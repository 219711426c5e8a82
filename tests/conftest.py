"""Shared helpers: procedural meshes, tiny models and grooms for tests."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import ndimage, sparse
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from facegen.errors import EmptyComponent, NonManifoldEdge, SingularComponent
from facegen.gmm import GaussianMixture, _kmeanspp_centers
from facegen.adam import AdamState, adam_step
from facegen.learning import (
    GLOBAL_ROT_LIMITS,
    LossContext,
    LossPlan,
    LossWeights,
    ScanSet,
    ThetaBlocks,
    _data_term,
    _init_phi,
    barrier4,
    total_loss,
)
from facegen.mesh import Normals, QuadMesh, Workspace, edge_length_energy, gather_matrix
from facegen.model import (
    BlendshapeModel,
    Skeleton,
    euler_xyz,
    euler_xyz_grad,
    evaluate_unposed,
    lbs_adjoint,
    lbs_apply,
    pose_derivatives,
)
from facegen.procedural import cube_mesh, quad_grid, softmax_skinning_weights
from facegen.eyes import quad_uv_sphere


def torus_mesh(nu: int = 8, nv: int = 6, R: float = 1.0, r: float = 0.3) -> QuadMesh:
    """Closed quad torus with nu*nv vertices."""
    u = 2 * np.pi * np.arange(nu) / nu
    v = 2 * np.pi * np.arange(nv) / nv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = (R + r * np.cos(vv)) * np.cos(uu)
    y = (R + r * np.cos(vv)) * np.sin(uu)
    z = r * np.sin(vv)
    verts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    quads = []
    for i in range(nu):
        for j in range(nv):
            a = i * nv + j
            b = ((i + 1) % nu) * nv + j
            j1 = (j + 1) % nv
            quads.append((a, b, ((i + 1) % nu) * nv + j1, i * nv + j1))
    return QuadMesh(verts, np.asarray(quads, dtype=np.int64))


def random_closed_mesh(rng: np.random.Generator) -> QuadMesh:
    """A random closed manifold quad mesh (cube, torus or quad sphere),
    with jittered vertices."""
    kind = rng.integers(3)
    if kind == 0:
        mesh = cube_mesh(size=float(rng.uniform(0.5, 2.0)))
        jitter = 0.05
    elif kind == 1:
        mesh = torus_mesh(int(rng.integers(4, 10)), int(rng.integers(4, 8)),
                          R=float(rng.uniform(0.8, 1.5)), r=float(rng.uniform(0.2, 0.4)))
        jitter = 0.02
    else:
        mesh = quad_uv_sphere(float(rng.uniform(0.5, 1.5)),
                              int(rng.integers(4, 9)), 2 * int(rng.integers(2, 6)))
        jitter = 0.02
    v = mesh.vertices + jitter * rng.standard_normal(mesh.vertices.shape)
    return QuadMesh(v, mesh.quads)


def brute_force_face_normals(mesh: QuadMesh) -> np.ndarray:
    """Unit face normals by a direct loop; zero below magnitude 1e-15."""
    fn = np.zeros((mesh.n_quads, 3))
    for fi, q in enumerate(mesh.quads):
        d1 = mesh.vertices[q[2]] - mesh.vertices[q[0]]
        d2 = mesh.vertices[q[3]] - mesh.vertices[q[1]]
        c = np.cross(d1, d2)
        n = np.linalg.norm(c)
        if n >= 1e-15:
            fn[fi] = c / n
    return fn


def brute_force_vertex_normals(mesh: QuadMesh) -> np.ndarray:
    """Per-vertex normals by direct loops, independent of mesh.vertex_normals."""
    fn = brute_force_face_normals(mesh)
    out = np.zeros((mesh.n_vertices, 3))
    for fi, q in enumerate(mesh.quads):
        for v in q:
            out[v] += fn[fi]
    for v in range(mesh.n_vertices):
        n = np.linalg.norm(out[v])
        if n >= 1e-15:
            out[v] /= n
    return out


def tiny_problem(rng: np.random.Generator, V_grid=(3, 4), n_scans=2, m=2,
                 n_expr=4, with_pose=True):
    """Small random learning instance used by the gradient suites.

    Returns (base model, scan set, theta blocks, phi)."""
    nx, ny = V_grid
    V = (nx + 1) * (ny + 1)
    grid = quad_grid(nx, ny, spacing=0.05)
    template = QuadMesh(grid.vertices + 0.004 * rng.standard_normal((V, 3)),
                        grid.quads)
    t0 = rng.uniform(-0.05, 0.2, (4, 3))
    a = 0.02 * rng.standard_normal((4, 3, m))
    limits = np.stack([np.full((4, 3), -1.0), np.full((4, 3), 1.0)], axis=-1)
    skel = Skeleton(t0, a, limits)
    weights = softmax_skinning_weights(template.vertices, t0, 0.1)
    base = BlendshapeModel(
        template,
        0.01 * rng.standard_normal((m, V, 3)),
        0.01 * rng.standard_normal((n_expr, V, 3)),
        skel, weights)
    scans = ScanSet(template.vertices + 0.01 * rng.standard_normal((n_scans, V, 3)),
                    grid.quads,
                    tuple(f"scan_{i}" for i in range(n_scans)))
    pose_scale = 0.2 if with_pose else 0.0
    theta = ThetaBlocks(
        alpha=0.5 * rng.standard_normal((n_scans, m)),
        beta=rng.uniform(0.05, 0.95, (n_scans, n_expr)),
        joint_angles=pose_scale * rng.standard_normal((n_scans, 4, 3)),
        global_rot=pose_scale * rng.standard_normal((n_scans, 3)),
        global_trans=0.1 * pose_scale * rng.standard_normal((n_scans, 3)),
    )
    phi = 0.01 * rng.standard_normal((m, V, 3))
    return base, scans, theta, phi


def fd_gradient_check(base, scans, theta, phi, weights=None, h=1e-6,
                      frozen=frozenset()):
    """Max relative error between analytic gradients and central finite
    differences, over every parameter block not in `frozen`."""
    weights = weights or LossWeights()
    plan = LossPlan.build(LossContext.build(scans, base), frozen, theta)
    res = total_loss(theta, phi, scans, weights, base, plan=plan, frozen=frozen)

    def loss(th, ph):
        return total_loss(th, ph, scans, weights, base, plan=plan, frozen=frozen).total

    blocks = ("phi", "alpha", "beta", "joint_angles", "global_rot", "global_trans")
    assert res.grads.keys() == set(blocks) - frozen
    worst = 0.0
    for name in blocks:
        if name in frozen:
            continue
        arr = phi if name == "phi" else getattr(theta, name)
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            ap = arr.copy(); ap[ix] += h
            am = arr.copy(); am[ix] -= h
            if name == "phi":
                fp, fm = loss(theta, ap), loss(theta, am)
            else:
                fp = loss(dataclasses.replace(theta, **{name: ap}), phi)
                fm = loss(dataclasses.replace(theta, **{name: am}), phi)
            fd[ix] = (fp - fm) / (2.0 * h)
        denom = max(np.abs(fd).max(), 1e-10)
        worst = max(worst, float(np.abs(res.grads[name] - fd).max() / denom))
    return worst


def total_loss_reference(theta, phi, scans, weights, base, ctx):
    """learning.total_loss with every block differentiated, written without
    the frozen-block branches and with the pivot Jacobian built inline: an
    unfrozen call must match it bit for bit.  Returns (total, grads)."""
    N, V, m = scans.n_scans, scans.n_vertices, phi.shape[0]
    order, inv_order = ctx.order, ctx.inv_order
    alpha, beta = theta.alpha[order], theta.beta[order]
    joint_angles = theta.joint_angles[order]
    global_rot, global_trans = theta.global_rot[order], theta.global_trans[order]
    w, skel = base.skinning_weights, base.skeleton

    vbar = evaluate_unposed(dataclasses.replace(base, identity_basis=phi), alpha, beta)
    der = pose_derivatives(skel, alpha, joint_angles)
    R = skel.joint_rotations(joint_angles)
    eye = np.eye(3)
    db_dpiv = np.zeros((N, 4, 4, 3, 3))
    db_dpiv[:, 0, 0] = eye - R[:, 0]
    for j in (1, 2, 3):
        db_dpiv[:, j, 0] = eye - R[:, 0]
        db_dpiv[:, j, j] = R[:, 0] @ (eye - R[:, j])
    v_out = lbs_apply(w, der.R_w, der.b_w, vbar)
    R_g = euler_xyz(global_rot)
    y = v_out @ np.swapaxes(R_g, 1, 2) + global_trans[:, None, :]
    y_cm = np.ascontiguousarray(y.transpose(2, 1, 0))
    vert_vals, norm_vals, data_grad_y = _data_term(
        y_cm, ctx.targets, ctx.target_normals, ctx.faces,
        weights.w_vertex, weights.w_normal)
    edge_vals, edge_grad_y = edge_length_energy(y_cm, ctx.ref_edge_lengths, ctx.incidence,
                                                Workspace())
    bexpr_val, bexpr_der = barrier4(beta, 0.0, 1.0)
    bpose_val, bpose_der = barrier4(joint_angles, skel.limits[..., 0], skel.limits[..., 1])
    bglob_val, bglob_der = barrier4(global_rot, *GLOBAL_ROT_LIMITS)
    phi_flat = phi.transpose(1, 0, 2).reshape(V, m * 3)
    lap_phi = ctx.laplacian @ phi_flat
    total = (weights.w_vertex * float(vert_vals.sum())
             + weights.w_normal * float(norm_vals.sum())
             + weights.w_barrier_expr * float(bexpr_val.sum())
             + weights.w_barrier_pose * float(bpose_val.sum() + bglob_val.sum())
             + weights.w_id_coeff * float(np.einsum("nq,nq->", alpha, alpha))
             + weights.w_id_basis * float(np.einsum("qva,qva->", phi, phi))
             + weights.w_laplacian * float(np.einsum("ij,ij->", lap_phi, lap_phi))
             + weights.w_edge * float(edge_vals.sum()))

    dLdy = np.ascontiguousarray(
        (data_grad_y + weights.w_edge * edge_grad_y).transpose(2, 1, 0))
    g_gtrans = dLdy.sum(axis=1)
    M_g = np.swapaxes(dLdy, 1, 2) @ v_out
    g_grot = (np.einsum("nkab,nab->nk", euler_xyz_grad(global_rot), M_g)
              + weights.w_barrier_pose * bglob_der)
    dLdv_out = dLdy @ R_g
    g_t = np.ascontiguousarray(np.swapaxes(dLdv_out, 1, 2))
    vbar1 = np.concatenate([vbar, np.ones((N, V, 1))], axis=2)
    moments = np.stack([(g_t * w_i) @ vbar1 for w_i in w.T], axis=1)
    M, s = moments[..., :3], moments[..., 3]
    g_angles = (np.einsum("nijkab,niab->njk", der.dR_w, M)
                + np.einsum("nijka,nia->njk", der.db_w, s)
                + weights.w_barrier_pose * bpose_der)
    g_pivot = np.einsum("nijab,nia->njb", db_dpiv, s)
    dLdvbar = lbs_adjoint(w, der.R_w, dLdv_out, Workspace()).reshape(N, V * 3)
    g_alpha = (dLdvbar @ phi.reshape(m, V * 3).T
               + np.einsum("njb,jbq->nq", g_pivot, skel.a)
               + weights.w_id_coeff * 2.0 * alpha)
    g_beta = (dLdvbar @ base.expression_basis.reshape(-1, V * 3).T
              + weights.w_barrier_expr * bexpr_der)
    g_phi = ((alpha.T @ dLdvbar).reshape(m, V, 3)
             + weights.w_id_basis * 2.0 * phi
             + weights.w_laplacian * 2.0
             * (ctx.lap_gram @ phi_flat).reshape(V, m, 3).transpose(1, 0, 2))
    grads = {"phi": g_phi, "alpha": g_alpha[inv_order], "beta": g_beta[inv_order],
             "joint_angles": g_angles[inv_order], "global_rot": g_grot[inv_order],
             "global_trans": g_gtrans[inv_order]}
    return float(total), grads


def fit_reference(scans, m, schedule, base, weights=None, seed=0):
    """learning.fit's loop with total_loss_reference, which differentiates
    every block, dropping the frozen blocks' gradients before each Adam
    step: the reference for a fit that skips their derivative work.  Early
    stop is not modelled.  Returns (trajectory, final phi, final alphas)."""
    weights = weights or LossWeights()
    frozen = ({"beta"} if schedule.freeze_beta else set()) | (
        {"joint_angles", "global_rot", "global_trans"} if schedule.freeze_pose else set())
    ctx = LossContext.build(scans, base)
    phi = _init_phi(scans, base.template.vertices, m, schedule,
                    np.random.default_rng(seed))
    params = {"phi": phi,
              **ThetaBlocks.zeros(scans.n_scans, m, base.n_expression).as_dict()}
    state = AdamState()
    trajectory = []
    for _ in range(schedule.iterations):
        theta = ThetaBlocks(params["alpha"], params["beta"], params["joint_angles"],
                            params["global_rot"], params["global_trans"])
        total, grads = total_loss_reference(theta, params["phi"], scans, weights,
                                            base, ctx)
        trajectory.append(total)
        grads = {k: g for k, g in grads.items() if k not in frozen}
        params = adam_step(state, params, grads, schedule.lr,
                           schedule.beta1, schedule.beta2, schedule.eps)
    return trajectory, params["phi"], params["alpha"]


def clustered_groom(rng: np.random.Generator, n_strands=200, R=16,
                    n_clusters=8, scale=0.1):
    """Procedural groom with texel-clustered roots and a smooth curved
    strand field; designed so encode/decode roundtrips are meaningful."""
    from facegen.hair import Groom

    texels = rng.choice(R * R, size=n_clusters, replace=False)
    iu, iv = texels // R, texels % R
    per = n_strands // n_clusters
    counts = np.full(n_clusters, per)
    counts[: n_strands - per * n_clusters] += 1

    lean = rng.uniform(-0.3, 0.3, size=2)
    strands = []
    uvs = []
    for c in range(n_clusters):
        length = rng.uniform(0.4, 0.8) * scale
        for _ in range(counts[c]):
            u = (iu[c] + rng.integers(1, 1024) / 1024.0) / R
            v = (iv[c] + rng.integers(1, 1024) / 1024.0) / R
            uvs.append((u, v))
            root = np.array([u * scale, v * scale, 0.0])
            npts = 12
            h = length / npts
            p = root.copy()
            pts = [p.copy()]
            for s in range(npts):
                t = s / npts
                d = np.array([lean[0] * t, lean[1] * t, 1.0])
                d /= np.linalg.norm(d)
                p = p + h * d
                pts.append(p.copy())
            strands.append(np.asarray(pts))
    return Groom(tuple(strands), np.asarray(uvs))


def resample_strand_reference(points: np.ndarray, spacing: float
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Positions and unit tangents at uniform arc-length midpoints of one
    strand, computed strand by strand: the reference for encode_groom's
    ragged resampling."""
    seg = np.diff(points, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    keep = seg_len > 0
    if not np.any(keep):
        return np.empty((0, 3)), np.empty((0, 3))
    seg = seg[keep]
    seg_len = seg_len[keep]
    starts = points[:-1][keep]
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    n = max(1, int(np.floor(total / spacing)))
    s = (np.arange(n) + 0.5) * (total / n)
    seg_idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
    t = (s - cum[seg_idx]) / seg_len[seg_idx]
    pos = starts[seg_idx] + t[:, None] * seg[seg_idx]
    tang = seg[seg_idx] / seg_len[seg_idx, None]
    return pos, tang


def encode_reference(groom, R: int, G: int, bbox: np.ndarray):
    """(length_map, flow_volume) of encode_groom, strand by strand."""
    idx = np.clip(np.floor(groom.root_uv * R).astype(np.int64), 0, R - 1)
    counts = np.zeros((R, R))
    lsum = np.zeros((R, R))
    for (iu, iv), strand in zip(idx, groom.strands):
        counts[iu, iv] += 1.0
        lsum[iu, iv] += float(np.linalg.norm(np.diff(strand, axis=0), axis=1).sum())
    length_map = np.divide(lsum, counts, out=np.zeros_like(lsum), where=counts > 0)
    cell = (bbox[1] - bbox[0]) / G
    acc = np.zeros((G, G, G, 3))
    for strand in groom.strands:
        pos, tang = resample_strand_reference(strand, 0.5 * float(cell.min()))
        ijk = np.clip(((pos - bbox[0]) / cell).astype(np.int64), 0, G - 1)
        np.add.at(acc, (ijk[:, 0], ijk[:, 1], ijk[:, 2]), tang)
    norms = np.linalg.norm(acc, axis=3)
    nz = norms > 1e-8
    flow = np.zeros_like(acc)
    flow[nz] = acc[nz] / norms[nz][:, None]
    return length_map, flow



def pore_map_reference(texture, sigma: float) -> np.ndarray:
    """pore_map in one pass of each filter over the whole image: the
    reference for its row bands."""
    from facegen.poremap import gaussian_kernel1d

    img = np.asarray(texture, dtype=np.float64)
    k = gaussian_kernel1d(sigma)
    smooth = ndimage.convolve1d(img, k, axis=0, mode="nearest")
    smooth = ndimage.convolve1d(smooth, k, axis=1, mode="nearest")
    lap_kernel = np.array([[0.0, 1.0, 0.0],
                           [1.0, -4.0, 1.0],
                           [0.0, 1.0, 0.0]])
    lap = ndimage.convolve(smooth, lap_kernel, mode="nearest")
    return sigma * sigma * lap

@dataclasses.dataclass(frozen=True)
class ConnectivityReference:
    """Every incidence table of a quad mesh, built independently of
    mesh.build_connectivity: the fields of MeshConnectivity plus the
    edge-face, vertex-face and neighbour tables the references read."""

    n_vertices: int
    n_faces: int
    edges: np.ndarray            # (E, 2) lower index first, lexicographic
    face_edges: np.ndarray       # (F, 4) edge id of quad side (v_i, v_{i+1})
    valence: np.ndarray          # (V,) edges incident to each vertex
    boundary_edge: np.ndarray    # (E,) exactly one incident face
    boundary_vertex: np.ndarray  # (V,) touches a boundary edge
    edge_faces: np.ndarray       # (E, 2) incident faces in face order, -1 where absent
    vf_indptr: np.ndarray        # vertex -> faces CSR, faces ascending
    vf_indices: np.ndarray
    nbr_indptr: np.ndarray       # vertex -> neighbours CSR over the edges:
    nbr_indices: np.ndarray      # higher neighbours first, then lower ones

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_faces(self, v: int) -> np.ndarray:
        return self.vf_indices[self.vf_indptr[v]:self.vf_indptr[v + 1]]

    def vertex_neighbors(self, v: int) -> np.ndarray:
        return self.nbr_indices[self.nbr_indptr[v]:self.nbr_indptr[v + 1]]


def build_connectivity_reference(mesh: QuadMesh) -> ConnectivityReference:
    """Incidence tables with the edges found by `np.unique` over the rows
    of the canonical (lo, hi) side pairs and every other table by stable
    argsorts: the reference the 1-D edge keys of mesh.build_connectivity
    are checked against, table for table."""
    V, F = mesh.n_vertices, mesh.n_quads
    q = mesh.quads
    sides = np.stack([q, np.roll(q, -1, axis=1)], axis=2).reshape(-1, 2)
    edges, side_to_edge, counts = np.unique(
        np.sort(sides, axis=1), axis=0, return_inverse=True, return_counts=True)
    if np.any(counts > 2):
        bad = edges[np.argmax(counts > 2)]
        raise NonManifoldEdge(f"edge {tuple(bad)} has {int(counts.max())} incident faces")
    E = len(edges)
    side_to_edge = side_to_edge.ravel()
    edge_faces = np.full((E, 2), -1, dtype=np.int64)
    order = np.argsort(side_to_edge, kind="stable")
    sorted_faces = np.repeat(np.arange(F, dtype=np.int64), 4)[order]
    first = np.searchsorted(side_to_edge[order], np.arange(E))
    edge_faces[:, 0] = sorted_faces[first]
    has2 = counts == 2
    edge_faces[has2, 1] = sorted_faces[first[has2] + 1]
    both = np.concatenate([edges, edges[:, ::-1]], axis=0)
    valence = np.bincount(edges.ravel(), minlength=V).astype(np.int64)
    boundary_vertex = np.zeros(V, dtype=bool)
    boundary_vertex[edges[counts == 1].ravel()] = True
    return ConnectivityReference(
        n_vertices=V,
        n_faces=F,
        edges=edges.astype(np.int64),
        face_edges=side_to_edge.reshape(F, 4),
        valence=valence,
        boundary_edge=counts == 1,
        boundary_vertex=boundary_vertex,
        edge_faces=edge_faces,
        vf_indptr=np.concatenate([[0], np.cumsum(np.bincount(q.ravel(), minlength=V))]
                                 ).astype(np.int64),
        vf_indices=np.repeat(np.arange(F, dtype=np.int64), 4)[
            np.argsort(q.ravel(), kind="stable")],
        nbr_indptr=np.concatenate([[0], np.cumsum(valence)]).astype(np.int64),
        nbr_indices=both[np.argsort(both[:, 0], kind="stable"), 1].astype(np.int64),
    )


def uniform_laplacian_reference(conn: ConnectivityReference) -> sparse.csr_matrix:
    """mesh.uniform_laplacian_matrix built row by row from the neighbour
    CSR table: the construction the edge-list Laplacian is checked against
    array for array."""
    V = conn.n_vertices
    rows = np.repeat(np.arange(V), np.diff(conn.nbr_indptr))
    off = sparse.csr_matrix(((1.0 / conn.valence)[rows], (rows, conn.nbr_indices)),
                            shape=(V, V))
    return off - sparse.identity(V, format="csr")


def subdivide_reference(mesh: QuadMesh, levels: int) -> QuadMesh:
    """Catmull-Clark by direct per-level float evaluation of each rule: the
    reference the sparse subdivision stencil is checked against."""
    for _ in range(levels):
        mesh = _subdivide_once_reference(mesh)
    return mesh


def _subdivide_once_reference(mesh: QuadMesh) -> QuadMesh:
    conn = build_connectivity_reference(mesh)
    V, E, F = conn.n_vertices, conn.n_edges, conn.n_faces
    verts = mesh.vertices
    quads = mesh.quads

    face_pts = verts[quads].mean(axis=1)  # centroids

    # edge points: interior = (v0 + v1 + f0 + f1)/4, boundary = midpoint
    emid = 0.5 * (verts[conn.edges[:, 0]] + verts[conn.edges[:, 1]])
    edge_pts = np.empty((E, 3))
    interior = ~conn.boundary_edge
    f0 = conn.edge_faces[interior, 0]
    f1 = conn.edge_faces[interior, 1]
    edge_pts[interior] = 0.25 * (
        verts[conn.edges[interior, 0]] + verts[conn.edges[interior, 1]]
        + face_pts[f0] + face_pts[f1]
    )
    edge_pts[conn.boundary_edge] = emid[conn.boundary_edge]

    vertex_pts = _vertex_points_reference(conn, verts, face_pts, emid)
    new_verts = np.concatenate([vertex_pts, face_pts, edge_pts], axis=0)

    # per face corner i: (v_i, e(v_i, v_{i+1}), f, e(v_{i-1}, v_i))
    fp = V + np.arange(F, dtype=np.int64)
    e_next = V + F + conn.face_edges
    e_prev = np.roll(e_next, 1, axis=1)
    new_quads = np.stack(
        [quads, e_next, np.broadcast_to(fp[:, None], quads.shape), e_prev],
        axis=2,
    ).reshape(-1, 4)

    new_uvs = None
    if mesh.uvs is not None:
        uvs = mesh.uvs
        mid_next = 0.5 * (uvs + np.roll(uvs, -1, axis=1))
        mid_prev = 0.5 * (uvs + np.roll(uvs, 1, axis=1))
        center = np.broadcast_to(uvs.mean(axis=1, keepdims=True), (F, 4, 2))
        new_uvs = np.stack([uvs, mid_next, center, mid_prev], axis=2).reshape(-1, 4, 2)
    return QuadMesh(new_verts, new_quads, new_uvs)


def _vertex_points_reference(conn, verts, face_pts, emid):
    V = conn.n_vertices
    out = verts.copy()
    boundary = conn.boundary_vertex
    interior = ~boundary

    if np.any(interior):
        # Q/n + 2R/n + S(n-3)/n with n the valence, Q the mean incident
        # face point, R the mean incident edge midpoint
        q_acc = np.zeros((V, 3))
        row_vertex = np.repeat(np.arange(V), np.diff(conn.vf_indptr))
        np.add.at(q_acc, row_vertex, face_pts[conn.vf_indices])
        r_acc = np.zeros((V, 3))
        np.add.at(r_acc, conn.edges[:, 0], emid)
        np.add.at(r_acc, conn.edges[:, 1], emid)

        n_faces_per_v = np.diff(conn.vf_indptr)
        n = conn.valence.astype(np.float64)
        idx = interior & (n > 0)
        q = q_acc[idx] / n_faces_per_v[idx, None]
        r = r_acc[idx] / n[idx, None]
        s = verts[idx]
        out[idx] = (q + 2.0 * r + (n[idx, None] - 3.0) * s) / n[idx, None]

    if np.any(boundary):
        # crease rule (6S + b0 + b1)/8 using the two boundary neighbors
        bedges = conn.edges[conn.boundary_edge]
        bv = np.nonzero(boundary)[0]
        acc = np.zeros((V, 3))
        cnt = np.zeros(V, dtype=np.int64)
        for a, b in ((0, 1), (1, 0)):
            np.add.at(acc, bedges[:, a], verts[bedges[:, b]])
            np.add.at(cnt, bedges[:, a], 1)
        sel = bv[cnt[bv] == 2]
        out[sel] = (6.0 * verts[sel] + acc[sel]) / 8.0
        # vertices on more than two boundary edges stay pinned
    return out


def lbs_apply_reference(weights, R_w, b_w, unposed):
    """Delta-form linear-blend skinning by per-vertex einsum contractions:
    the reference for the GEMM blends of model.lbs_apply."""
    delta = np.einsum("vi,...iab->...vab", weights, R_w - np.eye(3))
    blend_b = np.einsum("vi,...ia->...va", weights, b_w)
    return unposed + np.einsum("...vab,...vb->...va", delta, unposed) + blend_b


def lbs_adjoint_reference(weights, R_w, grad):
    """g + sum_i w_vi (R_i - I)^T g by one einsum contraction: the
    reference for model.lbs_adjoint."""
    return grad + np.einsum("vi,...iab,...va->...vb", weights, R_w - np.eye(3), grad)


def sparse_apply_reference(A, x: np.ndarray) -> np.ndarray:
    """A @ x along axis -2 of a batch-major (..., K, C) array, by transposing
    it to (K, C * batch) and back."""
    *lead, K, C = x.shape
    B = math.prod(lead)
    out = A @ x.reshape(B, K, C).transpose(1, 0, 2).reshape(K, B * C)
    out = np.ascontiguousarray(out.reshape(A.shape[0], B, C).transpose(1, 0, 2))
    return out.reshape(*lead, A.shape[0], C)


def _inverse_norm_reference(x: np.ndarray) -> np.ndarray:
    mag = np.linalg.norm(x, axis=-1)
    ok = mag >= 1e-15
    return np.where(ok, 1.0 / np.where(ok, mag, 1.0), 0.0)


def normals_forward_reference(vertices: np.ndarray, quads: np.ndarray) -> Normals:
    """Normals of batch-major (..., V, 3) vertex sets by fancy-indexed
    diagonals and np.cross: the reference for mesh.normals_forward, its
    fields batch-major too."""
    accum = gather_matrix(quads, (1, 1, 1, 1), vertices.shape[-2]).T
    p = vertices[..., quads[:, 2], :] - vertices[..., quads[:, 0], :]
    r = vertices[..., quads[:, 3], :] - vertices[..., quads[:, 1], :]
    u = np.cross(p, r)
    face_inv = _inverse_norm_reference(u)
    nhat = u * face_inv[..., None]
    m = sparse_apply_reference(accum, nhat)
    vertex_inv = _inverse_norm_reference(m)
    return Normals(m * vertex_inv[..., None], nhat, p, r, face_inv, vertex_inv)


def data_term_reference(y, targets, target_normals, quads, w_vertex, w_normal):
    """learning._data_term on batch-major (N, V, 3) arrays, its sparse
    products applied through transposing copies: the reference for the
    component-major data term."""
    V = y.shape[-2]
    accum = gather_matrix(quads, (1, 1, 1, 1), V).T
    diag_p = gather_matrix(quads[:, [2, 0]], (1, -1), V).T
    diag_r = gather_matrix(quads[:, [3, 1]], (1, -1), V).T
    diff = y - targets
    vert_vals = np.einsum("nva,nva->n", diff, diff) / V
    fwd = normals_forward_reference(y, quads)
    n, nhat = fwd.vertex, fwd.face
    norm_vals = 1.0 - np.einsum("nva,nva->nv", n, target_normals).mean(axis=1)
    g_n = -target_normals / V
    g_m = (g_n - n * np.einsum("nva,nva->nv", n, g_n)[..., None]) \
        * fwd.vertex_inv[..., None]
    g_nhat = sparse_apply_reference(accum.T, g_m)
    g_u = (g_nhat - nhat * np.einsum("nfa,nfa->nf", nhat, g_nhat)[..., None]) \
        * fwd.face_inv[..., None]
    g_normal = (sparse_apply_reference(diag_p, np.cross(fwd.r, g_u))
                + sparse_apply_reference(diag_r, np.cross(g_u, fwd.p)))
    return vert_vals, norm_vals, w_vertex * (2.0 / V) * diff + w_normal * g_normal


def edge_length_energy_reference(vertices, ref_lengths, incidence, incidence_t):
    """mesh.edge_length_energy on batch-major (..., V, 3) vertices, with the
    (E, V) `incidence` and its stored transpose applied through transposing
    copies."""
    d = sparse_apply_reference(incidence, np.asarray(vertices, dtype=np.float64))
    ln = np.linalg.norm(d, axis=-1)
    diff = ln - ref_lengths
    values = np.einsum("...e,...e->...", diff, diff)
    safe = np.where(ln > 0, ln, 1.0)
    coeff = (2.0 * diff / safe)[..., None] * d
    return values, sparse_apply_reference(incidence_t, coeff)


def dump_obj_reference(mesh: QuadMesh) -> str:
    """OBJ text formatted one scalar at a time: the reference for the bulk
    formatter in facegen.objio."""
    def fmt(x) -> str:
        return repr(float(x))

    lines = [f"v {fmt(v[0])} {fmt(v[1])} {fmt(v[2])}" for v in mesh.vertices]
    if mesh.uvs is None:
        for q in mesh.quads:
            lines.append(f"f {q[0] + 1} {q[1] + 1} {q[2] + 1} {q[3] + 1}")
    else:
        for uv in mesh.uvs.reshape(-1, 2):
            lines.append(f"vt {fmt(uv[0])} {fmt(uv[1])}")
        for fi, q in enumerate(mesh.quads):
            toks = " ".join(f"{q[c] + 1}/{fi * 4 + c + 1}" for c in range(4))
            lines.append(f"f {toks}")
    return "\n".join(lines) + "\n"


def area_weights_reference(n_in: int, n_out: int) -> np.ndarray:
    """Box filter weights by a double loop over output intervals and the
    input cells they overlap: the reference for hdr._area_weights."""
    w = np.zeros((n_out, n_in))
    scale = n_in / n_out
    for o in range(n_out):
        lo = o * scale
        hi = (o + 1) * scale
        for i in range(int(np.floor(lo)), min(int(np.ceil(hi)), n_in)):
            overlap = min(hi, i + 1) - max(lo, i)
            if overlap > 0:
                w[o, i] = overlap
    w /= w.sum(axis=1, keepdims=True)
    return w


def resize_area_reference(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Area resize by two einsum contractions: the reference for the matrix
    products of hdr.resize_area."""
    data = np.asarray(data, dtype=np.float64)
    wh = area_weights_reference(data.shape[0], out_h)
    ww = area_weights_reference(data.shape[1], out_w)
    return np.einsum("pw,owc->opc", ww, np.einsum("oh,hwc->owc", wh, data))


def log_joint_reference(gmm, data: np.ndarray) -> np.ndarray:
    """log w_k + log N(x | mu_k, Sigma_k) by one triangular solve per
    component: the reference for the batched gmm._log_joint."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n, d = data.shape
    out = np.empty((n, gmm.n_components))
    const = -0.5 * d * np.log(2.0 * np.pi)
    for k in range(gmm.n_components):
        L = gmm._chols[k]
        sol = solve_triangular(L, (data - gmm.means[k]).T, lower=True)
        logdet = np.sum(np.log(np.diag(L)))
        out[:, k] = (np.log(gmm.weights[k]) + const - logdet
                     - 0.5 * np.sum(sol ** 2, axis=0))
    return out


def fit_gmm_reference(data: np.ndarray, K: int, seed: int = 0, ridge: float = 1e-6,
                      max_iter: int = 200, tol: float = 1e-9):
    """EM with a validated GaussianMixture, per-component log-densities and
    per-component covariance updates on every iteration: the reference for
    the batched gmm.fit_gmm (same initialisation, RNG stream and checks)."""
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_centers(data, K, rng)
    assign = np.argmin(
        np.sum((data[:, None, :] - centers[None]) ** 2, axis=2), axis=1)
    weights = np.empty(K)
    means = np.empty((K, d))
    covs = np.empty((K, d, d))
    global_cov = np.cov(data, rowvar=False, bias=True).reshape(d, d) + ridge * np.eye(d)
    for k in range(K):
        sel = data[assign == k]
        weights[k] = max(len(sel), 1) / n
        means[k] = sel.mean(axis=0) if len(sel) else centers[k]
        if len(sel) > 1:
            covs[k] = np.cov(sel, rowvar=False, bias=True).reshape(d, d) + ridge * np.eye(d)
        else:
            covs[k] = global_cov
    weights /= weights.sum()

    reseeded = False
    just_reseeded = False
    trajectory: list[float] = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        log_joint = log_joint_reference(GaussianMixture(weights, means, covs), data)
        log_norm = logsumexp(log_joint, axis=1)
        ll = float(log_norm.sum())
        if (trajectory and not just_reseeded
                and ll < prev_ll - 1e-9 * max(1.0, abs(prev_ll))):
            raise SingularComponent(f"EM log-likelihood decreased: {prev_ll} -> {ll}")
        just_reseeded = False
        trajectory.append(ll)
        resp = np.exp(log_joint - log_norm[:, None])
        nk = resp.sum(axis=0)
        empty = nk < 1e-10
        if np.any(empty):
            if reseeded:
                raise EmptyComponent("component collapsed twice during EM")
            reseeded = True
            just_reseeded = True
            for k in np.nonzero(empty)[0]:
                means[k] = data[rng.integers(n)]
                covs[k] = global_cov
                weights[k] = 1.0 / n
            weights /= weights.sum()
            prev_ll = ll
            continue
        weights = nk / n
        means = (resp.T @ data) / nk[:, None]
        for k in range(K):
            delta = data - means[k]
            covs[k] = (resp[:, k, None] * delta).T @ delta / nk[k]
            covs[k] = 0.5 * (covs[k] + covs[k].T) + ridge * np.eye(d)
        if len(trajectory) > 1 and abs(ll - prev_ll) <= tol * max(1.0, abs(ll)):
            break
        prev_ll = ll
    return GaussianMixture(weights, means, covs, ll_trajectory=tuple(trajectory))


def _trilinear_reference(volume: np.ndarray, pos: np.ndarray, bbox: np.ndarray):
    """Cell-centered trilinear interpolation with one fancy-index gather of
    the (G, G, G, 3) volume per corner."""
    G = volume.shape[0]
    cell = (bbox[1] - bbox[0]) / G
    g = (pos - bbox[0]) / cell - 0.5
    i0 = np.clip(np.floor(g).astype(np.int64), 0, G - 2)
    f = np.clip(g - i0, 0.0, 1.0)
    out = np.zeros((len(pos), 3))
    for dx in (0, 1):
        wx = f[:, 0] if dx else 1.0 - f[:, 0]
        for dy in (0, 1):
            wy = f[:, 1] if dy else 1.0 - f[:, 1]
            for dz in (0, 1):
                wz = f[:, 2] if dz else 1.0 - f[:, 2]
                w = (wx * wy * wz)[:, None]
                out += w * volume[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
    return out


def decode_groom_reference(code, n_strands: int, step: float, rng=None,
                           style: str = "scalp"):
    """decode_groom over an alive mask of all n_strands, re-indexed on every
    step, with eight gathers per flow lookup: the reference for the
    compacted live set and flat-offset gather of facegen.hair.  Returns
    (groom, target lengths, grown lengths, early-terminated mask); it does
    not tell the stop reasons apart."""
    from facegen.hair import Groom, _offsets, _systematic_counts

    rng = np.random.default_rng(rng)
    R = code.uv_resolution
    counts = _systematic_counts(code.density_map.ravel(), n_strands, rng)
    texels = np.repeat(np.arange(R * R), counts)
    iu, iv = texels // R, texels % R
    jitter = rng.uniform(0.0, 1.0, size=(n_strands, 2))
    root_uv = np.clip((np.stack([iu, iv], axis=1) + jitter) / R, 0.0, 1.0)
    starts = code.root_points[iu, iv]
    targets = code.length_map[iu, iv]

    pos = starts.copy()
    remaining = targets.copy()
    alive = remaining > 0
    early = np.zeros(n_strands, dtype=bool)
    moved_ids, moved_pos = [np.arange(n_strands)], [starts]
    max_steps = int(np.ceil(targets.max() / step)) + 2
    for _ in range(max_steps):
        if not np.any(alive):
            break
        idx = np.nonzero(alive)[0]
        d = _trilinear_reference(code.flow_volume, pos[idx], code.bbox)
        dn = np.linalg.norm(d, axis=1)
        dead = dn < 1e-6
        early[idx[dead]] = True
        alive[idx[dead]] = False
        ok = idx[~dead]
        if len(ok) == 0:
            continue
        dirn = d[~dead] / dn[~dead, None]
        lens = np.minimum(step, remaining[ok])
        cand = pos[ok] + dirn * lens[:, None]
        clipped = np.clip(cand, code.bbox[0], code.bbox[1])
        hit_wall = np.any(clipped != cand, axis=1)
        pos[ok] = clipped
        remaining[ok] -= lens
        moved_ids.append(ok)
        moved_pos.append(clipped)
        done = ok[remaining[ok] <= 1e-12]
        alive[done] = False
        wall = ok[hit_wall & (remaining[ok] > 1e-12)]
        early[wall] = True
        alive[wall] = False

    stub = np.flatnonzero(np.bincount(np.concatenate(moved_ids), minlength=n_strands) < 2)
    early[stub] = True
    moved_ids.append(stub)
    moved_pos.append(starts[stub] + np.array([0.0, 0.0, max(step * 0.5, 1e-9)]))
    ids = np.concatenate(moved_ids)
    order = np.argsort(ids, kind="stable")
    groom = Groom.from_ragged(np.concatenate(moved_pos)[order],
                              _offsets(np.bincount(ids, minlength=n_strands)),
                              root_uv, style=style)
    return groom, targets, groom.arc_lengths(), early


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
