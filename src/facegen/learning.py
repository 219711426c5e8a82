"""Identity-basis learning: the lifted joint minimization over per-scan
parameters and the identity blendshapes.

The loss couples a vertex + normal data term with 4th-order barriers on
expression/pose coefficients, least-squares penalties on identity
coefficients and basis norms, a mesh-Laplacian smoothness penalty on the
basis fields, and an edge-length degeneracy penalty on the generated
meshes.  Every gradient is analytic; the finite-difference suite in the
tests is the authority on their correctness.

Scans are sorted canonically by id before any reduction, so the loss and
all shared-block gradients are bitwise invariant under permuting the
scan order.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .adam import AdamState, adam_step
from .errors import (
    DimensionMismatch,
    Diverged,
    InvalidParam,
    NonFiniteInput,
    TopologyMismatch,
)
from .mesh import (
    BlockOperator,
    FaceOperators,
    QuadMesh,
    build_connectivity,
    cross3,
    dot3,
    edge_length_energy,
    normals_forward,
    uniform_laplacian_matrix,
    vertex_normals,
)
from .model import (
    BlendshapeModel,
    PoseDerivatives,
    evaluate_unposed,
    euler_xyz,
    euler_xyz_grad,
    lbs_adjoint,
    lbs_apply,
    pose_derivatives,
    pose_transforms,
)

GLOBAL_ROT_LIMITS = (-np.pi, np.pi)
# the blocks a fit schedule may hold fixed, and every block total_loss can
# differentiate: with all of BLOCKS frozen it runs the forward pass only
POSE_BLOCKS = frozenset({"joint_angles", "global_rot", "global_trans"})
FREEZABLE = POSE_BLOCKS | {"beta"}
BLOCKS = FREEZABLE | {"alpha", "phi"}


@dataclass(frozen=True)
class ScanSet:
    """Registered scans sharing the template topology, with id labels."""

    vertices: np.ndarray          # (N, V, 3)
    quads: np.ndarray             # (F, 4) shared topology
    ids: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        q = np.asarray(self.quads, dtype=np.int64)
        if v.ndim != 3 or v.shape[2] != 3:
            raise DimensionMismatch(f"scan vertices must be (N, V, 3), got {v.shape}")
        if len(self.ids) != v.shape[0]:
            raise DimensionMismatch("one id per scan required")
        if len(set(self.ids)) != len(self.ids):
            raise InvalidParam("scan ids must be unique")
        if v.shape[0] < 1:
            raise InvalidParam("need at least one scan")
        finite = np.all(np.isfinite(v), axis=(1, 2))
        if not np.all(finite):
            bad = self.ids[int(np.argmin(finite))]
            raise NonFiniteInput(f"scan {bad!r} has non-finite vertices")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "quads", q)
        object.__setattr__(self, "ids", tuple(self.ids))

    @classmethod
    def from_meshes(cls, meshes: list[QuadMesh], ids: list[str] | None = None) -> "ScanSet":
        if not meshes:
            raise InvalidParam("need at least one scan")
        quads = meshes[0].quads
        for m in meshes[1:]:
            if (m.quads.shape != quads.shape or np.any(m.quads != quads)
                    or m.n_vertices != meshes[0].n_vertices):
                raise TopologyMismatch("scans do not share topology")
        if ids is None:
            ids = [f"scan_{i:04d}" for i in range(len(meshes))]
        return cls(np.stack([m.vertices for m in meshes]), quads, tuple(ids))

    @property
    def n_scans(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[1]


@dataclass(frozen=True)
class LossWeights:
    """Nonnegative term weights; data term dominant, barriers stiff, priors gentle."""

    w_vertex: float = 1.0
    w_normal: float = 0.1
    w_barrier_expr: float = 10.0
    w_barrier_pose: float = 10.0
    w_id_coeff: float = 1e-4
    w_id_basis: float = 1e-4
    w_laplacian: float = 1e-2
    w_edge: float = 1e-3

    def __post_init__(self):
        for name in ("w_vertex", "w_normal", "w_barrier_expr", "w_barrier_pose",
                     "w_id_coeff", "w_id_basis", "w_laplacian", "w_edge"):
            w = getattr(self, name)
            if not (w >= 0 and math.isfinite(w)):      # NaN fails both
                raise InvalidParam(f"{name} must be finite and nonnegative, got {w}")


def barrier4(x, lo, hi):
    """4th-order polynomial barrier: 0 on [lo, hi], quartic growth outside.

    Returns (value, derivative); C^3 at the boundaries.  Accepts scalars
    or arrays elementwise; the bounds may be arrays broadcasting against x.
    """
    if np.any(np.asarray(lo) >= np.asarray(hi)):
        raise InvalidParam("barrier needs lo < hi")
    val, der = _barrier4(np.asarray(x, dtype=np.float64), lo, hi)
    if val.ndim == 0:
        return float(val), float(der)
    return val, der


def _barrier4(x: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """barrier4 on an array, without the bound check: the loss's bounds
    are the module constants and the limits a Skeleton checked."""
    above = np.maximum(x - hi, 0.0)
    below = np.maximum(lo - x, 0.0)
    a2, b2 = above * above, below * below
    return a2 * a2 + b2 * b2, 4.0 * (a2 * above) - 4.0 * (b2 * below)


@dataclass(frozen=True)
class LossContext:
    """Everything the loss needs that depends only on the scans and the
    base template; `build` makes it once per fit.  Per-scan arrays are
    component-major, (3, V, N), in canonical scan order."""

    scans: ScanSet                    # the scans it was built from
    faces: FaceOperators              # normal forward/adjoint operators
    incidence: BlockOperator          # (E, V) vertices to edge vectors
    laplacian: sparse.csr_matrix      # (V, V) uniform Laplacian L
    lap_gram: sparse.csr_matrix       # L^T L
    order: np.ndarray                 # canonical (sorted-id) scan order
    inv_order: np.ndarray             # its inverse permutation
    targets: np.ndarray               # (3, V, N) scan vertices
    target_normals: np.ndarray        # (3, V, N) scan normals
    ref_edge_lengths: np.ndarray      # (E,) template edge lengths

    @classmethod
    def build(cls, scans: ScanSet, base: BlendshapeModel) -> "LossContext":
        V = scans.n_vertices
        if base.template.n_vertices != V:
            raise DimensionMismatch("base template does not match scan vertex count")
        conn = build_connectivity(QuadMesh(base.template.vertices, scans.quads))
        incidence = BlockOperator.gather(conn.edges, (1, -1), V)
        laplacian = uniform_laplacian_matrix(conn)
        order = np.argsort(np.asarray(scans.ids))
        faces = FaceOperators.build(scans.quads, V)
        targets = np.ascontiguousarray(scans.vertices[order].transpose(2, 1, 0))
        return cls(
            scans=scans,
            faces=faces,
            incidence=incidence,
            laplacian=laplacian,
            lap_gram=(laplacian.T @ laplacian).tocsr(),
            order=order,
            inv_order=np.argsort(order),
            targets=targets,
            target_normals=vertex_normals(targets, faces),
            ref_edge_lengths=np.linalg.norm(
                incidence.apply(base.template.vertices.T), axis=0),
        )


def _data_term(y: np.ndarray, targets: np.ndarray, target_normals: np.ndarray,
               faces: FaceOperators, w_vertex: float, w_normal: float, grad: bool = True
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Vertex and normal data terms of component-major (3, V, *batch) positions y.

    Returns (per-mesh mean ||y - t||^2 (*batch), per-mesh mean (1 - cos
    angle) between generated and target normals (*batch), gradient of the
    weighted sum of both w.r.t. y, None unless `grad`).  Degenerate faces
    and zero-normal vertices contribute value 1 with zero gradient.
    """
    V = y.shape[1]
    diff = y - targets
    # summed vertex by vertex, each over its x, y, z, as in the (V, 3) layout
    sq = (diff * diff).swapaxes(0, 1).reshape(3 * V, -1)
    vert_vals = sq.sum(axis=0).reshape(y.shape[2:]) / V
    fwd = normals_forward(y, faces)
    n, nhat = fwd.vertex, fwd.face
    norm_vals = 1.0 - dot3(n, target_normals).mean(axis=0)
    if not grad:
        return vert_vals, norm_vals, None

    # adjoint of the normals: d/dn of sum_v (1 - n.c)/V is -c/V
    g_m = _normalize_adjoint(target_normals / -V, n, fwd.vertex_inv)
    g_u = _normalize_adjoint(faces.accum.apply_adjoint(g_m), nhat, fwd.face_inv)
    grad = faces.diag_p.apply_adjoint(cross3(fwd.r, g_u))
    grad += faces.diag_r.apply_adjoint(cross3(g_u, fwd.p))
    grad *= w_normal
    diff *= w_vertex * (2.0 / V)
    grad += diff
    return vert_vals, norm_vals, grad


def _normalize_adjoint(g: np.ndarray, unit: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Adjoint of x -> x / |x| at x = unit / inv: (g - unit (unit . g)) * inv."""
    out = unit * dot3(unit, g)
    np.subtract(g, out, out=out)
    out *= inv
    return out


def data_term(generated: np.ndarray, target: QuadMesh,
              w_vertex: float = 1.0, w_normal: float = 0.1) -> tuple[float, np.ndarray]:
    """Vertex + normal distance between generated positions and a target mesh.

    value = w_vertex * mean ||y - t||^2 + w_normal * mean (1 - cos angle)
    Returns (value, gradient w.r.t. generated), gradient flowing through
    the generated normals.
    """
    generated = np.asarray(generated, dtype=np.float64)
    if generated.shape != target.vertices.shape:
        raise TopologyMismatch(
            f"generated {generated.shape} vs target {target.vertices.shape}")
    faces = FaceOperators.build(target.quads, target.n_vertices)
    t = np.ascontiguousarray(target.vertices.T)
    vert_vals, norm_vals, grad = _data_term(
        np.ascontiguousarray(generated.T), t, vertex_normals(t, faces), faces,
        w_vertex, w_normal)
    return (w_vertex * float(vert_vals) + w_normal * float(norm_vals),
            np.ascontiguousarray(grad.T))


# Size of one (3, V, n) float64 array of a chunk of scans: small enough that
# the posed-scan chain's temporaries are reused from cache and from the heap
# rather than from freshly mapped pages.
_CHUNK_BYTES = 1 << 19


def _cpu_count() -> int:
    """CPUs this process may run on: the most chunk workers of a loss."""
    affinity = getattr(os, "sched_getaffinity", None)   # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _scan_chunks(n_scans: int, n_vertices: int, workers: int = 1) -> list[slice]:
    """Split the scans evenly into the fewest chunks whose (3, V, n) arrays
    take at most about _CHUNK_BYTES, their number rounded up to a multiple
    of `workers` when there is more than one, with at least two scans per
    chunk: then every per-scan reduction adds in the same order as over all
    scans at once, so neither chunks nor workers change a bit of the result."""
    k = -(-n_scans * 24 * n_vertices // _CHUNK_BYTES)
    k = max(1, min(n_scans // 2, k if k == 1 else -(-k // workers) * workers))
    bounds = np.arange(k + 1) * n_scans // k
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _chunk_workers(n_scans: int, n_vertices: int) -> tuple[list[slice], int]:
    """A loss's chunks of scans and the threads that run them: one per CPU,
    at most one per chunk."""
    cpus = _cpu_count()
    chunks = _scan_chunks(n_scans, n_vertices, cpus)
    return chunks, min(len(chunks), cpus)


# ---------------------------------------------------------------------------
# total loss over all scans
# ---------------------------------------------------------------------------

@dataclass
class ThetaBlocks:
    """Per-scan parameters packed as arrays for the optimizer."""

    alpha: np.ndarray          # (N, m)
    beta: np.ndarray           # (N, n_expr)
    joint_angles: np.ndarray   # (N, 4, 3)
    global_rot: np.ndarray     # (N, 3)
    global_trans: np.ndarray   # (N, 3)

    @classmethod
    def zeros(cls, n: int, m: int, n_expr: int) -> "ThetaBlocks":
        return cls(np.zeros((n, m)), np.zeros((n, n_expr)),
                   np.zeros((n, 4, 3)), np.zeros((n, 3)), np.zeros((n, 3)))

    def as_dict(self) -> dict[str, np.ndarray]:
        return {"alpha": self.alpha, "beta": self.beta,
                "joint_angles": self.joint_angles,
                "global_rot": self.global_rot, "global_trans": self.global_trans}


@dataclass
class LossResult:
    total: float
    breakdown: dict[str, float]
    grads: dict[str, np.ndarray]   # the blocks not frozen
    scan_vertex_ms: np.ndarray     # (N,) mean squared vertex distance per scan


@dataclass(frozen=True)
class PosedChain:
    """One loss's inputs to the posed-scan chain, in canonical scan order,
    and the per-scan arrays its chunks fill, each chunk its own rows.  An
    output the loss does not need is None; with none, a chunk runs the
    forward half only.  `pose` and `R_g` are None at the rest pose, where
    skinning and the global transform return every vertex unchanged."""

    ctx: LossContext
    weights: LossWeights
    skinning: np.ndarray             # (V, 4) skinning weights
    pose: PoseDerivatives | None     # world transforms R_w, b_w of every scan
    vbar: np.ndarray                 # (N, V, 3) unposed vertices
    R_g: np.ndarray | None           # (N, 3, 3) global rotations
    global_trans: np.ndarray         # (N, 3)
    values: np.ndarray               # (3, N) vertex, normal and edge terms
    g_trans: np.ndarray | None       # (N, 3) global-translation gradient
    M_g: np.ndarray | None           # (N, 3, 3) global-rotation moments
    moments: np.ndarray | None       # (N, 4, 3, 4) [M_i | s_i] with live angles, else (N, 3, 4) s
    dLdvbar: np.ndarray | None       # (N, V, 3) gradient at the unposed vertices

    @property
    def backward(self) -> bool:
        return any(a is not None for a in (self.g_trans, self.M_g, self.moments, self.dLdvbar))


def posed_chunk(chain: PosedChain, c: slice) -> None:
    """The posed-scan chain of the scans in chunk `c`: skinning, the global
    transform and the data and edge terms, then the gradient back through
    them into the outputs `chain` holds."""
    ctx, wt, w = chain.ctx, chain.weights, chain.skinning
    rest = chain.pose is None
    if rest:
        y = chain.vbar[c]
    else:
        R_w, R_g = chain.pose.R_w[c], chain.R_g[c]
        v_out = lbs_apply(w, R_w, chain.pose.b_w[c], chain.vbar[c])
        y = v_out @ np.swapaxes(R_g, 1, 2) + chain.global_trans[c, None, :]
    # data and edge-degeneracy terms on one component-major (3, V, n) copy
    y_cm = np.ascontiguousarray(y.transpose(2, 1, 0))
    data_args = (y_cm, ctx.targets[..., c], ctx.target_normals[..., c], ctx.faces,
                 wt.w_vertex, wt.w_normal)
    edge_args = (y_cm, ctx.ref_edge_lengths, ctx.incidence)
    vals = chain.values
    if not chain.backward:
        vals[0, c], vals[1, c], _ = _data_term(*data_args, grad=False)
        vals[2, c], _ = edge_length_energy(*edge_args, grad=False)
        return
    vals[0, c], vals[1, c], grad = _data_term(*data_args)
    vals[2, c], edge_grad = edge_length_energy(*edge_args)
    grad += wt.w_edge * edge_grad
    # backward through the global transform and the skinning
    dLdy = np.ascontiguousarray(grad.transpose(2, 1, 0))
    if rest:        # the pose blocks are frozen, so dLdvbar is the only output
        chain.dLdvbar[c] = dLdy
        return
    if chain.g_trans is not None:
        chain.g_trans[c] = dLdy.sum(axis=1)
    if chain.M_g is not None:
        chain.M_g[c] = np.swapaxes(dLdy, 1, 2) @ v_out
    dLdv_out = dLdy @ R_g
    if chain.moments is not None:
        # per joint one batched GEMM of the weighted gradient rows
        g_t = np.ascontiguousarray(np.swapaxes(dLdv_out, 1, 2))
        if chain.moments.ndim == 4:      # live angles: [M_i | s_i]
            vbar = chain.vbar[c]
            vbar1 = np.concatenate([vbar, np.ones(vbar.shape[:2] + (1,))], axis=2)
            chain.moments[c] = np.stack([(g_t * w_i) @ vbar1 for w_i in w.T], axis=1)
        else:
            chain.moments[c] = g_t @ w
    if chain.dLdvbar is not None:
        chain.dLdvbar[c] = lbs_adjoint(w, R_w, dLdv_out)


def _run_chunks(chain: PosedChain, executor: ThreadPoolExecutor | None) -> None:
    """posed_chunk over every chunk of the chain's scans.  With more than one
    worker the calling thread takes every workers-th chunk itself (one
    thread fewer to start, and one malloc arena fewer to hold a chunk's
    temporaries) and `executor` the others; without an executor this call
    opens one of its own."""
    err = np.geterr()       # numpy's error state is per thread: pass the caller's on

    def run(c):
        with np.errstate(**err):
            posed_chunk(chain, c)

    chunks, workers = _chunk_workers(*chain.vbar.shape[:2])
    if workers == 1:
        for c in chunks:
            run(c)
        return
    with (nullcontext(executor) if executor is not None
          else ThreadPoolExecutor(workers - 1)) as pool:
        others = pool.map(run, [c for i, c in enumerate(chunks) if i % workers])
        for c in chunks[::workers]:
            run(c)
        list(others)


def total_loss(thetas: ThetaBlocks, phi: np.ndarray,
               scans: ScanSet, weights: LossWeights,
               base: BlendshapeModel, ctx: LossContext | None = None,
               frozen: frozenset[str] = frozenset(),
               executor: ThreadPoolExecutor | None = None) -> LossResult:
    """Full learning loss and analytic gradients for every parameter block
    but those in `frozen`, a subset of BLOCKS; with all of them frozen only
    the forward pass runs and `grads` is empty.

    `base` supplies template, expression basis, skeleton and skinning
    weights (all held fixed); `phi` is the identity basis being learned.
    `ctx` is `LossContext.build(scans, base)`, built here when not given.
    `executor` runs chunks of scans beside the calling thread (fit passes
    the one it keeps for the fit); a call without one that has more than
    one worker opens its own.
    """
    phi = np.asarray(phi, dtype=np.float64)
    N = scans.n_scans
    V = scans.n_vertices
    m = phi.shape[0]
    if phi.shape[1:] != (V, 3):
        raise DimensionMismatch(f"phi must be (m, {V}, 3), got {phi.shape}")
    if thetas.alpha.shape != (N, m):
        raise DimensionMismatch(
            f"alpha blocks {thetas.alpha.shape} inconsistent with (N={N}, m={m})")
    if not BLOCKS.issuperset(frozen):
        raise InvalidParam(f"frozen blocks {sorted(frozen)} not all in {sorted(BLOCKS)}")
    if ctx is None:
        ctx = LossContext.build(scans, base)
    elif ctx.scans is not scans and (
            ctx.scans.ids != scans.ids
            or not np.array_equal(ctx.scans.vertices, scans.vertices)
            or not np.array_equal(ctx.scans.quads, scans.quads)):
        raise DimensionMismatch("loss context was built from a different scan set")

    # canonical scan order: every reduction below runs in sorted-id order
    order, inv_order = ctx.order, ctx.inv_order
    alpha = thetas.alpha[order]
    beta = thetas.beta[order]
    joint_angles = thetas.joint_angles[order]
    global_rot = thetas.global_rot[order]
    global_trans = thetas.global_trans[order]

    model = replace(base, identity_basis=phi)
    skel = base.skeleton
    live = BLOCKS - frozen
    live_angles = "joint_angles" in live
    # the pose frozen at zero without rest frames: skinning and the global
    # transform are the identity bit for bit, so the chain skips them
    rest = (POSE_BLOCKS <= frozen and skel.rest_rotations is None
            and not (joint_angles.any() or global_rot.any() or global_trans.any()))

    # forward work batched over all scans, on the calling thread
    vbar = evaluate_unposed(model, alpha, beta)                    # (N, V, 3)
    if rest:
        der = R_g = None
    else:
        der = (pose_derivatives if live_angles else pose_transforms)(skel, alpha, joint_angles)
        R_g = euler_xyz(global_rot)

    # the posed-scan chain per chunk of scans.  The joint sums
    # s_i = sum_v w_vi g_v feed the pivots, so alpha; with live angles they
    # are the last column of the moments [M_i | s_i] = sum_v w_vi g_v [vbar_v | 1]^T
    chain = PosedChain(
        ctx, weights, base.skinning_weights, der, vbar, R_g, global_trans,
        values=np.empty((3, N)),
        g_trans=np.empty((N, 3)) if "global_trans" in live else None,
        M_g=np.empty((N, 3, 3)) if "global_rot" in live else None,
        moments=(np.empty((N, 4, 3, 4)) if live_angles
                 else np.empty((N, 3, 4)) if "alpha" in live and not rest else None),
        dLdvbar=np.empty((N, V, 3)) if live & {"alpha", "beta", "phi"} else None)
    _run_chunks(chain, executor)
    vert_vals, norm_vals, edge_vals = chain.values

    term_vertex = weights.w_vertex * float(vert_vals.sum())
    term_normal = weights.w_normal * float(norm_vals.sum())
    term_edge = weights.w_edge * float(edge_vals.sum())

    # barriers
    bexpr_val, bexpr_der = _barrier4(beta, 0.0, 1.0)
    term_bexpr = weights.w_barrier_expr * float(bexpr_val.sum())
    bpose_val, bpose_der = _barrier4(joint_angles, skel.limits[..., 0], skel.limits[..., 1])
    bglob_val, bglob_der = _barrier4(global_rot, *GLOBAL_ROT_LIMITS)
    term_bpose = weights.w_barrier_pose * float(bpose_val.sum() + bglob_val.sum())

    # priors
    term_id_coeff = weights.w_id_coeff * float(np.einsum("nq,nq->", alpha, alpha))
    term_id_basis = weights.w_id_basis * float(np.einsum("qva,qva->", phi, phi))
    phi_flat = phi.transpose(1, 0, 2).reshape(V, m * 3)
    lap_phi = ctx.laplacian @ phi_flat
    term_lap = weights.w_laplacian * float(np.einsum("ij,ij->", lap_phi, lap_phi))

    total = (term_vertex + term_normal + term_bexpr + term_bpose
             + term_id_coeff + term_id_basis + term_lap + term_edge)

    # ---- backward of the live blocks, in canonical order --------------
    g = {}
    if "global_trans" in live:
        g["global_trans"] = chain.g_trans
    if "global_rot" in live:
        g["global_rot"] = (np.einsum("nkab,nab->nk", euler_xyz_grad(global_rot), chain.M_g)
                           + weights.w_barrier_pose * bglob_der)
    if live_angles:
        M, s = chain.moments[..., :3], chain.moments[..., 3]
        g["joint_angles"] = (np.einsum("nijkab,niab->njk", der.dR_w, M)
                             + np.einsum("nijka,nia->njk", der.db_w, s)
                             + weights.w_barrier_pose * bpose_der)
    elif chain.moments is not None:
        s = np.swapaxes(chain.moments, 1, 2)
    if chain.dLdvbar is not None:
        dLdvbar = chain.dLdvbar.reshape(N, V * 3)
    if "alpha" in live:
        g_alpha = dLdvbar @ phi.reshape(m, V * 3).T
        if not rest:        # the pivot term: its Jacobian I - R is zero at rest
            g_pivot = np.einsum("nijab,nia->njb", der.db_dpiv, s)
            g_alpha += np.einsum("njb,jbq->nq", g_pivot, skel.a)
        g["alpha"] = g_alpha + weights.w_id_coeff * 2.0 * alpha
    if "beta" in live:
        g["beta"] = (dLdvbar @ base.expression_basis.reshape(-1, V * 3).T
                     + weights.w_barrier_expr * bexpr_der)
    if "phi" in live:
        g["phi"] = ((alpha.T @ dLdvbar).reshape(m, V, 3)
                    + weights.w_id_basis * 2.0 * phi
                    + weights.w_laplacian * 2.0
                    * (ctx.lap_gram @ phi_flat).reshape(V, m, 3).transpose(1, 0, 2))

    breakdown = {
        "data_vertex": term_vertex,
        "data_normal": term_normal,
        "barrier_expr": term_bexpr,
        "barrier_pose": term_bpose,
        "id_coeff": term_id_coeff,
        "id_basis": term_id_basis,
        "laplacian": term_lap,
        "edge": term_edge,
    }
    # phi is shared; the per-scan blocks go back to input order
    grads = {k: g[k] if k == "phi" else g[k][inv_order]
             for k in ("phi", *thetas.as_dict()) if k in g}
    return LossResult(total=float(total), breakdown=breakdown, grads=grads,
                      scan_vertex_ms=vert_vals[inv_order])


# ---------------------------------------------------------------------------
# fit driver
# ---------------------------------------------------------------------------

@dataclass
class FitSchedule:
    iterations: int = 2000
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    early_stop_window: int = 50
    early_stop_rel: float = 1e-7
    init: str = "pca"          # or "random"
    init_sigma: float = 1e-3
    freeze_beta: bool = False
    freeze_pose: bool = False

    def __post_init__(self):
        # each test fails on NaN, and each float range stops short of infinity
        for name, ok, rule in (
                ("iterations", self.iterations >= 1, ">= 1"),
                ("early_stop_window", self.early_stop_window >= 1, ">= 1"),
                ("lr", 0 < self.lr < math.inf, "finite and > 0"),
                ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                ("eps", 0 < self.eps < math.inf, "finite and > 0"),
                ("early_stop_rel", 0 <= self.early_stop_rel < math.inf, "finite and >= 0"),
                ("init_sigma", 0 < self.init_sigma < math.inf, "finite and > 0")):
            if not ok:
                raise InvalidParam(f"{name} must be {rule}, got {getattr(self, name)}")

    @property
    def frozen(self) -> frozenset[str]:
        """The blocks fit holds at their initial values."""
        return (frozenset({"beta"} if self.freeze_beta else ())
                | (POSE_BLOCKS if self.freeze_pose else frozenset()))


@dataclass
class FitReport:
    trajectory: list[float]
    term_trajectory: list[dict[str, float]]
    breakdown: dict[str, float]
    per_scan_rms: np.ndarray
    iterations: int
    wall_time_s: float
    final_alphas: np.ndarray
    stopped_early: bool
    final_loss: float              # loss at the returned parameters

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "wall_time_s": self.wall_time_s,
            "stopped_early": self.stopped_early,
            "breakdown": self.breakdown,
            "per_scan_rms": [float(x) for x in self.per_scan_rms],
            "final_loss": self.final_loss,
            "trajectory": self.trajectory,
        }

    def trajectory_csv(self) -> str:
        terms = sorted(self.term_trajectory[0]) if self.term_trajectory else []
        lines = ["iteration,total" + "".join(f",{t}" for t in terms)]
        for i, v in enumerate(self.trajectory):
            row = f"{i},{v!r}"
            for t in terms:
                row += f",{self.term_trajectory[i][t]!r}"
            lines.append(row)
        return "\n".join(lines) + "\n"


def _init_phi(scans: ScanSet, template: np.ndarray, m: int,
              schedule: FitSchedule, rng: np.random.Generator) -> np.ndarray:
    N, V = scans.n_scans, scans.n_vertices
    if schedule.init == "random":
        return schedule.init_sigma * rng.standard_normal((m, V, 3))
    disp = (scans.vertices - template).reshape(N, V * 3)
    # uncentered SVD: the model is linear (no affine offset beyond the template)
    _, svals, vt = np.linalg.svd(disp, full_matrices=False)
    k = min(m, len(svals))
    phi = np.zeros((m, V * 3))
    phi[:k] = 0.9 * (svals[:k, None] / np.sqrt(N)) * vt[:k]
    return phi.reshape(m, V, 3)


def fit(scans: ScanSet, m: int, weights: LossWeights | None = None,
        schedule: FitSchedule | None = None, seed: int = 0,
        base: BlendshapeModel | None = None) -> tuple[BlendshapeModel, FitReport]:
    """Learn the identity basis jointly with per-scan parameters.

    Expression basis and skeleton are held fixed.  When no base model is
    given, a desk-scale default is synthesized: template = mean scan,
    zero expression basis, procedural skeleton and skinning weights.
    Deterministic for a fixed seed.
    """
    weights = weights or LossWeights()
    schedule = schedule or FitSchedule()
    if scans.n_scans < 2:
        raise InvalidParam("fit needs at least 2 scans")
    if not 1 <= m <= scans.n_scans:
        raise InvalidParam(f"basis size m={m} must be in [1, {scans.n_scans} scans]")
    rng = np.random.default_rng(seed)

    if base is None:
        from .procedural import default_base_model
        base = default_base_model(scans, m)
    if base.n_identity != m:
        raise DimensionMismatch(
            f"base model expects m={base.n_identity}, fit called with m={m}")

    ctx = LossContext.build(scans, base)
    phi = _init_phi(scans, base.template.vertices, m, schedule, rng)
    theta = ThetaBlocks.zeros(scans.n_scans, m, base.n_expression)

    params = {"phi": phi, **theta.as_dict()}
    state = AdamState()
    trajectory: list[float] = []
    term_trajectory: list[dict[str, float]] = []
    stopped_early = False
    workers = _chunk_workers(scans.n_scans, scans.n_vertices)[1]
    # one executor for every loss of the fit, shut down when fit returns or raises
    with (ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext()) as executor:
        t0 = time.perf_counter()
        for it in range(schedule.iterations):
            theta = ThetaBlocks(**{k: v for k, v in params.items() if k != "phi"})
            res = total_loss(theta, params["phi"], scans, weights, base, ctx=ctx,
                             frozen=schedule.frozen, executor=executor)
            if not np.isfinite(res.total):
                raise Diverged(it)
            trajectory.append(res.total)
            term_trajectory.append(res.breakdown)
            params = adam_step(state, params, res.grads, schedule.lr,
                               schedule.beta1, schedule.beta2, schedule.eps)
            win = schedule.early_stop_window
            if it >= win:
                prev = trajectory[-win - 1]
                if prev - trajectory[-1] < schedule.early_stop_rel * abs(prev):
                    stopped_early = True
                    break
        wall = time.perf_counter() - t0

        # the loss of the returned parameters: its values only
        theta = ThetaBlocks(**{k: v for k, v in params.items() if k != "phi"})
        final = total_loss(theta, params["phi"], scans, weights, base, ctx=ctx,
                           frozen=BLOCKS, executor=executor)
    if not np.isfinite(final.total):
        raise Diverged(len(trajectory))
    model = replace(base, identity_basis=params["phi"])
    report = FitReport(
        trajectory=trajectory,
        term_trajectory=term_trajectory,
        breakdown=final.breakdown,
        per_scan_rms=np.sqrt(final.scan_vertex_ms),
        iterations=len(trajectory),
        wall_time_s=wall,
        final_alphas=params["alpha"].copy(),
        stopped_early=stopped_early,
        final_loss=final.total,
    )
    return model, report


def project_identity(model: BlendshapeModel, scan_vertices: np.ndarray) -> np.ndarray:
    """Least-squares identity coefficients for a registered neutral scan."""
    V = model.n_vertices
    A = model.identity_basis.reshape(model.n_identity, V * 3).T
    b = (np.asarray(scan_vertices, dtype=np.float64)
         - model.template.vertices).ravel()
    return np.linalg.lstsq(A, b, rcond=None)[0]
