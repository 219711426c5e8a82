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
import time
from dataclasses import dataclass, replace
from functools import partial

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
    Workspace,
    build_connectivity,
    cross3,
    csr_apply,
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
from .parallel import cpu_count as _cpu_count, run_workers

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


def _barrier4(x: np.ndarray, lo, hi, grad: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """barrier4 on an array, without the bound check (the loss's bounds are the
    module constants and limits a Skeleton checked); no derivative without `grad`."""
    above = np.maximum(x - hi, 0.0)
    below = np.maximum(lo - x, 0.0)
    a2, b2 = above * above, below * below
    return a2 * a2 + b2 * b2, 4.0 * (a2 * above) - 4.0 * (b2 * below) if grad else None


def _barrier_sum(x: np.ndarray, lo, hi, grad: bool, zero: bool
                 ) -> tuple[float, np.ndarray | None]:
    """The sum of _barrier4's values over a block, and its derivative (None
    unless `grad`).  A block held `zero` within limits that contain 0 sums
    to 0.0 unevaluated: each of its values is +0.0, -0.0 entries too."""
    if zero:
        return 0.0, None
    val, der = _barrier4(x, lo, hi, grad)
    return float(val.sum()), der


@dataclass(frozen=True)
class LossContext:
    """Everything the loss needs that depends only on the scans and the
    base template; `build` makes it once per fit.  Per-scan arrays are
    component-major, (3, V, N), in canonical scan order."""

    scans: ScanSet                    # the scans it was built from
    template: np.ndarray              # (V, 3) the base template vertices it was built from
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
            template=base.template.vertices,
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
               faces: FaceOperators, w_vertex: float, w_normal: float, grad: bool = True,
               ws: Workspace | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Vertex and normal data terms of component-major (3, V, *batch) positions y.

    Returns (per-mesh mean ||y - t||^2 (*batch), per-mesh mean (1 - cos
    angle) between generated and target normals (*batch), gradient of the
    weighted sum of both w.r.t. y, None unless `grad`); the gradient is
    taken from `ws`.  Degenerate faces and zero-normal vertices contribute
    value 1 with zero gradient.
    """
    ws = ws or Workspace()
    V, batch = y.shape[1], y.shape[2:]
    out = ws.take(*y.shape) if grad else None
    with ws:
        diff = np.subtract(y, targets, out=ws.take(*y.shape))
        with ws:
            # summed vertex by vertex, each over its x, y, z, as in the (V, 3) layout
            sq = ws.take(V, 3, *batch)
            np.multiply(diff.swapaxes(0, 1), diff.swapaxes(0, 1), out=sq)
            vert_vals = sq.reshape(3 * V, -1).sum(axis=0).reshape(batch) / V
        fwd = normals_forward(y, faces, ws)
        n, nhat = fwd.vertex, fwd.face
        with ws:
            norm_vals = 1.0 - dot3(n, target_normals, ws).mean(axis=0)
        if not grad:
            return vert_vals, norm_vals, None

        # adjoint of the normals: d/dn of sum_v (1 - n.c)/V is -c/V
        g_m = _normalize_adjoint(np.divide(target_normals, -V, out=ws.take(*y.shape)),
                                 n, fwd.vertex_inv, ws)
        g_u = _normalize_adjoint(faces.accum.apply_adjoint(g_m, ws.take(*nhat.shape)),
                                 nhat, fwd.face_inv, ws)
        with ws:
            faces.scatter_p(cross3(fwd.r, g_u, ws), out)
        # the second cross product takes the first one's memory, and its
        # adjoint g_m's, which is dead
        with ws:
            out += faces.scatter_r(cross3(g_u, fwd.p, ws), g_m)
        out *= w_normal
        diff *= w_vertex * (2.0 / V)
        out += diff
    return vert_vals, norm_vals, out


def _normalize_adjoint(g: np.ndarray, unit: np.ndarray, inv: np.ndarray,
                       ws: Workspace) -> np.ndarray:
    """Adjoint of x -> x / |x| at x = unit / inv, in place on g and
    returned: (g - unit (unit . g)) * inv."""
    with ws:
        dot = dot3(unit, g, ws)
        tmp = ws.take(*dot.shape)
        for i in range(3):
            g[i] -= np.multiply(unit[i], dot, out=tmp)
    g *= inv
    return g


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


@dataclass(frozen=True)
class LossPlan:
    """How the losses of one fit run: their context, the chunks of scans
    and one workspace per worker slot.  Slot k runs chunks k, k + workers,
    ... in turn, slot 0 on the calling thread, which also takes the loss's
    per-scan arrays from it; so no two threads share a workspace.  A plan
    kept from loss to loss, as fit keeps one, lets every loss after the
    first take its arrays from the buffers the first one sized.  A plan
    serves one loss at a time: two losses running at once on one plan
    would write into the same buffers, so each thread that runs losses
    of its own needs a plan of its own."""

    ctx: LossContext
    chunks: tuple[slice, ...]
    slots: tuple[Workspace, ...]      # one per worker

    @classmethod
    def build(cls, ctx: LossContext) -> "LossPlan":
        """The chunks of ctx's scans and one workspace per thread that runs
        them: one per CPU, at most one per chunk."""
        cpus = _cpu_count()
        chunks = _scan_chunks(ctx.scans.n_scans, ctx.scans.n_vertices, cpus)
        return cls(ctx, tuple(chunks),
                   tuple(Workspace() for _ in range(min(len(chunks), cpus))))

    @property
    def workers(self) -> int:
        return len(self.slots)


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
    skinning and the global transform return every vertex unchanged.
    `dLdvbar` may be `vbar` itself: a chunk writes its rows of the
    gradient after its last read of its rows of vbar."""

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


def posed_chunk(chain: PosedChain, c: slice, ws: Workspace) -> None:
    """The posed-scan chain of the scans in chunk `c`: skinning, the global
    transform and the data and edge terms, then the gradient back through
    them into the outputs `chain` holds.  Its arrays are taken from `ws`,
    in a frame the caller opens."""
    ctx, wt, w = chain.ctx, chain.weights, chain.skinning
    rest = chain.pose is None
    vbar = chain.vbar[c]
    # data and edge-degeneracy terms on one component-major (3, V, n) copy
    y_cm = ws.take(*vbar.shape[::-1])
    if rest:
        np.copyto(y_cm, vbar.transpose(2, 1, 0))
    else:
        R_w, R_g = chain.pose.R_w[c], chain.R_g[c]
        v_out = lbs_apply(w, R_w, chain.pose.b_w[c], vbar, ws)
        with ws:
            y = np.matmul(v_out, np.swapaxes(R_g, 1, 2), out=ws.take(*v_out.shape))
            y += chain.global_trans[c, None, :]
            np.copyto(y_cm, y.transpose(2, 1, 0))
    data_args = (y_cm, ctx.targets[..., c], ctx.target_normals[..., c], ctx.faces,
                 wt.w_vertex, wt.w_normal)
    edge_args = (y_cm, ctx.ref_edge_lengths, ctx.incidence)
    vals = chain.values
    if not chain.backward:
        vals[0, c], vals[1, c], _ = _data_term(*data_args, grad=False, ws=ws)
        vals[2, c], _ = edge_length_energy(*edge_args, grad=False, ws=ws)
        return
    vals[0, c], vals[1, c], grad = _data_term(*data_args, ws=ws)
    vals[2, c], edge_grad = edge_length_energy(*edge_args, ws=ws)
    edge_grad *= wt.w_edge
    grad += edge_grad
    # backward through the global transform and the skinning
    if rest:        # the pose blocks are frozen, so dLdvbar is the only output
        chain.dLdvbar[c] = grad.transpose(2, 1, 0)
        return
    dLdy = ws.take(*grad.shape[::-1])
    np.copyto(dLdy, grad.transpose(2, 1, 0))
    if chain.g_trans is not None:
        chain.g_trans[c] = dLdy.sum(axis=1)
    if chain.M_g is not None:
        chain.M_g[c] = np.swapaxes(dLdy, 1, 2) @ v_out
    dLdv_out = np.matmul(dLdy, R_g, out=ws.take(*dLdy.shape))
    if chain.moments is not None:
        with ws:
            # per joint one batched GEMM of the weighted gradient rows
            g_t = ws.take(*np.swapaxes(dLdv_out, 1, 2).shape)
            np.copyto(g_t, np.swapaxes(dLdv_out, 1, 2))
            if chain.moments.ndim == 4:      # live angles: [M_i | s_i]
                vbar1 = ws.take(*vbar.shape[:2], 4)
                vbar1[..., :3] = vbar
                vbar1[..., 3] = 1.0
                g_w = ws.take(*g_t.shape)
                chain.moments[c] = np.stack(
                    [np.multiply(g_t, w_i, out=g_w) @ vbar1 for w_i in w.T], axis=1)
            else:
                chain.moments[c] = g_t @ w
    if chain.dLdvbar is not None:
        with ws:
            chain.dLdvbar[c] = lbs_adjoint(w, R_w, dLdv_out, ws)


def _run_slot(chain: PosedChain, plan: LossPlan, k: int) -> None:
    """posed_chunk over worker slot k's chunks in turn, in its workspace."""
    ws = plan.slots[k]
    for c in plan.chunks[k::plan.workers]:
        with ws:        # a chunk's arrays die with it
            posed_chunk(chain, c, ws)


def total_loss(thetas: ThetaBlocks, phi: np.ndarray,
               scans: ScanSet, weights: LossWeights,
               base: BlendshapeModel, plan: LossPlan | None = None,
               frozen: frozenset[str] = frozenset()) -> LossResult:
    """Full learning loss and analytic gradients for every parameter block
    but those in `frozen`, a subset of BLOCKS; with all of them frozen only
    the forward pass runs and `grads` is empty.

    `base` supplies template, expression basis, skeleton and skinning
    weights (all held fixed); `phi` is the identity basis being learned.
    `plan` is `LossPlan.build(LossContext.build(scans, base))`, made here
    when not given; a caller that runs many losses keeps one, as fit does,
    so that its losses reuse their arrays.  A plan serves one loss at a
    time: its workspaces hold the arrays of the loss that runs on it.
    No returned array shares memory with the plan.
    """
    phi = np.asarray(phi, dtype=np.float64)
    N = scans.n_scans
    V = scans.n_vertices
    m = phi.shape[0]
    if phi.shape[1:] != (V, 3):
        raise DimensionMismatch(f"phi must be (m, {V}, 3), got {phi.shape}")
    if base.skeleton.n_identity != m:
        raise DimensionMismatch(
            f"skeleton identity offsets expect m={base.skeleton.n_identity}, phi has m={m}")
    if thetas.alpha.shape != (N, m):
        raise DimensionMismatch(
            f"alpha blocks {thetas.alpha.shape} inconsistent with (N={N}, m={m})")
    if not BLOCKS.issuperset(frozen):
        raise InvalidParam(f"frozen blocks {sorted(frozen)} not all in {sorted(BLOCKS)}")
    if plan is None:
        plan = LossPlan.build(LossContext.build(scans, base))
    ctx = plan.ctx
    if ctx.scans is not scans and (
            ctx.scans.ids != scans.ids
            or not np.array_equal(ctx.scans.vertices, scans.vertices)
            or not np.array_equal(ctx.scans.quads, scans.quads)):
        raise DimensionMismatch("loss context was built from a different scan set")
    if (ctx.template is not base.template.vertices
            and not np.array_equal(ctx.template, base.template.vertices)):
        raise DimensionMismatch("loss context was built from a different base template")

    # canonical scan order: every reduction below runs in sorted-id order
    order, inv_order = ctx.order, ctx.inv_order
    alpha = thetas.alpha[order]
    beta = thetas.beta[order]
    joint_angles = thetas.joint_angles[order]
    global_rot = thetas.global_rot[order]
    global_trans = thetas.global_trans[order]

    skel = base.skeleton
    live = BLOCKS - frozen
    live_angles = "joint_angles" in live
    # the frozen blocks that hold exactly zero (-0.0 counts)
    zero = {k for k in FREEZABLE & frozen if not getattr(thetas, k).any()}
    # the pose frozen at zero without rest frames: skinning and the global
    # transform are the identity bit for bit, so the chain skips them
    rest = POSE_BLOCKS <= zero and skel.rest_rotations is None

    # barriers; a block frozen at zero within its limits adds exactly 0
    bexpr, bexpr_der = _barrier_sum(beta, 0.0, 1.0, "beta" in live, "beta" in zero)
    term_bexpr = weights.w_barrier_expr * bexpr
    bpose, bpose_der = _barrier_sum(joint_angles, skel.limits[..., 0], skel.limits[..., 1],
                                    live_angles, "joint_angles" in zero and skel.limits_hold_zero)
    bglob, bglob_der = _barrier_sum(global_rot, *GLOBAL_ROT_LIMITS, "global_rot" in live,
                                    "global_rot" in zero)
    term_bpose = weights.w_barrier_pose * (bpose + bglob)

    # priors
    term_id_coeff = weights.w_id_coeff * float(np.einsum("nq,nq->", alpha, alpha))
    term_id_basis = weights.w_id_basis * float(np.einsum("qva,qva->", phi, phi))

    # the loss's per-scan arrays live in slot 0's workspace until the
    # gradients are out of them
    ws = plan.slots[0]
    with ws:
        # forward work batched over all scans, on the calling thread
        vbar = evaluate_unposed(base, alpha, beta, identity_basis=phi, ws=ws)   # (N, V, 3)
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
            values=ws.take(3, N),
            g_trans=ws.take(N, 3) if "global_trans" in live else None,
            M_g=ws.take(N, 3, 3) if "global_rot" in live else None,
            moments=(ws.take(N, 4, 3, 4) if live_angles
                     else ws.take(N, 3, 4) if "alpha" in live and not rest else None),
            # each chunk writes its rows of dL/dvbar last, when it has read
            # those of vbar for good: so they share memory
            dLdvbar=vbar if live & {"alpha", "beta", "phi"} else None)
        run_workers(partial(_run_slot, chain, plan), plan.workers)
        vert_vals, norm_vals, edge_vals = chain.values
        term_vertex = weights.w_vertex * float(vert_vals.sum())
        term_normal = weights.w_normal * float(norm_vals.sum())
        term_edge = weights.w_edge * float(edge_vals.sum())
        scan_vertex_ms = vert_vals[inv_order]

        # the Laplacian prior, on memory the chunks have given back
        phi_flat = ws.take(V, m, 3)
        np.copyto(phi_flat, phi.transpose(1, 0, 2))
        phi_flat = phi_flat.reshape(V, m * 3)
        with ws:
            lap_phi = csr_apply(ctx.laplacian, phi_flat, ws.take(V, m * 3))
            term_lap = weights.w_laplacian * float(np.einsum("ij,ij->", lap_phi, lap_phi))

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
            g_beta = weights.w_barrier_expr * bexpr_der
            # a finite sum means finite entries: against a zero basis the
            # GEMM is then +0.0, which turns only a -0.0 into +0.0
            if base.expression_zero and math.isfinite(dLdvbar.sum()):
                g_beta += 0.0
            else:
                g_beta = dLdvbar @ base.expression_basis.reshape(-1, V * 3).T + g_beta
            g["beta"] = g_beta
        if "phi" in live:
            # (alpha^T dL/dvbar + 2 w_b phi) + 2 w_l L^T L phi, summed in place
            g_phi = (alpha.T @ dLdvbar).reshape(m, V, 3)
            g_phi += np.multiply(weights.w_id_basis * 2.0, phi, out=ws.take(m, V, 3))
            lap_gram_phi = csr_apply(ctx.lap_gram, phi_flat, ws.take(V, m * 3))
            lap_gram_phi *= weights.w_laplacian * 2.0
            g_phi += lap_gram_phi.reshape(V, m, 3).transpose(1, 0, 2)
            g["phi"] = g_phi
        # phi is shared; the per-scan blocks go back to input order, as copies
        grads = {k: g[k] if k == "phi" else g[k][inv_order]
                 for k in ("phi", *thetas.as_dict()) if k in g}

    total = (term_vertex + term_normal + term_bexpr + term_bpose
             + term_id_coeff + term_id_basis + term_lap + term_edge)
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
    return LossResult(total=float(total), breakdown=breakdown, grads=grads,
                      scan_vertex_ms=scan_vertex_ms)


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

    plan = LossPlan.build(LossContext.build(scans, base))
    phi = _init_phi(scans, base.template.vertices, m, schedule, rng)
    theta = ThetaBlocks.zeros(scans.n_scans, m, base.n_expression)

    params = {"phi": phi, **theta.as_dict()}
    state = AdamState()
    trajectory: list[float] = []
    term_trajectory: list[dict[str, float]] = []
    stopped_early = False
    t0 = time.perf_counter()
    for it in range(schedule.iterations):
        theta = ThetaBlocks(**{k: v for k, v in params.items() if k != "phi"})
        res = total_loss(theta, params["phi"], scans, weights, base,
                         frozen=schedule.frozen, plan=plan)
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
    final = total_loss(theta, params["phi"], scans, weights, base, frozen=BLOCKS, plan=plan)
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
