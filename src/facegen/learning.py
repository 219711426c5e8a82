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
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import partial, reduce
from operator import add

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
    def from_meshes(cls, meshes: list[QuadMesh], ids: list[str]) -> "ScanSet":
        if not meshes:
            raise InvalidParam("need at least one scan")
        quads = meshes[0].quads
        for m in meshes[1:]:
            if (m.quads.shape != quads.shape or np.any(m.quads != quads)
                    or m.n_vertices != meshes[0].n_vertices):
                raise TopologyMismatch("scans do not share topology")
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
        for f in fields(self):
            w = getattr(self, f.name)
            if not (w >= 0 and math.isfinite(w)):      # NaN fails both
                raise InvalidParam(f"{f.name} must be finite and nonnegative, got {w}")


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


@dataclass(frozen=True)
class LossContext:
    """Everything the loss needs that depends only on the scans and the
    base model; `build` makes it once per fit.  Per-scan arrays are
    component-major, (3, V, N), in canonical scan order, so that each
    coordinate is one contiguous (V, N) slab.  Each sparse operator A is
    a `mesh.BlockOperator`: the block-diagonal kron(I_3, A) and its
    adjoint, both CSR, each applied with one product on the free (3V, N)
    view.  A gather row keeps the order of its index (a face's corners in
    quad order), so every sum adds in one fixed order."""

    scans: ScanSet                    # the scans it was built from
    base: BlendshapeModel             # the base model it was built from
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
            base=base,
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
    """How the losses of one fit run, decided once when it is built: the
    context, the chunks of scans, one workspace per worker slot, and what
    the fit's frozen blocks and their values decide.

    `stages` are the module functions a loss runs in order on its
    `PosedChain`: the unposed blend, the pose tables (none at rest), the
    posed chunks, the basis and coefficient priors, then one backward
    stage per live block in canonical order.  `barriers` are the barriers
    the coefficient priors evaluate.  `place` and `back` are how each
    chunk places its scans and goes back through them, and so which
    per-scan outputs it fills: none for a forward-only loss (`back` is
    None), dL/dvbar at rest, and off rest also the pose outputs.

    `zero` are the frozen blocks that held exactly zero (-0.0 counts) in
    the blocks the plan was built from.  The pose is at rest when all
    three pose blocks are among them and the skeleton has no
    `rest_rotations`: skinning and the global transform then return every
    vertex unchanged bit for bit, so the loss builds no pose tables,
    rotation blends or pose moments.  `total_loss` rejects a call whose
    frozen blocks are not the plan's, or that holds a nonzero value in a
    block of `zero`.

    Slot k runs chunks k, k + workers, ... in turn, slot 0 on the calling
    thread, which also takes the loss's per-scan arrays from it; so no two
    threads share a workspace.  A `mesh.Workspace` hands out its arrays in
    stack order from one kept buffer, so that a dead temporary's memory
    serves the next one.  A plan kept from loss to loss, as fit keeps
    one, lets every loss after the first take its arrays from the buffers
    the first one sized (the second allocates them as it starts, once the
    first one's arrays are gone): the unposed vertices, skinning and its
    adjoint, the global transform, the pose moments, the data term with
    the normals forward and adjoint, the edge energy and every sparse
    product on the mesh (`mesh.csr_apply`), the Laplacian products among
    them.  Only per-scan rows, the gradients the loss returns and
    `adam_step`'s new parameters still allocate.  A plan built for one
    loss, as total_loss builds one when given none, allocates as plain
    numpy code would.  A plan serves one loss at a time: two losses
    running at once on one plan, or on two plans that share their slots,
    would write into the same buffers, so each thread that runs losses of
    its own needs a plan of its own."""

    ctx: LossContext
    chunks: tuple[slice, ...]
    slots: tuple[Workspace, ...]      # one per worker
    frozen: frozenset[str]
    zero: frozenset[str]
    stages: tuple[Callable[[PosedChain], None], ...]
    barriers: tuple[tuple, ...]       # (block, lo, hi, with its derivative)
    place: Callable
    back: Callable | None

    @classmethod
    def build(cls, ctx: LossContext, frozen: frozenset[str], thetas: ThetaBlocks,
              slots: tuple[Workspace, ...] = ()) -> "LossPlan":
        """The plan of the losses of ctx's scans with the blocks `frozen`
        (a subset of BLOCKS) held at their values in `thetas`.  Its chunks
        run on one worker per CPU the process may run on (its affinity
        set), at most one per chunk, each with one of `slots` or else a
        workspace of its own."""
        if not BLOCKS.issuperset(frozen):
            raise InvalidParam(f"frozen blocks {sorted(frozen)} not all in {sorted(BLOCKS)}")
        frozen, skel = frozenset(frozen), ctx.base.skeleton
        live = BLOCKS - frozen
        zero = frozenset(k for k in FREEZABLE & frozen if not getattr(thetas, k).any())
        rest = POSE_BLOCKS <= zero and skel.rest_rotations is None
        held = zero if skel.limits_hold_zero else zero - {"joint_angles"}
        limits = {"beta": (0.0, 1.0), "joint_angles": (skel.limits[..., 0], skel.limits[..., 1]),
                  "global_rot": GLOBAL_ROT_LIMITS}
        backward = {"global_trans": global_trans_grad, "global_rot": global_rot_grad,
                    "joint_angles": joint_angles_grad,
                    "alpha": alpha_grad_at_rest if rest else alpha_grad,
                    "beta": beta_grad_zero_basis if ctx.base.expression_zero else beta_grad,
                    "phi": phi_grad}
        pose = () if rest else (pose_angle_tables if "joint_angles" in live else pose_tables,)
        cpus = _cpu_count()
        chunks = _scan_chunks(ctx.scans.n_scans, ctx.scans.n_vertices, cpus)
        return cls(
            ctx, tuple(chunks),
            slots or tuple(Workspace() for _ in range(min(len(chunks), cpus))),
            frozen, zero,
            stages=(unposed_blend, *pose, posed_chunks, basis_priors, coefficient_priors,
                    *(stage for k, stage in backward.items() if k in live)),
            barriers=tuple((k, *lim, k in live) for k, lim in limits.items() if k not in held),
            place=_place_at_rest if rest else _place_posed,
            back=(_back_at_rest if rest else _back_posed) if live else None)


def _loss_inputs(scans: ScanSet, base: BlendshapeModel) -> tuple:
    """What a loss reads of its scans and of its base model."""
    s = base.skeleton
    return (scans.ids, scans.vertices, scans.quads, base.template.vertices,
            base.expression_basis, base.skinning_weights, s.t0, s.a, s.limits, s.rest_rotations)


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
        return dict(vars(self))


@dataclass
class LossResult:
    total: float
    breakdown: dict[str, float]
    grads: dict[str, np.ndarray]   # the blocks not frozen
    scan_vertex_ms: np.ndarray     # (N,) mean squared vertex distance per scan


# the terms of a loss in the order they are listed and summed
_TERMS = ("data_vertex", "data_normal", "barrier_expr", "barrier_pose",
          "id_coeff", "id_basis", "laplacian", "edge")


@dataclass(eq=False)
class PosedChain:
    """One loss as the stages of its plan run it: its inputs, `theta` in
    canonical scan order, and what the stages add, down to the terms and
    the gradients of the live blocks.  The chunks fill `values` and the
    pose outputs, each chunk its own rows of them.  `vbar` holds dL/dvbar
    once the chunks have run: a chunk writes its rows of the gradient
    after its last read of its rows of vbar.  `pose` and `R_g` stay None
    at rest."""

    plan: LossPlan
    weights: LossWeights
    base: BlendshapeModel
    phi: np.ndarray                        # (m, V, 3) the basis being learned
    theta: ThetaBlocks
    vbar: np.ndarray | None = None         # (N, V, 3) unposed vertices
    pose: PoseDerivatives | None = None    # world transforms R_w, b_w of every scan
    R_g: np.ndarray | None = None          # (N, 3, 3) global rotations
    values: np.ndarray | None = None       # (3, N) vertex, normal and edge terms
    g_trans: np.ndarray | None = None      # (N, 3) global-translation gradient
    M_g: np.ndarray | None = None          # (N, 3, 3) global-rotation moments
    moments: np.ndarray | None = None      # (N, 4, 3, 4) [M_i | s_i] per joint
    phi_flat: np.ndarray | None = None     # (V, 3m) phi, vertex-major
    terms: dict[str, float] = field(default_factory=lambda: dict.fromkeys(_TERMS))
    barrier_grads: dict[str, np.ndarray] = field(default_factory=dict)
    grads: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def dLdvbar(self) -> np.ndarray:
        """(N, 3V) gradient at the unposed vertices, once the chunks ran."""
        return self.vbar.reshape(len(self.vbar), -1)


def unposed_blend(s: PosedChain) -> None:
    """Stage: the unposed vertices template + alpha . phi + beta . E of
    every scan, one batched GEMM per basis on the calling thread, into
    slot 0's workspace.  `evaluate_unposed` skips the expression GEMM when
    the basis E is all zero and beta finite, as its result would be +0.0
    throughout; the model checks its basis once, so a model's arrays must
    not change after its first loss."""
    s.vbar = evaluate_unposed(s.base, s.theta.alpha, s.theta.beta, identity_basis=s.phi,
                              ws=s.plan.slots[0])


def pose_tables(s: PosedChain) -> None:
    """Stage, off rest with the joint angles frozen: the world transforms
    of every scan with their pivot Jacobian, without the angle tables, and
    the global rotations."""
    s.pose = pose_transforms(s.base.skeleton, s.theta.alpha, s.theta.joint_angles)
    s.R_g = euler_xyz(s.theta.global_rot)


def pose_angle_tables(s: PosedChain) -> None:
    """Stage, with live joint angles: pose_tables' transforms and the
    analytic angle tables of the 4-joint tree."""
    s.pose = pose_derivatives(s.base.skeleton, s.theta.alpha, s.theta.joint_angles)
    s.R_g = euler_xyz(s.theta.global_rot)


def posed_chunks(s: PosedChain) -> None:
    """Stage: the posed-scan chain (`posed_chunk`), one cache-sized chunk
    of at least two scans at a time, on `parallel.run_workers` with one
    worker per slot: worker 0 on the calling thread and each other one on
    a pool thread opened for this loss, under the caller's numpy error
    state, joined before the stage returns (a pool of one thread costs
    about 120 us on a 2-core host, against a fit-large loss of 18-25 ms).
    A loss that fits one chunk, such as the desk head's, runs on the
    calling thread.  Then the data and edge terms summed over the scans."""
    ws, N, w = s.plan.slots[0], len(s.theta.alpha), s.weights
    s.values, s.g_trans, s.M_g = ws.take(3, N), ws.take(N, 3), ws.take(N, 3, 3)
    s.moments = ws.take(N, 4, 3, 4)
    run_workers(partial(_run_slot, s), len(s.plan.slots))
    vert_vals, norm_vals, edge_vals = s.values
    s.terms.update(data_vertex=w.w_vertex * float(vert_vals.sum()),
                   data_normal=w.w_normal * float(norm_vals.sum()),
                   edge=w.w_edge * float(edge_vals.sum()))


def basis_priors(s: PosedChain) -> None:
    """Stage: the basis norm w ||phi||^2 and the Laplacian prior
    w ||L phi||^2, the product into memory the chunks have given back
    (`mesh.csr_apply`); phi stays vertex-major for phi's gradient."""
    ws, (m, V, _) = s.plan.slots[0], s.phi.shape
    s.terms["id_basis"] = s.weights.w_id_basis * float(np.einsum("qva,qva->", s.phi, s.phi))
    s.phi_flat = ws.take(V, m * 3)
    np.copyto(s.phi_flat.reshape(V, m, 3), s.phi.transpose(1, 0, 2))
    with ws:
        lap_phi = csr_apply(s.plan.ctx.laplacian, s.phi_flat, ws.take(V, m * 3))
        s.terms["laplacian"] = s.weights.w_laplacian * float(np.einsum("ij,ij->", lap_phi, lap_phi))


def coefficient_priors(s: PosedChain) -> None:
    """Stage: the coefficient norm w ||alpha||^2 and the plan's quartic
    barriers on beta, the joint angles and the global rotations.  A block
    frozen at exactly zero within limits that contain 0 adds 0 to its
    barrier, each of its values being +0.0 (-0.0 entries too), so the plan
    leaves its barrier out."""
    w, alpha = s.weights, s.theta.alpha
    s.terms["id_coeff"] = w.w_id_coeff * float(np.einsum("nq,nq->", alpha, alpha))
    sums = dict.fromkeys(("beta", "joint_angles", "global_rot"), 0.0)
    for name, lo, hi, grad in s.plan.barriers:
        val, s.barrier_grads[name] = _barrier4(getattr(s.theta, name), lo, hi, grad)
        sums[name] = float(val.sum())
    s.terms["barrier_expr"] = w.w_barrier_expr * sums["beta"]
    s.terms["barrier_pose"] = w.w_barrier_pose * (sums["joint_angles"] + sums["global_rot"])


def global_trans_grad(s: PosedChain) -> None:
    """Backward stage: the chunks' per-scan sums of dL/dy."""
    s.grads["global_trans"] = s.g_trans


def global_rot_grad(s: PosedChain) -> None:
    """Backward stage: the global-rotation moments through the Euler
    derivatives, plus the barrier's."""
    s.grads["global_rot"] = (
        np.einsum("nkab,nab->nk", euler_xyz_grad(s.theta.global_rot), s.M_g)
        + s.weights.w_barrier_pose * s.barrier_grads["global_rot"])


def joint_angles_grad(s: PosedChain) -> None:
    """Backward stage: the joint moments [M_i | s_i] through the angle
    tables, plus the barrier's."""
    M, sums = s.moments[..., :3], s.moments[..., 3]
    s.grads["joint_angles"] = (np.einsum("nijkab,niab->njk", s.pose.dR_w, M)
                               + np.einsum("nijka,nia->njk", s.pose.db_w, sums)
                               + s.weights.w_barrier_pose * s.barrier_grads["joint_angles"])


def alpha_grad(s: PosedChain) -> None:
    """Backward stage off rest: dL/dvbar . phi, the pivot term (the joint
    sums s_i through the pivot Jacobian and the skeleton's offsets a) and
    the prior's 2 w alpha."""
    g_alpha = s.dLdvbar @ s.phi.reshape(len(s.phi), -1).T
    g_pivot = np.einsum("nijab,nia->njb", s.pose.db_dpiv, s.moments[..., 3])
    g_alpha += np.einsum("njb,jbq->nq", g_pivot, s.base.skeleton.a)
    s.grads["alpha"] = g_alpha + s.weights.w_id_coeff * 2.0 * s.theta.alpha


def alpha_grad_at_rest(s: PosedChain) -> None:
    """Backward stage at rest: alpha_grad without the pivot term, whose
    Jacobian I - R is zero at rest."""
    s.grads["alpha"] = (s.dLdvbar @ s.phi.reshape(len(s.phi), -1).T
                        + s.weights.w_id_coeff * 2.0 * s.theta.alpha)


def beta_grad(s: PosedChain) -> None:
    """Backward stage: dL/dvbar . E plus the barrier's derivative."""
    E = s.base.expression_basis
    s.grads["beta"] = (s.dLdvbar @ E.reshape(len(E), -1).T
                       + s.weights.w_barrier_expr * s.barrier_grads["beta"])


def beta_grad_zero_basis(s: PosedChain) -> None:
    """Backward stage against an all-zero expression basis (as in the base
    model fit builds when given none): a GEMM of finite values against
    zeros is +0.0 throughout, which turns only a -0.0 into +0.0, so +0.0
    is added in its place.  A dL/dvbar that is not finite runs beta_grad."""
    if not math.isfinite(s.dLdvbar.sum()):
        return beta_grad(s)
    s.grads["beta"] = s.weights.w_barrier_expr * s.barrier_grads["beta"] + 0.0


def phi_grad(s: PosedChain) -> None:
    """Backward stage: (alpha^T dL/dvbar + 2 w_b phi) + 2 w_l L^T L phi,
    summed in place."""
    ws, (m, V, _) = s.plan.slots[0], s.phi.shape
    g_phi = (s.theta.alpha.T @ s.dLdvbar).reshape(m, V, 3)
    g_phi += np.multiply(s.weights.w_id_basis * 2.0, s.phi, out=ws.take(m, V, 3))
    lap_gram_phi = csr_apply(s.plan.ctx.lap_gram, s.phi_flat, ws.take(V, m * 3))
    lap_gram_phi *= s.weights.w_laplacian * 2.0
    g_phi += lap_gram_phi.reshape(V, m, 3).transpose(1, 0, 2)
    s.grads["phi"] = g_phi


def _run_slot(chain: PosedChain, k: int) -> None:
    """posed_chunk over worker slot k's chunks in turn, in its workspace."""
    for c in chain.plan.chunks[k::len(chain.plan.slots)]:
        with chain.plan.slots[k] as ws:        # a chunk's arrays die with it
            posed_chunk(chain, c, ws)


def posed_chunk(chain: PosedChain, c: slice, ws: Workspace) -> None:
    """The posed-scan chain of the scans in chunk `c`: the plan's `place`,
    the data and edge terms on one component-major (3, V, n) copy of the
    positions, and the plan's `back` with their gradient.  Its arrays are
    taken from `ws`, in a frame the caller opens."""
    plan, ctx, wt, vals = chain.plan, chain.plan.ctx, chain.weights, chain.values
    y_cm = ws.take(*chain.vbar[c].shape[::-1])
    v_out = plan.place(chain, c, ws, y_cm)
    grad = plan.back is not None
    vals[0, c], vals[1, c], g = _data_term(y_cm, ctx.targets[..., c], ctx.target_normals[..., c],
                                           ctx.faces, wt.w_vertex, wt.w_normal, grad, ws)
    vals[2, c], edge_grad = edge_length_energy(y_cm, ctx.ref_edge_lengths, ctx.incidence, ws, grad)
    if grad:
        edge_grad *= wt.w_edge
        g += edge_grad
        plan.back(chain, c, ws, g, v_out)


def _place_at_rest(chain: PosedChain, c: slice, ws: Workspace, y_cm: np.ndarray) -> None:
    """Chunk c's positions y_cm at rest: a copy of its unposed vertices."""
    np.copyto(y_cm, chain.vbar[c].transpose(2, 1, 0))


def _place_posed(chain: PosedChain, c: slice, ws: Workspace, y_cm: np.ndarray) -> np.ndarray:
    """Chunk c's positions y_cm: skinning, then the global transform;
    returns the skinned vertices."""
    vbar, R_g = chain.vbar[c], chain.R_g[c]
    v_out = lbs_apply(chain.base.skinning_weights, chain.pose.R_w[c], chain.pose.b_w[c], vbar, ws)
    with ws:
        y = np.matmul(v_out, np.swapaxes(R_g, 1, 2), out=ws.take(*v_out.shape))
        y += chain.theta.global_trans[c, None, :]
        np.copyto(y_cm, y.transpose(2, 1, 0))
    return v_out


def _back_at_rest(chain: PosedChain, c: slice, ws: Workspace, grad: np.ndarray,
                  v_out: None) -> None:
    """At rest the gradient at the positions is chunk c's rows of dL/dvbar."""
    chain.vbar[c] = grad.transpose(2, 1, 0)


def _back_posed(chain: PosedChain, c: slice, ws: Workspace, grad: np.ndarray,
                v_out: np.ndarray) -> None:
    """Back through the global transform and the skinning: chunk c's rows
    of the global-translation gradient, the global-rotation moments, the
    joint moments and, over vbar's, dL/dvbar.  The joint moments
    [M_i | s_i] = sum_v w_vi g_v [vbar_v | 1]^T of g = dL/dv_out are one
    batched GEMM per joint of the weighted gradient rows; the sums s_i
    feed the pivots, so alpha, and M_i the joint angles.  Every output is
    filled whichever blocks are frozen: a fit that freezes the pose off
    rest still needs the sums for alpha, and the global outputs cost a
    sum and a 3x3 product per scan."""
    w, vbar = chain.base.skinning_weights, chain.vbar[c]
    dLdy = ws.take(*grad.shape[::-1])
    np.copyto(dLdy, grad.transpose(2, 1, 0))
    chain.g_trans[c] = dLdy.sum(axis=1)
    chain.M_g[c] = np.swapaxes(dLdy, 1, 2) @ v_out
    dLdv_out = np.matmul(dLdy, chain.R_g[c], out=ws.take(*dLdy.shape))
    with ws:
        g_t = ws.take(*np.swapaxes(dLdv_out, 1, 2).shape)
        np.copyto(g_t, np.swapaxes(dLdv_out, 1, 2))
        vbar1 = ws.take(*vbar.shape[:2], 4)
        vbar1[..., :3] = vbar
        vbar1[..., 3] = 1.0
        g_w = ws.take(*g_t.shape)
        chain.moments[c] = np.stack(
            [np.multiply(g_t, w_i, out=g_w) @ vbar1 for w_i in w.T], axis=1)
    with ws:
        chain.vbar[c] = lbs_adjoint(w, chain.pose.R_w[c], dLdv_out, ws)


def total_loss(thetas: ThetaBlocks, phi: np.ndarray,
               scans: ScanSet, weights: LossWeights,
               base: BlendshapeModel, plan: LossPlan | None = None,
               frozen: frozenset[str] = frozenset()) -> LossResult:
    """Full learning loss and analytic gradients for every parameter block
    but those in `frozen`, a subset of BLOCKS; with all of them frozen only
    the forward pass runs and `grads` is empty.

    `base` supplies template, expression basis, skeleton and skinning
    weights (all held fixed); `phi` is the identity basis being learned.
    `plan` is `LossPlan.build(LossContext.build(scans, base), frozen,
    thetas)`, built here when not given; a caller that runs many losses
    keeps one, as fit does, so that its losses reuse their arrays.  The
    plan must be one for these arguments: built from these scans and this
    base model (or equal ones) for these frozen blocks, with zero still in
    every block it recorded as zero.  No returned array shares memory with
    the plan.
    """
    phi = np.asarray(phi, dtype=np.float64)
    N, V, m = scans.n_scans, scans.n_vertices, phi.shape[0]
    if phi.shape[1:] != (V, 3):
        raise DimensionMismatch(f"phi must be (m, {V}, 3), got {phi.shape}")
    if base.skeleton.n_identity != m:
        raise DimensionMismatch(
            f"skeleton identity offsets expect m={base.skeleton.n_identity}, phi has m={m}")
    if thetas.alpha.shape != (N, m):
        raise DimensionMismatch(
            f"alpha blocks {thetas.alpha.shape} inconsistent with (N={N}, m={m})")
    if plan is None:
        plan = LossPlan.build(LossContext.build(scans, base), frozen, thetas)
    ctx = plan.ctx
    if (ctx.scans is not scans or ctx.base is not base) and not all(
            map(np.array_equal, _loss_inputs(ctx.scans, ctx.base), _loss_inputs(scans, base))):
        raise DimensionMismatch("loss context was built from other scans or another base "
                                "model (template, expression basis, skinning or skeleton)")
    if frozenset(frozen) != plan.frozen:
        raise InvalidParam(f"plan was built for frozen blocks {sorted(plan.frozen)}, "
                           f"not {sorted(frozen)}")
    nonzero = sorted(k for k in plan.zero if getattr(thetas, k).any())
    if nonzero:
        raise InvalidParam(f"plan was built with {nonzero} held at zero; they are not")
    # canonical scan order: every reduction runs in sorted-id order
    order, inv_order = ctx.order, ctx.inv_order
    chain = PosedChain(plan, weights, base, phi,
                       ThetaBlocks(**{k: v[order] for k, v in thetas.as_dict().items()}))
    # the loss's per-scan arrays live in slot 0's workspace until the
    # gradients are out of them
    with plan.slots[0]:
        for stage in plan.stages:
            stage(chain)
        scan_vertex_ms = chain.values[0][inv_order]
        # phi is shared; the per-scan blocks go back to input order, as copies
        grads = {k: chain.grads[k] if k == "phi" else chain.grads[k][inv_order]
                 for k in ("phi", *thetas.as_dict()) if k in chain.grads}
    return LossResult(total=float(reduce(add, chain.terms.values())), breakdown=chain.terms,
                      grads=grads, scan_vertex_ms=scan_vertex_ms)


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

    phi = _init_phi(scans, base.template.vertices, m, schedule, rng)
    theta = ThetaBlocks.zeros(scans.n_scans, m, base.n_expression)
    plan = LossPlan.build(LossContext.build(scans, base), schedule.frozen, theta)

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

    # the loss of the returned parameters, its values only, on the loop's
    # context and workspaces
    theta = ThetaBlocks(**{k: v for k, v in params.items() if k != "phi"})
    final = total_loss(theta, params["phi"], scans, weights, base, frozen=BLOCKS,
                       plan=LossPlan.build(plan.ctx, BLOCKS, theta, plan.slots))
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
