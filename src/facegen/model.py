"""Articulated parametric face model.

The unposed head is a template plus linear combinations of identity and
expression displacement fields.  Pose is linear-blend skinning over a
4-joint skeleton (neck root; jaw and both eyes parented to it) whose
pivots move linearly with the identity coefficients, followed by one
global rigid transform.  Euler angles use the intrinsic XYZ convention:
R = Rx(a) @ Ry(b) @ Rz(c).

All evaluation functions accept arbitrary leading batch dimensions on
the coefficient arrays and are pure; models are immutable after load.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidParam, PoseLimitViolation
from .mesh import QuadMesh, Workspace

JOINT_NAMES = ("neck", "jaw", "eye_left", "eye_right")
# the joint tree: the neck (joint 0) is the root and the parent of every
# other joint, its CHILDREN
CHILDREN = slice(1, 4)
_CHILD_IDS = np.arange(len(JOINT_NAMES))[CHILDREN]    # indexes the diagonals [j, j]


def euler_xyz(angles: np.ndarray) -> np.ndarray:
    """Rotation matrices for intrinsic-XYZ Euler angles, shape (..., 3) -> (..., 3, 3)."""
    angles = np.asarray(angles, dtype=np.float64)
    a, b, c = angles[..., 0], angles[..., 1], angles[..., 2]
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    R = np.empty(angles.shape[:-1] + (3, 3))
    R[..., 0, 0] = cb * cc
    R[..., 0, 1] = -cb * sc
    R[..., 0, 2] = sb
    R[..., 1, 0] = ca * sc + cc * sa * sb
    R[..., 1, 1] = ca * cc - sa * sb * sc
    R[..., 1, 2] = -cb * sa
    R[..., 2, 0] = sa * sc - ca * cc * sb
    R[..., 2, 1] = cc * sa + ca * sb * sc
    R[..., 2, 2] = ca * cb
    return R


def euler_xyz_grad(angles: np.ndarray) -> np.ndarray:
    """d(euler_xyz)/d(angle_k), shape (..., 3) -> (..., 3, 3, 3), axis -3 indexes k."""
    angles = np.asarray(angles, dtype=np.float64)
    a, b, c = angles[..., 0], angles[..., 1], angles[..., 2]
    z = np.zeros_like(a)
    o = np.ones_like(a)
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)

    def mat(rows):
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    Rx = mat([[o, z, z], [z, ca, -sa], [z, sa, ca]])
    Ry = mat([[cb, z, sb], [z, o, z], [-sb, z, cb]])
    Rz = mat([[cc, -sc, z], [sc, cc, z], [z, z, o]])
    dRx = mat([[z, z, z], [z, -sa, -ca], [z, ca, -sa]])
    dRy = mat([[-sb, z, cb], [z, z, z], [-cb, z, -sb]])
    dRz = mat([[-sc, -cc, z], [cc, -sc, z], [z, z, z]])
    d0 = dRx @ Ry @ Rz
    d1 = Rx @ dRy @ Rz
    d2 = Rx @ Ry @ dRz
    return np.stack([d0, d1, d2], axis=-3)


@dataclass(frozen=True)
class Skeleton:
    """4-joint skeleton: template pivots, identity pivot offsets, limits.

    t0     : (4, 3) template joint positions (meters)
    a      : (4, 3, m) identity-offset matrices, pivot_i = t0_i + a_i @ alpha
    limits : (4, 3, 2) per-joint per-axis [min, max] rotation limits (radians)
    rest_rotations : optional (4, 3, 3) joint rest frames; Euler angles act
        inside these frames (A E A^T), so a rigidly transformed skeleton
        poses equivariantly with unchanged angles.  Defaults to identity.
    """

    t0: np.ndarray
    a: np.ndarray
    limits: np.ndarray
    rest_rotations: np.ndarray | None = None

    def __post_init__(self):
        t0 = np.asarray(self.t0, dtype=np.float64)
        a = np.asarray(self.a, dtype=np.float64)
        limits = np.asarray(self.limits, dtype=np.float64)
        if t0.shape != (4, 3):
            raise InvalidParam(f"t0 must be (4, 3), got {t0.shape}")
        if a.ndim != 3 or a.shape[:2] != (4, 3):
            raise InvalidParam(f"a must be (4, 3, m), got {a.shape}")
        if limits.shape != (4, 3, 2):
            raise InvalidParam(f"limits must be (4, 3, 2), got {limits.shape}")
        if not (limits[..., 0] < limits[..., 1]).all():
            raise InvalidParam("rotation limits need min < max per axis")
        if not (np.abs(limits) < np.pi).all():
            raise InvalidParam("rotation limits must satisfy |limit| < pi")
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "limits", limits)
        if self.rest_rotations is not None:
            A = np.asarray(self.rest_rotations, dtype=np.float64)
            if A.shape != (4, 3, 3):
                raise InvalidParam(f"rest_rotations must be (4, 3, 3), got {A.shape}")
            if np.max(np.abs(np.swapaxes(A, 1, 2) @ A - np.eye(3))) > 1e-9:
                raise InvalidParam("rest_rotations must be orthonormal")
            object.__setattr__(self, "rest_rotations", A)

    def joint_rotations(self, joint_angles: np.ndarray) -> np.ndarray:
        """Local rotation matrices, conjugated into the joint rest frames."""
        E = euler_xyz(joint_angles)
        if self.rest_rotations is None:
            return E
        A = self.rest_rotations
        return A @ E @ np.swapaxes(A, -1, -2)

    def joint_rotation_grads(self, joint_angles: np.ndarray) -> np.ndarray:
        dE = euler_xyz_grad(joint_angles)
        if self.rest_rotations is None:
            return dE
        A = self.rest_rotations[:, None]      # broadcast over the angle axis
        return A @ dE @ np.swapaxes(A, -1, -2)

    @property
    def n_identity(self) -> int:
        return self.a.shape[2]

    @cached_property
    def limits_hold_zero(self) -> bool:
        """Whether every joint limit interval contains angle 0, computed
        once per skeleton: then the pose barrier of zero angles is 0."""
        return bool((self.limits[..., 0] <= 0.0).all() and (self.limits[..., 1] >= 0.0).all())

    def pivots(self, alpha: np.ndarray) -> np.ndarray:
        """Identity-adjusted joint pivots t0 + a @ alpha, batched over alpha."""
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.shape[-1] != self.n_identity:
            raise DimensionMismatch(
                f"alpha has {alpha.shape[-1]} coeffs, skeleton expects {self.n_identity}")
        return self.t0 + np.einsum("jkm,...m->...jk", self.a, alpha)

    def check_limits(self, joint_angles: np.ndarray) -> None:
        ang = np.asarray(joint_angles, dtype=np.float64)
        lo, hi = self.limits[..., 0], self.limits[..., 1]
        bad = (ang < lo) | (ang > hi)
        if np.any(bad):
            n, j, k = np.argwhere(bad.reshape(-1, 4, 3))[0]
            v = float(ang.reshape(-1, 4, 3)[n, j, k])
            raise PoseLimitViolation(JOINT_NAMES[j], int(k), v, float(lo[j, k]), float(hi[j, k]))


@dataclass(frozen=True)
class Pose:
    """Pose parameters: 4x3 joint Euler angles plus one global rigid transform.

    The 15-dim pose vector is joint_angles flattened followed by the
    global rotation angles; global translation is carried separately.
    """

    joint_angles: np.ndarray
    global_rot: np.ndarray
    global_trans: np.ndarray

    def __post_init__(self):
        ja = np.asarray(self.joint_angles, dtype=np.float64).reshape(4, 3)
        gr = np.asarray(self.global_rot, dtype=np.float64).reshape(3)
        gt = np.asarray(self.global_trans, dtype=np.float64).reshape(3)
        object.__setattr__(self, "joint_angles", ja)
        object.__setattr__(self, "global_rot", gr)
        object.__setattr__(self, "global_trans", gt)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.zeros((4, 3)), np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class ModelParams:
    """theta = (alpha, beta, gamma) for one face instance."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: Pose

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=np.float64).reshape(-1))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=np.float64).reshape(-1))

    @classmethod
    def zeros(cls, n_identity: int, n_expression: int = 51) -> "ModelParams":
        return cls(np.zeros(n_identity), np.zeros(n_expression), Pose.identity())


@dataclass(frozen=True)
class BlendshapeModel:
    """Template mesh, identity/expression bases, skeleton, skinning weights."""

    template: QuadMesh
    identity_basis: np.ndarray      # (m, V, 3)
    expression_basis: np.ndarray    # (n_expr, V, 3)
    skeleton: Skeleton
    skinning_weights: np.ndarray    # (V, 4)
    eyelid_left: np.ndarray | None = None
    eyelid_right: np.ndarray | None = None

    def __post_init__(self):
        V = self.template.n_vertices
        idb = np.asarray(self.identity_basis, dtype=np.float64)
        exb = np.asarray(self.expression_basis, dtype=np.float64)
        w = np.asarray(self.skinning_weights, dtype=np.float64)
        if idb.ndim != 3 or idb.shape[1:] != (V, 3):
            raise DimensionMismatch(f"identity basis must be (m, {V}, 3), got {idb.shape}")
        if exb.ndim != 3 or exb.shape[1:] != (V, 3):
            raise DimensionMismatch(f"expression basis must be (n, {V}, 3), got {exb.shape}")
        if w.shape != (V, 4):
            raise DimensionMismatch(f"skinning weights must be ({V}, 4), got {w.shape}")
        if np.any(w < 0):
            raise InvalidParam("skinning weights must be nonnegative")
        if np.any(np.abs(w.sum(axis=1) - 1.0) > 1e-9):
            raise InvalidParam("skinning weight rows must sum to 1 within 1e-9")
        if self.skeleton.n_identity != idb.shape[0]:
            raise DimensionMismatch(
                f"skeleton identity offsets expect m={self.skeleton.n_identity}, "
                f"basis has m={idb.shape[0]}")
        object.__setattr__(self, "identity_basis", idb)
        object.__setattr__(self, "expression_basis", exb)
        object.__setattr__(self, "skinning_weights", w)
        for side in ("eyelid_left", "eyelid_right"):
            ids = getattr(self, side)
            if ids is not None:
                ids = np.asarray(ids, dtype=np.int64)
                if ids.size and (ids.min() < 0 or ids.max() >= V):
                    raise IndexOutOfRange(f"{side} vertex ids must lie in [0, {V})")
                object.__setattr__(self, side, ids)

    @property
    def n_identity(self) -> int:
        return self.identity_basis.shape[0]

    @property
    def n_expression(self) -> int:
        return self.expression_basis.shape[0]

    @cached_property
    def expression_zero(self) -> bool:
        """Whether every expression displacement is zero (-0.0 counts), as
        in the default base model's basis; computed once per model."""
        return not self.expression_basis.any()

    @property
    def n_vertices(self) -> int:
        return self.template.n_vertices


def evaluate_unposed(model: BlendshapeModel, alpha: np.ndarray, beta: np.ndarray,
                     identity_basis: np.ndarray | None = None,
                     ws: Workspace | None = None) -> np.ndarray:
    """Unposed vertices: template + alpha . identity basis + beta . expression basis.

    alpha (..., m) may carry batch dimensions, which beta's (..., n_expr)
    broadcast against.  An `identity_basis` (m, V, 3) is blended in place
    of the model's own (the learner's basis, which changes every step);
    the result is taken from `ws`.
    """
    basis = model.identity_basis if identity_basis is None else identity_basis
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if alpha.shape[-1] != len(basis):
        raise DimensionMismatch(
            f"alpha has {alpha.shape[-1]} coeffs, model expects {len(basis)}")
    if beta.shape[-1] != model.n_expression:
        raise DimensionMismatch(
            f"beta has {beta.shape[-1]} coeffs, model expects {model.n_expression}")
    ws = ws or Workspace()
    # (template + identity blend) + expression blend: the first sum in
    # either order is the same, bit for bit
    out = _blend_fields(alpha, basis, ws.take(*alpha.shape[:-1], *basis.shape[1:]))
    out += model.template.vertices
    # (a beta of another batch shape broadcasts into out, or fails to, in the add)
    if beta.shape[:-1] == alpha.shape[:-1] and _zero_blend(model, beta):
        # adding +0.0 could only turn a -0.0 of out into +0.0, and out holds
        # none: a GEMM never returns -0.0 and x + t is -0.0 only if both are
        return out
    with ws:
        exb = model.expression_basis
        out += _blend_fields(beta, exb, ws.take(*beta.shape[:-1], *exb.shape[1:]))
    return out


def _zero_blend(model: BlendshapeModel, beta: np.ndarray) -> bool:
    """Whether beta . the expression basis is +0.0 in every entry, as its GEMM
    returns a sum of zero products whatever their signs (its accumulators
    start at +0.0): the basis is all zero and beta finite."""
    return model.expression_zero and bool(np.isfinite(beta).all())


def _blend_fields(coeffs: np.ndarray, basis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """coeffs (..., q) . basis (q, V, 3) into `out` (..., V, 3), as one GEMM
    against the (q, 3V) basis."""
    flat = basis.reshape(basis.shape[0], -1)
    np.matmul(coeffs, flat, out=out.reshape(*coeffs.shape[:-1], flat.shape[1]))
    return out


def world_transforms(skeleton: Skeleton, alpha: np.ndarray,
                     joint_angles: np.ndarray,
                     check_limits: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """World-space joint transforms composed along the neck-rooted tree.

    Each local transform rotates about its identity-adjusted pivot.
    Returns (R_w (..., 4, 3, 3), b_w (..., 4, 3), pivots (..., 4, 3)) with
    the transform acting as x -> R_w @ x + b_w.
    """
    joint_angles = np.asarray(joint_angles, dtype=np.float64)
    if joint_angles.shape[-2:] != (4, 3):
        raise DimensionMismatch(f"joint angles must be (..., 4, 3), got {joint_angles.shape}")
    if check_limits:
        skeleton.check_limits(joint_angles)
    return _compose(skeleton, alpha, skeleton.joint_rotations(joint_angles))[:3]


def _compose(skeleton: Skeleton, alpha: np.ndarray, R: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compose local joint rotations R (..., 4, 3, 3) along the tree.

    Returns (R_w, b_w, pivots, b_loc) with b_loc the local offsets
    t - R t of the rotations about their pivots t.
    """
    piv = skeleton.pivots(alpha)                       # (..., 4, 3)
    # local affine: x -> R (x - t) + t
    b_loc = piv - np.einsum("...jab,...jb->...ja", R, piv)
    Rn = R[..., 0, :, :]
    R_w = R.copy()
    b_w = b_loc.copy()
    R_w[..., CHILDREN, :, :] = Rn[..., None, :, :] @ R[..., CHILDREN, :, :]
    b_w[..., CHILDREN, :] = (np.einsum("...ab,...jb->...ja", Rn, b_loc[..., CHILDREN, :])
                             + b_loc[..., :1, :])
    return R_w, b_w, piv, b_loc


def apply_pose(model: BlendshapeModel, alpha: np.ndarray, pose: Pose,
               unposed: np.ndarray, check_limits: bool = True) -> np.ndarray:
    """Linear-blend skinning followed by the global rigid transform."""
    unposed = np.asarray(unposed, dtype=np.float64)
    if unposed.shape[-2] != model.n_vertices:
        raise DimensionMismatch(
            f"unposed has {unposed.shape[-2]} vertices, model has {model.n_vertices}")
    R_w, b_w, _ = world_transforms(model.skeleton, alpha, pose.joint_angles, check_limits)
    v_out = lbs_apply(model.skinning_weights, R_w, b_w, unposed)
    R_g = euler_xyz(pose.global_rot)
    return np.einsum("...ab,...vb->...va", R_g, v_out) + pose.global_trans


def lbs_apply(weights: np.ndarray, R_w: np.ndarray, b_w: np.ndarray,
              unposed: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """v = sum_i w_vi (R_i v + b_i), evaluated in delta form
    v + sum_i w_vi ((R_i - I) v + b_i) so the rest pose reproduces the
    input bit-exactly despite float rounding in the weight rows.  Both
    blends are GEMMs over the joints; applying the per-vertex 3x3 blend
    is elementwise.  The result is taken from `ws`."""
    ws = ws or Workspace()
    out = _apply_rotation_blend(weights, R_w, unposed, "...vab,...vb->...va", ws)
    with ws:
        out += np.matmul(weights, b_w, out=ws.take(*b_w.shape[:-2], len(weights), 3))
    return out


def lbs_adjoint(weights: np.ndarray, R_w: np.ndarray, grad: np.ndarray,
                ws: Workspace) -> np.ndarray:
    """Adjoint of lbs_apply w.r.t. the unposed vertices:
    g + sum_i w_vi (R_i - I)^T g for a gradient g (..., V, 3), taken from `ws`."""
    return _apply_rotation_blend(weights, R_w, grad, "...vab,...va->...vb", ws)


def _apply_rotation_blend(weights: np.ndarray, R_w: np.ndarray, x: np.ndarray,
                          subscripts: str, ws: Workspace) -> np.ndarray:
    """x + the per-vertex rotation blend of R_w (..., 4, 3, 3) applied to
    x (..., V, 3), of the same batch, by the einsum `subscripts`; taken
    from `ws`."""
    out = ws.take(*x.shape)
    with ws:
        blend = _rotation_blend(weights, R_w, ws.take(*x.shape, 3))
        np.einsum(subscripts, blend, x, out=out)
    out += x
    return out


def _rotation_blend(weights: np.ndarray, R_w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-vertex blend sum_i w_vi (R_i - I) of joint rotations
    (..., 4, 3, 3) as one GEMM, into `out` (..., V, 3, 3); exactly zero at
    the rest pose."""
    D = (R_w - np.eye(3)).reshape(R_w.shape[:-2] + (9,))
    np.matmul(weights, D, out=out.reshape(out.shape[:-2] + (9,)))
    return out


def evaluate(model: BlendshapeModel, params: ModelParams,
             check_limits: bool = True) -> QuadMesh:
    """Full transform from parameters to a posed mesh on the template topology."""
    unposed = evaluate_unposed(model, params.alpha, params.beta)
    posed = apply_pose(model, params.alpha, params.gamma, unposed, check_limits)
    return model.template.with_vertices(posed)


# ---------------------------------------------------------------------------
# derivative tables for the pose chain (shared by the Jacobian and the
# learner's backward pass)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoseDerivatives:
    """Forward transforms plus their derivatives w.r.t. pivots and pose.

    Leading batch dims match the inputs.  Layout:
      R_w, b_w : (..., 4, 3, 3), (..., 4, 3)
      db_dpiv  : (..., 4, 4, 3, 3)     [i, j]    = d b_w[i] / d pivot[j]
      dR_w     : (..., 4, 4, 3, 3, 3)  [i, j, k] = d R_w[i] / d angle[j, k]
      db_w     : (..., 4, 4, 3, 3)     [i, j, k] = d b_w[i] / d angle[j, k]
    Only the neck column (j=0) and the diagonal (j=i) are nonzero.
    """

    R_w: np.ndarray
    b_w: np.ndarray
    pivots: np.ndarray
    db_dpiv: np.ndarray
    dR_w: np.ndarray
    db_w: np.ndarray


def _pivot_jacobian(R: np.ndarray) -> np.ndarray:
    """db_dpiv of the tree composed from local rotations R (..., 4, 3, 3):
    I - R_neck in the neck column, R_neck (I - R_j) on the diagonal."""
    Rn, eye, c = R[..., 0, :, :], np.eye(3), _CHILD_IDS
    db_dpiv = np.zeros(R.shape[:-3] + (4, 4, 3, 3))
    db_dpiv[..., :, 0, :, :] = (eye - Rn)[..., None, :, :]
    db_dpiv[..., c, c, :, :] = Rn[..., None, :, :] @ (eye - R[..., CHILDREN, :, :])
    return db_dpiv


def pose_derivatives(skeleton: Skeleton, alpha: np.ndarray,
                     joint_angles: np.ndarray) -> PoseDerivatives:
    """World transforms (composed as in world_transforms, without the limit
    check), their pivot Jacobian and the analytic angle tables of the
    4-joint tree."""
    R = skeleton.joint_rotations(joint_angles)           # (..., 4, 3, 3)
    dR = skeleton.joint_rotation_grads(joint_angles)     # (..., 4, 3, 3, 3)
    R_w, b_w, piv, b_loc = _compose(skeleton, alpha, R)

    Rn = R[..., 0, :, :]
    dRn = dR[..., 0, :, :, :]                      # (..., 3, 3, 3)
    tn = piv[..., 0, :]
    R_c, dR_c = R[..., CHILDREN, :, :], dR[..., CHILDREN, :, :, :]
    c, cc = CHILDREN, _CHILD_IDS

    dR_w = np.zeros(R.shape[:-3] + (4, 4, 3, 3, 3))
    db_w = np.zeros(R.shape[:-3] + (4, 4, 3, 3))
    # the neck is its own world transform
    dR_w[..., 0, 0, :, :, :] = dRn
    db_w[..., 0, 0, :, :] = -np.einsum("...kab,...b->...ka", dRn, tn)
    # the children by the neck's angles, then by their own
    dR_w[..., c, 0, :, :, :] = np.einsum("...kab,...jbc->...jkac", dRn, R_c)
    db_w[..., c, 0, :, :] = np.einsum(
        "...kab,...jb->...jka", dRn, b_loc[..., c, :] - tn[..., None, :])
    dR_w[..., cc, cc, :, :, :] = np.einsum("...ab,...jkbc->...jkac", Rn, dR_c)
    db_w[..., cc, cc, :, :] = -np.einsum(
        "...ab,...jkbc,...jc->...jka", Rn, dR_c, piv[..., c, :])

    return PoseDerivatives(R_w, b_w, piv, _pivot_jacobian(R), dR_w, db_w)


def param_layout(model: BlendshapeModel) -> dict[str, slice]:
    """Column layout of the full Jacobian: alpha, beta, joint angles (12),
    global rotation (3), global translation (3)."""
    m, ne = model.n_identity, model.n_expression
    ofs = 0
    layout = {}
    for name, width in (("alpha", m), ("beta", ne), ("joint_angles", 12),
                        ("global_rot", 3), ("global_trans", 3)):
        layout[name] = slice(ofs, ofs + width)
        ofs += width
    layout["total"] = slice(0, ofs)
    return layout


def evaluate_with_jacobian(model: BlendshapeModel, params: ModelParams,
                           check_limits: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Posed vertices and the dense Jacobian (V, 3, P) over all parameters.

    Column order follows param_layout; meant for desk-scale validation,
    the learner uses the adjoint path instead.
    """
    m, ne = model.n_identity, model.n_expression
    V = model.n_vertices
    w = model.skinning_weights
    unposed = evaluate_unposed(model, params.alpha, params.beta)
    if check_limits:
        model.skeleton.check_limits(params.gamma.joint_angles)
    der = pose_derivatives(model.skeleton, params.alpha, params.gamma.joint_angles)
    v_out = lbs_apply(w, der.R_w, der.b_w, unposed)
    R_g = euler_xyz(params.gamma.global_rot)
    dR_g = euler_xyz_grad(params.gamma.global_rot)
    posed = v_out @ R_g.T + params.gamma.global_trans

    P = m + ne + 12 + 3 + 3
    jac = np.zeros((V, 3, P))
    layout = param_layout(model)

    # d v_out / d vbar in delta form: I + sum_i w_vi (R_i - I)
    blend_R = np.eye(3) + _rotation_blend(w, der.R_w, np.empty((V, 3, 3)))

    # identity: blendshape path plus pivot path
    dvbar = np.einsum("vab,qvb->qva", blend_R, model.identity_basis)
    piv_path = np.einsum("vi,ijab,jbq->vaq", w, der.db_dpiv, model.skeleton.a)
    jac[:, :, layout["alpha"]] = np.einsum("qva->vaq", dvbar) + piv_path

    # expression: blendshape path only
    dvbar_e = np.einsum("vab,qvb->qva", blend_R, model.expression_basis)
    jac[:, :, layout["beta"]] = np.einsum("qva->vaq", dvbar_e)

    # joint angles
    dpose = (np.einsum("vi,ijkab,vb->vajk", w, der.dR_w, unposed)
             + np.einsum("vi,ijka->vajk", w, der.db_w))
    jac[:, :, layout["joint_angles"]] = dpose.reshape(V, 3, 12)

    # everything so far is pre-global; rotate into the output frame
    jac[:, :, :m + ne + 12] = np.einsum(
        "ab,vbp->vap", R_g, jac[:, :, :m + ne + 12])

    jac[:, :, layout["global_rot"]] = np.einsum("kab,vb->vak", dR_g, v_out)
    jac[:, :, layout["global_trans"]] = np.broadcast_to(np.eye(3), (V, 3, 3))
    return posed, jac
