import dataclasses

import numpy as np
import pytest

from facegen.errors import DimensionMismatch, PoseLimitViolation
from facegen.mesh import Workspace
from facegen.model import (
    ModelParams,
    Pose,
    evaluate,
    evaluate_unposed,
    evaluate_with_jacobian,
    euler_xyz,
    lbs_adjoint,
    lbs_apply,
    param_layout,
    pose_derivatives,
    world_transforms,
)
from facegen.procedural import desk_head

from conftest import (
    lbs_adjoint_reference,
    lbs_apply_reference,
    pose_derivatives_reference,
    pose_with,
)


@pytest.fixture
def model():
    return desk_head(m=3, n_expression=4, seed=11, identity_coupling=0.01)


def random_params(model, rng, pose_scale=0.15):
    return ModelParams(
        0.4 * rng.standard_normal(model.n_identity),
        rng.uniform(0.1, 0.9, model.n_expression),
        Pose(pose_scale * rng.standard_normal((4, 3)),
             pose_scale * rng.standard_normal(3),
             0.02 * rng.standard_normal(3)))


class TestEuler:
    def test_zero_is_exact_identity(self):
        assert np.array_equal(euler_xyz(np.zeros(3)), np.eye(3))

    def test_orthonormal(self, rng):
        R = euler_xyz(rng.uniform(-2, 2, (10, 3)))
        eye = np.broadcast_to(np.eye(3), R.shape)
        assert np.allclose(np.swapaxes(R, -1, -2) @ R, eye, atol=1e-12)
        assert np.allclose(np.linalg.det(R), 1.0, atol=1e-12)

    def test_single_axis(self):
        a = 0.3
        Rx = euler_xyz([a, 0.0, 0.0])
        expect = np.array([[1, 0, 0],
                           [0, np.cos(a), -np.sin(a)],
                           [0, np.sin(a), np.cos(a)]])
        assert np.allclose(Rx, expect, atol=1e-15)


class TestEvaluateUnposed:
    def test_zero_coefficients_is_template(self, model):
        out = evaluate_unposed(model, np.zeros(3), np.zeros(4))
        assert np.array_equal(out, model.template.vertices)

    def test_one_hot_adds_basis_field(self, model):
        e1 = np.array([0.0, 1.0, 0.0])
        out = evaluate_unposed(model, e1, np.zeros(4))
        assert np.allclose(out, model.template.vertices + model.identity_basis[1],
                           atol=1e-15)

    def test_matches_naive_loop(self, model, rng):
        alpha = rng.standard_normal(3)
        beta = rng.uniform(0, 1, 4)
        out = evaluate_unposed(model, alpha, beta)
        naive = model.template.vertices.copy()
        for i in range(3):
            naive = naive + alpha[i] * model.identity_basis[i]
        for i in range(4):
            naive = naive + beta[i] * model.expression_basis[i]
        assert np.allclose(out, naive, atol=1e-12)

    def test_dimension_mismatch(self, model):
        with pytest.raises(DimensionMismatch):
            evaluate_unposed(model, np.zeros(5), np.zeros(4))

    def test_batched_matches_per_item(self, model, rng):
        alpha = rng.standard_normal((5, 3))
        beta = rng.uniform(0, 1, 4)          # broadcast against the batch
        batched = evaluate_unposed(model, alpha, beta)
        assert batched.shape == (5, model.n_vertices, 3)
        for k in range(5):
            assert np.allclose(batched[k], evaluate_unposed(model, alpha[k], beta),
                               rtol=0, atol=1e-15)


class TestJointTransforms:
    def test_rest_pose_identity_at_template_pivots(self, model):
        R_w, b_w, piv = world_transforms(model.skeleton, np.zeros(3), np.zeros((4, 3)))
        assert np.array_equal(R_w, np.broadcast_to(np.eye(3), (4, 3, 3)))
        assert np.allclose(b_w, 0.0, atol=1e-15)
        assert np.array_equal(piv, model.skeleton.t0)

    def test_neck_rotation_moves_children_rigidly(self, model):
        ang = np.zeros((4, 3))
        ang[0, 1] = 0.3   # neck yaw
        R_w, b_w, _ = world_transforms(model.skeleton, np.zeros(3), ang)
        R = euler_xyz(ang[0])
        neck_piv = model.skeleton.t0[0]
        for child in (1, 2, 3):
            piv = model.skeleton.t0[child]
            expect = (piv - neck_piv) @ R.T + neck_piv
            assert np.allclose(R_w[child] @ piv + b_w[child], expect, atol=1e-12)

    def test_identity_dependent_pivot(self, model, rng):
        alpha = rng.standard_normal(3)
        _, _, piv = world_transforms(model.skeleton, alpha, np.zeros((4, 3)))
        expect = model.skeleton.t0 + np.einsum("jkm,m->jk", model.skeleton.a, alpha)
        assert np.allclose(piv, expect, atol=1e-15)

    def test_limit_violation_reports_joint_axis(self, model):
        ang = np.zeros((4, 3))
        ang[1, 0] = 3.0
        with pytest.raises(PoseLimitViolation) as exc:
            world_transforms(model.skeleton, np.zeros(3), ang)
        assert exc.value.joint == "jaw"
        assert exc.value.axis == 0


class TestApplyPose:
    def test_identity_pose_returns_input(self, model):
        out = pose_with(model, np.zeros(3), Pose.identity(),
                        model.template.vertices)
        assert np.array_equal(out, model.template.vertices)

    def test_single_bone_is_rigid(self, model):
        w = np.zeros((model.n_vertices, 4))
        w[:, 0] = 1.0
        m1 = dataclasses.replace(model, skinning_weights=w)
        ang = np.zeros((4, 3))
        ang[0] = [0.3, -0.2, 0.1]
        posed = pose_with(m1, np.zeros(3), Pose(ang, np.zeros(3), np.zeros(3)),
                          m1.template.vertices)
        R = euler_xyz(ang[0])
        piv = m1.skeleton.t0[0]
        rigid = (m1.template.vertices - piv) @ R.T + piv
        assert np.abs(posed - rigid).max() < 1e-12

    def test_matches_naive_loop(self, model, rng):
        params = random_params(model, rng)
        unposed = evaluate_unposed(model, params.alpha, params.beta)
        out = pose_with(model, params.alpha, params.gamma, unposed,
                        check_limits=False)

        from facegen.model import world_transforms
        R_w, b_w, _ = world_transforms(model.skeleton, params.alpha,
                                       params.gamma.joint_angles,
                                       check_limits=False)
        R_g = euler_xyz(params.gamma.global_rot)
        naive = np.zeros_like(unposed)
        for v in range(model.n_vertices):
            acc = np.zeros(3)
            for i in range(4):
                acc += model.skinning_weights[v, i] * (R_w[i] @ unposed[v] + b_w[i])
            naive[v] = R_g @ acc + params.gamma.global_trans
        assert np.allclose(out, naive, atol=1e-12)

    def test_lbs_convexity(self, model, rng):
        params = random_params(model, rng)
        unposed = evaluate_unposed(model, params.alpha, params.beta)
        from facegen.model import world_transforms
        R_w, b_w, _ = world_transforms(model.skeleton, params.alpha,
                                       params.gamma.joint_angles,
                                       check_limits=False)
        posed = pose_with(model, params.alpha,
                          Pose(params.gamma.joint_angles, np.zeros(3), np.zeros(3)),
                          unposed, check_limits=False)
        images = np.stack([unposed @ R_w[i].T + b_w[i] for i in range(4)], axis=1)
        lo = images.min(axis=1) - 1e-9
        hi = images.max(axis=1) + 1e-9
        assert np.all(posed >= lo) and np.all(posed <= hi)


class TestLbsGemm:
    """The GEMM-shaped skinning forward and adjoint against the einsum
    references, on identity-coupled pivots."""

    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_forward_and_adjoint_match_reference(self, model, rng, batch):
        alpha = 0.4 * rng.standard_normal(batch + (model.n_identity,))
        angles = 0.3 * rng.standard_normal(batch + (4, 3))
        R_w, b_w, _ = world_transforms(model.skeleton, alpha, angles, check_limits=False)
        unposed = evaluate_unposed(model, alpha,
                                   rng.uniform(0, 1, batch + (model.n_expression,)))
        grad = rng.standard_normal(unposed.shape)
        w = model.skinning_weights
        for got, ref in ((lbs_apply(w, R_w, b_w, unposed),
                          lbs_apply_reference(w, R_w, b_w, unposed)),
                         (lbs_adjoint(w, R_w, grad, Workspace()),
                          lbs_adjoint_reference(w, R_w, grad))):
            assert got.shape == ref.shape == unposed.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_rest_pose_is_exact(self, model, rng):
        unposed = rng.standard_normal((model.n_vertices, 3))
        rest = np.broadcast_to(np.eye(3), (4, 3, 3))
        w = model.skinning_weights
        assert np.array_equal(lbs_apply(w, rest, np.zeros((4, 3)), unposed), unposed)
        assert np.array_equal(lbs_adjoint(w, rest, unposed, Workspace()), unposed)


class TestEvaluate:
    def test_zero_params_is_template(self, model):
        mesh = evaluate(model, ModelParams.zeros(model.n_identity, model.n_expression))
        assert np.array_equal(mesh.vertices, model.template.vertices)
        assert np.array_equal(mesh.quads, model.template.quads)

    def test_propagates_pose_limit_violation(self, model):
        bad = ModelParams(np.zeros(3), np.zeros(4),
                          Pose(np.full((4, 3), 2.0), np.zeros(3), np.zeros(3)))
        with pytest.raises(PoseLimitViolation):
            evaluate(model, bad)

    def test_equals_composition_bit_exact(self, model, rng):
        params = random_params(model, rng)
        full = evaluate(model, params, check_limits=False).vertices
        unposed = evaluate_unposed(model, params.alpha, params.beta)
        composed = pose_with(model, params.alpha, params.gamma, unposed,
                             check_limits=False)
        assert np.array_equal(full, composed)

    def test_linear_in_alpha_beta_without_pivot_coupling(self, rng):
        model = desk_head(m=3, n_expression=4, seed=2, identity_coupling=0.0)
        pose = Pose(0.1 * rng.standard_normal((4, 3)), np.zeros(3), np.zeros(3))
        a1, a2 = rng.standard_normal((2, 3))
        b1, b2 = rng.uniform(0, 1, (2, 4))
        lam = 0.3

        def f(a, b):
            return evaluate(model, ModelParams(a, b, pose), check_limits=False).vertices

        mix = f(lam * a1 + (1 - lam) * a2, lam * b1 + (1 - lam) * b2)
        lin = lam * f(a1, b1) + (1 - lam) * f(a2, b2)
        assert np.allclose(mix, lin, atol=1e-12)

    def test_pose_derivatives_transforms_equal_world_transforms(self, model, rng):
        alpha = 0.4 * rng.standard_normal((3, model.n_identity))
        angles = 0.3 * rng.standard_normal((3, 4, 3))
        der = pose_derivatives(model.skeleton, alpha, angles)
        R_w, b_w, piv = world_transforms(model.skeleton, alpha, angles,
                                         check_limits=False)
        assert np.array_equal(der.R_w, R_w)
        assert np.array_equal(der.b_w, b_w)
        assert np.array_equal(der.pivots, piv)

    @pytest.mark.parametrize("batch", [(), (30,), (5, 2)])
    @pytest.mark.parametrize("rest", [False, True])
    @pytest.mark.parametrize("coupling", [0.0, 0.01])
    def test_pose_chain_is_the_per_joint_walk_bit_for_bit(self, rng, batch, rest, coupling):
        """The array code over the neck's children gives the bits of the
        chain walked joint by joint along the parent list."""
        skel = desk_head(m=3, n_expression=4, seed=11, identity_coupling=coupling).skeleton
        if rest:
            skel = dataclasses.replace(
                skel, rest_rotations=euler_xyz(0.3 * rng.standard_normal((4, 3))))
        alpha = 0.4 * rng.standard_normal(batch + (3,))
        angles = 0.3 * rng.standard_normal(batch + (4, 3))
        der = pose_derivatives(skel, alpha, angles)
        names = ("R_w", "b_w", "pivots", "db_dpiv", "dR_w", "db_w")
        for name, ref in zip(names, pose_derivatives_reference(skel, alpha, angles)):
            assert np.array_equal(getattr(der, name), ref), name

    def test_jacobian_matches_finite_differences(self, model, rng):
        params = random_params(model, rng)
        posed, jac = evaluate_with_jacobian(model, params, check_limits=False)
        lay = param_layout(model)
        m, ne = model.n_identity, model.n_expression

        def pack(p):
            return np.concatenate([p.alpha, p.beta, p.gamma.joint_angles.ravel(),
                                   p.gamma.global_rot, p.gamma.global_trans])

        def unpack(v):
            return ModelParams(v[:m], v[m:m + ne],
                               Pose(v[m + ne:m + ne + 12].reshape(4, 3),
                                    v[m + ne + 12:m + ne + 15],
                                    v[m + ne + 15:]))

        v0 = pack(params)
        h = 1e-6
        fd = np.zeros_like(jac)
        for p in range(len(v0)):
            vp, vm = v0.copy(), v0.copy()
            vp[p] += h
            vm[p] -= h
            fd[:, :, p] = (evaluate(model, unpack(vp), check_limits=False).vertices
                           - evaluate(model, unpack(vm), check_limits=False).vertices
                           ) / (2 * h)
        rel = np.abs(jac - fd).max() / np.abs(fd).max()
        assert rel < 1e-5

    def test_rigid_motion_equivariance(self, rng):
        from facegen.model import Skeleton, BlendshapeModel
        for trial in range(3):
            model = desk_head(m=3, n_expression=4, seed=20 + trial,
                              identity_coupling=0.01)
            params = random_params(model, rng)
            R = euler_xyz(rng.uniform(-0.5, 0.5, 3))
            t = rng.standard_normal(3)
            moved = BlendshapeModel(
                template=model.template.with_vertices(model.template.vertices @ R.T + t),
                identity_basis=model.identity_basis @ R.T,
                expression_basis=model.expression_basis @ R.T,
                skeleton=Skeleton(model.skeleton.t0 @ R.T + t,
                                  np.einsum("ab,jbm->jam", R, model.skeleton.a),
                                  model.skeleton.limits,
                                  rest_rotations=np.broadcast_to(R, (4, 3, 3)).copy()),
                skinning_weights=model.skinning_weights,
            )
            # the params' own global transform applies in world frame, so the
            # equivariance statement is for zero global transform
            p0 = ModelParams(params.alpha, params.beta,
                             Pose(params.gamma.joint_angles, np.zeros(3), np.zeros(3)))
            base0 = evaluate(model, p0, check_limits=False).vertices
            out0 = evaluate(moved, p0, check_limits=False).vertices
            assert np.abs(out0 - (base0 @ R.T + t)).max() < 1e-9
