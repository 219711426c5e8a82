import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegen.errors import (
    DimensionMismatch,
    Diverged,
    InvalidParam,
    NonFiniteInput,
    TopologyMismatch,
)
import facegen.learning as learning
import facegen.model as fmodel
import facegen.parallel as parallel
from facegen.learning import (
    FitSchedule,
    LossContext,
    LossPlan,
    LossWeights,
    ScanSet,
    ThetaBlocks,
    barrier4,
    data_term,
    fit,
    project_identity,
    total_loss,
)
from facegen.mesh import QuadMesh, vertex_normals
from facegen.model import (
    BlendshapeModel,
    ModelParams,
    Pose,
    euler_xyz,
    evaluate_unposed,
    evaluate_with_jacobian,
    param_layout,
)
from facegen.procedural import default_base_model, desk_head, quad_grid, smooth_vertex_fields

from conftest import (
    data_term_reference,
    edge_length_energy_reference,
    fd_gradient_check,
    fit_reference,
    fresh_loss,
    tiny_problem,
    total_loss_reference,
)


def _count_calls(monkeypatch, names):
    """Record calls of the learner's module attributes `names`, which the
    per-layer tracer wraps, as (name, thread id) in call order; returns the
    live list."""
    calls = []

    def counted(name):
        fn = getattr(learning, name)

        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(learning, name, counted(name))
    return calls


def _tally(calls, names):
    """Calls per name of a _count_calls record, zero for names not called."""
    return {name: sum(1 for n, _ in calls if n == name) for name in names}


class TestBarrier4:
    def test_interior_zero(self):
        v, d = barrier4(0.5, 0.0, 1.0)
        assert v == 0.0 and d == 0.0

    def test_above(self):
        v, _ = barrier4(1.5, 0.0, 1.0)
        assert v == pytest.approx(0.0625)

    def test_below(self):
        v, _ = barrier4(-0.5, 0.0, 1.0)
        assert v == pytest.approx(0.0625)

    @pytest.mark.parametrize("x", [-0.3, 0.2, 1.7])
    def test_derivative_matches_fd(self, x):
        h = 1e-6
        _, d = barrier4(x, 0.0, 1.0)
        fd = (barrier4(x + h, 0.0, 1.0)[0] - barrier4(x - h, 0.0, 1.0)[0]) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_vectorized(self):
        v, d = barrier4(np.array([-1.0, 0.5, 2.0]), 0.0, 1.0)
        assert v.shape == (3,)
        assert v[1] == 0.0

    def test_invalid_interval(self):
        with pytest.raises(InvalidParam):
            barrier4(0.0, 1.0, 0.0)

    def test_array_bounds_match_scalar_calls(self, rng):
        x = rng.uniform(-2.0, 2.0, (5, 4, 3))
        lo = rng.uniform(-1.0, -0.1, (4, 3))
        hi = rng.uniform(0.1, 1.0, (4, 3))
        v, d = barrier4(x, lo, hi)
        assert v.shape == d.shape == x.shape
        for jk in np.ndindex(lo.shape):
            vs, ds = barrier4(x[(slice(None),) + jk], float(lo[jk]), float(hi[jk]))
            assert np.array_equal(v[(slice(None),) + jk], vs)
            assert np.array_equal(d[(slice(None),) + jk], ds)

    def test_array_bounds_derivative_matches_fd(self, rng):
        x = rng.uniform(-2.0, 2.0, 12)
        lo = rng.uniform(-1.0, -0.1, 12)
        hi = rng.uniform(0.1, 1.0, 12)
        h = 1e-6
        _, d = barrier4(x, lo, hi)
        fd = (barrier4(x + h, lo, hi)[0] - barrier4(x - h, lo, hi)[0]) / (2 * h)
        assert np.allclose(d, fd, rtol=1e-6, atol=1e-9)

    def test_array_bounds_invalid_if_any_lo_not_below_hi(self):
        lo = np.array([0.0, 0.5, 0.0])
        with pytest.raises(InvalidParam):
            barrier4(np.zeros(3), lo, np.array([1.0, 0.5, 1.0]))
        with pytest.raises(InvalidParam):
            barrier4(np.zeros(3), lo, np.array([1.0, 0.4, 1.0]))


class TestDataTerm:
    def test_zero_at_target(self, rng):
        grid = quad_grid(3, 3)
        mesh = QuadMesh(grid.vertices + 0.02 * rng.standard_normal(grid.vertices.shape),
                        grid.quads)
        v, g = data_term(mesh.vertices, mesh)
        assert v == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_translated_plane(self):
        grid = quad_grid(3, 3)
        eps = 1e-3
        gen = grid.vertices + np.array([eps, 0.0, 0.0])
        v, _ = data_term(gen, grid, w_vertex=1.0, w_normal=0.1)
        # normals of a translated plane are unchanged: value is w_v * eps^2
        assert v == pytest.approx(eps ** 2, rel=1e-9)

    def test_gradient_matches_fd(self, rng):
        grid = quad_grid(2, 3)
        target = QuadMesh(grid.vertices + 0.03 * rng.standard_normal(grid.vertices.shape),
                          grid.quads)
        gen = target.vertices + 0.02 * rng.standard_normal(target.vertices.shape)
        _, g = data_term(gen, target)
        h = 1e-6
        fd = np.zeros_like(g)
        for i in range(gen.shape[0]):
            for k in range(3):
                gp, gm = gen.copy(), gen.copy()
                gp[i, k] += h
                gm[i, k] -= h
                fd[i, k] = (data_term(gp, target)[0] - data_term(gm, target)[0]) / (2 * h)
        assert np.abs(g - fd).max() / np.abs(fd).max() < 1e-5

    def test_topology_mismatch(self):
        with pytest.raises(TopologyMismatch):
            data_term(np.zeros((5, 3)), quad_grid(2, 2))


FROZEN_SETS = [frozenset(), frozenset({"beta"}), frozenset({"joint_angles"}),
               frozenset({"global_rot", "global_trans"}), learning.FREEZABLE,
               frozenset({"alpha"}), frozenset({"phi"}), frozenset({"alpha", "beta", "phi"}),
               learning.FREEZABLE | {"alpha"}, learning.FREEZABLE | {"phi"},
               learning.BLOCKS]


def _frozen_id(frozen):
    return "+".join(sorted(frozen)) or "none"


class TestTotalLoss:
    def test_zero_configuration(self, rng):
        base, scans, theta, phi = tiny_problem(rng)
        # replicate the template as every scan; zero everything
        scans0 = ScanSet(np.broadcast_to(base.template.vertices,
                                         scans.vertices.shape).copy(),
                         scans.quads, scans.ids)
        theta0 = ThetaBlocks.zeros(scans0.n_scans, phi.shape[0], theta.beta.shape[1])
        res = fresh_loss(theta0, np.zeros_like(phi), scans0, LossWeights(), base)
        assert res.total == 0.0
        assert all(v == 0.0 for v in res.breakdown.values())

    def test_breakdown_sums_to_total(self, rng):
        base, scans, theta, phi = tiny_problem(rng)
        res = fresh_loss(theta, phi, scans, LossWeights(), base)
        assert sum(res.breakdown.values()) == pytest.approx(res.total, rel=1e-9)

    def test_gradients_match_fd(self, rng):
        base, scans, theta, phi = tiny_problem(rng)
        assert fd_gradient_check(base, scans, theta, phi) < 1e-5

    def test_doubling_laplacian_weight_doubles_term(self, rng):
        base, scans, theta, phi = tiny_problem(rng)
        r1 = fresh_loss(theta, phi, scans, LossWeights(w_laplacian=1e-2), base)
        r2 = fresh_loss(theta, phi, scans, LossWeights(w_laplacian=2e-2), base)
        assert r2.breakdown["laplacian"] == pytest.approx(
            2.0 * r1.breakdown["laplacian"], rel=1e-12)

    def test_permutation_invariance(self, rng):
        base, scans, theta, phi = tiny_problem(rng, n_scans=4)
        res = fresh_loss(theta, phi, scans, LossWeights(), base)
        perm = np.array([2, 0, 3, 1])
        scans_p = ScanSet(scans.vertices[perm], scans.quads,
                          tuple(scans.ids[i] for i in perm))
        theta_p = ThetaBlocks(theta.alpha[perm], theta.beta[perm],
                              theta.joint_angles[perm], theta.global_rot[perm],
                              theta.global_trans[perm])
        res_p = fresh_loss(theta_p, phi, scans_p, LossWeights(), base)
        assert res_p.total == res.total          # bitwise equality
        assert np.array_equal(res_p.grads["phi"], res.grads["phi"])
        assert np.array_equal(res_p.grads["alpha"], res.grads["alpha"][perm])

    @pytest.mark.parametrize("n_scans", [2, 5, 6])
    def test_scan_chunks_leave_the_result_unchanged(self, rng, monkeypatch, n_scans):
        # every frozen subset, since the chunks hold its branches, on the
        # calling thread and on two workers
        base, scans, theta, phi = tiny_problem(rng, n_scans=n_scans)
        ctx = LossContext.build(scans, base)
        wholes = {frozen: total_loss(LossPlan.build(ctx, frozen, theta), theta, phi, LossWeights())
                  for frozen in FROZEN_SETS}
        monkeypatch.setattr(learning, "_CHUNK_BYTES", 24 * scans.n_vertices)
        for workers in (1, 2):
            monkeypatch.setattr(learning, "_cpu_count", lambda: workers)
            chunks = learning._scan_chunks(n_scans, scans.n_vertices, workers)
            assert len(chunks) == n_scans // 2
            assert min(s.stop - s.start for s in chunks) >= 2
            for frozen, whole in wholes.items():
                case = f"{_frozen_id(frozen)}, {workers} workers"
                res = total_loss(LossPlan.build(ctx, frozen, theta), theta, phi, LossWeights())
                assert res.total == whole.total, case
                assert res.breakdown == whole.breakdown, case
                assert np.array_equal(res.scan_vertex_ms, whole.scan_vertex_ms), case
                assert res.grads.keys() == whole.grads.keys(), case
                for name, g in whole.grads.items():
                    assert np.array_equal(res.grads[name], g), (case, name)

    def test_chunk_rows_survive_more_workers_than_cores(self, rng, monkeypatch):
        # every chunk writes its rows of the shared per-scan outputs; none
        # may be lost when the interpreter switches threads as often as it
        # can, with a plan of its own or one whose workspaces losses share
        base, scans, theta, phi = tiny_problem(rng, V_grid=(6, 8), n_scans=16)
        ctx = LossContext.build(scans, base)
        whole = total_loss(LossPlan.build(ctx, frozenset(), theta), theta, phi, LossWeights())
        monkeypatch.setattr(learning, "_CHUNK_BYTES", 24 * scans.n_vertices)
        monkeypatch.setattr(learning, "_cpu_count", lambda: 8)
        assert len(learning._scan_chunks(16, scans.n_vertices, 8)) == 8
        kept = LossPlan.build(ctx, frozenset(), theta)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [total_loss(kept if k % 3 else LossPlan.build(ctx, frozenset(), theta),
                               theta, phi, LossWeights())
                    for k in range(12)]
        finally:
            sys.setswitchinterval(interval)
        for res in runs:
            assert res.total == whole.total
            assert np.array_equal(res.scan_vertex_ms, whole.scan_vertex_ms)
            for name, g in whole.grads.items():
                assert np.array_equal(res.grads[name], g), name

    @pytest.mark.parametrize("n_scans,cache_chunks,workers,expected", [
        (30, 1, 2, 1), (30, 3, 1, 3), (30, 3, 2, 4), (30, 3, 4, 4), (30, 5, 2, 6),
        (30, 20, 2, 15), (5, 2, 3, 2)])
    def test_chunk_count_rounds_up_to_a_multiple_of_the_workers(
            self, monkeypatch, n_scans, cache_chunks, workers, expected):
        # the cache rule asks for `cache_chunks` chunks of (3, V, n) arrays
        monkeypatch.setattr(learning, "_CHUNK_BYTES", -(-n_scans * 24 * 100 // cache_chunks))
        chunks = learning._scan_chunks(n_scans, 100, workers)
        assert len(chunks) == expected
        assert [s.start for s in chunks[1:]] == [s.stop for s in chunks[:-1]]
        assert chunks[0].start == 0 and chunks[-1].stop == n_scans
        assert min(s.stop - s.start for s in chunks) >= 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_vertex_gradients_are_the_pose_chain_jacobian_transpose(
            self, rng, monkeypatch, workers):
        # the threaded backward pass against the dense Jacobian of the pose
        # chain: with only the vertex term, dL/dtheta_n = J_n^T 2 (y_n - t_n) / V
        base, scans, theta, phi = tiny_problem(rng, n_scans=5)
        monkeypatch.setattr(learning, "_CHUNK_BYTES", 24 * scans.n_vertices)
        monkeypatch.setattr(learning, "_cpu_count", lambda: workers)
        assert len(learning._scan_chunks(5, scans.n_vertices, workers)) == 2
        weights = LossWeights(w_vertex=1.0, w_normal=0.0, w_barrier_expr=0.0,
                              w_barrier_pose=0.0, w_id_coeff=0.0, w_id_basis=0.0,
                              w_laplacian=0.0, w_edge=0.0)
        res = fresh_loss(theta, phi, scans, weights, base)
        model = dataclasses.replace(base, identity_basis=phi)
        layout = param_layout(model)
        V = scans.n_vertices
        blocks = {name: [] for name in theta.as_dict()}
        for n in range(scans.n_scans):
            params = ModelParams(theta.alpha[n], theta.beta[n],
                                 Pose(theta.joint_angles[n], theta.global_rot[n],
                                      theta.global_trans[n]))
            y, jac = evaluate_with_jacobian(model, params, check_limits=False)
            jtg = np.einsum("va,vap->p", 2.0 * (y - scans.vertices[n]) / V, jac)
            for name in blocks:
                blocks[name].append(jtg[layout[name]])
        for name, rows in blocks.items():
            expected = np.stack(rows).reshape(res.grads[name].shape)
            assert _rel_err(res.grads[name], expected) <= 1e-12, name

    def test_barriers_zero_inside_support(self, rng):
        base, scans, theta, phi = tiny_problem(rng, with_pose=False)
        theta = dataclasses.replace(theta, beta=np.clip(theta.beta, 0.0, 1.0))
        res = fresh_loss(theta, phi, scans, LossWeights(), base)
        assert res.breakdown["barrier_expr"] == 0.0
        assert res.breakdown["barrier_pose"] == 0.0


def _rel_err(a, b) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def _batch_major_terms(monkeypatch, quads):
    """Make total_loss evaluate its data and edge terms with the batch-major
    references, transposing their component-major (3, V, N) arrays to
    (N, V, 3) and back around them; they allocate their own arrays, so
    they ignore the loss's workspace."""
    def data(y, targets, target_normals, faces, w_vertex, w_normal, grad, ws):
        vert_vals, norm_vals, g = data_term_reference(
            y.T, targets.T, target_normals.T, quads, w_vertex, w_normal)
        return vert_vals, norm_vals, g.T

    def edge(y, ref_lengths, incidence, ws, grad):
        # the (E, V) incidence is the first diagonal block of kron(I_3, D)
        D = incidence.forward[:len(ref_lengths), :y.shape[1]]
        values, g = edge_length_energy_reference(y.T, ref_lengths, D, D.T)
        return values, g.T

    monkeypatch.setattr(learning, "_data_term", data)
    monkeypatch.setattr(learning, "edge_length_energy", edge)


def _fit_large_problem(rng):
    """A posed, expressive problem at the size of the fit-large benchmark:
    V=1922, N=30, m=8, scan ids out of canonical order."""
    base = desk_head(m=8, lat=40, lon=48)
    N, V = 30, base.n_vertices
    alpha = rng.standard_normal((N, 8))
    verts = (base.template.vertices
             + np.einsum("nq,qva->nva", alpha, base.identity_basis)
             + 1e-3 * rng.standard_normal((N, V, 3)))
    scans = ScanSet(verts, base.template.quads,
                    tuple(f"scan_{k:02d}" for k in rng.permutation(N)))
    theta = ThetaBlocks(
        alpha=alpha + 0.1 * rng.standard_normal((N, 8)),
        beta=rng.uniform(-0.05, 1.05, (N, base.n_expression)),
        joint_angles=0.08 * rng.standard_normal((N, 4, 3)),
        global_rot=0.08 * rng.standard_normal((N, 3)),
        global_trans=0.01 * rng.standard_normal((N, 3)))
    phi = base.identity_basis + 1e-3 * rng.standard_normal(base.identity_basis.shape)
    return base, scans, theta, phi


class TestVertexMajorParity:
    """The component-major loss against the batch-major data term and edge
    energy it replaced: loss, every term and every gradient block within
    1e-12 relative."""

    @staticmethod
    def check(monkeypatch, base, scans, theta, phi):
        ctx = LossContext.build(scans, base)
        res = total_loss(LossPlan.build(ctx, frozenset(), theta), theta, phi, LossWeights())
        with monkeypatch.context() as mp:
            _batch_major_terms(mp, scans.quads)
            ref = total_loss(LossPlan.build(ctx, frozenset(), theta), theta, phi, LossWeights())
        assert abs(res.total - ref.total) <= 1e-12 * abs(ref.total)
        for name, value in ref.breakdown.items():
            assert abs(res.breakdown[name] - value) <= 1e-12 * abs(value), name
        assert res.grads.keys() == ref.grads.keys()
        for name, g in ref.grads.items():
            assert _rel_err(res.grads[name], g) <= 1e-12, name
        assert _rel_err(res.scan_vertex_ms, ref.scan_vertex_ms) <= 1e-12

    @pytest.mark.parametrize("n_scans,with_pose", [(2, True), (3, False), (5, True)])
    def test_tiny_problems(self, rng, monkeypatch, n_scans, with_pose):
        self.check(monkeypatch, *tiny_problem(rng, n_scans=n_scans, with_pose=with_pose))

    def test_fit_large_size(self, rng, monkeypatch):
        self.check(monkeypatch, *_fit_large_problem(rng))


class TestScanSet:
    def test_rejects_non_finite_vertices(self):
        v = np.zeros((2, 4, 3))
        v[1, 2, 0] = np.nan
        with pytest.raises(NonFiniteInput, match="'b'"):
            ScanSet(v, quad_grid(1, 1).quads, ("a", "b"))


class TestLossContext:
    def test_given_context_matches_built_one(self, rng):
        base, scans, theta, phi = tiny_problem(rng, n_scans=3)
        ctx = LossContext.build(scans, base)
        r1 = fresh_loss(theta, phi, scans, LossWeights(), base)
        r2 = total_loss(LossPlan.build(ctx, frozenset(), theta), theta, phi, LossWeights())
        assert r1.total == r2.total
        for k in r1.grads:
            assert np.array_equal(r1.grads[k], r2.grads[k])

    def test_target_normals_match_per_scan_normals(self, rng):
        base, scans, _, _ = tiny_problem(rng, n_scans=4)
        ctx = LossContext.build(scans, base)
        per_scan = np.stack([vertex_normals(QuadMesh(v, scans.quads)).T
                             for v in scans.vertices[ctx.order]], axis=-1)
        assert np.array_equal(ctx.target_normals, per_scan)

    def test_stored_operators_are_csr_with_exact_adjoints(self, rng):
        base, scans, _, _ = tiny_problem(rng, n_scans=3)
        ctx = LossContext.build(scans, base)
        faces = ctx.faces
        for op in (ctx.incidence, faces.accum):
            assert op.forward.format == op.adjoint.format == "csr"
            assert np.array_equal(op.adjoint.toarray(), op.forward.T.toarray())
        # each diagonal's adjoint is the transpose of its rows of the gather
        # of both: p's are rows c * 2F + f, r's c * 2F + F + f
        F = len(scans.quads)
        p_rows = (np.arange(3)[:, None] * 2 * F + np.arange(F)).ravel()
        for A, rows in ((faces.p_adjoint, p_rows), (faces.r_adjoint, p_rows + F)):
            assert faces.diagonals.format == A.format == "csr"
            assert np.array_equal(A.toarray(), faces.diagonals[rows].T.toarray())
        # the scatter side of each operator has sorted indices; a gather row
        # keeps its index order (a face's corners in quad order), the order
        # in which the product adds its entries
        for A in (ctx.laplacian, ctx.lap_gram, ctx.incidence.adjoint,
                  faces.accum.forward, faces.p_adjoint, faces.r_adjoint):
            assert A.format == "csr" and A.has_sorted_indices
        assert np.array_equal(faces.accum.adjoint.indices[:4 * F], scans.quads.ravel())

    def test_fit_builds_per_scan_constants_once(self, rng, monkeypatch):
        names = ("build_connectivity", "uniform_laplacian_matrix", "vertex_normals")
        calls = _count_calls(monkeypatch, names)
        base, scans, theta, phi = tiny_problem(rng, n_scans=3)
        sched = FitSchedule(iterations=7, early_stop_window=100)
        _, report = fit(scans, m=2, schedule=sched, base=base)
        assert report.iterations == 7
        assert _tally(calls, names) == {"build_connectivity": 1,
                                        "uniform_laplacian_matrix": 1,
                                        "vertex_normals": 1}

        ctx = LossContext.build(scans, base)
        calls.clear()
        total_loss(LossPlan.build(ctx, frozenset(), theta), theta, phi, LossWeights())
        assert calls == []

        # the standalone data term needs the target normals, not the topology
        target = QuadMesh(scans.vertices[0], scans.quads)
        data_term(target.vertices, target)
        assert _tally(calls, names) == {"build_connectivity": 0,
                                        "uniform_laplacian_matrix": 0,
                                        "vertex_normals": 1}

    def test_total_loss_calls_traced_forward_once(self, rng, monkeypatch):
        # the learner must go through the module attributes the per-layer
        # tracer wraps, not a private copy of the forward: the work that
        # mixes scans once per loss on the calling thread, the skinning once
        # per chunk of scans, on the calling thread and a pool thread
        calls = _count_calls(monkeypatch, ("evaluate_unposed", "pose_derivatives",
                                           "lbs_apply", "euler_xyz_grad"))
        base, scans, theta, phi = tiny_problem(rng, n_scans=6)
        monkeypatch.setattr(learning, "_CHUNK_BYTES", 24 * scans.n_vertices)
        monkeypatch.setattr(learning, "_cpu_count", lambda: 2)
        n_chunks = len(learning._scan_chunks(6, scans.n_vertices, 2))
        assert n_chunks == 3
        ctx = LossContext.build(scans, base)
        total_loss(LossPlan.build(ctx, frozenset(), theta), theta, phi, LossWeights())
        caller = threading.get_ident()
        mixing = [(name, ident) for name, ident in calls if name != "lbs_apply"]
        assert sorted(mixing) == [("euler_xyz_grad", caller),
                                  ("evaluate_unposed", caller),
                                  ("pose_derivatives", caller)]
        skinning = [ident for name, ident in calls if name == "lbs_apply"]
        assert len(skinning) == n_chunks
        assert len(set(skinning)) == 2 and caller in skinning

    def test_frozen_fit_skips_pose_derivative_tables(self, rng, monkeypatch):
        names = ("evaluate_unposed", "pose_derivatives", "lbs_apply", "euler_xyz_grad")
        calls = _count_calls(monkeypatch, names)
        base, scans, _, _ = tiny_problem(rng, n_scans=3)
        sched = FitSchedule(iterations=6, early_stop_window=100,
                            freeze_pose=True, freeze_beta=True)
        fit(scans, m=2, schedule=sched, base=base)
        # one loss per iteration plus the final evaluation, every one at the
        # rest pose, so none of them skins
        assert _tally(calls, names) == {"evaluate_unposed": 7, "pose_derivatives": 0,
                                        "lbs_apply": 0, "euler_xyz_grad": 0}

    def test_closing_loss_is_forward_only(self, rng, monkeypatch):
        names = ("pose_derivatives", "euler_xyz_grad", "lbs_apply", "lbs_adjoint")
        calls = _count_calls(monkeypatch, names)
        base, scans, _, _ = tiny_problem(rng, n_scans=3)
        fit(scans, m=2, schedule=FitSchedule(iterations=6, early_stop_window=100), base=base)
        # the backward pass once per iteration, the angle tables and the
        # skinning once more for the loss of the returned parameters
        assert _tally(calls, names) == {"pose_derivatives": 7, "euler_xyz_grad": 6,
                                        "lbs_apply": 7, "lbs_adjoint": 6}

    def test_per_scan_rms_in_input_order(self, rng):
        grid = quad_grid(3, 4, spacing=0.05)
        V = grid.vertices.shape[0]
        scans = ScanSet(grid.vertices + 0.005 * rng.standard_normal((3, V, 3)),
                        grid.quads, ("c", "a", "b"))
        sched = FitSchedule(iterations=20, freeze_pose=True, freeze_beta=True)
        model, report = fit(scans, m=2, schedule=sched, seed=1)
        # with pose and expression frozen at zero the fit is template + alpha . phi
        posed = model.template.vertices + np.einsum(
            "nq,qvk->nvk", report.final_alphas, model.identity_basis)
        rms = np.sqrt(np.mean(np.sum((posed - scans.vertices) ** 2, axis=2), axis=1))
        assert np.allclose(report.per_scan_rms, rms, rtol=1e-12, atol=0)


class TestFit:
    def test_identical_scans_shrink_basis(self, rng):
        grid = quad_grid(3, 4, spacing=0.05)
        V = grid.vertices.shape[0]
        scans = ScanSet(np.broadcast_to(grid.vertices, (4, V, 3)).copy(),
                        grid.quads, tuple(f"s{i}" for i in range(4)))
        sched = FitSchedule(iterations=300, lr=0.01, init="random",
                            init_sigma=1e-3, freeze_pose=True, freeze_beta=True)
        model, report = fit(scans, m=2, schedule=sched, seed=0)
        init_norm = 1e-3   # random init scale
        final_norm = np.sqrt((model.identity_basis ** 2).mean())
        assert final_norm < init_norm

    def test_loss_decreases(self, rng):
        grid = quad_grid(3, 4, spacing=0.05)
        V = grid.vertices.shape[0]
        scans_v = grid.vertices + 0.01 * rng.standard_normal((5, V, 3))
        scans = ScanSet(scans_v, grid.quads, tuple(f"s{i}" for i in range(5)))
        sched = FitSchedule(iterations=200, lr=0.01, init="random",
                            freeze_pose=True, freeze_beta=True)
        _, report = fit(scans, m=2, schedule=sched, seed=3)
        assert report.trajectory[-1] < report.trajectory[0]

    def test_deterministic_given_seed(self, rng):
        grid = quad_grid(3, 4, spacing=0.05)
        V = grid.vertices.shape[0]
        scans_v = grid.vertices + 0.01 * rng.standard_normal((4, V, 3))
        scans = ScanSet(scans_v, grid.quads, tuple(f"s{i}" for i in range(4)))
        sched = FitSchedule(iterations=50, freeze_pose=True, freeze_beta=True)
        m1, r1 = fit(scans, m=2, schedule=sched, seed=9)
        m2, r2 = fit(scans, m=2, schedule=sched, seed=9)
        assert np.array_equal(m1.identity_basis, m2.identity_basis)
        assert r1.trajectory == r2.trajectory

    def test_worker_count_leaves_the_fit_unchanged(self, rng, monkeypatch):
        base, scans, _, _ = tiny_problem(rng, n_scans=6)
        sched = FitSchedule(iterations=12, early_stop_window=100)
        runs = [fit(scans, m=2, schedule=sched, base=base, seed=2)]
        monkeypatch.setattr(learning, "_CHUNK_BYTES", 24 * scans.n_vertices)
        for workers in (1, 2):
            monkeypatch.setattr(learning, "_cpu_count", lambda: workers)
            assert len(learning._scan_chunks(6, scans.n_vertices, workers)) == 3
            runs.append(fit(scans, m=2, schedule=sched, base=base, seed=2))
        (model, report), others = runs[0], runs[1:]
        for other_model, other in others:
            assert other.trajectory == report.trajectory
            assert np.array_equal(other_model.identity_basis, model.identity_basis)
            assert np.array_equal(other.final_alphas, report.final_alphas)

    @staticmethod
    def two_worker_problem(rng, monkeypatch):
        """A 6-scan problem whose losses run 3 chunks on 2 workers."""
        base, scans, _, _ = tiny_problem(rng, n_scans=6)
        monkeypatch.setattr(learning, "_CHUNK_BYTES", 24 * scans.n_vertices)
        monkeypatch.setattr(learning, "_cpu_count", lambda: 2)
        assert len(learning._scan_chunks(6, scans.n_vertices, 2)) == 3
        return base, scans

    def test_loss_opens_one_pool_per_call(self, rng, monkeypatch):
        opened = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", Counted)
        base, scans = self.two_worker_problem(rng, monkeypatch)
        # a loss on two workers: the calling thread and a pool of one
        theta = ThetaBlocks.zeros(6, 2, base.n_expression)
        fresh_loss(theta, base.identity_basis, scans, LossWeights(), base)
        assert opened == [(1,)]
        # a fit of 9 iterations runs 10 losses
        sched = FitSchedule(iterations=9, early_stop_window=100)
        fit(scans, m=2, schedule=sched, base=base)
        assert opened == [(1,)] * 11
        # one worker needs none
        monkeypatch.setattr(learning, "_cpu_count", lambda: 1)
        fit(scans, m=2, schedule=sched, base=base)
        assert len(opened) == 11

    # the caller's errstate must reach the pool thread of the diverging fit
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_thread_outlives_fit(self, rng, monkeypatch):
        base, scans = self.two_worker_problem(rng, monkeypatch)
        threads = []
        chunk = learning.posed_chunk

        def counted(chain, c, ws):
            threads.append(threading.active_count())
            return chunk(chain, c, ws)

        monkeypatch.setattr(learning, "posed_chunk", counted)
        start = threading.active_count()
        fit(scans, m=2, schedule=FitSchedule(iterations=5, early_stop_window=100), base=base)
        assert max(threads) == start + 1 and threading.active_count() == start
        threads.clear()
        with pytest.raises(Diverged):
            with np.errstate(over="ignore", invalid="ignore"):
                fit(scans, m=2, schedule=FitSchedule(iterations=50, lr=1e200), base=base)
        assert max(threads) == start + 1 and threading.active_count() == start

    def test_needs_two_scans(self):
        grid = quad_grid(2, 2)
        scans = ScanSet(grid.vertices[None], grid.quads, ("only",))
        with pytest.raises(InvalidParam):
            fit(scans, m=1)

    def test_basis_cannot_exceed_scans(self, rng):
        grid = quad_grid(2, 2)
        V = grid.vertices.shape[0]
        scans = ScanSet(np.broadcast_to(grid.vertices, (2, V, 3)).copy(),
                        grid.quads, ("a", "b"))
        with pytest.raises(InvalidParam):
            fit(scans, m=5)

    def test_subspace_reaches_pca_optimum_without_regularizers(self, rng):
        # with all regularizers off and pose frozen at zero, the fitted
        # subspace must reconstruct as well as PCA (within 5% relative)
        grid = quad_grid(4, 7, spacing=0.05)   # 5x8 = 40 verts
        V = grid.vertices.shape[0]
        template = QuadMesh(grid.vertices + 0.003 * rng.standard_normal((V, 3)),
                            grid.quads)
        fields = smooth_vertex_fields(template, 4, 0.02, seed=5, smoothing_steps=6)
        alphas = rng.standard_normal((12, 4))
        noise = 1e-4 * rng.standard_normal((12, V, 3))
        scans_v = template.vertices + np.einsum("nq,qvk->nvk", alphas, fields) + noise
        scans = ScanSet(scans_v, grid.quads, tuple(f"s{i:02d}" for i in range(12)))

        weights = LossWeights(w_vertex=1.0, w_normal=0.0, w_barrier_expr=0.0,
                              w_barrier_pose=0.0, w_id_coeff=0.0, w_id_basis=0.0,
                              w_laplacian=0.0, w_edge=0.0)
        sched = FitSchedule(iterations=1500, lr=0.02, freeze_pose=True,
                            freeze_beta=True, early_stop_rel=1e-12)
        model, _ = fit(scans, m=2, weights=weights, schedule=sched, seed=0)

        disp = (scans_v - scans_v.mean(axis=0)).reshape(12, V * 3)
        _, svals, _ = np.linalg.svd(disp, full_matrices=False)
        pca_err = float(np.sum(svals[2:] ** 2))

        recon_err = 0.0
        for k in range(12):
            a = project_identity(model, scans_v[k])
            rec = model.template.vertices + np.einsum(
                "q,qvk->vk", a, model.identity_basis)
            recon_err += float(np.sum((rec - scans_v[k]) ** 2))
        assert recon_err <= pca_err * 1.05

    def test_divergence_detected(self, rng):
        grid = quad_grid(3, 4, spacing=0.05)
        V = grid.vertices.shape[0]
        scans_v = grid.vertices + 0.01 * rng.standard_normal((3, V, 3))
        scans = ScanSet(scans_v, grid.quads, ("a", "b", "c"))
        # Adam steps are bounded by lr, so divergence needs an lr large
        # enough that the quartic barrier overflows after one step
        sched = FitSchedule(iterations=2000, lr=1e200, freeze_pose=False,
                            freeze_beta=False)
        with pytest.raises(Diverged):
            with np.errstate(over="ignore", invalid="ignore"):
                fit(scans, m=2, schedule=sched, seed=0)
        # with one iteration only the loss after its step, the final one,
        # overflows
        with pytest.raises(Diverged) as info:
            with np.errstate(over="ignore", invalid="ignore"):
                fit(scans, m=2, schedule=dataclasses.replace(sched, iterations=1), seed=0)
        assert info.value.iteration == 1

    def test_report_shape(self, rng):
        grid = quad_grid(3, 4, spacing=0.05)
        V = grid.vertices.shape[0]
        scans_v = grid.vertices + 0.005 * rng.standard_normal((3, V, 3))
        scans = ScanSet(scans_v, grid.quads, ("a", "b", "c"))
        sched = FitSchedule(iterations=40, freeze_pose=True, freeze_beta=True)
        _, report = fit(scans, m=2, schedule=sched, seed=1)
        assert report.iterations == len(report.trajectory)
        assert report.per_scan_rms.shape == (3,)
        assert report.final_alphas.shape == (3, 2)
        d = report.to_dict()
        assert d["iterations"] == report.iterations
        csv = report.trajectory_csv().splitlines()
        assert csv[0].startswith("iteration,total,")
        assert "laplacian" in csv[0]
        assert len(csv) == report.iterations + 1
        # per-row totals re-parse to the recorded trajectory
        first = csv[1].split(",")
        assert float(first[1]) == report.trajectory[0]


class TestFrozenBlocks:
    """total_loss with frozen blocks: the loss of the unfrozen call, bit for
    bit, its gradients for the live blocks, and no gradient for a frozen one."""

    @pytest.mark.parametrize("frozen", FROZEN_SETS, ids=_frozen_id)
    def test_parity_with_unfrozen_call(self, rng, frozen):
        base, scans, theta, phi = tiny_problem(rng, n_scans=4)
        # posed away from rest, pivots coupled to identity
        assert np.all(theta.joint_angles != 0) and np.all(base.skeleton.a != 0)
        ctx = LossContext.build(scans, base)
        full = total_loss(LossPlan.build(ctx, frozenset(), theta), theta, phi, LossWeights())
        res = total_loss(LossPlan.build(ctx, frozen, theta), theta, phi, LossWeights())
        assert res.total == full.total
        assert res.breakdown == full.breakdown
        assert np.array_equal(res.scan_vertex_ms, full.scan_vertex_ms)
        assert res.grads.keys() == full.grads.keys() - frozen
        for name, g in res.grads.items():
            assert _rel_err(g, full.grads[name]) <= 1e-12, name

    def test_unfrozen_call_matches_reference_bitwise(self, rng):
        base, scans, theta, phi = tiny_problem(rng, n_scans=4)
        ctx = LossContext.build(scans, base)
        res = total_loss(LossPlan.build(ctx, frozenset(), theta), theta, phi, LossWeights())
        total, grads = total_loss_reference(theta, phi, scans, LossWeights(), base, ctx)
        assert res.total == total
        assert res.grads.keys() == grads.keys()
        for name, g in grads.items():
            assert np.array_equal(res.grads[name], g), name

    def test_live_blocks_match_fd_with_all_frozen(self, rng):
        base, scans, theta, phi = tiny_problem(rng)
        assert fd_gradient_check(base, scans, theta, phi,
                                 frozen=learning.FREEZABLE) < 1e-5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_frozen_call_is_the_full_call_forward_only(self, rng, monkeypatch, workers):
        base, scans, theta, phi = tiny_problem(rng, n_scans=6)
        monkeypatch.setattr(learning, "_CHUNK_BYTES", 24 * scans.n_vertices)
        monkeypatch.setattr(learning, "_cpu_count", lambda: workers)
        ctx = LossContext.build(scans, base)
        full = total_loss(LossPlan.build(ctx, frozenset(), theta), theta, phi, LossWeights())
        names = ("pose_derivatives", "euler_xyz_grad", "lbs_apply", "lbs_adjoint")
        calls = _count_calls(monkeypatch, names)
        res = total_loss(LossPlan.build(ctx, learning.BLOCKS, theta), theta, phi, LossWeights())
        assert res.total == full.total
        assert res.breakdown == full.breakdown
        assert np.array_equal(res.scan_vertex_ms, full.scan_vertex_ms)
        assert res.grads == {}
        # no backward pass; the pose tables once, the skinning once per chunk
        assert _tally(calls, names) == {"pose_derivatives": 1, "euler_xyz_grad": 0,
                                        "lbs_apply": 3, "lbs_adjoint": 0}

    @pytest.mark.parametrize("frozen", [{"phi", "basis"}, {"alphas"}, {"beta", "pose"}, "beta"])
    def test_unknown_block_rejected(self, rng, frozen):
        base, scans, theta, phi = tiny_problem(rng)
        with pytest.raises(InvalidParam):
            fresh_loss(theta, phi, scans, LossWeights(), base, frozen=frozen)

    def test_schedule_flags_map_to_blocks(self):
        assert FitSchedule().frozen == frozenset()
        assert FitSchedule(freeze_beta=True).frozen == {"beta"}
        assert FitSchedule(freeze_pose=True).frozen == {
            "joint_angles", "global_rot", "global_trans"}
        assert FitSchedule(freeze_beta=True, freeze_pose=True).frozen == learning.FREEZABLE

    @pytest.mark.parametrize("freeze_beta,freeze_pose",
                             [(True, True), (True, False), (False, True)])
    def test_fit_matches_differentiate_everything_reference(self, rng, freeze_beta,
                                                            freeze_pose):
        base, scans, _, _ = tiny_problem(rng, n_scans=4)
        sched = FitSchedule(iterations=25, early_stop_window=100,
                            freeze_beta=freeze_beta, freeze_pose=freeze_pose)
        model, report = fit(scans, m=2, schedule=sched, base=base, seed=3)
        trajectory, phi, alphas = fit_reference(scans, 2, sched, base, seed=3)
        assert report.trajectory == trajectory
        assert np.array_equal(model.identity_basis, phi)
        assert np.array_equal(report.final_alphas, alphas)

    def test_final_loss_is_the_loss_of_the_returned_parameters(self, rng):
        base, scans, _, _ = tiny_problem(rng, n_scans=3)
        sched = FitSchedule(iterations=5, early_stop_window=100)
        _, report = fit(scans, m=2, schedule=sched, base=base)
        d = report.to_dict()
        assert d["final_loss"] == pytest.approx(sum(d["breakdown"].values()), rel=1e-12)
        assert d["final_loss"] != d["trajectory"][-1]
        assert d["trajectory"] == report.trajectory


# every frozen set that holds the pose blocks
REST_FROZEN_SETS = [learning.POSE_BLOCKS | extra for extra in (
    set(), {"beta"}, {"alpha"}, {"phi"}, {"alpha", "beta"}, {"beta", "phi"},
    {"alpha", "phi"}, {"alpha", "beta", "phi"})]
POSE_WORK = ("pose_derivatives", "euler_xyz", "lbs_apply", "lbs_adjoint")


class TestRestPose:
    """A loss whose pose blocks are frozen at zero, on a skeleton without
    rest frames, skips skinning and the global transform; the loss and the
    gradients stay those of the full pose chain, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("frozen", REST_FROZEN_SETS, ids=_frozen_id)
    def test_rest_call_is_the_posed_chain_bitwise(self, rng, monkeypatch, frozen, workers):
        base, scans, theta, phi = tiny_problem(rng, n_scans=6, with_pose=False)
        assert not (theta.joint_angles.any() or theta.global_rot.any()
                    or theta.global_trans.any())
        monkeypatch.setattr(learning, "_CHUNK_BYTES", 24 * scans.n_vertices)
        monkeypatch.setattr(learning, "_cpu_count", lambda: workers)
        ctx = LossContext.build(scans, base)
        # the pose blocks live: the full chain, skinning included
        posed = total_loss(LossPlan.build(ctx, frozen - learning.POSE_BLOCKS, theta),
                           theta, phi, LossWeights())
        calls = _count_calls(monkeypatch, POSE_WORK)
        res = total_loss(LossPlan.build(ctx, frozen, theta), theta, phi, LossWeights())
        assert calls == []
        assert res.total == posed.total
        assert res.breakdown == posed.breakdown
        assert res.scan_vertex_ms.tobytes() == posed.scan_vertex_ms.tobytes()
        assert res.grads.keys() == posed.grads.keys() - learning.POSE_BLOCKS
        for name, g in res.grads.items():
            assert g.tobytes() == posed.grads[name].tobytes(), name

    @pytest.mark.parametrize("case", ["rest_rotations", "joint_angles", "global_rot",
                                      "global_trans"])
    def test_pose_chain_runs_off_rest(self, rng, monkeypatch, case):
        base, scans, theta, phi = tiny_problem(rng, with_pose=False)
        if case == "rest_rotations":
            A = euler_xyz(0.3 * rng.standard_normal((4, 3)))
            base = dataclasses.replace(
                base, skeleton=dataclasses.replace(base.skeleton, rest_rotations=A))
        else:
            getattr(theta, case).flat[1] = 0.05
        calls = _count_calls(monkeypatch, POSE_WORK)
        fresh_loss(theta, phi, scans, LossWeights(), base, frozen=learning.FREEZABLE)
        assert _tally(calls, POSE_WORK) == {"pose_derivatives": 1, "euler_xyz": 1,
                                            "lbs_apply": 1, "lbs_adjoint": 1}


def _full_path(monkeypatch):
    """Turn the zero-basis fast paths off: every expression GEMM runs."""
    monkeypatch.setattr(fmodel, "_zero_blend", lambda model, beta: False)
    monkeypatch.setattr(BlendshapeModel, "expression_zero", property(lambda self: False))


def _full_plan(ctx, frozen, theta):
    """A plan that records no block as zero, built from blocks of ones in
    theta's shapes: its losses evaluate every barrier and run the whole
    pose chain.  Built under _full_path, it runs every expression GEMM."""
    ones = ThetaBlocks(**{k: np.ones_like(v) for k, v in theta.as_dict().items()})
    return LossPlan.build(ctx, frozen, ones)


def _count_gemm_work(monkeypatch):
    """Record the blocks _barrier4 evaluates, by their trailing shape, and
    every blend GEMM of evaluate_unposed, by its basis size."""
    calls = []
    barrier4_, blend = learning._barrier4, fmodel._blend_fields

    def counted_barrier(x, *args):
        calls.append(("barrier", x.shape[1:]))
        return barrier4_(x, *args)

    def counted_blend(coeffs, basis, out):
        calls.append(("blend", basis.shape[0]))
        return blend(coeffs, basis, out)

    monkeypatch.setattr(learning, "_barrier4", counted_barrier)
    monkeypatch.setattr(fmodel, "_blend_fields", counted_blend)
    return calls


def _assert_same_bits(res, full):
    assert res.total == full.total
    assert res.breakdown == full.breakdown
    assert res.scan_vertex_ms.tobytes() == full.scan_vertex_ms.tobytes()
    assert res.grads.keys() == full.grads.keys()
    for name, g in full.grads.items():
        assert res.grads[name].tobytes() == g.tobytes(), name


def _zero_problem(rng, zero_basis, n_scans=6):
    """tiny_problem at rest with beta zero, -0.0 in some entries of beta
    and the pose; with `zero_basis`, a zero expression basis."""
    base, scans, theta, phi = tiny_problem(rng, n_scans=n_scans, with_pose=False)
    if zero_basis:
        base = dataclasses.replace(base, expression_basis=np.zeros_like(base.expression_basis))
    theta.beta[:] = 0.0
    theta.beta[::2, 1] = -0.0
    theta.joint_angles[1] = -0.0
    theta.global_rot[2, 0] = -0.0
    return base, scans, theta, phi


class TestZeroBlocks:
    """A loss skips the arithmetic whose result it knows: the expression
    GEMMs against a zero expression basis, and the barriers of blocks
    frozen at zero; the loss and the gradients stay those of the full
    path, bit for bit."""

    @pytest.mark.parametrize("zero_basis", [True, False], ids=["zero_basis", "basis"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fast_paths_are_the_full_path_bitwise(self, rng, monkeypatch, workers, zero_basis):
        base, scans, theta, phi = _zero_problem(rng, zero_basis)
        monkeypatch.setattr(learning, "_CHUNK_BYTES", 24 * scans.n_vertices)
        monkeypatch.setattr(learning, "_cpu_count", lambda: workers)
        ctx = LossContext.build(scans, base)
        for frozen in dict.fromkeys(FROZEN_SETS + REST_FROZEN_SETS):
            fast = total_loss(LossPlan.build(ctx, frozen, theta), theta, phi, LossWeights())
            with monkeypatch.context() as m:
                _full_path(m)
                full = total_loss(_full_plan(ctx, frozen, theta), theta, phi, LossWeights())
            _assert_same_bits(fast, full)

    def test_unfrozen_zero_basis_call_matches_reference_bitwise(self, rng, monkeypatch):
        base, scans, theta, phi = _zero_problem(rng, zero_basis=True, n_scans=4)
        # live, nonzero, some outside [0, 1]: with a zero barrier weight
        # their barrier derivative is -0.0, which the zero GEMM makes +0.0
        theta.beta[:] = rng.uniform(-0.5, 1.5, theta.beta.shape)
        ctx = LossContext.build(scans, base)
        for weights in (LossWeights(), LossWeights(w_barrier_expr=0.0)):
            res = total_loss(LossPlan.build(ctx, frozenset(), theta), theta, phi, weights)
            with monkeypatch.context() as m:
                _full_path(m)
                total, grads = total_loss_reference(theta, phi, scans, weights, base, ctx)
            assert res.total == total
            assert res.grads.keys() == grads.keys()
            for name, g in grads.items():
                assert res.grads[name].tobytes() == g.tobytes(), name

    def test_zero_frozen_desk_loss_skips_barriers_and_expression_gemm(self, rng, monkeypatch):
        # the fit-desk loss: a base model with a zero expression basis, and
        # beta and the pose frozen at zero
        head = desk_head(m=4)
        alphas = rng.standard_normal((8, 4))
        scans = ScanSet(head.template.vertices
                        + np.einsum("nq,qvk->nvk", alphas, head.identity_basis),
                        head.template.quads, tuple(f"scan_{k}" for k in range(8)))
        base = default_base_model(scans, 4)
        theta = ThetaBlocks.zeros(8, 4, base.n_expression)
        plan = LossPlan.build(LossContext.build(scans, base), learning.FREEZABLE, theta)
        calls = _count_gemm_work(monkeypatch)
        res = total_loss(plan, theta, head.identity_basis, LossWeights())
        assert calls == [("blend", 4)]          # the identity blend only
        assert res.breakdown["barrier_expr"] == res.breakdown["barrier_pose"] == 0.0
        # the zero checks of the basis are made once per model
        assert "expression_zero" in base.__dict__
        _full_path(monkeypatch)
        _assert_same_bits(res, total_loss(_full_plan(plan.ctx, learning.FREEZABLE, theta),
                                          theta, head.identity_basis, LossWeights()))

    @pytest.mark.parametrize("case", ["frozen_nonzero_beta", "frozen_nonzero_global_rot",
                                      "limits_exclude_zero", "live_beta_with_basis"])
    def test_fast_paths_do_not_fire(self, rng, monkeypatch, case):
        base, scans, theta, phi = _zero_problem(rng, zero_basis=False)
        frozen = learning.FREEZABLE
        if case == "frozen_nonzero_beta":
            theta.beta[3, 2] = 0.25
            expected = [("blend", 2), ("blend", 4), ("barrier", (4,))]
        elif case == "frozen_nonzero_global_rot":
            theta.global_rot[3, 2] = 0.25
            expected = [("blend", 2), ("blend", 4), ("barrier", (3,))]
        elif case == "limits_exclude_zero":
            limits = base.skeleton.limits.copy()
            limits[1, 0] = (0.1, 0.5)       # the jaw's first axis cannot rest at 0
            base = dataclasses.replace(
                base, skeleton=dataclasses.replace(base.skeleton, limits=limits))
            expected = [("blend", 2), ("blend", 4), ("barrier", (4, 3))]
        else:
            theta.beta[:] = rng.uniform(0.05, 0.95, theta.beta.shape)
            frozen = learning.POSE_BLOCKS
            expected = [("blend", 2), ("blend", 4), ("barrier", (4,))]
        plan = LossPlan.build(LossContext.build(scans, base), frozen, theta)
        calls = _count_gemm_work(monkeypatch)
        res = total_loss(plan, theta, phi, LossWeights())
        assert sorted(calls) == sorted(expected)
        if case == "limits_exclude_zero":
            assert res.breakdown["barrier_pose"] > 0.0
        _full_path(monkeypatch)
        _assert_same_bits(res, total_loss(_full_plan(plan.ctx, frozen, theta),
                                          theta, phi, LossWeights()))

    def test_non_finite_gradient_runs_the_beta_gemm(self, rng, monkeypatch):
        # against a zero basis only a finite dL/dvbar gives a zero GEMM: an
        # infinite identity coefficient makes scan 0's gradient NaN
        base, scans, theta, phi = _zero_problem(rng, zero_basis=True, n_scans=4)
        theta.alpha[0, 0] = np.inf
        with np.errstate(all="ignore"):
            res = fresh_loss(theta, phi, scans, LossWeights(), base)
            _full_path(monkeypatch)
            full = fresh_loss(theta, phi, scans, LossWeights(), base)
        assert np.isnan(res.grads["beta"][0]).all()
        assert res.grads["beta"].tobytes() == full.grads["beta"].tobytes()

    def test_zero_blend_is_the_explicit_gemm(self, rng):
        # a template holding -0.0 and a zero identity blend: out is +0.0
        # there, which adding the expression blend's +0.0 would not change
        grid = quad_grid(3, 4, spacing=0.05)
        template = grid.vertices.copy()
        template[::2, 2] = -0.0
        V = len(template)
        skel = tiny_problem(rng)[0].skeleton
        base = BlendshapeModel(QuadMesh(template, grid.quads),
                               0.01 * rng.standard_normal((2, V, 3)),
                               0.01 * rng.standard_normal((4, V, 3)),
                               skel, np.full((V, 4), 0.25))
        zero = dataclasses.replace(base, expression_basis=-np.zeros((4, V, 3)))
        signed_zeros = np.zeros((5, 4))
        signed_zeros[::2] = -0.0
        for model, alpha, beta in [
                (base, np.zeros((5, 2)), signed_zeros),
                (base, rng.standard_normal((5, 2)), signed_zeros),
                (zero, np.zeros((5, 2)), rng.standard_normal((5, 4))),
                (zero, np.zeros((5, 2)), signed_zeros),
                # not finite: the GEMM runs
                (zero, np.zeros(2), np.array([0.5, np.nan, 0.0, 1.0])),
                (dataclasses.replace(base, expression_basis=np.where(
                    rng.random((4, V, 3)) < 0.1, np.inf, base.expression_basis)),
                 np.zeros((5, 2)), signed_zeros),
                (base, np.zeros((5, 2)), rng.standard_normal((5, 4)))]:
            with np.errstate(invalid="ignore"):      # 0 * inf
                expect = np.matmul(alpha, model.identity_basis.reshape(2, -1)).reshape(
                    *alpha.shape[:-1], V, 3)
                expect += model.template.vertices
                expect += np.matmul(beta, model.expression_basis.reshape(4, -1)).reshape(
                    *beta.shape[:-1], V, 3)
                assert evaluate_unposed(model, alpha, beta).tobytes() == expect.tobytes()
        assert not np.signbit(evaluate_unposed(base, np.zeros(2), np.zeros(4))[::2, 2]).any()
        # g_beta's rule: a GEMM of finite values against zeros is +0.0 throughout
        dLdvbar = -np.abs(rng.standard_normal((6, 3 * V)))
        for basis in (np.zeros((4, 3 * V)), -np.zeros((4, 3 * V))):
            assert (dLdvbar @ basis.T).tobytes() == np.zeros((6, 4)).tobytes()


class TestLossPlan:
    """A plan kept from loss to loss, as fit keeps one: the second loss
    takes its arrays from the buffers the first sized, and no array of one
    loss reaches the next."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kept_plan_returns_the_bits_of_fresh_calls(self, rng, monkeypatch, workers):
        # every frozen subset, posed and at rest, over several chunks, with
        # theta and phi changed between calls: one plan per frozen subset,
        # kept for all calls, and one set of workspaces for all the plans
        monkeypatch.setattr(learning, "_cpu_count", lambda: workers)
        for with_pose, sets in ((True, FROZEN_SETS), (False, REST_FROZEN_SETS)):
            base, scans, theta, phi = tiny_problem(rng, n_scans=6, with_pose=with_pose)
            monkeypatch.setattr(learning, "_CHUNK_BYTES", 24 * scans.n_vertices)
            ctx = LossContext.build(scans, base)
            slots = LossPlan.build(ctx, frozenset(), theta).slots
            plans = {frozen: LossPlan.build(ctx, frozen, theta, slots) for frozen in sets}
            for plan in plans.values():
                assert len(plan.chunks) == 3 and len(plan.slots) == workers
                assert plan.slots is slots
            for step in (1.0, 1.25, 0.5):
                th = ThetaBlocks(**{k: step * v for k, v in theta.as_dict().items()})
                for frozen, plan in plans.items():
                    case = f"{_frozen_id(frozen)}, step {step}"
                    fresh = total_loss(LossPlan.build(ctx, frozen, th), th, step * phi,
                                       LossWeights())
                    kept = total_loss(plan, th, step * phi, LossWeights())
                    assert kept.total == fresh.total, case
                    assert kept.breakdown == fresh.breakdown, case
                    assert kept.scan_vertex_ms.tobytes() == fresh.scan_vertex_ms.tobytes(), case
                    assert kept.grads.keys() == fresh.grads.keys(), case
                    for name, g in fresh.grads.items():
                        assert kept.grads[name].tobytes() == g.tobytes(), (case, name)

    def test_loss_on_a_sized_plan_allocates_little(self, rng):
        # the fit-desk shapes: 30 scans of the 122-vertex desk head at rest,
        # expression frozen; a loss without a kept plan peaks about 1.3 MB
        # above where it starts.  The first loss sizes the plan's buffers and
        # the second allocates them as it opens, when the first's arrays are
        # gone; every later loss takes its arrays from them
        base = desk_head(m=4)
        alphas = rng.standard_normal((30, 4))
        scans = ScanSet(base.template.vertices
                        + np.einsum("nq,qvk->nvk", alphas, base.identity_basis),
                        base.template.quads, tuple(f"scan_{k:03d}" for k in range(30)))
        theta = ThetaBlocks.zeros(30, 4, base.n_expression)
        plan = LossPlan.build(LossContext.build(scans, base), learning.FREEZABLE, theta)

        def loss():
            return total_loss(plan, theta, base.identity_basis, LossWeights())

        first, second = loss(), loss()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            third = loss()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.total == second.total == third.total
        assert peak - start < 256 * 1024

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           frozen=st.frozensets(st.sampled_from(sorted(learning.BLOCKS))),
           zero=st.frozensets(st.sampled_from(sorted(learning.FREEZABLE))),
           negative_zero=st.booleans(), rest_rotations=st.booleans(),
           zero_basis=st.booleans(), workers=st.sampled_from([1, 2]))
    def test_every_plan_is_the_reference_bitwise(self, seed, frozen, zero, negative_zero,
                                                 rest_rotations, zero_basis, workers):
        # the blocks in `zero` hold zero, -0.0 in every other entry with
        # `negative_zero`; frozen or live, posed or at rest, with or
        # without rest frames and against a zero or a nonzero expression
        # basis, over three chunks on one and two workers
        rng = np.random.default_rng(seed)
        base, scans, theta, phi = tiny_problem(rng, n_scans=6)
        if rest_rotations:
            base = dataclasses.replace(base, skeleton=dataclasses.replace(
                base.skeleton, rest_rotations=euler_xyz(0.3 * rng.standard_normal((4, 3)))))
        if zero_basis:
            base = dataclasses.replace(base, expression_basis=np.zeros_like(base.expression_basis))
        for name in zero:
            block = getattr(theta, name)
            block[...] = 0.0
            if negative_zero:
                block.reshape(-1)[::2] = -0.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learning, "_CHUNK_BYTES", 24 * scans.n_vertices)
            mp.setattr(learning, "_cpu_count", lambda: workers)
            ctx = LossContext.build(scans, base)
            plan = LossPlan.build(ctx, frozen, theta)
            assert len(plan.chunks) == 3 and len(plan.slots) == workers
            assert plan.zero == zero & frozen
            res = total_loss(plan, theta, phi, LossWeights())
            # a nonzero value in a block recorded as zero
            for name in plan.zero:
                moved = dataclasses.replace(theta, **{name: getattr(theta, name) + 0.5})
                with pytest.raises(InvalidParam, match="held at zero"):
                    total_loss(plan, moved, phi, LossWeights())
            _full_path(mp)
            total, grads = total_loss_reference(theta, phi, scans, LossWeights(), base, ctx)
        assert res.total == total
        assert res.grads.keys() == grads.keys() - frozen
        for name, g in res.grads.items():
            assert g.tobytes() == grads[name].tobytes(), name

    def test_planned_loss_builds_no_model(self, rng, monkeypatch):
        base, scans, theta, phi = tiny_problem(rng, n_scans=3)
        ctx = LossContext.build(scans, base)
        built = []
        post_init = BlendshapeModel.__post_init__

        def counted(model):
            built.append(model)
            post_init(model)

        monkeypatch.setattr(BlendshapeModel, "__post_init__", counted)
        for frozen in (frozenset(), learning.FREEZABLE, learning.BLOCKS):
            total_loss(LossPlan.build(ctx, frozen, theta), theta, phi, LossWeights())
        assert built == []
        dataclasses.replace(base, identity_basis=phi)      # the count sees a model built
        assert len(built) == 1
        # the basis size the skeleton was built for is still checked
        with pytest.raises(DimensionMismatch, match="skeleton"):
            total_loss(LossPlan.build(ctx, frozenset(), theta),
                       dataclasses.replace(theta, alpha=np.zeros((3, 3))),
                       np.zeros((3, scans.n_vertices, 3)), LossWeights())



class TestScheduleRanges:
    @pytest.mark.parametrize("field, value", [
        ("iterations", 0), ("early_stop_window", 0), ("early_stop_window", -3),
        ("lr", 0.0), ("lr", -1.0), ("beta1", -0.1), ("beta1", 1.0), ("beta2", 1.0),
        ("eps", 0.0), ("early_stop_rel", -1e-7), ("init_sigma", 0.0), ("init", "bogus"),
        *[(f, v) for f in ("lr", "beta1", "beta2", "eps", "early_stop_rel", "init_sigma")
          for v in (np.nan, np.inf)]])
    def test_out_of_range_field_named(self, field, value):
        with pytest.raises(InvalidParam, match=rf"^{field} must be .*, got {value}$"):
            FitSchedule(**{field: value})

    def test_range_edges_accepted(self):
        FitSchedule(iterations=1, early_stop_window=1, beta1=0.0, beta2=0.0,
                    early_stop_rel=0.0, lr=1e200, eps=1e-300, init_sigma=1e-300)

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf, -np.inf])
    def test_bad_weight_named(self, value):
        with pytest.raises(InvalidParam, match=r"^w_edge must be finite and nonnegative"):
            LossWeights(w_edge=value)
