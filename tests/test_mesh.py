import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse

from facegen.errors import (
    DegenerateQuad,
    IsolatedVertex,
    NonFiniteInput,
    NonManifoldEdge,
    ZeroAreaFace,
)
from facegen.mesh import (
    BlockOperator,
    FaceOperators,
    MeshConnectivity,
    Normals,
    QuadMesh,
    Workspace,
    build_connectivity,
    csr_apply,
    edge_length_energy,
    gather_matrix,
    normals_forward,
    uniform_laplacian_matrix,
    vertex_normals,
)
from facegen.procedural import cube_mesh, desk_head, quad_grid

from conftest import (
    brute_force_face_normals,
    brute_force_vertex_normals,
    build_connectivity_reference,
    edge_length_energy_reference,
    normals_forward_reference,
    random_closed_mesh,
    uniform_laplacian_reference,
)


class TestConnectivity:
    def test_cube(self):
        conn = build_connectivity(cube_mesh())
        assert conn.n_edges == 12
        assert np.all(conn.valence == 3)
        assert not conn.boundary_edge.any()
        assert conn.n_vertices - conn.n_edges + conn.n_faces == 2

    def test_single_quad(self):
        mesh = QuadMesh(np.eye(4, 3), [[0, 1, 2, 3]])
        conn = build_connectivity(mesh)
        assert conn.n_edges == 4
        assert conn.boundary_edge.all()

    def test_two_quads_share_edge(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                          [2, 0, 0], [2, 1, 0]], dtype=float)
        mesh = QuadMesh(verts, [[0, 1, 2, 3], [1, 4, 5, 2]])
        conn = build_connectivity(mesh)
        assert conn.n_edges == 7
        assert int((~conn.boundary_edge).sum()) == 1

    def test_edges_sorted_canonically(self, rng):
        conn = build_connectivity(random_closed_mesh(rng))
        assert np.all(conn.edges[:, 0] < conn.edges[:, 1])
        order = np.lexsort((conn.edges[:, 1], conn.edges[:, 0]))
        assert np.array_equal(order, np.arange(conn.n_edges))

    def test_deterministic_rebuild(self, rng):
        mesh = random_closed_mesh(rng)
        c1 = build_connectivity(mesh)
        c2 = build_connectivity(mesh)
        for field in dataclasses.fields(MeshConnectivity):
            assert np.array_equal(getattr(c1, field.name), getattr(c2, field.name))

    def test_non_manifold_edge_raises(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                          [0, 0, 1], [1, 0, 1], [0, 0, -1], [1, 0, -1]], dtype=float)
        quads = [[0, 1, 2, 3], [0, 1, 5, 4], [0, 1, 7, 6]]
        with pytest.raises(NonManifoldEdge):
            build_connectivity(QuadMesh(verts, quads))

    @staticmethod
    def assert_matches_reference(mesh):
        conn, ref = build_connectivity(mesh), build_connectivity_reference(mesh)
        for field in dataclasses.fields(MeshConnectivity):
            a, b = np.asarray(getattr(conn, field.name)), np.asarray(getattr(ref, field.name))
            assert np.array_equal(a, b) and a.dtype == b.dtype, field.name

    @pytest.mark.parametrize("seed", range(8))
    def test_tables_match_row_unique_reference(self, seed):
        # closed meshes with shuffled vertex labels, faces and corner starts,
        # then open ones with about 40% of their faces cut away
        rng = np.random.default_rng(seed)
        mesh = random_closed_mesh(rng)
        perm = rng.permutation(mesh.n_vertices)
        shift = rng.integers(4, size=(mesh.n_quads, 1))
        quads = np.take_along_axis(perm[mesh.quads], (np.arange(4) + shift) % 4, axis=1)
        mesh = QuadMesh(mesh.vertices[np.argsort(perm)], quads[rng.permutation(len(quads))])
        self.assert_matches_reference(mesh)
        self.assert_matches_reference(
            QuadMesh(mesh.vertices, mesh.quads[rng.random(mesh.n_quads) < 0.6]))

    @pytest.mark.parametrize("mesh", [
        quad_grid(5, 3), desk_head(m=4).template, desk_head(m=8, lat=40, lon=48).template],
        ids=["grid", "desk_head", "desk_head_fit_large"])
    def test_tables_match_row_unique_reference_on_fixed_meshes(self, mesh):
        self.assert_matches_reference(mesh)

    def test_non_manifold_edge_named_as_by_reference(self, rng):
        # two extra fins, each on an edge of a closed mesh: the error names
        # the lexicographically first of the two non-manifold edges
        mesh = random_closed_mesh(rng)
        V = mesh.n_vertices
        fins = [[q[0], q[1], V + 2 * k, V + 2 * k + 1]
                for k, q in enumerate(mesh.quads[rng.choice(mesh.n_quads, 2, replace=False)])]
        verts = np.concatenate([mesh.vertices, rng.standard_normal((4, 3))])
        bad = QuadMesh(verts, np.concatenate([mesh.quads, fins]))
        with pytest.raises(NonManifoldEdge) as got:
            build_connectivity(bad)
        with pytest.raises(NonManifoldEdge) as ref:
            build_connectivity_reference(bad)
        assert str(got.value) == str(ref.value)

    def test_degenerate_quad_raises(self):
        with pytest.raises(DegenerateQuad):
            QuadMesh(np.eye(4, 3), [[0, 1, 2, 2]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_raises(self, bad):
        verts = quad_grid(1, 1).vertices.copy()
        verts[2, 1] = bad
        with pytest.raises(NonFiniteInput, match="vertex 2"):
            QuadMesh(verts, [[0, 1, 3, 2]])

    def test_index_out_of_range_raises(self):
        with pytest.raises(DegenerateQuad):
            QuadMesh(np.eye(3, 3), [[0, 1, 2, 3]])


class TestWithVertices:
    """with_vertices keeps the checked topology and checks only the positions."""

    def test_keeps_topology_and_takes_positions(self, rng):
        mesh = random_closed_mesh(rng)
        moved = mesh.with_vertices(2.0 * mesh.vertices)
        assert moved.quads is mesh.quads and moved.uvs is mesh.uvs
        assert np.array_equal(moved.vertices, 2.0 * mesh.vertices)
        assert moved.vertices.flags.c_contiguous and moved.vertices.dtype == np.float64

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_vertex_named(self, bad):
        mesh = quad_grid(2, 2)
        verts = mesh.vertices.copy()
        verts[5, 2] = bad
        with pytest.raises(NonFiniteInput, match="vertex 5 is not finite"):
            mesh.with_vertices(verts)

    @pytest.mark.parametrize("shape", [(9, 2), (8, 3), (10, 3), (27,), (9, 3, 1)])
    def test_wrong_shape_rejected(self, shape):
        mesh = quad_grid(2, 2)
        with pytest.raises(DegenerateQuad, match=r"vertices must be \(9, 3\)"):
            mesh.with_vertices(np.zeros(shape))


class TestVertexNormals:
    def test_planar_grid(self):
        mesh = quad_grid(3, 3)
        n = vertex_normals(mesh)
        assert np.allclose(np.abs(n[:, 2]), 1.0, atol=1e-12)
        assert np.allclose(n[:, :2], 0.0, atol=1e-12)
        # consistent orientation across the grid
        assert np.all(n[:, 2] == n[0, 2])

    def test_cube_corner(self):
        n = vertex_normals(cube_mesh())
        expect = np.array([-1.0, -1.0, -1.0]) / np.sqrt(3)
        assert np.allclose(n[0], expect, atol=1e-12)

    def test_unit_length(self, rng):
        mesh = random_closed_mesh(rng)
        n = vertex_normals(mesh)
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)

    def test_matches_brute_force(self, rng):
        grid = quad_grid(4, 5)
        mesh = QuadMesh(grid.vertices + 0.1 * rng.standard_normal(grid.vertices.shape),
                        grid.quads)
        assert np.allclose(vertex_normals(mesh), brute_force_vertex_normals(mesh),
                           atol=1e-12)

    def test_rotation_equivariance_scale_invariance(self, rng):
        from facegen.model import euler_xyz
        mesh = random_closed_mesh(rng)
        R = euler_xyz(rng.uniform(-1, 1, 3))
        n0 = vertex_normals(mesh)
        n_rot = vertex_normals(mesh.with_vertices(mesh.vertices @ R.T))
        assert np.allclose(n_rot, n0 @ R.T, atol=1e-9)
        n_scaled = vertex_normals(mesh.with_vertices(3.7 * mesh.vertices))
        assert np.allclose(n_scaled, n0, atol=1e-12)

    def test_vertex_below_threshold_gets_zero_normal(self):
        # two coplanar quads of opposite orientation share vertex 0; their
        # unit normals cancel there up to rounding (|sum| ~ 1.6e-16)
        verts = np.array([
            [0.08600995580892012, -1.6012494855458184, 0.16118573436322525],
            [-0.2695761663742717, 1.3517154400034483, 0.44354125093379254],
            [0.10503885549118688, 0.44604124221832436, -0.42449139131161406],
            [0.2814950055674409, 1.9049547943536844, -1.3211910113732723],
            [-0.03110825165138159, 1.418339481252454, -0.2754177914535204],
            [-0.01252986673848791, 0.6172675289463809, -0.12283089793683732],
            [0.2471273411540949, -0.986072732634375, -0.4720831146646367]])
        mesh = QuadMesh(verts, [[0, 1, 2, 3], [0, 6, 5, 4]])
        face = brute_force_face_normals(mesh)
        assert 0.0 < np.linalg.norm(face.sum(axis=0)) < 1e-15
        assert np.array_equal(vertex_normals(mesh)[0], np.zeros(3))

    def test_zero_area_face_warns(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
        mesh = QuadMesh(verts, [[0, 1, 2, 3]])   # collinear: zero-area quad
        with pytest.warns(ZeroAreaFace):
            vertex_normals(mesh)
        batch = np.stack([verts.T, verts.T + 1.0], axis=-1)
        with pytest.warns(ZeroAreaFace, match="2 zero-area"):
            vertex_normals(batch, FaceOperators.build(mesh.quads, 4))


    def test_forward_matches_batch_major_reference(self, rng):
        mesh = random_closed_mesh(rng)
        batch = mesh.vertices + 0.02 * rng.standard_normal((4,) + mesh.vertices.shape)
        fwd = normals_forward(np.ascontiguousarray(batch.T),
                              FaceOperators.build(mesh.quads, mesh.n_vertices))
        ref = normals_forward_reference(batch, mesh.quads)
        for name, a, b in zip(Normals._fields, fwd, ref):
            assert np.allclose(a, b.T, rtol=1e-12, atol=1e-15), name


def dense_gather(index: np.ndarray, signs, n: int) -> np.ndarray:
    """The (K, n) gather matrix accumulated entry by entry."""
    K, c = index.shape
    A = np.zeros((K, n))
    np.add.at(A, (np.repeat(np.arange(K), c), index.ravel()), np.tile(signs, K))
    return A


def gather_cases(mesh: QuadMesh):
    """(index, signs, n) of every gather the package builds on a mesh: the
    learner's face and edge operators first, then the subdivision's
    incidences, the face-edge one with n = E."""
    conn = build_connectivity(mesh)
    V = mesh.n_vertices
    return [(mesh.quads, (1, 1, 1, 1), V), (mesh.quads[:, [2, 0]], (1, -1), V),
            (conn.edges, (1, -1), V), (conn.edges, (1, 1), V),
            (conn.edges[conn.boundary_edge], (1, 1), V),
            (conn.face_edges, (1, 1, 1, 1), conn.n_edges)]


class TestGatherMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for index, signs, n in gather_cases(random_closed_mesh(rng)) + gather_cases(
                quad_grid(int(rng.integers(1, 5)), 2)):
            g = gather_matrix(index, signs, n)
            assert g.format == "csr" and g.shape == (len(index), n)
            assert np.array_equal(g.toarray(), dense_gather(index, signs, n))
            # row k lists its columns in the order of index[k]
            assert np.array_equal(g.indices, index.ravel())
            assert np.array_equal(g.indptr, np.arange(0, index.size + 1, index.shape[1]))
            assert g.indices.dtype == g.indptr.dtype == np.int32


class TestBlockOperator:
    def test_gather_is_kron_of_the_gather_matrix(self, rng):
        mesh = random_closed_mesh(rng)
        V = mesh.n_vertices
        x = rng.standard_normal((3, V, 2))
        for index, signs, _ in gather_cases(mesh)[:3]:     # what the learner gathers
            op = BlockOperator.gather(index, signs, V)
            dense = np.kron(np.eye(3), dense_gather(index, signs, V))
            assert np.array_equal(op.forward.toarray(), dense)
            assert np.array_equal(op.adjoint.toarray(), dense.T)
            assert op.forward.format == op.adjoint.format == "csr"
            assert op.adjoint.has_sorted_indices
            assert np.array_equal(op.forward.indices[:index.size], index.ravel())
            for m in op:
                assert m.indices.dtype == m.indptr.dtype == np.int32
            # each slab adds in the order of the unstacked operator, bit for bit
            A = gather_matrix(index, signs, V)
            y = op.apply(x)
            assert np.array_equal(op.apply_adjoint(y), np.stack([A.T @ c for c in y]))
            assert np.array_equal(y, np.stack([A @ c for c in x]))
            assert np.array_equal(op.T.apply(y), op.apply_adjoint(y))

    def test_operator_with_an_empty_side_applies_both_ways(self):
        """A closed mesh has no boundary edges: its boundary-edge operator is
        (0, V) and maps to and from empty arrays."""
        conn = build_connectivity(cube_mesh())
        op = BlockOperator.gather(conn.edges[conn.boundary_edge], (1, 1), conn.n_vertices)
        assert op.apply(np.ones((3, 8, 2))).shape == (3, 0, 2)
        assert np.array_equal(op.apply_adjoint(np.ones((3, 0, 2))), np.zeros((3, 8, 2)))

    @pytest.mark.parametrize("batch", [(2,), (1,), ()], ids=["batch2", "batch1", "single"])
    def test_product_into_out_is_the_scipy_product_bytewise(self, rng, batch):
        # scipy's `@` on the free view, whatever `out` held before; the
        # boundary-edge scatter of a closed mesh has no columns
        mesh = random_closed_mesh(rng)
        V = mesh.n_vertices
        conn = build_connectivity(mesh)
        ops = [BlockOperator.gather(conn.edges, (1, -1), V),
               BlockOperator.gather(mesh.quads, (1, 1, 1, 1), V).T,
               BlockOperator.gather(conn.edges[conn.boundary_edge], (1, 1), V).T]
        assert ops[2].forward.shape == (3 * V, 0)
        for op in ops:
            for apply, A in ((op.apply, op.forward), (op.apply_adjoint, op.adjoint)):
                x = rng.standard_normal((3, A.shape[1] // 3, *batch))
                expected = A @ x.reshape(A.shape[1], math.prod(batch))
                out = np.full((3, A.shape[0] // 3, *batch), np.nan)
                assert apply(x, out) is out
                assert out.tobytes() == expected.tobytes()
                assert apply(x).tobytes() == expected.tobytes()

    def test_csr_apply_rejects_x_of_another_shape_and_non_csr(self, rng):
        # csr_matvecs reads x by a's column count, unchecked: a short x
        # must fail before the kernel, and a CSC matrix's arrays would be
        # read as its transpose's
        a = sparse.random(6, 4, density=0.5, format="csr", random_state=0)
        out = np.empty((6, 2))
        for x in (np.ones((3, 2)), np.ones((5, 2)), np.ones(4), np.ones((4, 2, 1))):
            with pytest.raises(ValueError, match=r"x must be a \(4, n\) array"):
                csr_apply(a, x, out)
        with pytest.raises(ValueError, match="CSR"):
            csr_apply(a.tocsc(), np.ones((4, 2)), out)
        x = rng.standard_normal((4, 2))
        assert csr_apply(a, x, out).tobytes() == (a @ x).tobytes()

    def test_out_of_another_shape_or_layout_rejected(self):
        op = BlockOperator.gather(build_connectivity(cube_mesh()).edges, (1, -1), 8)
        x = np.ones((3, 8, 2))
        for out in (np.empty((3, 12, 3)), np.empty((3, 12, 4))[..., :2]):
            with pytest.raises(ValueError, match="C-ordered"):
                op.apply(x, out)


class TestWorkspace:
    def test_a_kept_workspace_takes_from_one_buffer(self):
        ws = Workspace()

        def call():
            with ws:
                a = ws.take(3, 5)
                with ws:
                    b = ws.take(7)
                with ws:        # b's frame is closed: its memory serves c
                    c = ws.take(2, 4)
                return a, b, c

        first, second, third = call(), call(), call()
        # the first call takes fresh arrays, and the buffer they sized is
        # allocated when the second call opens its frame
        assert all(x.base is None for x in first)
        assert not any(np.shares_memory(x, y) for x in first for y in second)
        # later calls take the same memory each time
        assert all(np.shares_memory(x, y) for x, y in zip(second, third))
        a, b, c = second
        assert np.shares_memory(b, c) and not np.shares_memory(a, b)
        assert [(x.shape, x.flags.c_contiguous) for x in second] == [
            ((3, 5), True), ((7,), True), ((2, 4), True)]
        assert a.ctypes.data % 64 == b.ctypes.data % 64     # takes start whole lines apart

    def test_a_take_past_the_buffer_is_a_fresh_array(self):
        ws = Workspace()
        with ws:
            ws.take(8)
        with ws:
            inside = ws.take(8)
            past = ws.take(8)
        assert inside.base is not None and past.base is None


class TestUniformLaplacian:
    def test_constant_field_annihilated(self, rng):
        conn = build_connectivity(random_closed_mesh(rng))
        field = np.tile([1.5, -2.0, 0.25], (conn.n_vertices, 1))
        assert np.allclose(uniform_laplacian_matrix(conn) @ field, 0.0, atol=1e-12)

    def test_one_hot_single_quad(self):
        mesh = QuadMesh(np.eye(4, 3), [[0, 1, 2, 3]])
        conn = build_connectivity(mesh)
        field = np.zeros((4, 3))
        field[0, 0] = 1.0
        out = uniform_laplacian_matrix(conn) @ field
        assert out[0, 0] == pytest.approx(-1.0)
        assert out[1, 0] == pytest.approx(0.5)   # neighbors of 0 are 1 and 3
        assert out[3, 0] == pytest.approx(0.5)
        assert out[2, 0] == pytest.approx(0.0)

    def test_linear_field_on_cycle(self):
        # 4-vertex cycle built from a torus-like band: hand-computed response
        # of f(x) = x on a closed loop 0-1-2-3 with coordinates 0,1,2,1
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [1, 1, 0],
                          [0, 0, 1], [1, 0, 1], [2, 0, 1], [1, 1, 1]], dtype=float)
        quads = [[0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]
        mesh = QuadMesh(verts, quads)
        conn = build_connectivity(mesh)
        f = verts[:, :1] * 1.0
        out = uniform_laplacian_matrix(conn) @ np.concatenate([f, f * 0, f * 0], axis=1)
        # vertex 0 neighbors along the band: 1, 3 (x=1,1) and 4 (x=0)
        nbrs = build_connectivity_reference(mesh).vertex_neighbors(0)
        expect = f[nbrs, 0].mean() - f[0, 0]
        assert out[0, 0] == pytest.approx(expect)

    def test_linearity(self, rng):
        conn = build_connectivity(random_closed_mesh(rng))
        f = rng.standard_normal((conn.n_vertices, 3))
        g = rng.standard_normal((conn.n_vertices, 3))
        L = uniform_laplacian_matrix(conn)
        assert np.allclose(L @ (2.0 * f - 0.5 * g), 2.0 * (L @ f) - 0.5 * (L @ g),
                           atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_neighbour_table_construction(self, seed):
        rng = np.random.default_rng(seed)
        for mesh in (random_closed_mesh(rng), quad_grid(int(rng.integers(1, 6)), 3)):
            L = uniform_laplacian_matrix(build_connectivity(mesh))
            ref = uniform_laplacian_reference(build_connectivity_reference(mesh))
            assert L.format == ref.format == "csr"
            for name in ("indptr", "indices", "data"):
                a, b = getattr(L, name), getattr(ref, name)
                assert np.array_equal(a, b) and a.dtype == b.dtype, name

    def test_isolated_vertex_raises(self):
        verts = np.vstack([np.eye(4, 3), [5.0, 5.0, 5.0]])
        conn_mesh = QuadMesh(verts, [[0, 1, 2, 3]])
        conn = build_connectivity(conn_mesh)
        with pytest.raises(IsolatedVertex):
            uniform_laplacian_matrix(conn)


def edge_energy_against(mesh: QuadMesh, reference: QuadMesh):
    """edge_length_energy of `mesh` against the edge lengths of `reference`,
    which shares its topology; the gradient is component-major (3, V)."""
    edges = build_connectivity(mesh).edges
    D = gather_matrix(edges, (1, -1), mesh.n_vertices)
    lengths = np.linalg.norm(D @ reference.vertices, axis=1)
    return edge_length_energy(mesh.vertices.T, lengths,
                              BlockOperator.gather(edges, (1, -1), mesh.n_vertices),
                              Workspace())


class TestEdgeLengthEnergy:
    def test_zero_at_reference(self, rng):
        mesh = random_closed_mesh(rng)
        e, g = edge_energy_against(mesh, mesh)
        assert e == 0.0
        assert np.allclose(g, 0.0)

    def test_cube_uniform_scale(self):
        cube = cube_mesh()
        e, _ = edge_energy_against(cube.with_vertices(2.0 * cube.vertices), cube)
        assert e == pytest.approx(12.0, rel=1e-12)

    def test_gradient_matches_fd(self, rng):
        grid = quad_grid(3, 3)
        ref = grid.vertices.copy()
        v = ref + 0.1 * rng.standard_normal(ref.shape)
        edges = build_connectivity(grid).edges
        D = gather_matrix(edges, (1, -1), grid.n_vertices)
        B = BlockOperator.gather(edges, (1, -1), grid.n_vertices)
        lengths = np.linalg.norm(D @ ref, axis=1)
        _, g = edge_length_energy(v.T, lengths, B, Workspace())
        g = g.T
        h = 1e-6
        fd = np.zeros_like(g)
        for i in range(v.shape[0]):
            for k in range(3):
                vp, vm = v.copy(), v.copy()
                vp[i, k] += h
                vm[i, k] -= h
                fd[i, k] = (edge_length_energy(vp.T, lengths, B, Workspace())[0]
                            - edge_length_energy(vm.T, lengths, B, Workspace())[0]) / (2 * h)
        assert np.abs(g - fd).max() / np.abs(fd).max() < 1e-6

    def test_batched_matches_single_meshes(self, rng):
        cube = cube_mesh()
        edges = build_connectivity(cube).edges
        batch = cube.vertices.T[..., None, None] + 0.1 * rng.standard_normal(
            cube.vertices.T.shape + (3, 2))
        values, grads = edge_length_energy(
            batch, np.ones(len(edges)), BlockOperator.gather(edges, (1, -1), cube.n_vertices),
            Workspace())
        assert values.shape == (3, 2) and grads.shape == batch.shape
        for i in range(3):
            for j in range(2):
                e, g = edge_energy_against(cube.with_vertices(batch[..., i, j].T), cube)
                assert values[i, j] == pytest.approx(e, rel=1e-12)
                assert np.allclose(grads[..., i, j], g, rtol=0, atol=1e-12)

    def test_matches_batch_major_reference(self, rng):
        mesh = random_closed_mesh(rng)
        edges = build_connectivity(mesh).edges
        D = gather_matrix(edges, (1, -1), mesh.n_vertices)
        lengths = np.linalg.norm(D @ mesh.vertices, axis=1)
        batch = mesh.vertices + 0.05 * rng.standard_normal((3,) + mesh.vertices.shape)
        values, grads = edge_length_energy(
            np.ascontiguousarray(batch.T), lengths,
            BlockOperator.gather(edges, (1, -1), mesh.n_vertices), Workspace())
        ref_values, ref_grads = edge_length_energy_reference(batch, lengths, D, D.T)
        assert np.allclose(values, ref_values, rtol=1e-12, atol=0)
        assert np.abs(grads - ref_grads.T).max() \
            <= 1e-12 * np.abs(ref_grads).max()
