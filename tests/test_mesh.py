import dataclasses

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
    build_connectivity,
    edge_length_energy,
    normals_forward,
    signed_incidence,
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
)


class TestConnectivity:
    def test_cube(self):
        conn = build_connectivity(cube_mesh())
        assert conn.n_edges == 12
        assert np.all(conn.valence == 3)
        assert not conn.boundary_edge.any()
        assert conn.euler_characteristic() == 2

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
        assert np.array_equal(c1.edges, c2.edges)
        assert np.array_equal(c1.edge_faces, c2.edge_faces)
        assert np.array_equal(c1.nbr_indices, c2.nbr_indices)

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


class TestBlockOperator:
    def test_gather_is_kron_of_the_incidence_transpose(self, rng):
        mesh = random_closed_mesh(rng)
        V = mesh.n_vertices
        x = rng.standard_normal((3, V, 2))
        for index, signs in ((mesh.quads, (1, 1, 1, 1)),
                             (build_connectivity(mesh).edges, (1, -1))):
            op = BlockOperator.gather(index, signs, V)
            A = signed_incidence(index, signs, V).T
            assert np.array_equal(op.forward.toarray(),
                                  sparse.kron(sparse.identity(3), A).toarray())
            assert np.array_equal(op.adjoint.toarray(), op.forward.T.toarray())
            assert op.forward.format == op.adjoint.format == "csr"
            assert op.adjoint.has_sorted_indices
            assert np.array_equal(op.forward.indices[:index.size], index.ravel())
            # each slab adds in the order of the unstacked operator, bit for bit
            y = op.apply(x)
            assert np.array_equal(op.apply_adjoint(y), np.stack([A.T @ c for c in y]))
            assert np.array_equal(y, np.stack([A @ c for c in x]))
            assert np.array_equal(op.T.apply(y), op.apply_adjoint(y))


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
        conn = build_connectivity(QuadMesh(verts, quads))
        f = verts[:, :1] * 1.0
        out = uniform_laplacian_matrix(conn) @ np.concatenate([f, f * 0, f * 0], axis=1)
        # vertex 0 neighbors along the band: 1, 3 (x=1,1) and 4 (x=0)
        nbrs = conn.vertex_neighbors(0)
        expect = f[nbrs, 0].mean() - f[0, 0]
        assert out[0, 0] == pytest.approx(expect)

    def test_linearity(self, rng):
        conn = build_connectivity(random_closed_mesh(rng))
        f = rng.standard_normal((conn.n_vertices, 3))
        g = rng.standard_normal((conn.n_vertices, 3))
        L = uniform_laplacian_matrix(conn)
        assert np.allclose(L @ (2.0 * f - 0.5 * g), 2.0 * (L @ f) - 0.5 * (L @ g),
                           atol=1e-12)

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
    D = signed_incidence(edges, (1, -1), mesh.n_vertices).T
    lengths = np.linalg.norm(D @ reference.vertices, axis=1)
    return edge_length_energy(mesh.vertices.T, lengths,
                              BlockOperator.gather(edges, (1, -1), mesh.n_vertices))


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
        D = signed_incidence(edges, (1, -1), grid.n_vertices).T
        B = BlockOperator.gather(edges, (1, -1), grid.n_vertices)
        lengths = np.linalg.norm(D @ ref, axis=1)
        _, g = edge_length_energy(v.T, lengths, B)
        g = g.T
        h = 1e-6
        fd = np.zeros_like(g)
        for i in range(v.shape[0]):
            for k in range(3):
                vp, vm = v.copy(), v.copy()
                vp[i, k] += h
                vm[i, k] -= h
                fd[i, k] = (edge_length_energy(vp.T, lengths, B)[0]
                            - edge_length_energy(vm.T, lengths, B)[0]) / (2 * h)
        assert np.abs(g - fd).max() / np.abs(fd).max() < 1e-6

    def test_batched_matches_single_meshes(self, rng):
        cube = cube_mesh()
        edges = build_connectivity(cube).edges
        batch = cube.vertices.T[..., None, None] + 0.1 * rng.standard_normal(
            cube.vertices.T.shape + (3, 2))
        values, grads = edge_length_energy(
            batch, np.ones(len(edges)), BlockOperator.gather(edges, (1, -1), cube.n_vertices))
        assert values.shape == (3, 2) and grads.shape == batch.shape
        for i in range(3):
            for j in range(2):
                e, g = edge_energy_against(cube.with_vertices(batch[..., i, j].T), cube)
                assert values[i, j] == pytest.approx(e, rel=1e-12)
                assert np.allclose(grads[..., i, j], g, rtol=0, atol=1e-12)

    def test_matches_batch_major_reference(self, rng):
        mesh = random_closed_mesh(rng)
        edges = build_connectivity(mesh).edges
        D = signed_incidence(edges, (1, -1), mesh.n_vertices).T
        lengths = np.linalg.norm(D @ mesh.vertices, axis=1)
        batch = mesh.vertices + 0.05 * rng.standard_normal((3,) + mesh.vertices.shape)
        values, grads = edge_length_energy(
            np.ascontiguousarray(batch.T), lengths,
            BlockOperator.gather(edges, (1, -1), mesh.n_vertices))
        ref_values, ref_grads = edge_length_energy_reference(batch, lengths, D, D.T)
        assert np.allclose(values, ref_values, rtol=1e-12, atol=0)
        assert np.abs(grads - ref_grads.T).max() \
            <= 1e-12 * np.abs(ref_grads).max()
