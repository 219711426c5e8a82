import hashlib

import numpy as np
import pytest

from facegen.eyes import quad_uv_sphere
from facegen.mesh import QuadMesh, build_connectivity
from facegen.procedural import cube_mesh, desk_head, quad_grid
from facegen.subdivision import catmull_clark_stencil, subdivide_catmull_clark

from conftest import (
    build_connectivity_reference,
    random_closed_mesh,
    subdivide_reference,
    torus_mesh,
)

# the stencil sums each rule's terms in another order than the reference
STENCIL_TOL = 1e-12


def _assert_matches_reference(mesh, levels):
    expect = subdivide_reference(mesh, levels)
    stencil, quads, uvs = catmull_clark_stencil(mesh, levels)
    assert stencil.shape == (expect.n_vertices, mesh.n_vertices)
    assert np.abs(stencil @ mesh.vertices - expect.vertices).max() <= STENCIL_TOL
    assert np.array_equal(quads, expect.quads)
    if mesh.uvs is None:
        assert uvs is None
    else:
        assert np.array_equal(uvs, expect.uvs)


def test_stencil_matches_reference_on_demo_head():
    _assert_matches_reference(desk_head(seed=0).template, 3)


def test_stencil_matches_reference_on_closed_meshes():
    rng = np.random.default_rng(3)
    for _ in range(50):
        _assert_matches_reference(random_closed_mesh(rng), 2)


def test_stencil_matches_reference_on_open_grid_with_uvs(rng):
    # boundary vertices, corners included, have two boundary edges: crease rule
    grid = quad_grid(4, 3)
    mesh = QuadMesh(grid.vertices + 0.05 * rng.standard_normal(grid.vertices.shape),
                    grid.quads, rng.uniform(0.0, 1.0, (grid.n_quads, 4, 2)))
    _assert_matches_reference(mesh, 3)


def test_stencil_pins_vertex_on_four_boundary_edges(rng):
    # two grids touching at one corner: that vertex is on four boundary edges
    a, b = quad_grid(2, 2), quad_grid(2, 2)
    shared = 8                                    # far corner of a, first of b
    verts = np.vstack([a.vertices, b.vertices[1:] + a.vertices[shared]])
    quads_b = np.where(b.quads == 0, shared, b.quads - 1 + a.n_vertices)
    mesh = QuadMesh(verts + 0.05 * rng.standard_normal(verts.shape),
                    np.vstack([a.quads, quads_b]))
    _assert_matches_reference(mesh, 3)
    sub = subdivide_catmull_clark(mesh, 3)
    assert np.array_equal(sub.vertices[shared], mesh.vertices[shared])


def test_stencil_keeps_isolated_vertex():
    cube = cube_mesh()
    mesh = QuadMesh(np.vstack([cube.vertices, [[5.0, 6.0, 7.0]]]), cube.quads)
    _assert_matches_reference(mesh, 2)
    assert np.array_equal(subdivide_catmull_clark(mesh, 2).vertices[8], [5.0, 6.0, 7.0])


@pytest.mark.parametrize("mesh, digest", [
    (desk_head(seed=0).template, "0d4d77592d9cf6a4"),
    (quad_grid(4, 3), "413f4c4334f7fcda"),
    (cube_mesh(), "25b22d91b8fc03c0"),
    (torus_mesh(7, 5), "a2edd648ed2f3ca7"),
    (quad_uv_sphere(1.0, 6, 8), "a59da9375e5d1e92"),
], ids=["desk_head", "grid", "cube", "torus", "uv_sphere"])
def test_stencil_arrays_pinned(mesh, digest):
    # the CSR arrays and dtypes of levels 1-3, bit for bit: any change to
    # the stencil's entries or their order changes the bytes of face.obj
    h = hashlib.sha256()
    for levels in (1, 2, 3):
        s = catmull_clark_stencil(mesh, levels)[0]
        for a in (s.indptr, s.indices, s.data):
            h.update(a.dtype.str.encode() + a.tobytes())
    assert h.hexdigest()[:16] == digest


def test_level_zero_is_input():
    cube = cube_mesh()
    assert subdivide_catmull_clark(cube, 0) is cube


def test_cube_one_level_counts():
    sub = subdivide_catmull_clark(cube_mesh(), 1)
    assert sub.n_vertices == 8 + 12 + 6
    assert sub.n_quads == 24


def test_cube_face_points_are_centroids():
    sub = subdivide_catmull_clark(cube_mesh(), 1)
    # face points live right after the 8 vertex points
    face_pts = sub.vertices[8:14]
    expected = cube_mesh().vertices[cube_mesh().quads].mean(axis=1)
    assert np.allclose(face_pts, expected, atol=1e-15)
    assert any(np.allclose(fp, [0.5, 0.5, 0.0]) for fp in face_pts)


def test_regular_interior_vertex_rule_on_grid():
    # 3x3 quad grid: center vertex is regular (valence 4); compare against a
    # direct hand evaluation of Q/n + 2R/n + S(n-3)/n
    rng = np.random.default_rng(7)
    grid = quad_grid(3, 3)
    mesh = QuadMesh(grid.vertices + 0.05 * rng.standard_normal(grid.vertices.shape),
                    grid.quads)
    conn = build_connectivity_reference(mesh)
    center = 5   # (1,1) in the 4x4 vertex lattice (i * 4 + j)
    assert not conn.boundary_vertex[center]
    assert conn.valence[center] == 4

    face_pts = mesh.vertices[mesh.quads].mean(axis=1)
    q = face_pts[conn.vertex_faces(center)].mean(axis=0)
    nbrs = conn.vertex_neighbors(center)
    r = np.mean([0.5 * (mesh.vertices[center] + mesh.vertices[u]) for u in nbrs], axis=0)
    s = mesh.vertices[center]
    n = 4.0
    expected = q / n + 2.0 * r / n + s * (n - 3.0) / n

    sub = subdivide_catmull_clark(mesh, 1)
    assert np.allclose(sub.vertices[center], expected, atol=1e-14)


def test_boundary_crease_rule_on_grid():
    rng = np.random.default_rng(8)
    grid = quad_grid(3, 3)
    mesh = QuadMesh(grid.vertices + 0.05 * rng.standard_normal(grid.vertices.shape),
                    grid.quads)
    # vertex 1 = (0,1): boundary, non-corner; neighbors on the boundary are 0 and 2
    sub = subdivide_catmull_clark(mesh, 1)
    expected = (6.0 * mesh.vertices[1] + mesh.vertices[0] + mesh.vertices[2]) / 8.0
    assert np.allclose(sub.vertices[1], expected, atol=1e-14)


def test_combinatorics_closed_meshes(rng):
    for _ in range(10):
        mesh = random_closed_mesh(rng)
        conn = build_connectivity(mesh)
        sub = subdivide_catmull_clark(mesh, 1)
        sconn = build_connectivity(sub)
        assert sub.n_vertices == conn.n_vertices + conn.n_edges + conn.n_faces
        assert sub.n_quads == 4 * conn.n_faces
        assert (sconn.n_vertices - sconn.n_edges + sconn.n_faces
                == conn.n_vertices - conn.n_edges + conn.n_faces)
        assert not sconn.boundary_edge.any()


def test_open_mesh_keeps_boundary():
    grid = quad_grid(2, 2)
    sub = subdivide_catmull_clark(grid, 1)
    conn = build_connectivity(grid)
    sconn = build_connectivity(sub)
    assert sub.n_vertices == conn.n_vertices + conn.n_edges + conn.n_faces
    assert sconn.boundary_edge.any()
    assert (sconn.n_vertices - sconn.n_edges + sconn.n_faces
            == conn.n_vertices - conn.n_edges + conn.n_faces)


def test_convex_hull_containment(rng):
    # subdivided points of a closed mesh are convex combinations of inputs;
    # check with bounding-box containment plus distance-to-hull via lstsq on
    # a simple convex shape (the cube)
    mesh = cube_mesh()
    sub = subdivide_catmull_clark(mesh, 2)
    lo, hi = mesh.vertices.min(0), mesh.vertices.max(0)
    assert np.all(sub.vertices >= lo - 1e-12)
    assert np.all(sub.vertices <= hi + 1e-12)


def test_uv_subdivision_preserves_corners():
    grid = quad_grid(2, 2)
    uvs = grid.vertices[grid.quads][:, :, :2] / 2.0
    mesh = QuadMesh(grid.vertices, grid.quads, uvs)
    sub = subdivide_catmull_clark(mesh, 1)
    assert sub.uvs is not None
    assert sub.uvs.shape == (sub.n_quads, 4, 2)
    # each child quad keeps its parent corner UV at corner 0
    orig = {tuple(c) for f in mesh.uvs for c in f}
    child = {tuple(c) for c in sub.uvs[:, 0, :]}
    assert child == orig


def test_non_manifold_input_rejected():
    from facegen.errors import NonManifoldEdge
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                      [0, 0, 1], [1, 0, 1], [0, 0, -1], [1, 0, -1]], dtype=float)
    quads = [[0, 1, 2, 3], [0, 1, 5, 4], [0, 1, 7, 6]]
    with pytest.raises(NonManifoldEdge):
        subdivide_catmull_clark(QuadMesh(verts, quads), 1)


def test_three_levels_cube_runtime():
    import time
    t0 = time.perf_counter()
    sub = subdivide_catmull_clark(cube_mesh(), 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert sub.n_quads == 6 * 4 ** 3


def test_negative_levels_are_invalid_param():
    from facegen.errors import InvalidParam
    with pytest.raises(InvalidParam, match="got -1"):
        catmull_clark_stencil(cube_mesh(), -1)


def test_output_above_the_quad_cap_rejected_before_any_work(monkeypatch):
    import facegen.subdivision as subdivision
    from facegen.errors import InvalidParam
    head = desk_head().template
    assert head.n_quads == 120
    for levels in (7, 9, 10 ** 9):
        with pytest.raises(InvalidParam, match=r"above the limit of 2\^20"):
            catmull_clark_stencil(head, levels)
    # the cap counts output quads, F * 4^levels, and admits it exactly
    monkeypatch.setattr(subdivision, "MAX_QUADS", 6 * 4 ** 2)
    assert catmull_clark_stencil(cube_mesh(), 2)[1].shape == (6 * 4 ** 2, 4)
    monkeypatch.setattr(subdivision, "build_connectivity", None)    # no work first
    with pytest.raises(InvalidParam, match=r"6 \* 4\^3 quads"):
        catmull_clark_stencil(cube_mesh(), 3)
