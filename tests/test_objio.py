import numpy as np
import pytest

from facegen.errors import DataError, NonFiniteInput
from facegen.mesh import QuadMesh
from facegen.objio import dump_obj, load_obj, obj_topology, parse_obj, save_obj
from facegen.procedural import cube_mesh, quad_grid

from conftest import dump_obj_reference, random_closed_mesh


@pytest.mark.parametrize("with_uvs", [False, True])
def test_bulk_formatting_matches_scalar_reference(rng, with_uvs):
    grid = quad_grid(3, 2)
    special = [-0.0, 1e-300, 1e17, 0.1, 2.0, -3.0, 5e-324, 1.7976931348623157e308]
    verts = rng.standard_normal(grid.vertices.shape)
    verts.ravel()[:len(special)] = special
    uvs = None
    if with_uvs:
        uvs = rng.uniform(0.0, 1.0, (grid.n_quads, 4, 2))
        uvs.ravel()[:len(special)] = special
    mesh = QuadMesh(verts, grid.quads, uvs)
    text = dump_obj(mesh)
    assert text == dump_obj_reference(mesh)
    assert text == dump_obj(mesh, obj_topology(mesh.quads, mesh.uvs))


def test_bulk_formatting_matches_scalar_reference_on_closed_meshes(rng):
    for _ in range(5):
        mesh = random_closed_mesh(rng)
        assert dump_obj(mesh) == dump_obj_reference(mesh)


def test_empty_mesh_matches_scalar_reference():
    mesh = QuadMesh(np.zeros((0, 3)), np.zeros((0, 4), dtype=np.int64))
    assert dump_obj(mesh) == dump_obj_reference(mesh) == "\n"


def test_roundtrip_bit_exact(rng, tmp_path):
    mesh = random_closed_mesh(rng)
    save_obj(tmp_path / "m.obj", mesh)
    back = load_obj(tmp_path / "m.obj")
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.quads, mesh.quads)


def test_write_read_write_byte_identical(rng, tmp_path):
    mesh = random_closed_mesh(rng)
    text1 = dump_obj(mesh)
    text2 = dump_obj(parse_obj(text1))
    assert text1 == text2


def test_uv_roundtrip(rng):
    grid = quad_grid(2, 2)
    uvs = rng.uniform(0, 1, (grid.n_quads, 4, 2))
    mesh = QuadMesh(grid.vertices, grid.quads, uvs)
    back = parse_obj(dump_obj(mesh))
    assert back.uvs is not None
    assert np.array_equal(back.uvs, uvs)


def test_one_based_indices():
    text = dump_obj(cube_mesh())
    fline = [l for l in text.splitlines() if l.startswith("f ")][0]
    ids = [int(t) for t in fline.split()[1:]]
    assert min(ids) >= 1


def test_comments_and_foreign_tags_ignored():
    text = "# header\no thing\nv 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\ns off\nf 1 2 3 4\n"
    mesh = parse_obj(text)
    assert mesh.n_vertices == 4
    assert mesh.n_quads == 1


def test_triangles_rejected():
    with pytest.raises(DataError):
        parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")


def test_empty_rejected():
    with pytest.raises(DataError):
        parse_obj("# nothing\n")


def test_texture_index_past_vt_list_rejected():
    text = ("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nvt 0 0\nvt 1 0\n"
            "f 1/1 2/2 3/3 4/1\n")
    with pytest.raises(DataError, match="line 7"):
        parse_obj(text)


def test_non_finite_vertex_rejected():
    with pytest.raises(NonFiniteInput):
        parse_obj("v 0 0 0\nv 1 0 0\nv 1 nan 0\nv 0 1 0\nf 1 2 3 4\n")


def test_malformed_number_is_data_error():
    with pytest.raises(DataError, match="line 2"):
        parse_obj("v 0 0 0\nv 1 x 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")


def test_load_obj_errors_name_the_file(tmp_path):
    path = tmp_path / "broken.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 9\n")
    with pytest.raises(DataError, match="broken.obj"):
        load_obj(path)


def test_load_obj_non_utf8_names_the_file(tmp_path):
    path = tmp_path / "binary.obj"
    path.write_bytes(b"v 0 0 0\n\xff\xfe\n")
    with pytest.raises(DataError, match="binary.obj"):
        load_obj(path)
