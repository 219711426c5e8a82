import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegen.errors import DataError, NonFiniteInput
from facegen.mesh import QuadMesh
from facegen.objio import dump_obj, float_tokens, load_obj, obj_topology, parse_obj, save_obj
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


def _neighbours(x: float, k: int = 40) -> list[float]:
    """x and the k floats on either side of it."""
    out = [x]
    for toward in (-np.inf, np.inf):
        y = x
        for _ in range(k):
            y = float(np.nextafter(y, toward))
            out.append(y)
    return out


# where repr changes notation (1e-4, 1e16), the extremes and the specials
EDGES = [s * v for s in (1.0, -1.0) for x in (1e-4, 1e16) for v in _neighbours(x)] + [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]


def test_float_tokens_are_repr_at_the_notation_edges():
    assert float_tokens(np.array(EDGES)) == [repr(x) for x in EDGES]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.sampled_from(EDGES), min_size=1, max_size=40))
def test_float_tokens_are_repr(values):
    """st.floats() draws every float64: subnormals, both zeros, nan, ±inf."""
    assert float_tokens(np.array(values)) == [repr(x) for x in values]


def test_float_tokens_are_repr_of_random_bit_patterns():
    bits = np.random.default_rng(13).integers(0, 2**64, size=10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert float_tokens(values) == [repr(x) for x in values.tolist()]


def test_float_tokens_are_repr_where_orjson_formats_them():
    # random bit patterns rarely land in [1e-4, 1e16), where no token is redone
    rng = np.random.default_rng(14)
    values = 10.0 ** rng.uniform(-4.0, 16.0, 2 * 10**5) * rng.choice([-1.0, 1.0], 2 * 10**5)
    assert float_tokens(values) == [repr(x) for x in values.tolist()]


def test_float_tokens_keep_c_order_and_handle_no_values():
    a = np.arange(12.0).reshape(3, 4)
    assert float_tokens(a.T) == [repr(x) for x in a.T.ravel().tolist()]
    assert float_tokens(np.zeros((0, 3))) == []


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
