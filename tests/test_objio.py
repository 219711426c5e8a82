from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegen.errors import DataError, NonFiniteInput
from facegen.mesh import QuadMesh
from facegen.objio import dump_obj, float_lines, load_obj, obj_topology, parse_obj, save_obj
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
    assert text == dump_obj_reference(mesh).encode()
    assert text == dump_obj(mesh, obj_topology(mesh.quads, mesh.uvs))


def test_bulk_formatting_matches_scalar_reference_on_closed_meshes(rng):
    for _ in range(5):
        mesh = random_closed_mesh(rng)
        assert dump_obj(mesh) == dump_obj_reference(mesh).encode()


def test_empty_mesh_matches_scalar_reference():
    mesh = QuadMesh(np.zeros((0, 3)), np.zeros((0, 4), dtype=np.int64))
    assert dump_obj(mesh) == dump_obj_reference(mesh).encode() == b"\n"


def _unchecked_mesh(vertices, uvs=None) -> SimpleNamespace:
    """What dump_obj reads of a mesh, unchecked, so that it can hold nan and
    ±inf: (V, 3) vertices and, with `uvs`, one quad per 8 UV values."""
    quads = np.zeros((0, 4), dtype=np.int64)
    if uvs is not None:
        uvs = np.reshape(uvs, (-1, 4, 2))
        quads = np.tile(np.arange(4), (len(uvs), 1))
    return SimpleNamespace(vertices=np.reshape(vertices, (-1, 3)), quads=quads, uvs=uvs)


def assert_lines_are_repr(values, vt: bool = True) -> None:
    """`values` (repeated to a whole number of quads) written as `v` lines
    and, with `vt`, as `vt` lines: each byte for byte the scalar reference's
    repr text."""
    values = np.asarray(values, dtype=np.float64)
    values = np.resize(values, -(-values.size // 24) * 24)
    meshes = [_unchecked_mesh(values)] + vt * [_unchecked_mesh(np.zeros((4, 3)), values)]
    for mesh in meshes:
        assert dump_obj(mesh) == dump_obj_reference(mesh).encode()


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
    assert_lines_are_repr(EDGES)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.sampled_from(EDGES), min_size=1, max_size=40))
def test_float_tokens_are_repr(values):
    """st.floats() draws every float64: subnormals, both zeros, nan, ±inf."""
    assert_lines_are_repr(values)


def test_float_tokens_are_repr_of_random_bit_patterns():
    bits = np.random.default_rng(13).integers(0, 2**64, size=10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_lines_are_repr(values, vt=False)
    assert_lines_are_repr(values[:2 * 10**4])   # the vt reference's f lines are slow


def test_float_tokens_are_repr_where_orjson_formats_them():
    # random bit patterns rarely land in [1e-4, 1e16), where no row is redone
    rng = np.random.default_rng(14)
    values = 10.0 ** rng.uniform(-4.0, 16.0, 2 * 10**5) * rng.choice([-1.0, 1.0], 2 * 10**5)
    assert_lines_are_repr(values)


def test_float_tokens_keep_c_order_and_handle_no_values():
    verts = np.arange(24.0).reshape(8, 3, order="F")
    uvs = np.arange(16.0).reshape(2, 4, 2, order="F")
    for mesh in (_unchecked_mesh(verts), _unchecked_mesh(verts, uvs)):
        assert not mesh.vertices.flags.c_contiguous
        assert dump_obj(mesh) == dump_obj_reference(mesh).encode()
    assert float_lines(np.zeros((0, 3)), b"v ") == b""


# rows that repr writes in another notation than orjson, among rows it does not
REDO_ROWS = {"first": [0], "last": [-1], "first_and_last": [0, -1],
             "adjacent": [3, 4], "adjacent_at_end": [-2, -1], "every": slice(None)}


@pytest.mark.parametrize("value", [3e-7, -1e20, float("nan"), float("-inf")])
@pytest.mark.parametrize("rows", REDO_ROWS.values(), ids=REDO_ROWS.keys())
def test_redone_rows_are_spliced_in_order(rng, rows, value):
    for n in (5, 9):
        values = rng.uniform(0.1, 10.0, (n, 24))
        values[rows, n % 5] = value
        assert_lines_are_repr(values)
        assert float_lines(values.reshape(-1, 3), b"v ") == \
            dump_obj_reference(_unchecked_mesh(values)).encode()


def test_roundtrip_bit_exact(rng, tmp_path):
    mesh = random_closed_mesh(rng)
    save_obj(tmp_path / "m.obj", mesh)
    back = load_obj(tmp_path / "m.obj")
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.quads, mesh.quads)


def test_write_read_write_byte_identical(rng, tmp_path):
    mesh = random_closed_mesh(rng)
    text1 = dump_obj(mesh)
    text2 = dump_obj(parse_obj(text1.decode()))
    assert text1 == text2


def test_uv_roundtrip(rng):
    grid = quad_grid(2, 2)
    uvs = rng.uniform(0, 1, (grid.n_quads, 4, 2))
    mesh = QuadMesh(grid.vertices, grid.quads, uvs)
    back = parse_obj(dump_obj(mesh).decode())
    assert back.uvs is not None
    assert np.array_equal(back.uvs, uvs)


def test_one_based_indices():
    text = dump_obj(cube_mesh()).decode()
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
