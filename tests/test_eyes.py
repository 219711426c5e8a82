import numpy as np
import pytest

from facegen.errors import DegenerateProjection, InvalidParam
from facegen.eyes import (
    EyeGeometryParams,
    build_eye,
    quad_uv_sphere,
    shrinkwrap_eyelids,
)
from facegen.mesh import build_connectivity


def test_sphere_vertex_count_and_manifold():
    lat, lon = 8, 12
    sphere = quad_uv_sphere(1.0, lat, lon)
    assert sphere.n_vertices == lat * lon + 2
    conn = build_connectivity(sphere)
    assert not conn.boundary_edge.any()
    assert conn.n_vertices - conn.n_edges + conn.n_faces == 2


def test_sphere_odd_lon_rejected():
    with pytest.raises(InvalidParam):
        quad_uv_sphere(1.0, 6, 7)


def test_no_flattening_keeps_sphere():
    r = 0.012
    geo = build_eye(EyeGeometryParams(sclera_radius=r, iris_flatten_depth=0.0))
    radii = np.linalg.norm(geo.sclera.vertices, axis=1)
    assert np.abs(radii - r).max() < 1e-12


def test_flattening_clips_axial_coordinate():
    r = 0.012
    depth = r / 4
    geo = build_eye(EyeGeometryParams(sclera_radius=r, iris_flatten_depth=depth))
    assert geo.sclera.vertices[:, 2].max() <= r - depth + 1e-12
    # some vertices actually sit on the flattening plane
    assert np.any(np.abs(geo.sclera.vertices[:, 2] - (r - depth)) < 1e-12)


def test_metadata_records_refraction_index():
    geo = build_eye(EyeGeometryParams())
    assert geo.metadata["cornea_refraction_index"] == 1.376


def test_invalid_params():
    with pytest.raises(InvalidParam):
        EyeGeometryParams(sclera_radius=-1.0)
    with pytest.raises(InvalidParam):
        EyeGeometryParams(sclera_radius=0.01, iris_flatten_depth=0.02)


class TestShrinkwrap:
    center = np.array([0.0, 0.0, 0.0])
    r = 2.0

    def test_on_surface_unchanged(self):
        verts = np.array([[2.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        out = shrinkwrap_eyelids(verts, [0], self.center, self.r)
        assert np.array_equal(out, verts)

    def test_outside_within_capture_projected(self):
        verts = np.array([[2.2, 0.0, 0.0]])
        out = shrinkwrap_eyelids(verts, [0], self.center, self.r,
                                 capture_distance=0.4)
        assert np.allclose(out[0], [2.0, 0.0, 0.0], atol=1e-12)

    def test_inside_pushed_out(self):
        verts = np.array([[0.5, 0.0, 0.0]])
        out = shrinkwrap_eyelids(verts, [0], self.center, self.r)
        assert np.allclose(out[0], [2.0, 0.0, 0.0], atol=1e-12)

    def test_beyond_capture_untouched(self):
        verts = np.array([[3.0, 0.0, 0.0]])
        out = shrinkwrap_eyelids(verts, [0], self.center, self.r,
                                 capture_distance=0.4)
        assert np.array_equal(out, verts)

    def test_only_listed_ids_touched(self):
        verts = np.array([[2.1, 0.0, 0.0], [2.1, 0.0, 0.0], [0.3, 0.0, 0.0]])
        out = shrinkwrap_eyelids(verts, [0], self.center, self.r)
        assert not np.array_equal(out[0], verts[0])
        assert np.array_equal(out[1], verts[1])
        assert np.array_equal(out[2], verts[2])

    def test_center_coincident_raises(self):
        verts = np.array([[0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateProjection):
            shrinkwrap_eyelids(verts, [0], self.center, self.r)
