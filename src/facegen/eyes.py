"""Procedural eye geometry: two-sphere eye (sclera + corneal bulge) and
the eyelid shrinkwrap that closes the lid/sclera gap.

The sclera is a UV sphere flattened at the +z end into the iris plane;
the cornea is a second sphere centered on the iris axis.  The corneal
refraction index (1.376) is carried as metadata for the renderer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProjection, InvalidParam
from .mesh import QuadMesh

CORNEA_REFRACTION_INDEX = 1.376
EYE_SEGMENTS = (12, 16)   # latitude rings, longitude segments of each eye sphere


@dataclass(frozen=True)
class EyeGeometryParams:
    sclera_radius: float = 0.012
    cornea_radius: float = 0.0065
    iris_flatten_depth: float = 0.0035
    pupil_radius: float = 0.002

    def __post_init__(self):
        if min(self.sclera_radius, self.cornea_radius, self.pupil_radius) <= 0:
            raise InvalidParam("all eye radii must be positive")
        if self.iris_flatten_depth < 0:
            raise InvalidParam("iris_flatten_depth must be >= 0")
        if self.iris_flatten_depth >= self.sclera_radius:
            raise InvalidParam("iris_flatten_depth must be smaller than the sclera radius")


def quad_uv_sphere(radius: float, lat_segments: int, lon_segments: int) -> QuadMesh:
    """All-quad UV sphere with lat*lon + 2 vertices, +z pole last.

    Pole caps are quadrangulated by pairing adjacent fan triangles, which
    requires an even longitude count.
    """
    if lat_segments < 4 or lon_segments < 4:
        raise InvalidParam("segments must be >= 4")
    if lon_segments % 2 != 0:
        raise InvalidParam("lon_segments must be even for an all-quad sphere")

    lat, lon = lat_segments, lon_segments
    # rings exclude the poles; ring r at polar angle (r+1)/(lat+1) * pi from -z
    theta = np.pi * (np.arange(1, lat + 1) / (lat + 1.0))
    phi = 2.0 * np.pi * np.arange(lon) / lon
    st, ct = np.sin(theta), -np.cos(theta)   # ct runs from near -1 to near +1
    verts = np.empty((lat * lon + 2, 3))
    ring = np.arange(lat)
    verts[:lat * lon, 0] = (radius * st[:, None] * np.cos(phi)[None, :]).ravel()
    verts[:lat * lon, 1] = (radius * st[:, None] * np.sin(phi)[None, :]).ravel()
    verts[:lat * lon, 2] = (radius * ct[:, None] * np.ones(lon)[None, :]).ravel()
    south = lat * lon
    north = lat * lon + 1
    verts[south] = (0.0, 0.0, -radius)
    verts[north] = (0.0, 0.0, radius)

    quads = []
    for r in range(lat - 1):
        base0 = r * lon
        base1 = (r + 1) * lon
        for s in range(lon):
            s1 = (s + 1) % lon
            quads.append((base0 + s, base0 + s1, base1 + s1, base1 + s))
    # caps: pair two adjacent fan triangles into one quad
    for s in range(0, lon, 2):
        s1, s2 = (s + 1) % lon, (s + 2) % lon
        quads.append((south, s2, s1, s))
        b = (lat - 1) * lon
        quads.append((north, b + s, b + s1, b + s2))
    return QuadMesh(verts, np.asarray(quads, dtype=np.int64))


@dataclass(frozen=True)
class EyeGeometry:
    sclera: QuadMesh
    cornea: QuadMesh
    params: EyeGeometryParams

    @property
    def metadata(self) -> dict:
        return {
            "cornea_refraction_index": CORNEA_REFRACTION_INDEX,
            "sclera_radius": self.params.sclera_radius,
            "cornea_radius": self.params.cornea_radius,
            "iris_flatten_depth": self.params.iris_flatten_depth,
            "pupil_radius": self.params.pupil_radius,
        }


def build_eye(params: EyeGeometryParams) -> EyeGeometry:
    """Sclera sphere flattened into the iris plane plus the corneal sphere.

    Sclera vertices with z beyond (sclera_radius - iris_flatten_depth) are
    projected onto that plane; the cornea sphere sits on the iris axis with
    its center in the flattening plane.
    """
    r = params.sclera_radius
    sclera = quad_uv_sphere(r, *EYE_SEGMENTS)
    z_cut = r - params.iris_flatten_depth
    v = sclera.vertices.copy()
    v[:, 2] = np.minimum(v[:, 2], z_cut)
    sclera = sclera.with_vertices(v)

    cornea = quad_uv_sphere(params.cornea_radius, *EYE_SEGMENTS)
    cv = cornea.vertices.copy()
    cv[:, 2] += z_cut
    cornea = cornea.with_vertices(cv)
    return EyeGeometry(sclera=sclera, cornea=cornea, params=params)


def shrinkwrap_eyelids(face_vertices: np.ndarray, eyelid_vertex_ids: np.ndarray,
                       sclera_center: np.ndarray, sclera_radius: float,
                       capture_distance: float | None = None) -> np.ndarray:
    """Project listed eyelid vertices radially onto the sclera sphere.

    Vertices inside the sphere are pushed out to the surface; vertices
    outside within `capture_distance` (default 15% of the radius) are
    pulled in; anything farther is untouched.  Returns a modified copy.
    """
    out = np.array(face_vertices, dtype=np.float64, copy=True)
    ids = np.asarray(eyelid_vertex_ids, dtype=np.int64)
    if ids.size == 0:
        return out
    if ids.min() < 0 or ids.max() >= len(out):
        raise InvalidParam("eyelid vertex id out of range")
    if capture_distance is None:
        capture_distance = 0.15 * sclera_radius
    center = np.asarray(sclera_center, dtype=np.float64).reshape(3)
    rel = out[ids] - center
    dist = np.linalg.norm(rel, axis=1)
    if np.any(dist < 1e-15):
        bad = int(ids[np.argmax(dist < 1e-15)])
        raise DegenerateProjection(f"eyelid vertex {bad} coincides with the sclera center")
    move = (dist < sclera_radius) | ((dist > sclera_radius)
                                     & (dist <= sclera_radius + capture_distance))
    scale = sclera_radius / dist[move]
    out[ids[move]] = center + rel[move] * scale[:, None]
    return out
