"""Strand-hair parametrization: grooms (strand polylines rooted in scalp
UV space) encoded into two UV maps (root density, strand length) plus a
volumetric flow-direction grid, and reconstructed back by growing
strands through the flow field.

The flattened code vector is [density | length | flow xyz-interleaved],
d = 2 R^2 + 3 G^3; the bounding box and the per-texel mean root position
grid travel alongside as metadata (they are needed to reconstruct, not
to compress).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .container import decode_json, load_container, save_container
from .errors import (
    DimensionMismatch,
    EmptyDensity,
    EmptyGroom,
    InvalidParam,
    MissingRootMap,
    PointOutsideBbox,
    naming,
)

HAIR_STYLES = ("scalp", "eyebrow", "beard", "eyelash")


@dataclass(frozen=True, init=False, eq=False)
class Groom:
    """Hair groom: strand polylines (meters) with scalp-UV roots, stored
    ragged: strand i is points[offsets[i]:offsets[i + 1]], root first.

    `Groom(strands, root_uv, style)` converts a sequence of (L_i, 3)
    strand arrays; `Groom.from_ragged` takes the arrays as stored.  Both
    run the same checks, and a failure names the offending strand.
    """

    points: np.ndarray                 # (P, 3) every strand, root to tip
    offsets: np.ndarray                # (S + 1,) int64, 0 first and P last
    root_uv: np.ndarray                # (S, 2) in [0, 1]^2
    style: str = "scalp"

    def __init__(self, strands, root_uv, style: str = "scalp"):
        arrays = [np.asarray(s, dtype=np.float64) for s in strands]
        bad = [i for i, a in enumerate(arrays) if a.ndim != 2 or a.shape[1] != 3]
        if bad:
            raise InvalidParam(
                f"strand {bad[0]} must be (L >= 2, 3), got {arrays[bad[0]].shape}")
        points = np.concatenate(arrays) if arrays else np.empty((0, 3))
        self._store(points, _offsets([len(a) for a in arrays]), root_uv, style)

    @classmethod
    def from_ragged(cls, points, offsets, root_uv, style: str = "scalp") -> "Groom":
        """Groom from (P, 3) points and the (S + 1,) strand offsets into them."""
        groom = cls.__new__(cls)
        groom._store(points, offsets, root_uv, style)
        return groom

    def _store(self, points, offsets, root_uv, style: str) -> None:
        points = np.asarray(points, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise InvalidParam(f"points must be (P, 3), got {points.shape}")
        if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0 \
                or offsets[-1] != len(points):
            raise InvalidParam(f"offsets must be 1-D, from 0 to the {len(points)} points")
        counts = np.diff(offsets)
        short = np.flatnonzero(counts < 2)
        if short.size:
            i = short[0]
            raise InvalidParam(f"strand {i} must be (L >= 2, 3), got ({counts[i]}, 3)")
        _check_finite(points, offsets)
        uv = np.asarray(root_uv, dtype=np.float64)
        if uv.shape != (len(counts), 2):
            raise InvalidParam(f"root_uv must be ({len(counts)}, 2), got {uv.shape}")
        outside = np.flatnonzero(~((uv >= 0.0) & (uv <= 1.0)).all(axis=1))
        if outside.size:
            raise InvalidParam(
                f"root_uv of strand {outside[0]} must lie in the unit square")
        if style not in HAIR_STYLES:
            raise InvalidParam(f"unknown style {style!r}, expected one of {HAIR_STYLES}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "root_uv", uv)
        object.__setattr__(self, "style", style)

    def with_points(self, points) -> "Groom":
        """Same strands, roots and style, new (P, 3) point positions.  The
        offsets, root UVs and style were checked when this groom was made,
        so only the points are."""
        points = np.asarray(points, dtype=np.float64)
        if points.shape != self.points.shape:
            raise InvalidParam(f"points must be {self.points.shape}, got {points.shape}")
        _check_finite(points, self.offsets)
        groom = Groom.__new__(Groom)
        for name, value in (("points", points), ("offsets", self.offsets),
                            ("root_uv", self.root_uv), ("style", self.style)):
            object.__setattr__(groom, name, value)
        return groom

    @property
    def strands(self) -> tuple[np.ndarray, ...]:
        """Read-only (L_i, 3) views of `points`, one per strand."""
        view = self.points.view()
        view.flags.writeable = False
        o = self.offsets.tolist()
        return tuple(view[a:b] for a, b in zip(o[:-1], o[1:]))

    @property
    def n_strands(self) -> int:
        return len(self.offsets) - 1

    def arc_lengths(self) -> np.ndarray:
        seg_len = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        out = np.empty(self.n_strands)
        for ids, segs in _segment_groups(self.offsets):
            out[ids] = seg_len[segs].sum(axis=1)
        return out

    def points_bbox(self, pad: float = 0.0) -> np.ndarray:
        if self.n_strands == 0:
            raise EmptyGroom("groom has no strands")
        return np.array([self.points.min(axis=0) - pad, self.points.max(axis=0) + pad])


def _check_finite(points: np.ndarray, offsets: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        i = np.searchsorted(offsets, bad[0], side="right") - 1
        raise InvalidParam(f"strand {i} contains non-finite points")


def _offsets(counts) -> np.ndarray:
    """Strand offsets (S + 1,) of strands with the given point counts."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _segment_groups(offsets: np.ndarray):
    """Strands of equal length in groups: yields (strand ids (k,), (k, n)
    indices of their segments in np.diff(points)); segment j of strand i
    is at offsets[i] + j.  Row-wise numpy reductions over a group add in
    the same order as over each strand alone, so per-strand sums and
    cumulative sums come out bit for bit."""
    n_seg = np.diff(offsets) - 1
    for n in np.unique(n_seg):
        ids = np.flatnonzero(n_seg == n)
        yield ids, offsets[ids, None] + np.arange(n)


@dataclass(frozen=True)
class HairCode:
    """Groom encoding: density/length UV maps + flow volume + metadata."""

    density_map: np.ndarray      # (R, R), max-normalized root counts
    length_map: np.ndarray       # (R, R), mean strand length per texel (m)
    flow_volume: np.ndarray      # (G, G, G, 3), unit or zero vectors
    bbox: np.ndarray             # (2, 3) [min, max] of the volume (m)
    root_points: np.ndarray | None = None   # (R, R, 3) mean root per texel

    def __post_init__(self):
        den = np.asarray(self.density_map, dtype=np.float64)
        ln = np.asarray(self.length_map, dtype=np.float64)
        flow = np.asarray(self.flow_volume, dtype=np.float64)
        bbox = np.asarray(self.bbox, dtype=np.float64)
        if bbox.size != 6:
            raise DimensionMismatch(f"bbox must hold 2 x 3 numbers, got {bbox.shape}")
        bbox = bbox.reshape(2, 3)
        if den.ndim != 2 or den.shape != (len(den),) * 2 or ln.shape != den.shape:
            raise DimensionMismatch("density/length maps must be square and equal size")
        if flow.ndim != 4 or flow.shape != (len(flow),) * 3 + (3,) or len(flow) < 2:
            raise DimensionMismatch(
                f"flow volume must be (G, G, G, 3) with G >= 2, got {flow.shape}")
        R = len(den)
        if np.any(den < 0) or np.any(ln < 0):
            raise InvalidParam("density and length maps must be nonnegative")
        norms = np.linalg.norm(flow, axis=3)
        nz = norms > 1e-6
        if np.any(np.abs(norms[nz] - 1.0) > 1e-6):
            raise InvalidParam("nonzero flow cells must have unit norm within 1e-6")
        if np.any(bbox[0] >= bbox[1]):
            raise InvalidParam("bbox min must be strictly below bbox max")
        object.__setattr__(self, "density_map", den)
        object.__setattr__(self, "length_map", ln)
        object.__setattr__(self, "flow_volume", flow)
        object.__setattr__(self, "bbox", bbox)
        if self.root_points is not None:
            rp = np.asarray(self.root_points, dtype=np.float64)
            if rp.shape != (R, R, 3):
                raise DimensionMismatch(f"root_points must be ({R}, {R}, 3), got {rp.shape}")
            object.__setattr__(self, "root_points", rp)

    @property
    def uv_resolution(self) -> int:
        return self.density_map.shape[0]

    @property
    def volume_resolution(self) -> int:
        return self.flow_volume.shape[0]

    def cell_size(self) -> np.ndarray:
        return (self.bbox[1] - self.bbox[0]) / self.volume_resolution

    def cell_diagonal(self) -> float:
        return float(np.linalg.norm(self.cell_size()))


def _uv_texel(uv: np.ndarray, R: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.clip(np.floor(uv * R).astype(np.int64), 0, R - 1)
    return idx[:, 0], idx[:, 1]


def _resample(points: np.ndarray, offsets: np.ndarray, spacing: float
              ) -> tuple[np.ndarray, np.ndarray]:
    """Positions and unit tangents at uniform arc-length midpoints of every
    strand, in strand order: a strand of arc length L > 0 gets
    max(1, floor(L / spacing)) samples, a strand of zero length none."""
    seg = np.diff(points, axis=0)              # segment j of strand i at offsets[i] + j
    seg_len = np.linalg.norm(seg, axis=1)
    cum = np.zeros(len(points))                # arc length from the root to each point
    for _, segs in _segment_groups(offsets):
        cum[segs + 1] = np.cumsum(seg_len[segs], axis=1)
    total = cum[offsets[1:] - 1]
    n = np.where(total > 0, np.maximum(1, np.floor(total / spacing).astype(np.int64)), 0)
    strand = np.repeat(np.arange(len(n)), n)
    k = np.arange(len(strand)) - np.repeat(np.cumsum(n) - n, n)
    s = (k + 0.5) * (total / np.maximum(n, 1))[strand]
    # complex numbers sort by real part, then imaginary part: one sorted
    # key (strand id, arc length) finds each sample's segment in its strand
    point_strand = np.repeat(np.arange(len(n)), np.diff(offsets))
    start = np.searchsorted(point_strand + 1j * cum, strand + 1j * s, side="right") - 1
    t = (s - cum[start]) / seg_len[start]
    pos = points[start] + t[:, None] * seg[start]
    tang = seg[start] / seg_len[start, None]
    return pos, tang


def encode_groom(groom: Groom, R: int = 64, G: int = 32,
                 bbox: np.ndarray | None = None) -> HairCode:
    """Rasterize a groom into density/length UV maps and a flow volume.

    Root counts are normalized by the max texel count.  Segment tangents
    (oriented root to tip) are sampled every half cell and averaged per
    volume cell, then normalized to unit length.
    """
    if R < 4 or G < 4:
        raise InvalidParam("resolutions R and G must be >= 4")
    if groom.n_strands == 0:
        raise EmptyGroom("groom has no strands")
    if bbox is None:
        bbox = groom.points_bbox(pad=1e-9)
    bbox = np.asarray(bbox, dtype=np.float64).reshape(2, 3)
    points, offsets = groom.points, groom.offsets
    if np.any(points < bbox[0] - 1e-12) or np.any(points > bbox[1] + 1e-12):
        raise PointOutsideBbox("strand points fall outside the given bbox")

    iu, iv = _uv_texel(groom.root_uv, R)
    counts = np.zeros((R, R))
    np.add.at(counts, (iu, iv), 1.0)
    density = counts / counts.max()

    lengths = groom.arc_lengths()
    lsum = np.zeros((R, R))
    np.add.at(lsum, (iu, iv), lengths)
    length_map = np.divide(lsum, counts, out=np.zeros_like(lsum), where=counts > 0)

    rsum = np.zeros((R, R, 3))
    np.add.at(rsum, (iu, iv), points[offsets[:-1]])
    root_points = np.divide(rsum, counts[..., None],
                            out=np.zeros_like(rsum), where=counts[..., None] > 0)

    cell = (bbox[1] - bbox[0]) / G
    spacing = 0.5 * float(cell.min())
    if spacing <= 0:
        raise InvalidParam("bbox is degenerate")
    pos, tang = _resample(points, offsets, spacing)
    ijk = np.clip(((pos - bbox[0]) / cell).astype(np.int64), 0, G - 1)
    acc = np.zeros((G, G, G, 3))
    np.add.at(acc, (ijk[:, 0], ijk[:, 1], ijk[:, 2]), tang)
    norms = np.linalg.norm(acc, axis=3)
    nz = norms > 1e-8
    flow = np.zeros_like(acc)
    flow[nz] = acc[nz] / norms[nz][:, None]

    return HairCode(density_map=density, length_map=length_map,
                    flow_volume=flow, bbox=bbox, root_points=root_points)


def _trilinear(volume: np.ndarray, pos: np.ndarray, bbox: np.ndarray) -> np.ndarray:
    """Cell-centered trilinear interpolation of a (G, G, G, 3) field, G >= 2."""
    G = volume.shape[0]
    cell = (bbox[1] - bbox[0]) / G
    g = (pos - bbox[0]) / cell - 0.5
    i0 = np.clip(np.floor(g).astype(np.int64), 0, G - 2)
    f = np.clip(g - i0, 0.0, 1.0)
    # the 8 corners of every cell in one gather from the flat volume, in
    # (dx, dy, dz) order
    base = (i0[:, 0] * G + i0[:, 1]) * G + i0[:, 2]
    corners = iter(np.take(volume.reshape(-1, 3),
                           base + _CORNERS.dot([G * G, G, 1])[:, None], axis=0))
    w = (1.0 - f.T, f.T)          # w[d][axis]: weight of offset d along axis
    out = np.zeros((len(pos), 3))
    for dx in (0, 1):
        for dy in (0, 1):
            wxy = w[dx][0] * w[dy][1]
            for dz in (0, 1):
                out += (wxy * w[dz][2])[:, None] * next(corners)
    return out


_CORNERS = np.array([(dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)])


def _systematic_counts(weights: np.ndarray, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Low-variance weight-proportional allocation of n draws."""
    p = weights / weights.sum()
    cum = np.cumsum(p)
    cum[-1] = 1.0
    pts = (rng.uniform(0.0, 1.0) + np.arange(n)) / n
    idx = np.searchsorted(cum, pts, side="left")
    return np.bincount(idx, minlength=len(p))


@dataclass
class DecodeReport:
    """Per-strand outcome of `decode_groom`.  Every early-terminated strand
    stopped for exactly one reason: the flow vanished under it after it
    had moved (`zero_flow`), a step would have left the volume
    (`wall`), or it never moved at all (`stub`)."""

    target_lengths: np.ndarray
    grown_lengths: np.ndarray
    early_terminated: np.ndarray
    zero_flow: np.ndarray
    wall: np.ndarray
    stub: np.ndarray

    def to_dict(self) -> dict:
        return {
            "n_strands": int(len(self.target_lengths)),
            "n_early_terminated": int(self.early_terminated.sum()),
            "n_zero_flow_stops": int(self.zero_flow.sum()),
            "n_wall_stops": int(self.wall.sum()),
            "n_stubs": int(self.stub.sum()),
            "target_lengths": [float(x) for x in self.target_lengths],
            "grown_lengths": [float(x) for x in self.grown_lengths],
        }


def decode_groom(code: HairCode, n_strands: int, step: float,
                 rng=None, style: str = "scalp") -> tuple[Groom, DecodeReport]:
    """Grow strands back out of a code.

    Roots are allocated over texels proportionally to density (systematic
    resampling) and jittered inside their texel in UV; each strand starts
    at the texel's mean root position and follows the trilinearly
    interpolated flow until its target length (the length map at the
    root) is consumed.  Zero-flow regions and the volume wall terminate
    growth early; the report tells the two apart.
    """
    if n_strands < 1:
        raise InvalidParam("n_strands must be >= 1")
    if step <= 0 or step >= code.cell_size().min():
        raise InvalidParam("step must be positive and below the cell size")
    if code.root_points is None:
        raise MissingRootMap(
            "code lacks the root position grid needed for reconstruction")
    rng = np.random.default_rng(rng)
    R = code.uv_resolution
    weights = code.density_map.ravel()
    if weights.sum() <= 0:
        raise EmptyDensity("density map is all zeros")

    counts = _systematic_counts(weights, n_strands, rng)
    texels = np.repeat(np.arange(R * R), counts)
    iu, iv = texels // R, texels % R
    jitter = rng.uniform(0.0, 1.0, size=(n_strands, 2))
    root_uv = np.clip((np.stack([iu, iv], axis=1) + jitter) / R, 0.0, 1.0)
    starts = code.root_points[iu, iv]
    targets = code.length_map[iu, iv]

    zero_flow = np.zeros(n_strands, dtype=bool)
    wall = np.zeros(n_strands, dtype=bool)
    # the live strands, in id order: their ids, positions and the length
    # each has left to grow; rows are dropped only when strands stop
    ids = np.flatnonzero(targets > 0)
    pos, remaining = starts[ids], targets[ids]
    # every position a strand takes, root first, as (strand ids, points)
    # records in growth order
    moved_ids, moved_pos = [np.arange(n_strands)], [starts]
    lo, hi = code.bbox
    max_steps = int(np.ceil(targets.max() / step)) + 2
    for _ in range(max_steps):
        if not len(ids):
            break
        d = _trilinear(code.flow_volume, pos, code.bbox)
        dn = np.linalg.norm(d, axis=1)
        dead = dn < 1e-6
        if dead.any():
            zero_flow[ids[dead]] = True
            live = ~dead
            ids, pos, remaining, d, dn = ids[live], pos[live], remaining[live], d[live], dn[live]
        lens = np.minimum(step, remaining)
        cand = pos + d / dn[:, None] * lens[:, None]
        pos = np.clip(cand, lo, hi)
        remaining = remaining - lens
        moved_ids.append(ids)
        moved_pos.append(pos)
        growing = remaining > 1e-12
        # strands pressed against the volume boundary stop growing
        at_wall = np.any(pos != cand, axis=1) & growing
        wall[ids[at_wall]] = True
        live = growing & ~at_wall
        if not live.all():
            ids, pos, remaining = ids[live], pos[live], remaining[live]

    # never moved: synthesize a degenerate-but-valid stub along +z
    stub = np.bincount(np.concatenate(moved_ids), minlength=n_strands) < 2
    zero_flow &= ~stub
    moved_ids.append(np.flatnonzero(stub))
    moved_pos.append(starts[stub] + np.array([0.0, 0.0, max(step * 0.5, 1e-9)]))
    ids = np.concatenate(moved_ids)
    order = np.argsort(ids, kind="stable")
    groom = Groom.from_ragged(np.concatenate(moved_pos)[order],
                              _offsets(np.bincount(ids, minlength=n_strands)),
                              root_uv, style=style)
    return groom, DecodeReport(target_lengths=targets, grown_lengths=groom.arc_lengths(),
                               early_terminated=zero_flow | wall | stub,
                               zero_flow=zero_flow, wall=wall, stub=stub)


def flip_groom(groom: Groom) -> Groom:
    """Mirror across the x = 0 plane: x -> -x on points, u -> 1 - u on roots."""
    uv = groom.root_uv.copy()
    uv[:, 0] = 1.0 - uv[:, 0]
    return Groom.from_ragged(groom.points * np.array([-1.0, 1.0, 1.0]),
                             groom.offsets, uv, style=groom.style)


# ---------------------------------------------------------------------------
# code vector layout
# ---------------------------------------------------------------------------

def code_vector_length(R: int, G: int) -> int:
    return 2 * R * R + 3 * G ** 3


def code_to_vector(code: HairCode) -> np.ndarray:
    """[density | length | flow xyz-interleaved], row-major."""
    return np.concatenate([
        code.density_map.ravel(),
        code.length_map.ravel(),
        code.flow_volume.ravel(),
    ])


def vector_to_code(v: np.ndarray, R: int, G: int, bbox: np.ndarray,
                   root_points: np.ndarray | None = None) -> HairCode:
    """Inverse of code_to_vector; flow cells are re-normalized (cells with
    norm below 1e-6 become zero, unit cells pass through bit-exactly)."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if len(v) != code_vector_length(R, G):
        raise DimensionMismatch(
            f"vector length {len(v)} != 2R^2+3G^3 = {code_vector_length(R, G)}")
    r2 = R * R
    density = v[:r2].reshape(R, R)
    length = v[r2:2 * r2].reshape(R, R)
    flow = v[2 * r2:].reshape(G, G, G, 3)
    norms = np.linalg.norm(flow, axis=3)
    out = np.zeros_like(flow)
    nz = norms >= 1e-6
    renorm = nz & (np.abs(norms - 1.0) > 1e-6)
    keep = nz & ~renorm
    out[keep] = flow[keep]
    out[renorm] = flow[renorm] / norms[renorm][:, None]
    density = np.maximum(density, 0.0)
    length = np.maximum(length, 0.0)
    return HairCode(density_map=density, length_map=length, flow_volume=out,
                    bbox=bbox, root_points=root_points)


# ---------------------------------------------------------------------------
# groom and code files
# ---------------------------------------------------------------------------

def save_groom(path, groom: Groom) -> dict[str, str]:
    """Groom file: container manifest with style/counts/bbox header fields.
    Returns {file name: sha256} of the blob and its manifest."""
    return save_container(path, {"points": groom.points, "root_uv": groom.root_uv},
                          metadata={
                              "kind": "groom",
                              "style": groom.style,
                              "counts": np.diff(groom.offsets).tolist(),
                              "bbox": groom.points_bbox().tolist(),
                          })


def load_groom(path) -> Groom:
    """Read a groom file.  Its `counts` must be integers >= 2, one per
    `root_uv` row, that split the (P, 3) `points` exactly; any other file
    raises a DataError naming it."""
    tensors, meta = load_container(path, "groom")
    with naming(path):
        counts = decode_json(meta.get("counts"), [int], "$.metadata.counts")
        return Groom.from_ragged(tensors["points"], _offsets(counts), tensors["root_uv"],
                                 style=meta.get("style", "scalp"))


def save_hair_code(path, code: HairCode) -> None:
    tensors = {
        "density_map": code.density_map,
        "length_map": code.length_map,
        "flow_volume": code.flow_volume,
        "bbox": code.bbox,
    }
    if code.root_points is not None:
        tensors["root_points"] = code.root_points
    save_container(path, tensors, metadata={
        "kind": "hair_code",
        "uv_resolution": code.uv_resolution,
        "volume_resolution": code.volume_resolution,
    })


def load_hair_code(path) -> HairCode:
    tensors, _ = load_container(path, "hair_code")
    with naming(path):
        return HairCode(
            density_map=tensors["density_map"],
            length_map=tensors["length_map"],
            flow_volume=tensors["flow_volume"],
            bbox=tensors["bbox"],
            root_points=tensors.get("root_points"),
        )
