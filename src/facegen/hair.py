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
    NonFiniteInput,
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
        return _strand_sums(_segments(np.ascontiguousarray(self.points.T))[1],
                            self.offsets)

    def points_bbox(self, pad: float = 0.0) -> np.ndarray:
        if self.n_strands == 0:
            raise EmptyGroom("groom has no strands")
        # numpy reduces contiguous rows many times faster than a short axis
        coords = np.ascontiguousarray(self.points.T)
        return np.array([coords.min(axis=1) - pad, coords.max(axis=1) + pad])


def _check_finite(points: np.ndarray, offsets: np.ndarray) -> None:
    if np.isfinite(points).all():
        return
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    i = np.searchsorted(offsets, bad[0], side="right") - 1
    raise InvalidParam(f"strand {i} contains non-finite points")


def _offsets(counts) -> np.ndarray:
    """Strand offsets (S + 1,) of strands with the given point counts."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _segments(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segments (3, P - 1) between consecutive columns of (3, P) points
    and their lengths (P - 1,).  The norm over the three contiguous rows
    adds x^2 + y^2 + z^2 in the order a row-wise norm of (P, 3) points
    does, so the lengths are the same bits, from fewer, faster passes."""
    seg = np.diff(coords)
    return seg, np.linalg.norm(seg, axis=0)


def _strand_sums(seg_len: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Arc length of every strand from its segments' lengths."""
    out = np.empty(len(offsets) - 1)
    for ids, segs in _segment_groups(offsets):
        out[ids] = seg_len[segs].sum(axis=1)
    return out


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
        rp = self.root_points
        rp = None if rp is None else np.asarray(rp, dtype=np.float64)
        for name, value in (("density_map", den), ("length_map", ln), ("flow_volume", flow),
                            ("bbox", bbox), ("root_points", rp)):
            if value is not None and not np.isfinite(value).all():
                raise NonFiniteInput(f"{name} holds non-finite values")
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
        if rp is not None:
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


def _resample(coords: np.ndarray, seg: np.ndarray, seg_len: np.ndarray,
              offsets: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions and unit tangents, (3, M) each, at uniform arc-length
    midpoints of every strand of the (3, P) points `coords`, in strand
    order, given their `_segments`: a strand of arc length L > 0 gets
    max(1, floor(L / spacing)) samples, a strand of zero length none."""
    cum = np.zeros(len(seg_len) + 1)           # arc length from the root to each point
    for _, segs in _segment_groups(offsets):
        cum[segs + 1] = np.cumsum(seg_len[segs], axis=1)
    total = cum[offsets[1:] - 1]
    n = np.where(total > 0, np.maximum(1, np.floor(total / spacing).astype(np.int64)), 0)
    strand = np.repeat(np.arange(len(n)), n)
    k = np.arange(len(strand)) - np.repeat(np.cumsum(n) - n, n)
    s = (k + 0.5) * (total / np.maximum(n, 1))[strand]
    # each sample's segment starts at the last point of its own strand at
    # or below its arc length: bisect every sample's [root, tip] at once
    start, end = offsets[:-1][strand], offsets[1:][strand]
    for _ in range(int(np.diff(offsets).max() - 1).bit_length()):
        mid = (start + end) >> 1
        below = cum[mid] <= s
        start = np.where(below, mid, start)
        end = np.where(below, end, mid)
    # np.take and np.compress along axis 1: `a[:, index]` takes numpy's
    # general indexing path, several times slower
    ds = np.take(seg, start, axis=1)
    length = seg_len[start]
    pos = np.take(coords, start, axis=1) + (s - cum[start]) / length * ds
    return pos, ds / length


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
    texel = iu * R + iv
    counts = np.bincount(texel, minlength=R * R).reshape(R, R).astype(np.float64)
    density = counts / counts.max()

    coords = np.ascontiguousarray(points.T)
    seg, seg_len = _segments(coords)
    lengths = _strand_sums(seg_len, offsets)
    lsum = _scatter_add(texel, lengths, R * R).reshape(R, R)
    length_map = np.divide(lsum, counts, out=np.zeros_like(lsum), where=counts > 0)

    rsum = _scatter_add(texel, points[offsets[:-1]], R * R).reshape(R, R, 3)
    root_points = np.divide(rsum, counts[..., None],
                            out=np.zeros_like(rsum), where=counts[..., None] > 0)

    cell = (bbox[1] - bbox[0]) / G
    spacing = 0.5 * float(cell.min())
    if spacing <= 0:
        raise InvalidParam("bbox is degenerate")
    pos, tang = _resample(coords, seg, seg_len, offsets, spacing)
    ijk = np.clip(((pos - bbox[0, :, None]) / cell[:, None]).astype(np.int64), 0, G - 1)
    # tang.T: each component's bincount reads one contiguous row
    acc = _scatter_add((ijk[0] * G + ijk[1]) * G + ijk[2], tang.T, G ** 3
                       ).reshape(G, G, G, 3)
    norms = np.linalg.norm(acc, axis=3)
    nz = norms > 1e-8
    flow = np.zeros_like(acc)
    flow[nz] = acc[nz] / norms[nz][:, None]

    return HairCode(density_map=density, length_map=length_map,
                    flow_volume=flow, bbox=bbox, root_points=root_points)


def _scatter_add(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sums of `values` (K,) or (K, c) rows into n bins by `index` (K,), as
    (n,) or (n, c).  np.bincount adds each bin's values in index order
    from +0.0, as np.add.at into zeros does, so the bits are the same."""
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=n)
    return np.stack([np.bincount(index, weights=col, minlength=n) for col in values.T], axis=1)


def _trilinear(flow: np.ndarray, pos: np.ndarray, bbox: np.ndarray) -> np.ndarray:
    """Cell-centered trilinear interpolation of a field held component-major
    as (3, G, G, G), G >= 2, at (3, n) positions: (3, n)."""
    G = flow.shape[1]
    cell = ((bbox[1] - bbox[0]) / G)[:, None]
    g = (pos - bbox[0, :, None]) / cell - 0.5
    i0 = np.clip(np.floor(g).astype(np.int64), 0, G - 2)
    f = np.clip(g - i0, 0.0, 1.0)
    # the 8 corners of every cell in one gather from the flat volume, as
    # (3, 8, n) in (dx, dy, dz) order
    base = (i0[0] * G + i0[1]) * G + i0[2]
    corners = np.take(flow.reshape(3, -1), base + _CORNERS.dot([G * G, G, 1])[:, None],
                      axis=1)
    w = np.stack((1.0 - f, f))     # w[d, axis]: weight of offset d along axis
    weights = (w[:, None, None, 0] * w[None, :, None, 1]) * w[None, None, :, 2]
    corners *= weights.reshape(8, -1)
    # the eight weighted corners added one after another to 0.0
    return np.add.reduce(corners, axis=1, initial=0.0)


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
                 rng=None) -> tuple[Groom, DecodeReport]:
    """Grow strands back out of a code, as a scalp groom.

    Roots are allocated over texels proportionally to density (systematic
    resampling) and jittered inside their texel in UV; each strand starts
    at the texel's mean root position and follows the trilinearly
    interpolated flow until its target length (the length map at the
    root) is consumed.  Zero-flow regions and the volume wall terminate
    growth early; the report tells the two apart.
    """
    if n_strands < 1:
        raise InvalidParam("n_strands must be >= 1")
    if not 0 < step < code.cell_size().min():
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
    # positions, flow and every per-strand vector are held component-major,
    # (3, n), so that each step's arithmetic runs over contiguous rows
    flow = np.ascontiguousarray(np.moveaxis(code.flow_volume, 3, 0))
    lo, hi = code.bbox[:, :, None]
    # the live strands, in id order: their ids, positions and the length
    # each has left to grow; columns are dropped only when strands stop
    ids = np.flatnonzero(targets > 0)
    pos, remaining = np.ascontiguousarray(starts[ids].T), targets[ids]
    # record t of moved_ids/moved_pos holds point t of the strands it
    # names: the roots, then the points of each step of the strands still
    # growing at it
    moved_ids, moved_pos = [np.arange(n_strands)], [starts.T]
    max_steps = int(np.ceil(targets.max() / step)) + 2
    for _ in range(max_steps):
        if not len(ids):
            break
        d = _trilinear(flow, pos, code.bbox)
        dn = np.linalg.norm(d, axis=0)
        dead = dn < 1e-6
        if dead.any():
            zero_flow[ids[dead]] = True
            live = ~dead
            ids, remaining, dn = ids[live], remaining[live], dn[live]
            pos, d = np.compress(live, pos, axis=1), np.compress(live, d, axis=1)
        lens = np.minimum(step, remaining)
        cand = pos + d / dn * lens
        pos = np.clip(cand, lo, hi)
        remaining = remaining - lens
        moved_ids.append(ids)
        moved_pos.append(pos)
        growing = remaining > 1e-12
        # strands pressed against the volume boundary stop growing
        at_wall = (pos != cand).any(axis=0) & growing
        wall[ids[at_wall]] = True
        live = growing & ~at_wall
        if not live.all():
            ids, pos, remaining = ids[live], np.compress(live, pos, axis=1), remaining[live]

    # never moved: synthesize a degenerate-but-valid stub along +z
    counts = np.bincount(np.concatenate(moved_ids), minlength=n_strands)
    stub = counts < 2
    zero_flow &= ~stub
    offsets = _offsets(counts + stub)
    tip = starts[stub] + np.array([0.0, 0.0, max(step * 0.5, 1e-9)])
    # the records' columns in strand order: record t holds point t of its
    # strands, and a stub's tip is its point 1
    first = offsets[:-1]
    dest = [first[i] + t for t, i in enumerate(moved_ids)] + [first[stub] + 1]
    order = np.empty(offsets[-1], dtype=np.int64)
    order[np.concatenate(dest)] = np.arange(offsets[-1])
    coords = np.take(np.concatenate(moved_pos + [tip.T], axis=1), order, axis=1)
    groom = Groom.from_ragged(np.ascontiguousarray(coords.T), offsets, root_uv)
    grown = _strand_sums(_segments(coords)[1], offsets)
    return groom, DecodeReport(target_lengths=targets, grown_lengths=grown,
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
    if not np.isfinite(v).all():
        raise NonFiniteInput("code vector holds non-finite values")
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
