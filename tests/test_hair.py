import json

import numpy as np
import pytest

from facegen.cli import cli_main
from facegen.container import save_container
from facegen.demo import make_demo_groom
from facegen.errors import (
    DataError,
    DimensionMismatch,
    EmptyDensity,
    EmptyGroom,
    InvalidParam,
    MissingRootMap,
    NonFiniteInput,
    PointOutsideBbox,
)
from facegen.hair import (
    HAIR_STYLES,
    Groom,
    HairCode,
    code_to_vector,
    code_vector_length,
    decode_groom,
    encode_groom,
    flip_groom,
    load_groom,
    load_hair_code,
    save_groom,
    save_hair_code,
    _scatter_add,
    vector_to_code,
)

from conftest import clustered_groom, decode_groom_reference, encode_reference


def single_vertical_strand(length=0.1, root=(0.05, 0.05, 0.0), uv=(0.5, 0.5)):
    npts = 11
    root = np.asarray(root)
    pts = root + np.outer(np.linspace(0, length, npts), [0.0, 0.0, 1.0])
    return Groom((pts,), np.asarray([uv]))


BBOX = np.array([[0.0, 0.0, 0.0], [0.12, 0.12, 0.12]])


class TestEncode:
    def test_single_vertical_strand(self):
        groom = single_vertical_strand()
        code = encode_groom(groom, R=8, G=8, bbox=BBOX)
        assert code.density_map.max() == 1.0
        assert code.density_map.sum() == 1.0          # one occupied texel
        iu, iv = 4, 4
        assert code.density_map[iu, iv] == 1.0
        assert code.length_map[iu, iv] == pytest.approx(0.1, rel=1e-12)
        # flow along the strand is +z
        nz = np.linalg.norm(code.flow_volume, axis=3) > 0
        assert nz.sum() >= 5
        assert np.allclose(code.flow_volume[nz], [0.0, 0.0, 1.0], atol=1e-12)

    def test_two_identical_strands_one_root(self):
        g1 = single_vertical_strand()
        g2 = Groom(g1.strands + g1.strands, np.vstack([g1.root_uv, g1.root_uv]))
        c1 = encode_groom(g1, R=8, G=8, bbox=BBOX)
        c2 = encode_groom(g2, R=8, G=8, bbox=BBOX)
        assert np.array_equal(c1.density_map, c2.density_map)   # max-normalized
        assert np.array_equal(c1.length_map, c2.length_map)
        assert np.allclose(c1.flow_volume, c2.flow_volume, atol=1e-12)

    def test_strand_order_invariance(self, rng):
        groom = clustered_groom(rng, n_strands=40, R=8)
        perm = rng.permutation(40)
        shuffled = Groom(tuple(groom.strands[i] for i in perm),
                         groom.root_uv[perm])
        bbox = groom.points_bbox(pad=1e-6)
        c1 = encode_groom(groom, R=8, G=8, bbox=bbox)
        c2 = encode_groom(shuffled, R=8, G=8, bbox=bbox)
        assert np.allclose(c1.density_map, c2.density_map, atol=1e-12)
        assert np.allclose(c1.length_map, c2.length_map, atol=1e-12)
        assert np.allclose(c1.flow_volume, c2.flow_volume, atol=1e-12)

    def test_density_max_is_one(self, rng):
        groom = clustered_groom(rng, n_strands=60, R=8)
        code = encode_groom(groom, R=8, G=8)
        assert code.density_map.max() == 1.0

    def test_point_outside_bbox(self):
        groom = single_vertical_strand()
        tight = np.array([[0.0, 0.0, 0.0], [0.12, 0.12, 0.05]])
        with pytest.raises(PointOutsideBbox):
            encode_groom(groom, R=8, G=8, bbox=tight)

    def test_empty_groom(self):
        g = Groom((), np.zeros((0, 2)))
        with pytest.raises(EmptyGroom):
            encode_groom(g, R=8, G=8, bbox=BBOX)

    def test_matches_per_strand_oracle(self):
        # uneven strand lengths, a repeated point (zero-length segment) and
        # a strand of zero arc length exercise the ragged resampling
        groom = make_demo_groom("scalp", 300, seed=4)
        strands = list(groom.strands)
        strands[3] = np.insert(strands[3], 5, strands[3][5], axis=0)
        strands[7] = strands[7][:4]
        strands[9] = np.repeat(strands[9][:1], 3, axis=0)
        groom = Groom(strands, groom.root_uv)
        code = encode_groom(groom, R=16, G=12)
        ref_len, ref_flow = encode_reference(groom, 16, 12, code.bbox)
        assert np.array_equal(code.length_map, ref_len)
        assert np.array_equal(code.flow_volume, ref_flow)

    @pytest.mark.parametrize("seed", range(11, 31))
    def test_scalp_seeds_match_per_strand_oracle(self, seed):
        # the scalp grooms, and their decoded grooms: strands of many
        # lengths, stopped in empty cells and at the wall
        groom = make_demo_groom("scalp", 300, seed=seed)
        code = encode_groom(groom, R=32, G=16)
        decoded, _ = decode_groom(code, 300, float(code.cell_size().min()) / 4.0, rng=seed)
        for g, c in ((groom, code), (decoded, encode_groom(decoded, R=32, G=16, bbox=code.bbox))):
            ref_len, ref_flow = encode_reference(g, 32, 16, c.bbox)
            assert c.length_map.tobytes() == ref_len.tobytes()
            assert c.flow_volume.tobytes() == ref_flow.tobytes()


    def test_scatter_adds_are_add_at_bitwise(self, rng):
        # many values of mixed sign and scale per bin, so that a different
        # order of additions would change the sums' last bits
        index = rng.integers(0, 20, 5000)
        values = rng.standard_normal((5000, 3)) * 10.0 ** rng.integers(-8, 8, (5000, 1))
        for v in (values, values[:, 0], values[:, 1:]):
            expect = np.zeros((20, *v.shape[1:]))
            np.add.at(expect, index, v)
            assert _scatter_add(index, v, 20).tobytes() == expect.tobytes()
        # and the encoder's maps are those of np.add.at over its bins
        groom = make_demo_groom("scalp", 400, seed=2)
        code = encode_groom(groom, R=16, G=8)
        texel = np.clip(np.floor(groom.root_uv * 16).astype(np.int64), 0, 15)
        counts, rsum = np.zeros((16, 16)), np.zeros((16, 16, 3))
        np.add.at(counts, (texel[:, 0], texel[:, 1]), 1.0)
        np.add.at(rsum, (texel[:, 0], texel[:, 1]), groom.points[groom.offsets[:-1]])
        assert code.density_map.tobytes() == (counts / counts.max()).tobytes()
        roots = np.divide(rsum, counts[..., None], out=np.zeros_like(rsum),
                          where=counts[..., None] > 0)
        assert code.root_points.tobytes() == roots.tobytes()


class TestWithPoints:
    """with_points keeps the checked strands, roots and style and checks only
    the points."""

    def test_keeps_strands_and_takes_points(self, rng):
        groom = clustered_groom(rng, n_strands=12, R=8)
        moved = groom.with_points(groom.points + 1.0)
        assert moved.offsets is groom.offsets and moved.root_uv is groom.root_uv
        assert moved.style == groom.style
        assert np.array_equal(moved.points, groom.points + 1.0)

    def test_non_finite_point_names_the_strand(self, rng):
        groom = clustered_groom(rng, n_strands=12, R=8)
        points = groom.points.copy()
        points[groom.offsets[7] + 1, 0] = np.nan
        with pytest.raises(InvalidParam, match="strand 7 contains non-finite"):
            groom.with_points(points)

    @pytest.mark.parametrize("drop", [1, -1])
    def test_wrong_shape_rejected(self, rng, drop):
        groom = clustered_groom(rng, n_strands=12, R=8)
        points = np.zeros((len(groom.points) - drop, 3))
        with pytest.raises(InvalidParam, match="points must be"):
            groom.with_points(points)


class TestFlip:
    def dyadic_groom(self, rng):
        return clustered_groom(rng, n_strands=30, R=8)

    def test_involution_bit_exact(self, rng):
        groom = self.dyadic_groom(rng)   # uv jitter is dyadic (k/1024)
        back = flip_groom(flip_groom(groom))
        for a, b in zip(back.strands, groom.strands):
            assert np.array_equal(a, b)
        assert np.array_equal(back.root_uv, groom.root_uv)

    def test_x_plane_fixed(self):
        pts = np.array([[0.0, 0.1, 0.2], [0.0, 0.2, 0.3]])
        g = Groom((pts,), np.array([[0.5, 0.5]]))
        f = flip_groom(g)
        assert np.array_equal(f.strands[0], pts)

    def test_arc_lengths_preserved_exactly(self, rng):
        groom = self.dyadic_groom(rng)
        assert np.array_equal(flip_groom(groom).arc_lengths(), groom.arc_lengths())

    def test_mirror_conjugation_of_encoding(self):
        # symmetric bbox around x=0: encode(flip(g)) equals the x/u-mirrored
        # encoding of g; coordinates avoid texel/cell boundaries where the
        # floor-based binning of u and 1-u differ
        root = np.array([0.031, 0.05, 0.013])
        npts = 9
        pts = root + np.outer(np.linspace(0, 0.06, npts),
                              np.array([0.4, 0.1, 1.0]) / np.linalg.norm([0.4, 0.1, 1.0]))
        g = Groom((pts,), np.array([[0.7, 0.5]]))
        bbox = np.array([[-0.12, 0.0, 0.0], [0.12, 0.12, 0.12]])
        R, G = 8, 8
        c = encode_groom(g, R=R, G=G, bbox=bbox)
        cf = encode_groom(flip_groom(g), R=R, G=G, bbox=bbox)
        assert np.allclose(cf.density_map, c.density_map[::-1, :], atol=1e-12)
        assert np.allclose(cf.length_map, c.length_map[::-1, :], atol=1e-12)
        flipped_flow = c.flow_volume[::-1, :, :, :].copy()
        flipped_flow[..., 0] *= -1.0
        assert np.allclose(cf.flow_volume, flipped_flow, atol=1e-12)


class TestDecode:
    def test_single_strand_roundtrip(self):
        groom = single_vertical_strand()
        code = encode_groom(groom, R=8, G=8, bbox=BBOX)
        step = float(code.cell_size().min()) / 4.0
        out, report = decode_groom(code, n_strands=1, step=step, rng=0)
        assert out.n_strands == 1
        end_err = np.linalg.norm(out.strands[0][-1] - groom.strands[0][-1])
        assert end_err < code.cell_diagonal()
        assert not report.early_terminated[0]

    def test_uniform_flow_grows_full_length(self):
        R, G = 8, 8
        density = np.zeros((R, R))
        density[4, 4] = 1.0
        length = np.zeros((R, R))
        length[4, 4] = 0.1
        flow = np.broadcast_to([0.0, 0.0, 1.0], (G, G, G, 3)).copy()
        roots = np.zeros((R, R, 3))
        roots[4, 4] = [0.06, 0.06, 0.0]
        code = HairCode(density, length, flow, BBOX, root_points=roots)
        step = 0.002
        out, report = decode_groom(code, n_strands=5, step=step, rng=1)
        lengths = out.arc_lengths()
        assert np.all(np.abs(lengths - 0.1) <= step + 1e-12)
        assert not report.early_terminated.any()
        d = np.concatenate([np.diff(s, axis=0) for s in out.strands])
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        assert np.allclose(d, [0, 0, 1], atol=1e-12)

    def test_reproducible(self, rng):
        groom = clustered_groom(rng, n_strands=50, R=8)
        code = encode_groom(groom, R=8, G=8)
        step = float(code.cell_size().min()) / 4.0
        a, _ = decode_groom(code, 20, step, rng=7)
        b, _ = decode_groom(code, 20, step, rng=7)
        for s1, s2 in zip(a.strands, b.strands):
            assert np.array_equal(s1, s2)

    def test_empty_density(self):
        code = HairCode(np.zeros((8, 8)), np.zeros((8, 8)),
                        np.zeros((8, 8, 8, 3)), BBOX,
                        root_points=np.zeros((8, 8, 3)))
        with pytest.raises(EmptyDensity):
            decode_groom(code, 5, 0.001, rng=0)

    def test_missing_root_map(self):
        density = np.zeros((8, 8))
        density[0, 0] = 1.0
        code = HairCode(density, np.full((8, 8), 0.01),
                        np.zeros((8, 8, 8, 3)), BBOX)
        with pytest.raises(MissingRootMap):
            decode_groom(code, 5, 0.001, rng=0)

    def test_zero_flow_terminates_early(self):
        R, G = 8, 8
        density = np.zeros((R, R))
        density[4, 4] = 1.0
        length = np.zeros((R, R))
        length[4, 4] = 0.5           # longer than the flow region supports
        flow = np.zeros((G, G, G, 3))
        flow[:, :, :2, 2] = 1.0      # upward flow only near the floor
        roots = np.zeros((R, R, 3))
        roots[4, 4] = [0.06, 0.06, 0.0]
        code = HairCode(density, length, flow, BBOX, root_points=roots)
        out, report = decode_groom(code, 3, 0.004, rng=2)
        assert report.early_terminated.all()
        assert np.all(out.arc_lengths() < 0.5)


def one_texel_code(length: float, flow: np.ndarray) -> HairCode:
    """A code whose only root texel, (4, 4), grows strands of `length` from
    (0.06, 0.06, 0) through `flow` (G = 8, inside BBOX)."""
    R = 8
    density = np.zeros((R, R))
    density[4, 4] = 1.0
    lengths = np.zeros((R, R))
    lengths[4, 4] = length
    roots = np.zeros((R, R, 3))
    roots[4, 4] = [0.06, 0.06, 0.0]
    return HairCode(density, lengths, flow, BBOX, root_points=roots)


def upward_flow(layers: int = 8) -> np.ndarray:
    """+z flow in the lowest `layers` of the 8 cell layers, zero above."""
    flow = np.zeros((8, 8, 8, 3))
    flow[:, :, :layers, 2] = 1.0
    return flow


class TestDecodeMatchesReference:
    """decode_groom's compacted live set and one-gather lookup must give the
    grooms and reports of the alive-mask, eight-gather decode bit for bit."""

    @staticmethod
    def decode_both(code, n_strands, step=None, seed=0):
        step = float(code.cell_size().min()) / 4.0 if step is None else step
        groom, report = decode_groom(code, n_strands, step, rng=seed)
        ref, targets, grown, early = decode_groom_reference(code, n_strands, step, rng=seed)
        for a, b in [(groom.points, ref.points), (groom.offsets, ref.offsets),
                     (groom.root_uv, ref.root_uv), (report.target_lengths, targets),
                     (report.grown_lengths, grown), (report.early_terminated, early)]:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        # each early stop has exactly one reason
        reasons = np.stack([report.zero_flow, report.wall, report.stub])
        assert np.array_equal(reasons.sum(axis=0), report.early_terminated)
        return report

    @pytest.mark.parametrize("style", HAIR_STYLES)
    def test_demo_grooms(self, style):
        for seed in (11, 12):
            code = encode_groom(make_demo_groom(style, 300, seed=seed), R=32, G=16)
            self.decode_both(code, 300, seed=seed)

    @pytest.mark.parametrize("seed", range(11, 31))
    def test_scalp_seeds(self, seed):
        code = encode_groom(make_demo_groom("scalp", 300, seed=seed), R=32, G=16)
        self.decode_both(code, 300, seed=seed)

    def test_scalp_seeds_stop_in_empty_cells_and_at_the_wall(self):
        stops = np.zeros(3, dtype=np.int64)
        for seed in range(11, 31):
            code = encode_groom(make_demo_groom("scalp", 300, seed=seed), R=32, G=16)
            _, report = decode_groom(code, 300, float(code.cell_size().min()) / 4.0, rng=seed)
            stops += [report.zero_flow.sum(), report.wall.sum(), report.stub.sum()]
        assert stops[0] > 0 and stops[1] > 0

    def test_negative_zero_flow_components(self):
        # the flow's x and y are -0.0 and the roots sit at x = y = -0.0 in
        # the middle of the box: the interpolated flow adds its weighted
        # corners to +0.0, so every grown point has +0.0 there, while a sum
        # that began with its first corner would keep the roots' -0.0
        flow = upward_flow()
        flow[..., :2] = -0.0
        density, lengths, roots = np.zeros((8, 8)), np.zeros((8, 8)), np.zeros((8, 8, 3))
        density[4, 4], lengths[4, 4], roots[4, 4] = 1.0, 0.05, [-0.0, -0.0, 0.0]
        code = HairCode(density, lengths, flow, [[-0.06, -0.06, 0.0], [0.06, 0.06, 0.12]],
                        root_points=roots)
        self.decode_both(code, 6, step=0.004)
        groom, _ = decode_groom(code, 6, 0.004, rng=0)
        is_root = np.zeros(len(groom.points), dtype=bool)
        is_root[groom.offsets[:-1]] = True
        assert np.signbit(groom.points[is_root, :2]).all()
        assert not np.signbit(groom.points[~is_root, :2]).any()

    def test_clustered_criterion_7_groom(self):
        groom = clustered_groom(np.random.default_rng(7000), n_strands=200, R=16,
                                n_clusters=7)
        self.decode_both(encode_groom(groom, R=16, G=16), 200)

    def test_one_strand(self):
        groom = clustered_groom(np.random.default_rng(3), n_strands=40, R=8)
        report = self.decode_both(encode_groom(groom, R=8, G=8), 1)
        assert len(report.target_lengths) == 1

    def test_wall_stops(self):
        # 0.5 m of +z flow in a 0.12 m box: every strand reaches the lid
        report = self.decode_both(one_texel_code(0.5, upward_flow()), 6, step=0.004)
        assert report.wall.all()
        assert not report.zero_flow.any() and not report.stub.any()

    def test_zero_flow_stops(self):
        report = self.decode_both(one_texel_code(0.5, upward_flow(2)), 6, step=0.004)
        assert report.zero_flow.all()
        assert not report.wall.any() and not report.stub.any()
        d = report.to_dict()
        assert (d["n_early_terminated"], d["n_zero_flow_stops"], d["n_wall_stops"],
                d["n_stubs"]) == (6, 6, 0, 0)

    def test_stubs(self):
        # no flow at the root, or nothing to grow: the strand never moves
        for code in (one_texel_code(0.05, upward_flow(0)),
                     one_texel_code(0.0, upward_flow())):
            groom, report = decode_groom(code, 4, 0.004, rng=0)
            assert report.stub.all()
            assert not report.zero_flow.any() and not report.wall.any()
            assert np.all(np.diff(groom.offsets) == 2)
            self.decode_both(code, 4, step=0.004)


class TestVectorLayout:
    def test_length_formula(self, rng):
        groom = clustered_groom(rng, n_strands=40, R=8)
        code = encode_groom(groom, R=8, G=8)
        v = code_to_vector(code)
        assert len(v) == code_vector_length(8, 8) == 2 * 64 + 3 * 512

    def test_roundtrip_bit_exact(self, rng):
        groom = clustered_groom(rng, n_strands=40, R=8)
        code = encode_groom(groom, R=8, G=8)
        v = code_to_vector(code)
        back = vector_to_code(v, 8, 8, code.bbox, root_points=code.root_points)
        assert np.array_equal(back.density_map, code.density_map)
        assert np.array_equal(back.length_map, code.length_map)
        assert np.array_equal(back.flow_volume, code.flow_volume)
        assert np.array_equal(code_to_vector(back), v)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            vector_to_code(np.zeros(10), 8, 8, BBOX)

    def test_non_finite_entry_rejected(self, rng):
        # a NaN in the flow part would otherwise become a zero-flow cell
        code = encode_groom(clustered_groom(rng, n_strands=20, R=8), R=8, G=8)
        v = code_to_vector(code)
        for i in (3, 64 + 5, 2 * 64 + 7):
            bad = v.copy()
            bad[i] = np.nan
            with pytest.raises(NonFiniteInput, match="code vector"):
                vector_to_code(bad, 8, 8, code.bbox, code.root_points)

    @pytest.mark.parametrize("name", ["density_map", "length_map", "flow_volume", "bbox",
                                      "root_points"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_rejected_by_name(self, tmp_path, name, value):
        code = encode_groom(clustered_groom(np.random.default_rng(5), n_strands=20, R=8),
                            R=8, G=8)
        tensors = {f: np.array(getattr(code, f)) for f in
                   ("density_map", "length_map", "flow_volume", "bbox", "root_points")}
        tensors[name].flat[-1] = value
        with pytest.raises(NonFiniteInput, match=f"{name} holds non-finite values"):
            HairCode(**tensors)
        save_container(tmp_path / "c.json", tensors, metadata={"kind": "hair_code"})
        with pytest.raises(NonFiniteInput, match=f"c.json: {name} holds non-finite"):
            load_hair_code(tmp_path / "c.json")

    def test_flow_volume_of_one_cell_rejected(self):
        # the trilinear lookup needs two cells per axis
        with pytest.raises(DimensionMismatch, match="G >= 2"):
            one_texel_code(0.05, np.array([[[[0.0, 0.0, 1.0]]]]))

    def test_full_rank_pca_reproduces_codes(self, rng):
        from facegen.pca import fit_pca, pca_project, pca_reconstruct
        vecs = []
        for i in range(8):
            groom = clustered_groom(np.random.default_rng(100 + i),
                                    n_strands=40, R=6)
            vecs.append(code_to_vector(encode_groom(groom, R=6, G=6)))
        vecs = np.stack(vecs)
        model = fit_pca(vecs, k=7)
        recon = pca_reconstruct(model, pca_project(model, vecs))
        assert np.abs(recon - vecs).max() < 1e-6


class TestGroomFile:
    def test_roundtrip(self, rng, tmp_path):
        groom = clustered_groom(rng, n_strands=25, R=8)
        save_groom(tmp_path / "g.json", groom)
        back = load_groom(tmp_path / "g.json")
        assert back.n_strands == groom.n_strands
        assert back.style == groom.style
        for a, b in zip(back.strands, groom.strands):
            assert np.array_equal(a, b)
        assert np.array_equal(back.root_uv, groom.root_uv)

    def test_code_file_roundtrip(self, rng, tmp_path):
        groom = clustered_groom(rng, n_strands=25, R=8)
        code = encode_groom(groom, R=8, G=8)
        save_hair_code(tmp_path / "c.json", code)
        back = load_hair_code(tmp_path / "c.json")
        assert np.array_equal(back.density_map, code.density_map)
        assert np.array_equal(back.flow_volume, code.flow_volume)
        assert np.array_equal(back.root_points, code.root_points)


def five_strand_file(tmp_path, **meta):
    """A saved 5 x 15-point groom whose manifest metadata is then patched."""
    groom = make_demo_groom("beard", 5, seed=2)
    path = tmp_path / "g.json"
    save_groom(path, groom)
    manifest = json.loads(path.read_text())
    manifest["metadata"].update(meta)
    for key in [k for k, v in meta.items() if v is None]:
        del manifest["metadata"][key]
    path.write_text(json.dumps(manifest))
    return path


class TestGroomFileChecks:
    @pytest.mark.parametrize("counts", [
        [15, 15, 15, 15, 10],            # drops 5 of the 75 points
        [15, 15, 15, 15, 20],            # runs past them
        [15.0, 15, 15, 15, 15],
        ["15", 15, 15, 15, 15],
        [True, 15, 15, 15, 15],
        [1, 15, 15, 15, 29],             # a one-point strand
        [30, 15, 15, 15],                # one count short of the root_uv rows
        "15,15,15,15,15",
        None,                            # missing
    ])
    def test_bad_counts_name_the_file(self, tmp_path, counts):
        path = five_strand_file(tmp_path, counts=counts)
        with pytest.raises(DataError, match="g.json"):
            load_groom(path)

    def test_non_finite_point_names_file_and_strand(self, tmp_path):
        path = five_strand_file(tmp_path)
        blob = path.with_suffix(".bin")
        points = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
        points[3 * 40] = np.nan            # point 40 lies in strand 2
        blob.write_bytes(points.tobytes())
        with pytest.raises(InvalidParam, match="g.json.*strand 2 contains non-finite"):
            load_groom(path)

    def test_cli_encode_hair_exits_2(self, tmp_path, capsys):
        path = five_strand_file(tmp_path, counts=[15, 15, 15, 15, 10])
        rc = cli_main(["--out", str(tmp_path / "code.json"), "encode-hair",
                       "--groom", str(path)])
        assert rc == 2
        assert str(path) in capsys.readouterr().err
