import numpy as np
import pytest

from conftest import area_weights_reference, resize_area_reference
from facegen.errors import DataError, InvalidParam, NonFiniteInput
from facegen.hdr import (
    HdrImage,
    _area_weights,
    _decode_rgbe,
    augment_rotations,
    preprocess_hdr,
    read_hdr,
    resize_area,
    write_hdr,
    yaw_shift,
)


class TestHdrImage:
    def test_negative_rejected(self):
        with pytest.raises(InvalidParam):
            HdrImage(np.full((2, 2, 3), -1.0))

    def test_non_finite_rejected(self):
        data = np.ones((2, 2, 3))
        data[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            HdrImage(data)


class TestPreprocess:
    def test_zero_image_maps_to_zero_vector(self):
        img = HdrImage(np.zeros((32, 64, 3)))
        v = preprocess_hdr(img)
        assert v.shape == (64 * 128 * 3,)
        assert np.all(v == 0.0)

    def test_constant_e_minus_one_maps_to_ones(self):
        img = HdrImage(np.full((64, 128, 3), np.e - 1.0))
        v = preprocess_hdr(img)
        assert np.allclose(v, 1.0, atol=1e-12)

    def test_checkerboard_matches_block_average_oracle(self):
        # 128x256 -> 64x128 is an exact 2x2 block mean
        yy, xx = np.mgrid[0:128, 0:256]
        checker = ((yy + xx) % 2).astype(np.float64)
        img = np.stack([checker, 2 * checker, 3 * checker], axis=2)
        small = resize_area(img, 64, 128)
        oracle = img.reshape(64, 2, 128, 2, 3).mean(axis=(1, 3))
        assert np.allclose(small, oracle, atol=1e-12)
        v = preprocess_hdr(HdrImage(img))
        assert np.allclose(v, np.log1p(oracle).ravel(), atol=1e-12)

    def test_monotone(self, rng):
        base = rng.uniform(0, 5, (16, 32, 3))
        img1 = HdrImage(base)
        bumped = base.copy()
        bumped[7, 13, 1] += 2.0
        img2 = HdrImage(bumped)
        v1, v2 = preprocess_hdr(img1), preprocess_hdr(img2)
        assert np.all(v2 >= v1 - 1e-15)

    def test_non_integer_ratio_weights_sum(self):
        img = np.ones((100, 300, 3)) * 2.5
        small = resize_area(img, 64, 128)
        assert np.allclose(small, 2.5, atol=1e-12)


class TestResizeMatchesReference:
    @pytest.mark.parametrize("n_in,n_out", [
        (128, 64), (256, 128), (100, 64), (300, 128), (7, 3), (1, 1), (5, 5),
        (3, 7), (64, 128), (10, 3), (11, 4), (257, 128), (1, 9), (9, 1), (33, 32)])
    def test_weights_bit_identical(self, n_in, n_out):
        assert np.array_equal(_area_weights(n_in, n_out),
                              area_weights_reference(n_in, n_out))

    @pytest.mark.parametrize("shape,out", [
        ((128, 256, 3), (64, 128)), ((100, 300, 3), (64, 128)),
        ((7, 9, 3), (3, 20)), ((32, 64, 3), (64, 128)), ((5, 6, 1), (2, 4))])
    def test_resize_matches_einsum_reference(self, rng, shape, out):
        img = rng.uniform(0.0, 5.0, shape)
        ref = resize_area_reference(img, *out)
        got = resize_area(img, *out)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


class TestAugment:
    def test_shift_zero_identity(self, rng):
        img = HdrImage(rng.uniform(0, 3, (8, 16, 3)))
        assert np.array_equal(yaw_shift(img, 0).data, img.data)

    def test_shift_by_width_identity(self, rng):
        img = HdrImage(rng.uniform(0, 3, (8, 16, 3)))
        assert np.array_equal(yaw_shift(img, 16).data, img.data)

    def test_shift_composition(self, rng):
        img = HdrImage(rng.uniform(0, 3, (8, 16, 3)))
        w = 5
        out = yaw_shift(yaw_shift(img, w), 16 - w)
        assert np.array_equal(out.data, img.data)

    def test_count_and_determinism(self, rng):
        img = HdrImage(rng.uniform(0, 3, (8, 16, 3)))
        outs1 = augment_rotations(img, count=5, rng=9)
        outs2 = augment_rotations(img, count=5, rng=9)
        assert len(outs1) == 5
        for a, b in zip(outs1, outs2):
            assert np.array_equal(a.data, b.data)

    def test_commutes_with_preprocess_at_resize_multiples(self, rng):
        img = HdrImage(rng.uniform(0, 3, (64, 256, 3)))
        factor = 256 // 128
        shift_small = 7
        a = preprocess_hdr(yaw_shift(img, factor * shift_small)).reshape(64, 128, 3)
        b = np.roll(preprocess_hdr(img).reshape(64, 128, 3), shift_small, axis=1)
        assert np.allclose(a, b, atol=1e-12)


class TestRgbeIo:
    def test_decode_known_value(self):
        # e=128 means scale 2^(-8): rgb = (m + 0.5) / 256
        rgbe = np.array([[128, 64, 0, 129]], dtype=np.uint8)
        rgb = _decode_rgbe(rgbe)
        assert rgb[0, 0] == pytest.approx((128 + 0.5) / 256 * 2)
        assert rgb[0, 1] == pytest.approx((64 + 0.5) / 256 * 2)

    def test_zero_exponent_is_black(self):
        rgbe = np.array([[200, 200, 200, 0]], dtype=np.uint8)
        assert np.all(_decode_rgbe(rgbe) == 0.0)

    def test_writer_reader_roundtrip(self, rng, tmp_path):
        data = rng.uniform(0.0, 10.0, (12, 24, 3))
        img = HdrImage(data)
        write_hdr(tmp_path / "x.hdr", img)
        back = read_hdr(tmp_path / "x.hdr")
        # 8-bit mantissa: relative error bounded by ~1/256 of the max channel
        scale = data.max(axis=2, keepdims=True)
        assert np.abs(back.data - data).max() <= (scale / 256 + 1e-9).max()

    def test_rle_scanlines_decoded(self, tmp_path):
        # hand-built new-style RLE file: 1 scanline, width 8, all channels
        # as one run of 8 identical bytes
        W, H = 8, 1
        header = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n"
        res = f"-Y {H} +X {W}\n".encode()
        scan = bytes([2, 2, 0, W])
        for value in (10, 20, 30, 130):   # r, g, b, e channels
            scan += bytes([128 + W, value])
        (tmp_path / "rle.hdr").write_bytes(header + res + scan)
        img = read_hdr(tmp_path / "rle.hdr")
        assert img.width == W and img.height == 1
        expect = (10 + 0.5) / 256 * 2 ** (130 - 128)
        assert np.allclose(img.data[0, :, 0], expect)

    def test_rle_literal_packets(self, tmp_path):
        W, H = 4, 1
        header = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n"
        res = f"-Y {H} +X {W}\n".encode()
        scan = bytes([2, 2, 0, W])
        for base in (0, 40, 80, 120):
            scan += bytes([4, base + 1, base + 2, base + 3, base + 4])
        (tmp_path / "lit.hdr").write_bytes(header + res + scan)
        img = read_hdr(tmp_path / "lit.hdr")
        rgbe = np.array([1, 41, 81], dtype=np.uint8)
        expect = (rgbe + 0.5) * 2.0 ** (121 - 136)
        assert np.allclose(img.data[0, 0], expect)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.hdr").write_bytes(b"not an hdr")
        with pytest.raises(DataError):
            read_hdr(tmp_path / "bad.hdr")

    def test_old_rle_rejected(self, tmp_path):
        header = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 8\n"
        (tmp_path / "old.hdr").write_bytes(header + bytes([1, 1, 1, 4]) * 8)
        with pytest.raises(DataError):
            read_hdr(tmp_path / "old.hdr")

    @pytest.mark.parametrize("resolution", [
        b"-Y 0 +X 8\n",            # zero height
        b"-Y 2 +X -8\n",           # negative width
        b"-Y 2.5 +X 8\n",          # non-integer height
        b"-Y 2 +X 8e1\n",          # non-integer width
        b"-Y \xff\xfe +X 8\n",     # non-ASCII bytes
        b"-Y 1 +X 16",              # no newline after the resolution line
        b"-Y 100000000 +X 100000000\n" + bytes([2, 2, 0, 8]),   # larger than the data
    ], ids=["zero", "negative", "fraction", "exponent", "non-ascii", "no-newline",
            "larger-than-data"])
    def test_bad_resolution_line_names_file(self, tmp_path, resolution):
        header = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n"
        path = tmp_path / "res.hdr"
        path.write_bytes(header + resolution)
        with pytest.raises(DataError, match="res.hdr"):
            read_hdr(path)
