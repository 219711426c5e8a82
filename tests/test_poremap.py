import json
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from facegen import parallel, poremap
from facegen.errors import DataError, InvalidSigma
from facegen.poremap import pore_map, read_pgm, write_pgm16

from conftest import pore_map_reference


def planted_blob_texture(centers, sigma, shape=(96, 96), amplitude=1.0):
    yy, xx = np.mgrid[0:shape[0], 0:shape[1]].astype(np.float64)
    img = np.zeros(shape)
    for cy, cx in centers:
        img += amplitude * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
    return img


def test_constant_image_zero_response():
    img = np.full((32, 32), 3.7)
    out = pore_map(img, sigma=2.0)
    assert np.abs(out).max() < 1e-9


def test_blob_center_is_global_extremum():
    s = 3.0
    img = planted_blob_texture([(48, 48)], s)
    out = pore_map(img, sigma=s)
    iy, ix = np.unravel_index(np.argmax(np.abs(out)), out.shape)
    assert (iy, ix) == (48, 48)
    # bright blob on dark ground: center response is negative
    assert out[48, 48] < 0


def test_linearity():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (24, 24))
    a = 3.5
    assert np.allclose(pore_map(a * img, 1.5), a * pore_map(img, 1.5), atol=1e-10)


def test_invalid_sigma():
    with pytest.raises(InvalidSigma):
        pore_map(np.zeros((4, 4)), 0.0)


def test_pgm16_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.standard_normal((10, 14))
    write_pgm16(tmp_path / "o.pgm", img, sidecar={"sigma": 2.0})
    meta = json.loads((tmp_path / "o.pgm.json").read_text())
    back = read_pgm(tmp_path / "o.pgm")
    restored = back * (meta["max"] - meta["min"]) + meta["min"]
    assert np.abs(restored - img).max() < (meta["max"] - meta["min"]) / 65535.0
    assert meta["sigma"] == 2.0


def test_read_pgm_p2(tmp_path):
    (tmp_path / "a.pgm").write_text("P2\n# comment\n2 2\n255\n0 128\n255 64\n")
    img = read_pgm(tmp_path / "a.pgm")
    assert img.shape == (2, 2)
    assert img[0, 1] == pytest.approx(128 / 255)


@pytest.mark.parametrize("body, fault", [
    (b"P5\n1 1\n70000\n" + (60000).to_bytes(2, "big"), "maxval 70000 is above 65535"),
    (b"P2\n1 1\n70000\n5\n", "maxval 70000 is above 65535"),
    (b"P5\n2 1\n100\n" + bytes([50, 200]), "sample of 200, above its maxval 100"),
    (b"P5\n1 1\n1000\n" + (60000).to_bytes(2, "big"), "sample of 60000, above its maxval 1000"),
    (b"P2\n2 1\n10\n3 50\n", "sample of 50, above its maxval 10"),
])
def test_read_pgm_rejects_samples_beyond_16_bits_or_maxval(tmp_path, body, fault):
    path = tmp_path / "bad.pgm"
    path.write_bytes(body)
    with pytest.raises(DataError, match=fault) as info:
        read_pgm(path)
    assert str(path) in str(info.value)


def test_read_pgm_takes_samples_at_maxval(tmp_path):
    for body in (b"P5\n2 1\n100\n" + bytes([0, 100]),
                 b"P5\n2 1\n1000\n" + (0).to_bytes(2, "big") + (1000).to_bytes(2, "big"),
                 b"P5\n2 1\n65535\n" + bytes(2) + (65535).to_bytes(2, "big"),
                 b"P2\n2 1\n10\n0 10\n"):
        (tmp_path / "a.pgm").write_bytes(body)
        assert read_pgm(tmp_path / "a.pgm").tolist() == [[0.0, 1.0]]


class TestBands:
    """pore_map's row bands, on any number of threads, give the bytes of
    one pass of each filter over the whole image."""

    @staticmethod
    def use_bands(monkeypatch, rows: int, width: int, cpus: int) -> None:
        monkeypatch.setattr(poremap, "_BAND_BYTES", rows * 8 * width)
        monkeypatch.setattr(poremap, "_cpu_count", lambda: cpus)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_every_height_around_a_band(self, monkeypatch, cpus):
        rng = np.random.default_rng(cpus)
        band = 5
        for h in (1, 2, band - 1, band, band + 1, 2 * band + 3):
            for w in (1, 6, 9):
                img = rng.standard_normal((h, w)) * 10.0 ** rng.integers(-6, 6, (h, w))
                self.use_bands(monkeypatch, band, w, cpus)
                # radius 2 (halo 3, inside a band), radius 5 (halo 6, wider
                # than a band) and radius 15 (halo 16, taller than the image)
                for sigma in (0.6, 1.6, 5.0):
                    expect = pore_map_reference(img, sigma)
                    assert pore_map(img, sigma).tobytes() == expect.tobytes()

    def test_band_of_one_row_and_strided_input(self, monkeypatch):
        img = np.random.default_rng(9).random((13, 24))[:, ::2].T     # (12, 13), strided
        for cpus in (1, 2, 3):
            self.use_bands(monkeypatch, 1, img.shape[1], cpus)
            assert pore_map(img, 2.5).tobytes() == pore_map_reference(img, 2.5).tobytes()

    def test_default_bands(self, monkeypatch):
        # 300 rows of 1024: three bands of the default size
        img = np.random.default_rng(3).random((300, 1024))
        monkeypatch.setattr(poremap, "_cpu_count", lambda: 2)
        assert -(-300 // (poremap._BAND_BYTES // (8 * 1024))) == 3
        assert pore_map(img, 2.5).tobytes() == pore_map_reference(img, 2.5).tobytes()

    def test_one_pool_per_call_and_no_thread_left(self, monkeypatch):
        pools = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, workers):
                super().__init__(workers)
                pools.append(workers)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", Counted)
        before = set(threading.enumerate())
        img = np.random.default_rng(4).random((9, 5))
        self.use_bands(monkeypatch, 2, 5, 8)
        pore_map(img, 1.0)
        # one worker per band, at most one per CPU: the caller and 4 pool threads
        assert pools == [4]
        self.use_bands(monkeypatch, 2, 5, 1)
        pore_map(img, 1.0)
        assert pools == [4]                        # one CPU: the bands run inline
        assert set(threading.enumerate()) == before

    def test_threads_take_the_callers_error_state(self, monkeypatch):
        # sigma^2 underflows to 0.0 and the Laplacian of a lone huge pixel
        # overflows to -inf: its band scales -inf by 0.0, an invalid
        # operation, on a pool thread
        img = np.zeros((8, 6))
        img[5, 3] = 1e308
        self.use_bands(monkeypatch, 2, 6, 3)
        before = set(threading.enumerate())
        with np.errstate(over="ignore", invalid="raise"):
            with pytest.raises(FloatingPointError):
                pore_map(img, 1e-200)
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pore_map(img, 1e-200)
        assert np.isnan(out[5, 3]) and np.count_nonzero(out) == 1
        assert set(threading.enumerate()) == before
