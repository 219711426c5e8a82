"""Property tests of the ragged groom record: both constructors, the groom
file, flip and arc lengths on random grooms of 0-50 strands of 2-20
points, and the strand named by each validation failure."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegen.errors import EmptyGroom, InvalidParam
from facegen.hair import Groom, flip_groom, load_groom, save_groom

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def grooms(draw, min_strands=0):
    """(strands, root_uv) with dyadic coordinates and UVs, so that
    mirroring twice is exact."""
    counts = draw(st.lists(st.integers(2, 20), min_size=min_strands, max_size=50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.integers(-1024, 1025, size=(sum(counts), 3)) / 512.0
    strands = np.split(points, np.cumsum(counts)[:-1]) if counts else []
    return strands, rng.integers(0, 1025, size=(len(counts), 2)) / 1024.0


@PROPERTY
@given(grooms())
def test_strand_and_ragged_constructors_agree(data):
    strands, uv = data
    a = Groom(strands, uv, style="beard")
    offsets = np.concatenate([[0], np.cumsum([len(s) for s in strands], dtype=np.int64)])
    b = Groom.from_ragged(np.concatenate(strands) if strands else np.empty((0, 3)),
                          offsets, uv, style="beard")
    for g in (a, b):
        assert g.n_strands == len(strands)
        assert np.array_equal(g.offsets, offsets)
        assert np.array_equal(g.root_uv, uv)
        assert g.style == "beard"
        assert len(g.strands) == len(strands)
        assert all(np.array_equal(s, t) for s, t in zip(g.strands, strands))
    assert np.array_equal(a.points, b.points)


@PROPERTY
@given(grooms(min_strands=1))
def test_file_roundtrip_is_exact(data):
    groom = Groom(*data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        save_groom(path, groom)
        back = load_groom(path)
    assert np.array_equal(back.points, groom.points)
    assert np.array_equal(back.offsets, groom.offsets)
    assert np.array_equal(back.root_uv, groom.root_uv)
    assert back.style == groom.style


def test_empty_groom_is_not_saved(tmp_path):
    with pytest.raises(EmptyGroom):
        save_groom(tmp_path / "g.json", Groom((), np.zeros((0, 2))))


@PROPERTY
@given(grooms())
def test_flip_twice_is_identity(data):
    groom = Groom(*data)
    back = flip_groom(flip_groom(groom))
    assert np.array_equal(back.points, groom.points)
    assert np.array_equal(back.offsets, groom.offsets)
    assert np.array_equal(back.root_uv, groom.root_uv)


@PROPERTY
@given(grooms())
def test_arc_lengths_match_per_strand_sums(data):
    strands, uv = data
    expected = [float(np.linalg.norm(np.diff(s, axis=0), axis=1).sum()) for s in strands]
    assert np.array_equal(Groom(strands, uv).arc_lengths(), np.array(expected))


@st.composite
def one_bad_strand(draw):
    strands, uv = draw(grooms(min_strands=1))
    return strands, uv, draw(st.integers(0, len(strands) - 1))


@PROPERTY
@given(one_bad_strand())
def test_short_strand_is_named(data):
    strands, uv, i = data
    strands[i] = strands[i][:1]
    with pytest.raises(InvalidParam, match=rf"strand {i} must be"):
        Groom(strands, uv)
    counts = np.array([len(s) for s in strands])
    with pytest.raises(InvalidParam, match=rf"strand {i} must be"):
        Groom.from_ragged(np.concatenate(strands),
                          np.concatenate([[0], np.cumsum(counts)]), uv)


@PROPERTY
@given(one_bad_strand(), st.sampled_from([np.nan, np.inf, -np.inf]),
       st.integers(0, 19), st.integers(0, 2))
def test_non_finite_point_is_named(data, value, row, col):
    strands, uv, i = data
    strands[i] = strands[i].copy()
    strands[i][row % len(strands[i]), col] = value
    with pytest.raises(InvalidParam, match=rf"strand {i} contains non-finite"):
        Groom(strands, uv)


@PROPERTY
@given(one_bad_strand(), st.sampled_from([1, 2, 4]))
def test_wrong_width_is_named(data, width):
    strands, uv, i = data
    strands[i] = np.zeros((len(strands[i]), width))
    with pytest.raises(InvalidParam, match=rf"strand {i} must be"):
        Groom(strands, uv)


@PROPERTY
@given(grooms(), st.sampled_from([-1, 1]))
def test_mismatched_root_uv_is_rejected(data, extra):
    strands, uv = data
    rows = abs(len(strands) + extra)        # never the strand count
    with pytest.raises(InvalidParam, match=rf"root_uv must be \({len(strands)}, 2\)"):
        Groom(strands, np.full((rows, 2), 0.5))
