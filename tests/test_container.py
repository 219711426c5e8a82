import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegen.container import (decode_json, encode_json, load_container,
                               parse_json_object, save_container)
from facegen.errors import DataError

PROPERTY = settings(max_examples=200, deadline=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
KEYS = st.text(max_size=6)
JSON = st.recursive(
    st.text(max_size=8) | st.integers() | FINITE,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=12)
# a JSON value holding one NaN or infinity at a random depth among finite siblings
POISONED = st.recursive(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda inner: (
        st.tuples(st.lists(JSON, max_size=2), inner).map(lambda t: [*t[0], t[1]])
        | st.tuples(st.dictionaries(KEYS, JSON, max_size=2), KEYS, inner)
        .map(lambda t: {**t[0], t[1]: t[2]})),
    max_leaves=6)


def test_roundtrip_f64_and_f32(rng, tmp_path):
    tensors = {
        "a": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(7).astype(np.float32),
        "scalarish": np.array(2.5),
    }
    save_container(tmp_path / "c.json", tensors, metadata={"kind": "test", "n": 3})
    back, meta = load_container(tmp_path / "c.json")
    assert np.array_equal(back["a"], tensors["a"])
    assert back["a"].dtype == np.float64
    assert np.array_equal(back["b"], tensors["b"])
    assert back["b"].dtype == np.float32
    assert back["scalarish"] == 2.5
    assert meta == {"kind": "test", "n": 3}


def test_write_read_write_byte_identical(rng, tmp_path):
    tensors = {"x": rng.standard_normal((5, 2)), "y": rng.standard_normal(3)}
    save_container(tmp_path / "a.json", tensors, metadata={"tag": "t"})
    back, meta = load_container(tmp_path / "a.json")
    save_container(tmp_path / "b.json", back, metadata=meta)
    assert (tmp_path / "a.json").read_text() != ""
    assert (tmp_path / "a.json").read_bytes().replace(b"a.bin", b"b.bin") \
        == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_manifest_structure(rng, tmp_path):
    save_container(tmp_path / "c.json", {"m": np.zeros((2, 2))})
    manifest = json.loads((tmp_path / "c.json").read_text())
    assert manifest["version"] == 1
    assert manifest["blob"] == "c.bin"
    ent = manifest["tensors"][0]
    assert ent["name"] == "m"
    assert ent["shape"] == [2, 2]
    assert ent["dtype"] == "f64"
    assert ent["byte_offset"] == 0


def test_tensors_sorted_by_name(rng, tmp_path):
    save_container(tmp_path / "c.json", {"z": np.zeros(2), "a": np.ones(2)})
    manifest = json.loads((tmp_path / "c.json").read_text())
    names = [e["name"] for e in manifest["tensors"]]
    assert names == ["a", "z"]


def test_corrupt_manifest_rejected(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(DataError):
        load_container(tmp_path / "bad.json")


def test_overrun_rejected(rng, tmp_path):
    save_container(tmp_path / "c.json", {"m": np.zeros(4)})
    manifest = json.loads((tmp_path / "c.json").read_text())
    manifest["tensors"][0]["shape"] = [400]
    (tmp_path / "c.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError):
        load_container(tmp_path / "c.json")


def test_unsupported_dtype_rejected(rng, tmp_path):
    save_container(tmp_path / "c.json", {"m": np.zeros(4)})
    manifest = json.loads((tmp_path / "c.json").read_text())
    manifest["tensors"][0]["dtype"] = "i32"
    (tmp_path / "c.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError):
        load_container(tmp_path / "c.json")


def _edit_manifest(path, edit):
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def test_negative_byte_offset_rejected(tmp_path):
    save_container(tmp_path / "c.json", {"a": np.arange(1.0, 5.0), "b": np.array([7.0, 8.0])})
    _edit_manifest(tmp_path / "c.json",
                   lambda m: m["tensors"][1].update(byte_offset=-40))
    with pytest.raises(DataError, match="c.json"):
        load_container(tmp_path / "c.json")


@pytest.mark.parametrize("offset", [1.5, "8", True, None])
def test_non_integer_byte_offset_rejected(tmp_path, offset):
    save_container(tmp_path / "c.json", {"m": np.zeros(4)})
    _edit_manifest(tmp_path / "c.json",
                   lambda m: m["tensors"][0].update(byte_offset=offset))
    with pytest.raises(DataError, match="c.json"):
        load_container(tmp_path / "c.json")


@pytest.mark.parametrize("shape", [[-2, -2], [2.0, 2], "4", [True, 4]])
def test_bad_shape_dims_rejected(tmp_path, shape):
    save_container(tmp_path / "c.json", {"m": np.zeros(4)})
    _edit_manifest(tmp_path / "c.json", lambda m: m["tensors"][0].update(shape=shape))
    with pytest.raises(DataError, match="c.json"):
        load_container(tmp_path / "c.json")


@pytest.mark.parametrize("blob", ["../c/a.bin", "/abs/a.bin", "sub/a.bin", "..", "", 3])
def test_blob_outside_manifest_directory_rejected(tmp_path, blob):
    (tmp_path / "c").mkdir()
    (tmp_path / "a").mkdir()
    save_container(tmp_path / "c" / "a.json", {"m": np.ones(2)})
    (tmp_path / "a" / "a.json").write_text((tmp_path / "c" / "a.json").read_text())
    _edit_manifest(tmp_path / "a" / "a.json", lambda m: m.update(blob=blob))
    with pytest.raises(DataError, match="a.json"):
        load_container(tmp_path / "a" / "a.json")


@pytest.mark.parametrize("edit", [
    lambda m: m["tensors"][0].pop("name"),
    lambda m: m["tensors"][0].pop("shape"),
    lambda m: m["tensors"][0].pop("dtype"),
    lambda m: m["tensors"][0].pop("byte_offset"),
    lambda m: m["tensors"][0].update(dtype=["f64"]),
    lambda m: m["tensors"][0].update(name=3),
    lambda m: m["tensors"].append("m"),
    lambda m: m.update(tensors={"m": 1}),
], ids=["no_name", "no_shape", "no_dtype", "no_offset", "list_dtype", "int_name",
        "string_entry", "tensors_not_list"])
def test_malformed_tensor_entries_rejected(tmp_path, edit):
    save_container(tmp_path / "c.json", {"m": np.zeros(4)})
    _edit_manifest(tmp_path / "c.json", edit)
    with pytest.raises(DataError, match="c.json"):
        load_container(tmp_path / "c.json")


def test_tensor_listed_twice_rejected_naming_it(tmp_path):
    # the second entry renamed to the first's name: neither may be dropped
    save_container(tmp_path / "c.json", {"a": np.arange(3.0), "b": np.array([0.0, 1.0])})
    _edit_manifest(tmp_path / "c.json", lambda m: m["tensors"][1].update(name="a"))
    with pytest.raises(DataError, match=r"c\.json.*'a' is listed twice"):
        load_container(tmp_path / "c.json")


@pytest.mark.parametrize("metadata", [[1], "groom", 3, None])
def test_non_object_metadata_rejected(tmp_path, metadata):
    save_container(tmp_path / "c.json", {"m": np.zeros(4)}, metadata={"kind": "x"})
    _edit_manifest(tmp_path / "c.json", lambda m: m.update(metadata=metadata))
    with pytest.raises(DataError, match="c.json"):
        load_container(tmp_path / "c.json")


@PROPERTY
@given(JSON)
def test_encode_json_is_the_sorted_stdlib_encoding(value):
    assert encode_json(value, indent=1) == (
        json.dumps(value, sort_keys=True, indent=1) + "\n").encode()
    assert encode_json(value) == (
        json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n").encode()


@PROPERTY
@given(POISONED)
def test_encode_json_rejects_non_finite_numbers_at_any_depth(value):
    for indent in (None, 1):
        with pytest.raises(ValueError):
            encode_json(value, indent=indent)


@PROPERTY
@given(st.fixed_dictionaries({"doc": st.dictionaries(KEYS, JSON, max_size=4),
                              "xs": st.lists(FINITE, max_size=5),
                              "n": st.integers(), "s": st.text(max_size=8)}))
def test_decode_json_reads_back_what_encode_json_wrote(value):
    spec = {"doc": dict, "xs": [float], "n": int, "s": str}
    for indent in (None, 1):
        back = decode_json(parse_json_object(encode_json(value, indent=indent).decode()), spec)
        assert back == {**value, "xs": tuple(value["xs"])}


@pytest.mark.parametrize("blob", ["c.bim", "sub"])
def test_missing_blob_names_the_manifest(tmp_path, blob):
    # a blob name that names no file beside the manifest (or a directory)
    # is malformed input, not an OSError about the blob's path
    save_container(tmp_path / "c.json", {"m": np.ones(2)})
    (tmp_path / "sub").mkdir()
    _edit_manifest(tmp_path / "c.json", lambda m: m.update(blob=blob))
    with pytest.raises(DataError, match=rf"c\.json.*{blob}"):
        load_container(tmp_path / "c.json")
