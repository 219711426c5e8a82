"""Property tests of the scene reader.  A scene.json that `sample` wrote,
with one node replaced, dropped or added, either raises a FacegenError in
`SceneDescription.from_dict` or gives a scene whose JSON is strict and
round-trips byte for byte; and the published scene.schema.json accepts
exactly the documents the reader accepts, up to non-finite numbers."""

import copy
import json
import math
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegen.cli import cli_main
from facegen.errors import FacegenError
from facegen.hair import HAIR_STYLES
from facegen.scene import SceneDescription

PROPERTY = settings(max_examples=300, deadline=None)
REPLACEMENTS = [None, "x", True, [], {}, math.nan, math.inf, -math.inf, 10 ** 30]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The scene.json objects of `--seed 7 sample --count 8` on the demo library."""
    root = tmp_path_factory.mktemp("scene_reader")
    assert cli_main(["--seed", "3", "--out", str(root / "lib"), "demo-assets"]) == 0
    assert cli_main(["--seed", "7", "--out", str(root / "s"), "sample", "--library",
                     str(root / "lib" / "library.json"), "--count", "8"]) == 0
    return [json.loads(p.read_text()) for p in sorted(root.glob("s/*/scene.json"))]


@pytest.fixture(scope="module")
def validator():
    """A validator of the published schema; the tests using it skip
    without jsonschema."""
    jsonschema = pytest.importorskip("jsonschema")
    text = resources.files("facegen").joinpath("schemas/scene.schema.json").read_text()
    schema = json.loads(text)
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def _nodes(value, path=()):
    """Every node path of a JSON value, the root `()` first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, documents):
    """(document, has_non_finite): a sampled scene document with one node
    replaced, one object key dropped or one unknown key added."""
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    paths = list(_nodes(doc))
    kind = draw(st.sampled_from(["replace", "drop", "add"]))
    if kind == "add":
        path = draw(st.sampled_from([p for p in paths if isinstance(_node(doc, p), dict)]))
        _node(doc, path)["unknown"] = 1
        return doc, False
    keyed = [p for p in paths[1:] if kind == "replace" or isinstance(p[-1], str)]
    path = draw(st.sampled_from(keyed))
    parent = _node(doc, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
        return doc, False
    value = draw(st.sampled_from(REPLACEMENTS))
    parent[path[-1]] = copy.deepcopy(value)
    return doc, isinstance(value, float) and not math.isfinite(value)


def _reject_constant(name):
    raise AssertionError(f"to_json wrote the non-JSON constant {name}")


def _read(doc):
    """The scene `from_dict` reads from `doc`, or None if it raises a
    FacegenError."""
    try:
        return SceneDescription.from_dict(doc)
    except FacegenError:
        return None


@PROPERTY
@given(st.data())
def test_mutated_scene_is_an_error_or_round_trips(documents, data):
    doc, _ = data.draw(mutated(documents))
    scene = _read(doc)
    if scene is not None:
        text = scene.to_json()
        json.loads(text, parse_constant=_reject_constant)
        assert SceneDescription.from_json(text).to_json() == text


def test_schema_accepts_every_sampled_scene(documents, validator):
    for doc in documents:
        assert _read(doc) is not None
        validator.validate(doc)
    grooms = validator.schema["properties"]["grooms"]
    assert grooms["propertyNames"]["enum"] == list(HAIR_STYLES)


@PROPERTY
@given(st.data())
def test_schema_and_reader_agree_on_mutated_scenes(documents, validator, data):
    # JSON Schema cannot state finiteness, so only the reader rejects NaN and inf
    doc, non_finite = data.draw(mutated(documents))
    if not non_finite:
        assert validator.is_valid(doc) == (_read(doc) is not None)


# (path, value) edits that both the reader and the schema reject; None drops the key
MALFORMED = {
    "missing_key": (("hdr_id",), None),
    "missing_groom_flip": (("grooms", "scalp", "flip"), None),
    "unknown_key": (("bogus",), 1),
    "unknown_params_key": (("params", "bogus"), 1),
    "unknown_groom_key": (("grooms", "scalp", "bogus"), 1),
    "unknown_groom_style": (("grooms", "mustache"), {"id": "a", "flip": False}),
    "unknown_hair_color_key": (("hair_color", "bogus"), 1),
    "unknown_camera_key": (("camera", "bogus"), 1),
    "unknown_render_key": (("render", "bogus"), 1),
    "joint_angles_of_3": (("params", "joint_angles"), [[0.0] * 3] * 3),
    "joint_angle_row_of_4": (("params", "joint_angles", 0), [0.0] * 4),
    "global_rot_of_2": (("params", "global_rot"), [0.0] * 2),
    "global_trans_of_4": (("params", "global_trans"), [0.0] * 4),
    "position_of_2": (("camera", "position"), [0.0] * 2),
    "look_at_of_4": (("camera", "look_at"), [0.0] * 4),
    "beta_below_0": (("params", "beta", 0), -0.5),
    "beta_above_1": (("params", "beta", 0), 1.5),
    "melanin_above_1": (("hair_color", "melanin"), 1.5),
    "fov_below_1": (("camera", "fov_deg"), 0.5),
    "fov_above_179": (("camera", "fov_deg"), 179.5),
    "hdr_yaw_negative": (("hdr_yaw",), -0.1),
    "hdr_yaw_2pi": (("hdr_yaw",), 2 * math.pi),
    "resolution_0": (("render", "resolution"), 0),
    "spp_0": (("render", "spp"), 0),
    "seed_not_integer": (("seed",), 1.5),
    "flip_not_boolean": (("grooms", "scalp", "flip"), 1),
    "eye_metadata_not_object": (("eye_metadata",), []),
}


@pytest.mark.parametrize("path, value", MALFORMED.values(), ids=MALFORMED.keys())
def test_reader_and_schema_reject_malformed_scene(documents, validator, path, value):
    doc = copy.deepcopy(documents[0])
    parent = _node(doc, path[:-1])
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(FacegenError):
        SceneDescription.from_dict(doc)
    assert not validator.is_valid(doc)
