import builtins
import dataclasses
import hashlib
import io
import json
import pathlib

import numpy as np
import pytest
from scipy.stats import chisquare

from facegen.demo import build_demo_library
from facegen.errors import DataError
from facegen.eyes import EyeGeometryParams, build_eye
from facegen.hair import Groom
from facegen.library import AssetLibrary
from facegen.mesh import QuadMesh
from facegen.sampling import split_seed
from facegen.scene import (
    SceneDescription,
    export_scene,
    realize_scene,
    sample_scene,
)


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo_lib")
    cfg = build_demo_library(root, seed=5)
    return AssetLibrary.load(cfg)


def _levels(library) -> int:
    """The subdivision levels the library's config sets."""
    return json.loads((library.root / "library.json").read_text())["subdivision_levels"]


class TestLibrary:
    def test_missing_file_fails_fast(self, tmp_path):
        cfg = build_demo_library(tmp_path, seed=1)
        data = json.loads(cfg.read_text())
        data["model"] = "missing_model.json"
        cfg.write_text(json.dumps(data))
        with pytest.raises(FileNotFoundError):
            AssetLibrary.load(cfg)

    def test_loads_all_assets(self, library):
        assert library.model.n_identity == 4
        assert len(library.expressions) > 0
        assert library.grooms["scalp"]
        assert library.hdrs

    def test_frozen_and_replace_keeps_topology(self, library):
        with pytest.raises(dataclasses.FrozenInstanceError):
            library.sigma_mode = "var"
        changed = dataclasses.replace(library, sigma_mode="var")
        assert changed.sigma_mode == "var"
        assert changed.topology is library.topology

    def test_scenes_rebuild_no_library_topology(self, library, tmp_path, monkeypatch):
        import facegen.scene
        import facegen.subdivision
        calls = {}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            calls[name] = 0
            monkeypatch.setattr(module, name, counted)

        count(facegen.subdivision, "build_connectivity")
        for name in ("build_eye", "flip_groom", "subdivide_catmull_clark"):
            count(facegen.scene, name)
        flips = 0
        for i in range(4):
            scene = sample_scene(library, split_seed(40, i))
            flips += sum(c.flip for c in scene.grooms.values())
            export_scene(scene, realize_scene(library, scene), tmp_path / str(i))
        assert flips > 0
        assert calls == dict.fromkeys(calls, 0)

    def test_scenes_revalidate_no_library_topology(self, library, tmp_path, monkeypatch):
        """Scenes move the library's checked meshes and grooms: neither the
        full mesh check nor the full groom check runs per scene."""
        calls = {"QuadMesh.__post_init__": 0, "Groom._store": 0}

        def count(cls, name):
            original = getattr(cls, name)

            def counted(*args, **kwargs):
                calls[f"{cls.__name__}.{name}"] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(cls, name, counted)

        count(QuadMesh, "__post_init__")
        count(Groom, "_store")
        n_grooms = 0
        for i in range(4):
            scene = sample_scene(library, split_seed(41, i))
            geometry = realize_scene(library, scene)
            export_scene(scene, geometry, tmp_path / str(i))
            n_grooms += len(geometry.grooms)
        assert n_grooms > 0
        assert calls == dict.fromkeys(calls, 0)


class TestSampleScene:
    def test_same_seed_identical(self, library):
        s1 = sample_scene(library, 123)
        s2 = sample_scene(library, 123)
        assert s1.to_dict() == s2.to_dict()

    def test_different_seeds_differ(self, library):
        s1 = sample_scene(library, 1)
        s2 = sample_scene(library, 2)
        assert s1.to_dict() != s2.to_dict()

    def test_texture_uniformity(self, library):
        n_tex = len(library.textures)
        counts = np.zeros(n_tex)
        index = {t: i for i, t in enumerate(library.textures)}
        for i in range(4000):
            s = sample_scene(library, split_seed(99, i))
            counts[index[s.texture_id]] += 1
        assert chisquare(counts).pvalue > 0.001

    def test_flip_flags_are_fair_coins(self, library):
        heads = 0
        n = 4000
        for i in range(n):
            s = sample_scene(library, split_seed(5, i))
            heads += int(s.grooms["scalp"].flip)
        assert abs(heads / n - 0.5) < 0.02

    def test_pose_within_limits_and_beta_in_range(self, library):
        for i in range(100):
            s = sample_scene(library, split_seed(17, i))
            lim = library.model.skeleton.limits
            assert np.all(s.params.gamma.joint_angles >= lim[..., 0])
            assert np.all(s.params.gamma.joint_angles <= lim[..., 1])
            assert np.all((s.params.beta >= 0) & (s.params.beta <= 1))
            assert 0.0 <= s.hdr_yaw < 2 * np.pi


class TestSceneJson:
    def test_roundtrip_equal(self, library):
        scene = sample_scene(library, 7)
        again = SceneDescription.from_json(scene.to_json())
        assert again.to_dict() == scene.to_dict()

    def test_validates_against_schema(self, library):
        SceneDescription.from_dict(sample_scene(library, 8).to_dict())

    def test_missing_key_rejected(self, library):
        d = sample_scene(library, 9).to_dict()
        del d["hdr_id"]
        with pytest.raises(DataError):
            SceneDescription.from_dict(d)

    def test_bad_beta_rejected(self, library):
        d = sample_scene(library, 10).to_dict()
        d["params"]["beta"][0] = 1.5
        with pytest.raises(DataError):
            SceneDescription.from_dict(d)

    def test_bad_yaw_rejected(self, library):
        d = sample_scene(library, 11).to_dict()
        d["hdr_yaw"] = 7.0
        with pytest.raises(DataError):
            SceneDescription.from_dict(d)

    @pytest.mark.parametrize(
        "text", ["{", "[1, 2]", "", '{"seed": ' + "1" * 5000 + "}", "[" * 100_000],
        ids=["truncated", "array", "empty", "int_past_digit_limit", "nested_too_deep"])
    def test_text_not_a_json_object_rejected(self, text):
        with pytest.raises(DataError, match="scene JSON"):
            SceneDescription.from_json(text)


class TestRealize:
    def test_zero_params_scene_is_subdivided_template(self, library):
        from dataclasses import replace as dc_replace
        from facegen.model import ModelParams
        from facegen.subdivision import subdivide_catmull_clark
        scene = sample_scene(library, 20)
        model = library.model
        zero = dc_replace(scene, params=ModelParams.zeros(model.n_identity, model.n_expression))
        geo = realize_scene(library, zero)
        expect = subdivide_catmull_clark(library.model.template, _levels(library))
        lids = np.concatenate([library.model.eyelid_left,
                               library.model.eyelid_right])
        mask = np.ones(expect.n_vertices, dtype=bool)
        mask[lids] = False
        # identical away from the shrinkwrapped eyelids, exact topology
        assert np.array_equal(geo.face.vertices[mask], expect.vertices[mask])
        assert np.array_equal(geo.face.quads, expect.quads)

    def test_geometry_counts(self, library):
        scene = sample_scene(library, 21)
        geo = realize_scene(library, scene)
        levels = _levels(library)
        assert geo.face.n_quads == library.model.template.n_quads * 4 ** levels
        assert geo.eyes.n_quads > 0
        assert set(geo.grooms) == set(scene.grooms)

    def test_deterministic(self, library):
        scene = sample_scene(library, 22)
        g1 = realize_scene(library, scene)
        g2 = realize_scene(library, scene)
        assert np.array_equal(g1.face.vertices, g2.face.vertices)
        assert np.array_equal(g1.eyes.vertices, g2.eyes.vertices)

    def test_metadata_has_refraction_index(self, library):
        geo = realize_scene(library, sample_scene(library, 23))
        assert geo.topology.eye.metadata["cornea_refraction_index"] == 1.376

    def test_lids_and_export_read_one_eye_geometry(self, library, tmp_path, monkeypatch):
        # the shrinkwrap radius and the exported eye metadata both come from
        # the compiled eye: a library given another eye keeps them equal
        import facegen.scene
        eye = build_eye(EyeGeometryParams(sclera_radius=0.04))
        lib = dataclasses.replace(library, topology=dataclasses.replace(library.topology, eye=eye))
        radii = []
        shrinkwrap = facegen.scene.shrinkwrap_eyelids

        def recorded(face, ids, center, radius):
            radii.append(radius)
            return shrinkwrap(face, ids, center, radius)

        monkeypatch.setattr(facegen.scene, "shrinkwrap_eyelids", recorded)
        scene = sample_scene(lib, 24)
        export_scene(scene, realize_scene(lib, scene), tmp_path)
        meta = json.loads((tmp_path / "scene.json").read_text())["eye_metadata"]
        assert radii == [0.04, 0.04]
        assert meta["sclera_radius"] == 0.04


class TestExport:
    def test_files_and_manifest(self, library, tmp_path):
        scene = sample_scene(library, 31)
        geo = realize_scene(library, scene)
        hashes = export_scene(scene, geo, tmp_path / "s")
        names = set(hashes)
        assert {"face.obj", "eyes.obj", "scene.json"} <= names
        mf = json.loads((tmp_path / "s/manifest.json").read_text())
        assert mf["files"] == hashes

    def test_scene_json_reparses_and_validates(self, library, tmp_path):
        scene = sample_scene(library, 32)
        geo = realize_scene(library, scene)
        export_scene(scene, geo, tmp_path / "s")
        text = (tmp_path / "s/scene.json").read_text()
        again = SceneDescription.from_json(text)
        assert again.to_dict() == scene.to_dict()

    def test_manifest_changes_iff_content_changes(self, library, tmp_path):
        scene = sample_scene(library, 33)
        geo = realize_scene(library, scene)
        h1 = export_scene(scene, geo, tmp_path / "a")
        h2 = export_scene(scene, geo, tmp_path / "b")
        assert h1 == h2
        # flip one byte in one file and re-hash
        p = tmp_path / "b/face.obj"
        raw = bytearray(p.read_bytes())
        raw[0] ^= 1
        p.write_bytes(bytes(raw))
        import hashlib
        assert hashlib.sha256(p.read_bytes()).hexdigest() != h2["face.obj"]

    def test_reexport_lists_only_files_it_wrote(self, library, tmp_path):
        scene = sample_scene(library, 35)
        assert "beard" in scene.grooms
        out = tmp_path / "s"
        export_scene(scene, realize_scene(library, scene), out)
        (out / "notes.txt").write_text("kept\n")
        shaved = dataclasses.replace(
            scene, grooms={k: v for k, v in scene.grooms.items() if k != "beard"})
        hashes = export_scene(shaved, realize_scene(library, shaved), out)
        names = {p.name for p in out.iterdir()}
        assert not any(n.startswith("groom_beard") for n in names)
        assert (out / "notes.txt").read_text() == "kept\n"
        assert set(hashes) == names - {"manifest.json", "notes.txt"}
        mf = json.loads((out / "manifest.json").read_text())
        assert mf["files"] == hashes

    def test_export_hashes_what_it_wrote_without_reading_back(self, library, tmp_path,
                                                                monkeypatch):
        scene = sample_scene(library, 36)
        geo = realize_scene(library, scene)
        assert geo.grooms
        real_open = io.open

        def write_only(file, mode="r", *args, **kwargs):
            if "r" in mode or "+" in mode:
                raise AssertionError(f"export_scene opened {file} with mode {mode!r}")
            return real_open(file, mode, *args, **kwargs)

        with monkeypatch.context() as m:
            for module in (builtins, io):
                m.setattr(module, "open", write_only)
            hashes = export_scene(scene, geo, tmp_path / "s")
        on_disk = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (tmp_path / "s").iterdir() if p.name != "manifest.json"}
        assert hashes == on_disk
        assert json.loads((tmp_path / "s/manifest.json").read_text())["files"] == on_disk

    def test_interrupted_export_never_commits_a_bad_manifest(self, library, tmp_path,
                                                             monkeypatch):
        """Whichever file write fails, into a fresh directory or over an
        earlier export, manifest.json is absent or lists only present files
        whose bytes hash as it says."""
        bearded = sample_scene(library, 35)
        assert "beard" in bearded.grooms
        shaved = dataclasses.replace(
            bearded, grooms={k: v for k, v in bearded.grooms.items() if k != "beard"})
        real_write = pathlib.Path.write_bytes
        violations = []
        for case, before, scene in (("fresh", None, bearded), ("used", bearded, shaved)):
            geo = realize_scene(library, scene)
            prior = None if before is None else realize_scene(library, before)
            n_writes = 4 + 2 * len(scene.grooms)   # objs, scene.json, grooms, manifest
            for k in range(n_writes):
                out = tmp_path / f"{case}_{k}"
                if before is not None:
                    export_scene(before, prior, out)
                calls = []

                def fail_kth(path, data, calls=calls, k=k):
                    calls.append(path.name)
                    if len(calls) == k + 1:
                        raise OSError(f"write {k} of {path.name} failed")
                    return real_write(path, data)

                with monkeypatch.context() as m:
                    m.setattr(pathlib.Path, "write_bytes", fail_kth)
                    with pytest.raises(OSError, match=f"write {k} "):
                        export_scene(scene, geo, out)
                manifest = out / "manifest.json"
                listed = json.loads(manifest.read_text())["files"] if manifest.exists() else {}
                violations += [(case, k, name) for name, digest in listed.items()
                               if not (out / name).is_file() or hashlib.sha256(
                                   (out / name).read_bytes()).hexdigest() != digest]
            assert calls[-1] == "manifest.json"
        assert violations == []

    def test_face_obj_reimports(self, library, tmp_path):
        from facegen.objio import load_obj
        scene = sample_scene(library, 34)
        geo = realize_scene(library, scene)
        export_scene(scene, geo, tmp_path / "s")
        mesh = load_obj(tmp_path / "s/face.obj")
        assert np.abs(mesh.vertices - geo.face.vertices).max() < 1e-6
