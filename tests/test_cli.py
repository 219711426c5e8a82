import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from facegen import cli, learning
from facegen.cli import _FIT_CONFIG_SPEC, cli_main
from facegen.container import decode_json, load_container, save_container
from facegen.errors import DataError
from facegen.hair import encode_groom, load_groom, save_hair_code
from facegen.learning import FitSchedule, LossWeights
from facegen.library import AssetLibrary, save_expression_library
from facegen.objio import load_obj, save_obj
from facegen.poremap import read_pgm
from facegen.procedural import cube_mesh, desk_head, quad_grid, smooth_vertex_fields
from facegen.sampling import ExpressionLibrary
from facegen.mesh import QuadMesh


@pytest.fixture(scope="module")
def demo_lib(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_lib")
    rc = cli_main(["--seed", "3", "--out", str(root), "demo-assets"])
    assert rc == 0
    return root / "library.json"


def tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestBasics:
    def test_help_exits_zero(self, capsys):
        assert cli_main(["fit", "--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        assert cli_main([]) == 1

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert cli_main(["--seed", "-1", "--out", str(tmp_path), "demo-assets"]) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_1_is_usage_error(self, tmp_path, capsys, threads):
        assert cli_main(["--threads", threads, "--out", str(tmp_path), "demo-assets"]) == 1
        assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_count_below_1_is_usage_error(self, demo_lib, tmp_path, capsys, count):
        out = tmp_path / "o"
        assert cli_main(["--out", str(out), "sample", "--library", str(demo_lib),
                         "--count", count]) == 1
        assert f"--count must be >= 1, got {count}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("augment", ["-1", "-2"])
    def test_fit_pca_augment_below_0_is_usage_error(self, demo_lib, tmp_path, capsys, augment):
        out = tmp_path / "pca.json"
        assert cli_main(["--out", str(out), "fit-pca", "--hdr-dir", str(demo_lib.parent),
                         "--augment", augment]) == 1
        assert f"--augment must be >= 0, got {augment}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, least", [
        ("encode-hair", "--uv-res", "3", 4), ("encode-hair", "--uv-res", "0", 4),
        ("encode-hair", "--vol-res", "-1", 4), ("decode-hair", "--count", "0", 1),
        ("decode-hair", "--count", "-2", 1)])
    def test_hair_code_size_below_minimum_is_usage_error(self, demo_lib, tmp_path, capsys,
                                                         command, flag, value, least):
        out = tmp_path / "o.json"
        source = (["--groom", str(demo_lib.parent / "groom_scalp_0.json")]
                  if command == "encode-hair" else ["--code", str(tmp_path / "code.json")])
        assert cli_main(["--out", str(out), command, *source, flag, value]) == 1
        assert f"{flag} must be >= {least}, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_is_usage_error(self):
        assert cli_main(["subdivide", "--bogus"]) == 1

    def test_version(self, capsys):
        assert cli_main(["--version"]) == 0


class TestDataErrors:
    def test_missing_scan_dir(self, tmp_path, capsys):
        rc = cli_main(["--out", str(tmp_path / "o"), "fit",
                       "--scans", str(tmp_path / "none"), "--basis-size", "2"])
        assert rc == 2

    def test_missing_mesh_reports_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.obj"
        rc = cli_main(["--out", str(tmp_path / "o.obj"), "subdivide",
                       "--mesh", str(missing)])
        assert rc == 2
        assert "nope.obj" in capsys.readouterr().err


    def test_texture_index_past_vt_list(self, tmp_path, capsys):
        bad = tmp_path / "bad_uv.obj"
        bad.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nvt 0 0\n"
                       "f 1/1 2/1 3/1 4/5\n")
        rc = cli_main(["--out", str(tmp_path / "o.obj"), "subdivide",
                       "--mesh", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bad_uv.obj" in err
        assert "Traceback" not in err

    def test_non_finite_scan_vertex(self, tmp_path, capsys, recwarn):
        grid = quad_grid(3, 4, spacing=0.05)
        scans_dir = tmp_path / "scans"
        scans_dir.mkdir()
        for i in range(3):
            save_obj(scans_dir / f"s{i}.obj", grid)
        text = (scans_dir / "s1.obj").read_text().splitlines()
        text[5] = "v 0.1 nan 0.0"
        (scans_dir / "s1.obj").write_text("\n".join(text) + "\n")
        rc = cli_main(["--out", str(tmp_path / "o"), "fit",
                       "--scans", str(scans_dir), "--basis-size", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "s1.obj" in err
        assert "Traceback" not in err
        assert not recwarn.list


class TestSubdivide:
    def test_roundtrip(self, tmp_path):
        from facegen.procedural import cube_mesh
        src = tmp_path / "cube.obj"
        save_obj(src, cube_mesh())
        out = tmp_path / "sub.obj"
        rc = cli_main(["--out", str(out), "subdivide", "--mesh", str(src),
                       "--levels", "2"])
        assert rc == 0
        mesh = load_obj(out)
        assert mesh.n_quads == 6 * 16


class TestSample:
    def test_deterministic_across_runs_and_threads(self, demo_lib, tmp_path):
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            rc = cli_main(["--seed", "7", "--out", str(out),
                           "--threads", threads,
                           "sample", "--library", str(demo_lib), "--count", "2"])
            assert rc == 0
            outs.append(tree_hash(out))
        assert outs[0] == outs[1] == outs[2]

    def test_scene_count(self, demo_lib, tmp_path):
        out = tmp_path / "scenes"
        rc = cli_main(["--seed", "1", "--out", str(out),
                       "sample", "--library", str(demo_lib), "--count", "3"])
        assert rc == 0
        assert len(list(out.glob("scene_*"))) == 3

    def test_sigma_mode_flag_changes_identity_draws(self, demo_lib, tmp_path):
        outs = {}
        for mode in ("std", "var"):
            out = tmp_path / mode
            rc = cli_main(["--seed", "7", "--out", str(out),
                           "--sigma-mode", mode,
                           "sample", "--library", str(demo_lib), "--count", "1"])
            assert rc == 0
            scene = json.loads((out / "scene_0000/scene.json").read_text())
            outs[mode] = scene["params"]["alpha"]
        assert outs["std"] != outs["var"]

    def test_threads_env_fallback(self, demo_lib, tmp_path, monkeypatch):
        monkeypatch.setenv("FACEGEN_THREADS", "4")
        out = tmp_path / "env"
        rc = cli_main(["--seed", "7", "--out", str(out),
                       "sample", "--library", str(demo_lib), "--count", "2"])
        assert rc == 0
        ref = tmp_path / "ref"
        monkeypatch.delenv("FACEGEN_THREADS")
        rc = cli_main(["--seed", "7", "--out", str(ref),
                       "sample", "--library", str(demo_lib), "--count", "2"])
        assert rc == 0
        assert tree_hash(out) == tree_hash(ref)

    @pytest.mark.parametrize("threads,count,workers", [
        ("5000", "2", 2), ("5000", "5", 3), ("2", "5", 2), ("1", "5", 1)])
    def test_workers_are_bounded_by_threads_count_and_cpus(
            self, demo_lib, tmp_path, monkeypatch, threads, count, workers):
        # the worker count handed to the seam, whose tasks run here in turn:
        # no test starts thousands of threads
        seen = []

        def inline(task, n):
            seen.append(n)
            for k in range(n):
                task(k)

        monkeypatch.setattr(cli, "run_workers", inline)
        monkeypatch.setattr(cli, "cpu_count", lambda: 3)
        out = tmp_path / "out"
        assert cli_main(["--seed", "7", "--out", str(out), "--threads", threads,
                         "sample", "--library", str(demo_lib), "--count", count]) == 0
        assert seen == [workers]
        assert sorted(p.name for p in out.iterdir()) == [
            f"scene_{i:04d}" for i in range(int(count))]

    def test_fresh_sample_run_loads_neither_scipy_linalg_nor_ndimage(self, demo_lib, tmp_path):
        argv = ["--seed", "7", "--out", str(tmp_path / "out"),
                "sample", "--library", str(demo_lib), "--count", "1"]
        script = ("import sys\nfrom facegen.cli import cli_main\n"
                  f"assert cli_main({argv!r}) == 0\n"
                  "print([m for m in ('scipy.linalg', 'scipy.ndimage') if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "scene_0000" / "scene.json").is_file()


class TestExport:
    def test_export_single_scene(self, demo_lib, tmp_path):
        out = tmp_path / "s"
        rc = cli_main(["--seed", "5", "--out", str(out),
                       "sample", "--library", str(demo_lib), "--count", "1"])
        assert rc == 0
        scene_json = out / "scene_0000/scene.json"
        out2 = tmp_path / "re-export"
        rc = cli_main(["--out", str(out2), "export", "--library", str(demo_lib),
                       "--scene", str(scene_json)])
        assert rc == 0
        a = json.loads(scene_json.read_text())
        b = json.loads((out2 / "scene.json").read_text())
        assert a == b

    @pytest.mark.parametrize("seed", ["0", "7", "123"])
    def test_reexported_scenes_are_byte_identical(self, demo_lib, tmp_path, seed):
        # every file of every sampled scene, exported again from its scene.json
        out = tmp_path / "s"
        assert cli_main(["--seed", seed, "--out", str(out), "sample",
                         "--library", str(demo_lib), "--count", "3"]) == 0
        scenes = sorted(out.iterdir())
        assert [p.name for p in scenes] == ["scene_0000", "scene_0001", "scene_0002"]
        for scene in scenes:
            again = tmp_path / "re-export" / scene.name
            assert cli_main(["--out", str(again), "export", "--library", str(demo_lib),
                             "--scene", str(scene / "scene.json")]) == 0
            files = sorted(p.relative_to(scene) for p in scene.rglob("*") if p.is_file())
            assert files == sorted(p.relative_to(again) for p in again.rglob("*")
                                   if p.is_file())
            assert len(files) > 1
            for name in files:
                assert (again / name).read_bytes() == (scene / name).read_bytes(), name


class TestHairCommands:
    def test_encode_decode_with_report(self, tmp_path, rng, capsys):
        from conftest import clustered_groom
        from facegen.hair import save_groom
        groom = clustered_groom(rng, n_strands=60, R=8)
        gpath = tmp_path / "g.json"
        save_groom(gpath, groom)
        cpath = tmp_path / "code.json"
        rc = cli_main(["--out", str(cpath), "encode-hair", "--groom", str(gpath),
                       "--uv-res", "8", "--vol-res", "8"])
        assert rc == 0
        dpath = tmp_path / "decoded.json"
        rc = cli_main(["--seed", "2", "--out", str(dpath), "decode-hair",
                       "--code", str(cpath), "--count", "60",
                       "--reference", str(gpath)])
        assert rc == 0
        report = json.loads((tmp_path / "decoded_report.json").read_text())
        assert report["n_strands"] == 60
        assert report["n_early_terminated"] == (
            report["n_zero_flow_stops"] + report["n_wall_stops"] + report["n_stubs"])
        assert (f"({report['n_early_terminated']} early-terminated: "
                f"{report['n_zero_flow_stops']} zero-flow, {report['n_wall_stops']} wall, "
                f"{report['n_stubs']} stubs)") in capsys.readouterr().err
        rt = report["roundtrip"]
        assert rt["density_rms_delta"] < 0.2
        assert rt["endpoint_error_mean"] < 3 * rt["cell_diagonal"]


    def test_hair_code_with_list_metadata_is_data_error(self, tmp_path, capsys):
        cpath = tmp_path / "code.json"
        save_container(cpath, {"bbox": np.zeros((2, 3))}, metadata=[1])
        rc = cli_main(["--out", str(tmp_path / "d.json"), "decode-hair",
                       "--code", str(cpath), "--count", "4"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "code.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n_points,n_refs", [(1, 5), (129, 40), (300, 257)])
    def test_nearest_distances_match_all_pairs(self, tmp_path, rng, n_points, n_refs):
        """Each of `n_points` decoded strands' endpoint error in the
        `decode-hair --reference` report is the distance from its tip to the
        nearest of `n_refs` reference tips, bit for bit."""
        from conftest import clustered_groom
        from facegen.hair import save_groom
        gpath, rpath = tmp_path / "g.json", tmp_path / "r.json"
        cpath, dpath = tmp_path / "c.json", tmp_path / "d.json"
        save_groom(gpath, clustered_groom(rng, n_strands=150, R=8))
        ref = clustered_groom(rng, n_strands=n_refs, R=8)
        save_groom(rpath, ref)
        assert cli_main(["--out", str(cpath), "encode-hair", "--groom", str(gpath),
                         "--uv-res", "8", "--vol-res", "8"]) == 0
        assert cli_main(["--out", str(dpath), "decode-hair", "--code", str(cpath),
                         "--count", str(n_points), "--reference", str(rpath)]) == 0
        decoded = load_groom(dpath)
        assert decoded.n_strands == n_points and ref.n_strands == n_refs
        tips = decoded.points[decoded.offsets[1:] - 1]
        ref_tips = ref.points[ref.offsets[1:] - 1]
        all_pairs = np.linalg.norm(tips[:, None, :] - ref_tips[None], axis=2).min(axis=1)
        report = json.loads((tmp_path / "d_report.json").read_text())
        assert np.array_equal(report["roundtrip"]["endpoint_error_per_strand"], all_pairs)


class TestPcaGmmPoremap:
    def test_fit_pca_on_container(self, tmp_path, rng):
        data = rng.standard_normal((30, 12))
        save_container(tmp_path / "d.json", {"data": data})
        out = tmp_path / "pca.json"
        rc = cli_main(["--out", str(out), "fit-pca", "--data",
                       str(tmp_path / "d.json"), "--components", "5"])
        assert rc == 0
        from facegen.pca import load_pca
        model = load_pca(out)
        assert model.n_components == 5

    def test_fit_pca_on_hdr_dir(self, tmp_path):
        from facegen.demo import make_demo_hdr
        from facegen.hdr import write_hdr
        hdr_dir = tmp_path / "hdrs"
        hdr_dir.mkdir()
        for i in range(3):
            write_hdr(hdr_dir / f"e{i}.hdr", make_demo_hdr("sun", seed=i))
        out = tmp_path / "pca.json"
        rc = cli_main(["--seed", "4", "--out", str(out), "fit-pca",
                       "--hdr-dir", str(hdr_dir), "--components", "5",
                       "--augment", "4"])
        assert rc == 0
        from facegen.pca import load_pca
        model = load_pca(out)
        assert model.dim == 64 * 128 * 3
        assert model.preprocessing == "log1p+resize64x128"

    def test_fit_gmm(self, tmp_path, rng):
        data = np.concatenate([rng.standard_normal((40, 3)) + 4,
                               rng.standard_normal((40, 3)) - 4])
        save_container(tmp_path / "d.json", {"alphas": data})
        out = tmp_path / "gmm.json"
        rc = cli_main(["--seed", "0", "--out", str(out), "fit-gmm",
                       "--data", str(tmp_path / "d.json"), "--components", "2"])
        assert rc == 0
        from facegen.library import load_gmm
        gmm = load_gmm(out)
        assert gmm.n_components == 2

    @pytest.mark.parametrize("command", ["fit-gmm", "fit-pca"])
    def test_non_finite_data_names_container(self, tmp_path, rng, capsys, command):
        data = rng.standard_normal((30, 4))
        data[11, 2] = np.nan
        save_container(tmp_path / "nan_data.json", {"data": data})
        rc = cli_main(["--out", str(tmp_path / "model.json"), command, "--data",
                       str(tmp_path / "nan_data.json"), "--components", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "nan_data.json" in err and "row 11" in err
        assert "Traceback" not in err
        assert not (tmp_path / "model.json").exists()

    def test_pore_map_cli(self, tmp_path):
        from facegen.poremap import write_pgm16
        from test_poremap import planted_blob_texture
        tex = planted_blob_texture([(20, 20)], 2.0, shape=(40, 40))
        write_pgm16(tmp_path / "tex.pgm", tex)
        out = tmp_path / "pore.pgm"
        rc = cli_main(["--out", str(out), "pore-map", "--texture",
                       str(tmp_path / "tex.pgm"), "--sigma", "2.0"])
        assert rc == 0
        img = read_pgm(out)
        assert img.shape == (40, 40)
        assert (out.parent / "pore.pgm.json").exists()


class TestFitCommand:
    def test_fit_writes_artifacts(self, tmp_path, rng):
        grid = quad_grid(3, 4, spacing=0.05)
        template = QuadMesh(grid.vertices + 0.002 * rng.standard_normal(grid.vertices.shape),
                            grid.quads)
        fields = smooth_vertex_fields(template, 2, 0.01, seed=3)
        scans_dir = tmp_path / "scans"
        scans_dir.mkdir()
        for i in range(6):
            a = rng.standard_normal(2)
            v = template.vertices + np.einsum("q,qvk->vk", a, fields)
            save_obj(scans_dir / f"scan_{i:02d}.obj", QuadMesh(v, grid.quads))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schedule": {"iterations": 120, "freeze_pose": True,
                         "freeze_beta": True},
        }))
        out = tmp_path / "fitted"
        rc = cli_main(["--config", str(cfg), "--seed", "11", "--out", str(out), "fit",
                       "--scans", str(scans_dir), "--basis-size", "2"])
        assert rc == 0
        assert (out / "model.json").exists()
        assert (out / "report.json").exists()
        assert (out / "trajectory.csv").exists()
        from facegen.modelio import load_model
        model = load_model(out / "model.json")
        assert model.n_identity == 2
        report = json.loads((out / "report.json").read_text())
        assert report["trajectory"][-1] < report["trajectory"][0]
        # the final loss is that of the saved model, which its breakdown describes
        assert report["final_loss"] == pytest.approx(sum(report["breakdown"].values()),
                                                     rel=1e-12)

    def test_unknown_config_key_is_data_error(self, tmp_path, rng, capsys):
        grid = quad_grid(2, 2)
        scans_dir = tmp_path / "scans"
        scans_dir.mkdir()
        for i in range(2):
            save_obj(scans_dir / f"s{i}.obj", grid)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weights": {"w_bogus": 1.0}}))
        rc = cli_main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                       "fit", "--scans", str(scans_dir), "--basis-size", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(cfg) in err
        assert "Traceback" not in err

    def test_config_schedule_keys_are_the_schedule_fields(self):
        fields = {f.name for f in dataclasses.fields(FitSchedule)}
        assert _FIT_CONFIG_SPEC["schedule"].keys() == fields

    def test_config_may_set_every_schedule_field(self):
        # each field away from its default, so that each one shows it got through
        moved = {bool: lambda v: not v, int: lambda v: v + 1, float: lambda v: v / 2}
        values = {f.name: "random" if f.name == "init" else moved[type(f.default)](f.default)
                  for f in dataclasses.fields(FitSchedule)}
        cfg = decode_json(json.loads(json.dumps({"schedule": values})), _FIT_CONFIG_SPEC)
        schedule = FitSchedule(**cfg["schedule"])
        assert schedule == FitSchedule(**values)
        assert all(getattr(schedule, f.name) != f.default for f in dataclasses.fields(FitSchedule))

    def test_readme_config_example_builds_weights_and_schedule(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### `fit` config (JSON)", 1)[1]
        example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        cfg = decode_json(json.loads(example), _FIT_CONFIG_SPEC)
        assert cfg.keys() == {"weights", "schedule"}
        assert LossWeights(**cfg["weights"]) == LossWeights()
        schedule = FitSchedule(**cfg["schedule"])
        assert schedule.frozen == learning.FREEZABLE

    def test_diverged_fit_exits_numeric(self, tmp_path, rng):
        grid = quad_grid(3, 4, spacing=0.05)
        scans_dir = tmp_path / "scans"
        scans_dir.mkdir()
        for i in range(3):
            v = grid.vertices + 0.01 * rng.standard_normal(grid.vertices.shape)
            save_obj(scans_dir / f"s{i}.obj", QuadMesh(v, grid.quads))
        # with one iteration only the loss after the last step, the final
        # one, overflows
        for iterations in (50, 1):
            cfg = tmp_path / f"cfg{iterations}.json"
            cfg.write_text(json.dumps({"schedule": {"iterations": iterations,
                                                    "lr": 1e200}}))
            out = tmp_path / f"o{iterations}"
            with np.errstate(over="ignore", invalid="ignore"):
                rc = cli_main(["--config", str(cfg), "--out", str(out),
                               "fit", "--scans", str(scans_dir), "--basis-size", "2"])
            assert rc == 3, iterations
            assert not (out / "report.json").exists()

    def test_json_logs(self, demo_lib, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli_main(["--json-logs", "--seed", "1", "--out", str(out),
                       "sample", "--library", str(demo_lib), "--count", "1"])
        assert rc == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert err
        record = json.loads(err[-1])
        assert record["level"] == "info"


# ---------------------------------------------------------------------------
# malformed input: exit 2, the offending input named, no traceback
# ---------------------------------------------------------------------------

def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _sample(lib: Path, config: str = "library.json") -> list[str]:
    return ["--out", str(lib.parent / "out"), "sample", "--library", str(lib / config)]


def _config_case(edit):
    """`sample` on the demo library after `edit` of its library.json."""
    def case(lib, monkeypatch):
        _edit_json(lib / "library.json", edit)
        return _sample(lib), lib / "library.json"
    return case


def _section_key(section, key, value):
    return _config_case(lambda c: c.setdefault(section, {}).update({key: value}))


def _without_tensor(container, tensor, argv=_sample):
    """`argv(lib)` after the tensor entry `tensor` is cut from `container`."""
    def case(lib, monkeypatch):
        def cut(manifest):
            manifest["tensors"] = [t for t in manifest["tensors"] if t["name"] != tensor]
        _edit_json(lib / container, cut)
        return argv(lib), lib / container
    return case


def _duplicate_tensor(container):
    """`sample` after `container` lists its first tensor entry a second time."""
    def case(lib, monkeypatch):
        _edit_json(lib / container, lambda m: m["tensors"].append(dict(m["tensors"][0])))
        return _sample(lib), lib / container
    return case


def _decode_hair(lib: Path) -> list[str]:
    return ["--out", str(lib.parent / "d.json"), "decode-hair",
            "--code", str(lib / "code.json"), "--count", "4"]


def _hair_code_without(tensor: str):
    """`decode-hair` on a code of a demo groom with its tensor entry `tensor` cut."""
    def case(lib, monkeypatch):
        save_hair_code(lib / "code.json",
                       encode_groom(load_groom(lib / "groom_scalp_0.json"), R=8, G=8))
        return _without_tensor("code.json", tensor, _decode_hair)(lib, monkeypatch)
    return case


def _hair_code_with(**tensors):
    """`decode-hair` on a code of a demo groom whose `tensors` are replaced."""
    def case(lib, monkeypatch):
        code = encode_groom(load_groom(lib / "groom_scalp_0.json"), R=8, G=8)
        save_container(lib / "code.json", {
            "density_map": code.density_map, "length_map": code.length_map,
            "flow_volume": code.flow_volume, "bbox": code.bbox,
            "root_points": code.root_points, **tensors}, metadata={"kind": "hair_code"})
        return _decode_hair(lib), lib / "code.json"
    return case


def _hair_code_nan(name: str):
    """`decode-hair` on a code of a demo groom with a NaN in its tensor `name`."""
    def case(lib, monkeypatch):
        code = encode_groom(load_groom(lib / "groom_scalp_0.json"), R=8, G=8)
        tensor = np.array(getattr(code, name))
        tensor.flat[-1] = np.nan
        return _hair_code_with(**{name: tensor})(lib, monkeypatch)
    return case


def _groom_nan(lib, monkeypatch):
    """`encode-hair` on a demo groom file with a NaN point."""
    manifest = json.loads((lib / "groom_scalp_0.json").read_text())
    tensors, _ = load_container(lib / "groom_scalp_0.json", "groom")
    tensors["points"][7, 1] = np.nan
    save_container(lib / "nan_groom.json", tensors, metadata=manifest["metadata"])
    return (["--out", str(lib.parent / "c.json"), "encode-hair",
             "--groom", str(lib / "nan_groom.json")], lib / "nan_groom.json")


def _scans_of_two_sizes(lib, monkeypatch):
    scans = lib.parent / "scans"
    scans.mkdir()
    grid = quad_grid(2, 2)
    save_obj(scans / "s0.obj", grid)
    save_obj(scans / "s1.obj", QuadMesh(np.vstack([grid.vertices, [[9.0, 9.0, 9.0]]]),
                                        grid.quads))
    return ["--out", str(lib.parent / "fitted"), "fit", "--scans", str(scans),
            "--basis-size", "1"], scans


def _pgm(body: bytes):
    """`pore-map` on a PGM file holding `body`."""
    def case(lib, monkeypatch):
        path = lib.parent / "tex.pgm"
        path.write_bytes(body)
        return ["--out", str(lib.parent / "pore.pgm"), "pore-map",
                "--texture", str(path), "--sigma", "1.0"], path
    return case


def _pore_map_sigma(sigma: str):
    """`pore-map` of a valid PGM at `sigma`."""
    def case(lib, monkeypatch):
        argv, _ = _pgm(b"P5\n2 2\n255\n" + bytes(4))(lib, monkeypatch)
        return argv[:-1] + [sigma], "sigma"
    return case


def _decode_hair_step(step: str):
    """`decode-hair` of a valid demo hair code at growth step `step`."""
    def case(lib, monkeypatch):
        argv, _ = _hair_code_with()(lib, monkeypatch)
        return argv + ["--step", step], "step"
    return case


def _fit(config=None, basis_size="2"):
    """`fit` on two flat grids, with `config` as --config when given."""
    def case(lib, monkeypatch):
        scans = lib.parent / "scans"
        scans.mkdir()
        for i in range(2):
            save_obj(scans / f"s{i}.obj", quad_grid(2, 2))
        argv = ["--out", str(lib.parent / "fitted"), "fit", "--scans", str(scans),
                "--basis-size", basis_size]
        if config is None:
            return argv, f"m={basis_size}"
        path = lib.parent / "fit.json"
        path.write_text(json.dumps(config))
        return ["--config", str(path)] + argv, path
    return case


def _export(edit):
    """`export` of a sampled scene after `edit` of its scene.json."""
    def case(lib, monkeypatch):
        assert cli_main(["--out", str(lib.parent / "s"), "sample", "--library",
                         str(lib / "library.json")]) == 0
        scene = lib.parent / "s" / "scene_0000" / "scene.json"
        _edit_json(scene, edit)
        return ["--out", str(lib.parent / "e"), "export", "--library",
                str(lib / "library.json"), "--scene", str(scene)], scene
    return case


def _threads_env(value):
    """`sample` with FACEGEN_THREADS set to `value`."""
    def case(lib, monkeypatch):
        monkeypatch.setenv("FACEGEN_THREADS", value)
        return _sample(lib), "FACEGEN_THREADS"
    return case


def _not_utf8(lib, monkeypatch):
    (lib / "gmm.json").write_bytes(b"\xff\xfe" + (lib / "gmm.json").read_bytes())
    return _sample(lib), lib / "gmm.json"


def _not_object(lib, monkeypatch):
    (lib / "library.json").write_text("[1, 2]\n")
    return _sample(lib), lib / "library.json"


def _hair_color_entry(lib, monkeypatch):
    _edit_json(lib / "haircolor.json", lambda t: t["entries"][0].pop("melanin"))
    return _sample(lib), lib / "haircolor.json"


def _empty_expressions(lib, monkeypatch):
    """`sample` on the demo library with a (0, 51) expression library."""
    save_expression_library(lib / "expressions.json", ExpressionLibrary(np.zeros((0, 51))))
    return _sample(lib), lib / "expressions.json"


def _sampling(**settings):
    """`sample` on the demo library with its `sampling` section set to
    `settings`: the error names the config and `$.sampling.sigma`."""
    def case(lib, monkeypatch):
        argv, config = _config_case(lambda c: c.update(sampling=settings))(lib, monkeypatch)
        return argv, f"{config}: $.sampling.sigma"
    return case


def _hdr_cut_short(lib, monkeypatch):
    """`sample` on the demo library with its sky light cut to half its bytes."""
    data = (lib / "env_sky.hdr").read_bytes()
    (lib / "env_sky.hdr").write_bytes(data[:len(data) // 2])
    return _sample(lib), lib / "env_sky.hdr"


def _manifest_as_library(lib, monkeypatch):
    return _sample(lib, "model.json"), lib / "model.json"


def _subdivide_levels(make_mesh, levels, offending):
    """`subdivide` of the mesh `make_mesh()` at `levels` levels."""
    def case(lib, monkeypatch):
        save_obj(lib.parent / "mesh.obj", make_mesh())
        return ["--out", str(lib.parent / "sub.obj"), "subdivide",
                "--mesh", str(lib.parent / "mesh.obj"), "--levels", levels], offending
    return case


MALFORMED = {
    "config_not_object": _not_object,
    "config_without_model": _config_case(lambda c: c.pop("model")),
    "config_without_gmm": _config_case(lambda c: c.pop("gmm")),
    "config_without_expressions": _config_case(lambda c: c.pop("expression_library")),
    "groom_entry_not_string": _config_case(lambda c: c["grooms"].update(scalp=[3])),
    "camera_typo": _config_case(lambda c: c.update(camera={"fovdeg": 5})),
    **{f"unknown_{s}_key": _section_key(s, "bogus", 1) for s in
       ("pose", "eyelid", "camera", "render", "eye_geometry", "sampling")},
    "fov_not_number": _section_key("camera", "fov_deg", "wide"),
    "fov_beyond_float": _section_key("camera", "fov_deg", 10 ** 400),
    "fov_below_1": _section_key("camera", "fov_deg", 0.5),
    "fov_above_179": _section_key("camera", "fov_deg", 179.5),
    "framing_scale_zero": _section_key("camera", "framing_scale", 0.0),
    "framing_scale_negative": _section_key("camera", "framing_scale", -1.4),
    "resolution_zero": _section_key("render", "resolution", 0),
    "spp_zero": _section_key("render", "spp", 0),
    "joint_std_bad_shape": _section_key("pose", "joint_std", [1, 2]),
    "levels_not_integer": _config_case(lambda c: c.update(subdivision_levels="x")),
    "eyelid_id_out_of_range": _section_key("eyelid", "raise_ids", [0, 99]),
    "hair_color_entry_lacks_field": _hair_color_entry,
    "manifest_as_library": _manifest_as_library,
    "library_hdr_cut_short": _hdr_cut_short,
    "model_without_skinning_weights": _without_tensor("model.json", "skinning_weights"),
    "gmm_without_weights": _without_tensor("gmm.json", "weights"),
    "model_tensor_listed_twice": _duplicate_tensor("model.json"),
    "hair_code_without_flow": _hair_code_without("flow_volume"),
    "hair_code_without_root_points": _hair_code_without("root_points"),
    "hair_code_bbox_of_5": _hair_code_with(bbox=np.zeros(5)),
    "hair_code_density_0d": _hair_code_with(density_map=np.array(1.0)),
    "hair_code_flow_of_one_cell": _hair_code_with(
        flow_volume=np.array([[[[0.0, 0.0, 1.0]]]])),
    **{f"hair_code_nan_{name}": _hair_code_nan(name) for name in
       ("density_map", "length_map", "flow_volume", "bbox", "root_points")},
    "groom_nan_point": _groom_nan,
    "scans_of_two_vertex_counts": _scans_of_two_sizes,
    "expressions_without_rows": _empty_expressions,
    **{f"sampling_sigma_negative_{mode}": _sampling(sigma=-0.5, sigma_mode=mode)
       for mode in ("std", "var")},
    "expressions_of_wrong_kind": _config_case(
        lambda c: c.update(expression_library="gmm.json")),
    "manifest_not_utf8": _not_utf8,
    "negative_subdivision_levels": _subdivide_levels(cube_mesh, "-1", "got -1"),
    "subdivision_above_quad_cap": _subdivide_levels(lambda: desk_head().template, "9",
                                                    "120 * 4^9 quads"),
    "library_subdivision_above_quad_cap": _config_case(
        lambda c: c.update(subdivision_levels=9)),
    "basis_size_zero": _fit(basis_size="0"),
    "pgm_width_not_integer": _pgm(b"P5\nx 2\n255\n" + bytes(4)),
    "pgm_maxval_not_integer": _pgm(b"P5\n2 2\n2.5\n" + bytes(4)),
    "pgm_body_short": _pgm(b"P5\n2 2\n255\n" + bytes(3)),
    "pgm_ascii_body_short": _pgm(b"P2\n2 2\n255\n1 2 3\n"),
    "pgm_zero_size": _pgm(b"P5\n0 0\n255\n"),
    "pgm_zero_width": _pgm(b"P2\n0 2\n255\n"),
    "pgm_maxval_above_16_bits": _pgm(b"P5\n1 1\n70000\n" + (60000).to_bytes(2, "big")),
    "pgm_ascii_maxval_above_16_bits": _pgm(b"P2\n1 1\n70000\n5\n"),
    "pgm_8_bit_sample_above_maxval": _pgm(b"P5\n2 1\n100\n" + bytes([50, 200])),
    "pgm_16_bit_sample_above_maxval": _pgm(b"P5\n1 1\n1000\n" + (60000).to_bytes(2, "big")),
    "pgm_ascii_sample_above_maxval": _pgm(b"P2\n1 1\n10\n50\n"),
    "pore_map_sigma_nan": _pore_map_sigma("nan"),
    "pore_map_sigma_inf": _pore_map_sigma("inf"),
    "decode_hair_step_nan": _decode_hair_step("nan"),
    "threads_env_not_integer": _threads_env("two"),
    "threads_env_zero": _threads_env("0"),
    "threads_env_negative": _threads_env("-3"),
    "fit_config_unknown_schedule_key": _fit({"schedule": {"iters": 3}}),
    "fit_config_unknown_init": _fit({"schedule": {"init": "zeros"}}),
    "fit_config_zero_iterations": _fit({"schedule": {"iterations": 0}}),
    "fit_config_seed": _fit({"seed": 11}),
    **{f"fit_config_{key}_{value}": _fit({"schedule": {key: value}}) for key, value in [
        ("early_stop_window", -3), ("early_stop_window", 0), ("lr", -1), ("lr", 0),
        ("beta1", -0.5), ("beta1", 1.0), ("beta2", 1.0), ("eps", 0),
        ("early_stop_rel", -1), ("init_sigma", 0)]},
    "scene_schema_failure": _export(lambda d: d.pop("hdr_id")),
    "scene_unknown_groom": _export(lambda d: d["grooms"]["scalp"].update(id="nope")),
    "scene_unknown_texture": _export(lambda d: d.update(texture_id="nope")),
    "scene_unknown_hdr": _export(lambda d: d.update(hdr_id="nope")),
    "scene_unknown_eye_color": _export(lambda d: d.update(eye_color_id="nope")),
    "scene_nonfinite_camera": _export(lambda d: d["camera"].update(fov_deg=math.nan)),
    "scene_unknown_key": _export(lambda d: d.update(bogus=1)),
}


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_2_naming_it(demo_lib, tmp_path, capsys, monkeypatch, case):
    lib = tmp_path / "lib"
    shutil.copytree(demo_lib.parent, lib)
    argv, offending = case(lib, monkeypatch)
    capsys.readouterr()
    rc = cli_main(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert str(offending) in err.splitlines()[-1]
    assert "Traceback" not in err


def _json_path(path) -> str:
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


_NUMERIC_FIELDS = [("params", "alpha", 0), ("params", "beta", 1),
                   ("params", "joint_angles", 1, 2), ("params", "global_rot", 0),
                   ("params", "global_trans", 2), ("hair_color", "melanin"), ("hdr_yaw",),
                   ("camera", "position", 1), ("camera", "look_at", 0),
                   ("camera", "fov_deg"), ("render", "resolution"), ("render", "spp"),
                   ("seed",)]
_OBJECTS = [(), ("params",), ("grooms",), ("grooms", "scalp"), ("hair_color",),
            ("camera",), ("render",)]
_FIXED_ARRAYS = [("params", "joint_angles"), ("params", "joint_angles", 3),
                 ("params", "global_rot"), ("params", "global_trans"),
                 ("camera", "position"), ("camera", "look_at")]
# name: (path, value, what the error must name); a value of None drops the last
# item of the array at path
SCENE_FAULTS = {
    **{f"nonfinite_{_json_path(p)}_{v}": (p, v, _json_path(p))
       for p in _NUMERIC_FIELDS for v in (math.nan, -math.inf)},
    **{f"unknown_key_in_{_json_path(p)}": (p + ("bogus",), 1, _json_path(p))
       for p in _OBJECTS},
    **{f"short_{_json_path(p)}": (p, None, _json_path(p)) for p in _FIXED_ARRAYS},
    "beta_out_of_range": (("params", "beta", 1), 1.5, "$.params.beta[1]"),
    "fov_out_of_range": (("camera", "fov_deg"), 0.5, "$.camera.fov_deg"),
    "hdr_yaw_out_of_range": (("hdr_yaw",), -0.5, "$.hdr_yaw"),
    "resolution_out_of_range": (("render", "resolution"), 0, "$.render.resolution"),
    "spp_out_of_range": (("render", "spp"), 0, "$.render.spp"),
    **{f"unknown_{key}": ((key,), "nope", f"{key} 'nope'")
       for key in ("texture_id", "hdr_id", "eye_color_id")},
}


@pytest.fixture(scope="module")
def sampled_scene(demo_lib, tmp_path_factory):
    out = tmp_path_factory.mktemp("sampled")
    assert cli_main(["--out", str(out), "sample", "--library", str(demo_lib)]) == 0
    return json.loads((out / "scene_0000" / "scene.json").read_text())


@pytest.mark.parametrize("path, value, named", SCENE_FAULTS.values(), ids=SCENE_FAULTS.keys())
def test_export_of_bad_scene_names_file_and_field(demo_lib, sampled_scene, tmp_path,
                                                  capsys, path, value, named):
    doc = json.loads(json.dumps(sampled_scene))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is None:
        parent[path[-1]].pop()
    else:
        parent[path[-1]] = value
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = cli_main(["--out", str(tmp_path / "e"), "export", "--library", str(demo_lib),
                   "--scene", str(scene)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    assert str(scene) in err.splitlines()[-1]
    assert named in err.splitlines()[-1]


def test_eyelid_id_out_of_range_names_config_and_key(demo_lib, tmp_path):
    lib = tmp_path / "lib"
    shutil.copytree(demo_lib.parent, lib)
    _edit_json(lib / "library.json",
               lambda c: c.setdefault("eyelid", {}).update(lower_ids=[-1]))
    with pytest.raises(DataError, match=r"library\.json: \$\.eyelid\.lower_ids holds \[-1\]"):
        AssetLibrary.load(lib / "library.json")


@pytest.mark.parametrize("key, named", [("joint_std", r"joint_std\[0\]\[0\]"),
                                        ("global_rot_std", r"global_rot_std\[0\]")])
def test_hopeless_pose_std_names_config_and_key(demo_lib, tmp_path, key, named):
    lib = tmp_path / "lib"
    shutil.copytree(demo_lib.parent, lib)
    _edit_json(lib / "library.json", lambda c: c.setdefault("pose", {}).update({key: 1e7}))
    with pytest.raises(DataError, match=rf"library\.json: \$\.pose\.{named} 1e\+07 .* below 1e-06"):
        AssetLibrary.load(lib / "library.json")


@pytest.mark.parametrize("section, key, value", [
    ("camera", "fov_deg", 0.5), ("camera", "fov_deg", 180.0),
    ("camera", "framing_scale", 0.0), ("camera", "framing_scale", -1.4),
    ("render", "resolution", 0), ("render", "spp", -3)])
def test_config_range_names_config_and_key(demo_lib, tmp_path, section, key, value):
    lib = tmp_path / "lib"
    shutil.copytree(demo_lib.parent, lib)
    _edit_json(lib / "library.json", lambda c: c.setdefault(section, {}).update({key: value}))
    with pytest.raises(DataError, match=rf"library\.json: \$\.{section}\.{key} {value} "):
        AssetLibrary.load(lib / "library.json")


def _first_entry(value):
    def edit(t):
        t.flat[0] = value
    return edit


def _shifted(offset):
    def edit(t):
        t += offset
    return edit


# name: (container, tensor, edit of its array in place, what the error must name)
BAD_TENSORS = {
    **{f"nan_{c}_{t}": (c, t, _first_entry(math.nan), repr(t)) for c, t in [
        ("model.json", "skeleton_limits"), ("model.json", "skinning_weights"),
        ("model.json", "identity_basis"), ("model.json", "skeleton_t0"),
        ("model.json", "skeleton_a"), ("gmm.json", "weights"), ("gmm.json", "means"),
        ("gmm.json", "covariances"), ("expressions.json", "betas")]},
    "fractional_quads": ("model.json", "template_quads", _shifted(0.5), "'template_quads'"),
    "fractional_eyelid_ids": ("model.json", "eyelid_left", _shifted(0.7), "'eyelid_left'"),
    "eyelid_id_past_vertices": ("model.json", "eyelid_right", _first_entry(1e6),
                                "eyelid_right vertex ids"),
    "beta_above_1": ("expressions.json", "betas", _first_entry(1.5), "[0, 1]"),
}


@pytest.mark.parametrize("container, tensor, edit, named", BAD_TENSORS.values(),
                         ids=BAD_TENSORS.keys())
def test_bad_asset_tensor_fails_at_load_naming_it(demo_lib, tmp_path, capsys,
                                                  container, tensor, edit, named):
    lib = tmp_path / "lib"
    shutil.copytree(demo_lib.parent, lib)
    tensors, meta = load_container(lib / container)
    edit(tensors[tensor])
    save_container(lib / container, tensors, metadata=meta)
    # checked before `sample` runs: a pose drawn within NaN limits is never accepted
    with pytest.raises(DataError, match=re.escape(named)):
        AssetLibrary.load(lib / "library.json")
    capsys.readouterr()
    rc = cli_main(["--out", str(tmp_path / "out"), "sample", "--library",
                   str(lib / "library.json"), "--count", "3"])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    assert str(lib / container) in err.splitlines()[-1]
    assert named in err.splitlines()[-1]


def test_builtin_exception_from_a_bug_propagates(monkeypatch, tmp_path):
    def buggy(args):
        raise KeyError("a bug, not bad input")
    monkeypatch.setitem(cli._COMMANDS, "demo-assets", buggy)
    with pytest.raises(KeyError, match="a bug"):
        cli_main(["--out", str(tmp_path), "demo-assets"])
