"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured figure, every tolerance pinned in the assertion."""

import dataclasses
import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import subspace_angles
from scipy.ndimage import maximum_filter

from facegen.cli import cli_main
from facegen.container import load_container, save_container
from facegen.gmm import GaussianMixture, fit_gmm, sample_identity
from facegen.hair import code_to_vector, decode_groom, encode_groom, load_groom, save_groom
from facegen.learning import FitSchedule, LossWeights, ScanSet, fit, project_identity
from facegen.mesh import QuadMesh, build_connectivity
from facegen.model import ModelParams, Pose, Skeleton, BlendshapeModel, euler_xyz, evaluate
from facegen.objio import dump_obj, parse_obj
from facegen.pca import fit_pca, pca_project, pca_reconstruct
from facegen.poremap import pore_map
from facegen.procedural import cube_mesh, desk_head, quad_grid, smooth_vertex_fields
from facegen.scene import SceneDescription
from facegen.subdivision import subdivide_catmull_clark

from conftest import (clustered_groom, fd_gradient_check, pose_with, random_closed_mesh,
                      tiny_problem)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        base, scans, theta, phi = tiny_problem(rng, V_grid=(3, 4), n_scans=2, m=2)
        worst = max(worst, fd_gradient_check(base, scans, theta, phi))
    elapsed = time.perf_counter() - t0
    with criterion(1, f"gradient suite: worst rel err {worst:.2e} (<1e-5), "
                      f"{elapsed:.1f}s (<30s)"):
        assert worst < 1e-5
        assert elapsed < 30.0


def test_criterion_2_synthetic_model_recovery():
    rng = np.random.default_rng(42)
    V = 50
    grid = quad_grid(4, 9, spacing=0.02)   # 5 x 10 vertices
    template = QuadMesh(grid.vertices + 0.002 * rng.standard_normal((V, 3)),
                        grid.quads)
    m_true = 3
    phi_true = smooth_vertex_fields(template, m_true, 0.006, seed=7,
                                    smoothing_steps=12)
    alphas = 2.5 * rng.standard_normal((30, m_true))
    scans_v = template.vertices + np.einsum("nq,qvk->nvk", alphas, phi_true)
    scans = ScanSet(scans_v, grid.quads, tuple(f"s{i:03d}" for i in range(30)))

    t0 = time.perf_counter()
    sched = FitSchedule(iterations=2000, lr=0.01, freeze_pose=True,
                        freeze_beta=True)
    model, report = fit(scans, m=3, schedule=sched, seed=0)
    elapsed = time.perf_counter() - t0

    lo, hi = template.bounding_box()
    diag = float(np.linalg.norm(hi - lo))
    ho_alphas = 2.5 * rng.standard_normal((5, m_true))
    held_out = template.vertices + np.einsum("nq,qvk->nvk", ho_alphas, phi_true)
    rms = []
    for k in range(5):
        a = project_identity(model, held_out[k])
        rec = model.template.vertices + np.einsum("q,qvk->vk", a,
                                                  model.identity_basis)
        rms.append(float(np.sqrt(np.mean(np.sum((rec - held_out[k]) ** 2, axis=1)))))
    worst_rms = max(rms) / diag
    angles = np.degrees(subspace_angles(phi_true.reshape(m_true, -1).T,
                                        model.identity_basis.reshape(3, -1).T))
    with criterion(2, f"synthetic recovery: held-out RMS {100 * worst_rms:.2f}% "
                      f"(<1%), max principal angle {angles.max():.2f} deg (<5), "
                      f"{report.iterations} iters in {elapsed:.1f}s (<120s)"):
        assert report.iterations <= 2000
        assert elapsed < 120.0
        assert worst_rms < 0.01
        assert np.all(angles < 5.0)


def test_criterion_3_subdivision():
    rng = np.random.default_rng(3)
    for _ in range(50):
        mesh = random_closed_mesh(rng)
        conn = build_connectivity(mesh)
        sub = subdivide_catmull_clark(mesh, 1)
        sconn = build_connectivity(sub)
        assert sub.n_vertices == conn.n_vertices + conn.n_edges + conn.n_faces
        assert sub.n_quads == 4 * conn.n_faces
        assert (sconn.n_vertices - sconn.n_edges + sconn.n_faces
                == conn.n_vertices - conn.n_edges + conn.n_faces)
        assert not sconn.boundary_edge.any()
    t0 = time.perf_counter()
    subdivide_catmull_clark(cube_mesh(), 3)
    elapsed = time.perf_counter() - t0
    with criterion(3, f"subdivision combinatorics on 50 closed meshes; "
                      f"3-level cube in {elapsed * 1000:.0f}ms (<1s)"):
        assert elapsed < 1.0


def test_criterion_4_lbs():
    worst_rigid = 0.0
    worst_equi = 0.0
    for trial in range(10):
        rng = np.random.default_rng(4000 + trial)
        model = desk_head(m=3, n_expression=4, seed=trial,
                          identity_coupling=0.01)

        # theta = 0 returns the template bit-exactly
        out = evaluate(model, ModelParams.zeros(model.n_identity, model.n_expression)).vertices
        assert np.array_equal(out, model.template.vertices)

        # single bone with full weight is a rigid transform
        w = np.zeros((model.n_vertices, 4))
        w[:, 0] = 1.0
        m1 = dataclasses.replace(model, skinning_weights=w)
        ang = np.zeros((4, 3))
        ang[0] = rng.uniform(-0.3, 0.3, 3)
        posed = pose_with(m1, np.zeros(3), Pose(ang, np.zeros(3), np.zeros(3)),
                          m1.template.vertices)
        R = euler_xyz(ang[0])
        piv = m1.skeleton.t0[0]
        rigid = (m1.template.vertices - piv) @ R.T + piv
        worst_rigid = max(worst_rigid, float(np.abs(posed - rigid).max()))

        # rigid-motion equivariance
        params = ModelParams(0.4 * rng.standard_normal(3),
                             rng.uniform(0, 1, 4),
                             Pose(0.15 * rng.standard_normal((4, 3)),
                                  np.zeros(3), np.zeros(3)))
        R_g = euler_xyz(rng.uniform(-0.5, 0.5, 3))
        t_g = rng.standard_normal(3)
        moved = BlendshapeModel(
            template=model.template.with_vertices(
                model.template.vertices @ R_g.T + t_g),
            identity_basis=model.identity_basis @ R_g.T,
            expression_basis=model.expression_basis @ R_g.T,
            skeleton=Skeleton(model.skeleton.t0 @ R_g.T + t_g,
                              np.einsum("ab,jbm->jam", R_g, model.skeleton.a),
                              model.skeleton.limits,
                              rest_rotations=np.broadcast_to(R_g, (4, 3, 3)).copy()),
            skinning_weights=model.skinning_weights,
        )
        base = evaluate(model, params, check_limits=False).vertices
        out = evaluate(moved, params, check_limits=False).vertices
        worst_equi = max(worst_equi, float(np.abs(out - (base @ R_g.T + t_g)).max()))
    with criterion(4, f"LBS: single-bone rigid err {worst_rigid:.1e} (<1e-12), "
                      f"equivariance err {worst_equi:.1e} (<1e-9), "
                      f"theta=0 bit-exact on 10 models"):
        assert worst_rigid < 1e-12
        assert worst_equi < 1e-9


def test_criterion_5_gmm_sigma_scaling():
    rng = np.random.default_rng(5)
    data = rng.multivariate_normal(
        mean=[1.0, -2.0, 0.5, 3.0],
        cov=np.diag([2.0, 0.5, 1.0, 0.25]) + 0.1, size=500)
    gmm = fit_gmm(data, K=1, seed=0)
    draws = sample_identity(gmm, sigma=0.8, rng=99, size=100_000)
    sample_cov = np.cov(draws, rowvar=False)
    target = 0.64 * gmm.covariances[0]
    rel = float(np.linalg.norm(sample_cov - target) / np.linalg.norm(target))

    monotone = True
    for seed in range(5):
        g = fit_gmm(rng.standard_normal((300, 3)) * [1, 2, 3] + seed, K=2,
                    seed=seed)
        traj = np.asarray(g.ll_trajectory)
        monotone &= bool(np.all(np.diff(traj) >=
                                -1e-9 * np.maximum(1.0, np.abs(traj[:-1]))))
    with criterion(5, f"GMM sigma scaling: 100k-draw covariance within "
                      f"{100 * rel:.2f}% of 0.64*Sigma (<3%); EM LL "
                      f"non-decreasing on all runs"):
        assert rel < 0.03
        assert monotone


def test_criterion_6_pca_oracle():
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(6000 + trial)
        data = rng.standard_normal((40, 12))
        centered = data - data.mean(axis=0)
        svals = np.linalg.svd(centered, compute_uv=False)
        for k in range(1, 11):
            model = fit_pca(data, k=k)
            recon = pca_reconstruct(model, pca_project(model, data))
            err = float(np.sum((recon - data) ** 2))
            oracle = float(np.sum(svals[k:] ** 2))
            worst = max(worst, abs(err - oracle))
            assert np.all(np.diff(model.explained_variance_ratio) <= 1e-12)
    with criterion(6, f"PCA vs full-SVD oracle on 10 datasets, k=1..10: "
                      f"worst |err-oracle| {worst:.1e} (<1e-9); ratios "
                      f"non-increasing"):
        assert worst < 1e-9


def test_criterion_7_hair_roundtrip():
    density_deltas, length_deltas, endpoint_errs = [], [], []
    vectors = []
    R, G = 16, 16
    for trial in range(20):
        rng = np.random.default_rng(7000 + trial)
        # 7 clusters do not divide 200 evenly, so re-sampled root counts
        # genuinely differ from the originals
        groom = clustered_groom(rng, n_strands=200, R=R, n_clusters=7)
        code = encode_groom(groom, R=R, G=G)
        vectors.append(code_to_vector(code))
        step = float(code.cell_size().min()) / 4.0
        decoded, _ = decode_groom(code, n_strands=200, step=step, rng=trial)
        recode = encode_groom(decoded, R=R, G=G, bbox=code.bbox)

        def rel_rms(a, b):
            return float(np.sqrt(np.mean((a - b) ** 2))
                         / max(np.sqrt(np.mean(a ** 2)), 1e-12))

        density_deltas.append(rel_rms(code.density_map, recode.density_map))
        length_deltas.append(rel_rms(code.length_map, recode.length_map))

        ref_ends = np.stack([s[-1] for s in groom.strands])
        ends = np.stack([s[-1] for s in decoded.strands])
        d = np.linalg.norm(ends[:, None, :] - ref_ends[None], axis=2).min(axis=1)
        endpoint_errs.append(float(d.mean()) / code.cell_diagonal())

    vectors = np.stack(vectors)
    pca = fit_pca(vectors, k=19)
    recon = pca_reconstruct(pca, pca_project(pca, vectors))
    pca_err = float(np.abs(recon - vectors).max())
    with criterion(7, f"hair roundtrip on 20 grooms: density RMS "
                      f"{100 * max(density_deltas):.1f}% (<10%), length RMS "
                      f"{100 * max(length_deltas):.1f}% (<10%), mean endpoint "
                      f"{max(endpoint_errs):.2f} cell diagonals (<1.5); "
                      f"full-rank PCA err {pca_err:.1e} (<1e-6)"):
        assert max(density_deltas) < 0.10
        assert max(length_deltas) < 0.10
        assert max(endpoint_errs) < 1.5
        assert pca_err < 1e-6


def test_criterion_8_log_pore_detection():
    rng = np.random.default_rng(8)
    s = 2.5
    shape = (160, 160)
    centers = []
    for gy in range(5):
        for gx in range(5):
            cy = 20 + gy * 30 + int(rng.integers(-3, 4))
            cx = 20 + gx * 30 + int(rng.integers(-3, 4))
            centers.append((cy, cx))
    yy, xx = np.mgrid[0:shape[0], 0:shape[1]].astype(np.float64)
    tex = np.zeros(shape)
    for cy, cx in centers:
        tex += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s ** 2))

    response = -pore_map(tex, sigma=s)    # bright blobs: minima of the LoG
    local_max = (response == maximum_filter(response, size=3)) \
        & (response > 0.2 * response.max())
    hits = 0
    for cy, cx in centers:
        window = local_max[max(cy - 1, 0):cy + 2, max(cx - 1, 0):cx + 2]
        hits += bool(window.any())
    with criterion(8, f"LoG blob detection: {hits}/25 planted centers within "
                      f"1 px of a response maximum (>=24 required)"):
        assert hits >= 24


def _tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_criterion_9_end_to_end_determinism(tmp_path):
    rc = cli_main(["--seed", "0", "--out", str(tmp_path / "lib"), "demo-assets"])
    assert rc == 0
    lib = str(tmp_path / "lib/library.json")
    hashes = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        rc = cli_main(["--seed", "7", "--out", str(tmp_path / name),
                       "--threads", threads,
                       "sample", "--library", lib, "--count", "3"])
        assert rc == 0
        hashes.append(_tree_hash(tmp_path / name))
    with criterion(9, "sample --seed 7 --count 3: byte-identical trees across "
                      "two runs and thread counts {1, 4}"):
        assert hashes[0] == hashes[1] == hashes[2]


def test_criterion_10_format_roundtrips(tmp_path):
    rng = np.random.default_rng(10)

    # OBJ
    mesh = random_closed_mesh(rng)
    text1 = dump_obj(mesh)
    text2 = dump_obj(parse_obj(text1.decode()))
    obj_ok = text1 == text2

    # matrix container
    t1 = {"a": rng.standard_normal((4, 3)),
          "b": rng.standard_normal(5).astype(np.float32)}
    (tmp_path / "c1").mkdir()
    (tmp_path / "c2").mkdir()
    save_container(tmp_path / "c1/c.json", t1, metadata={"kind": "x"})
    back, meta = load_container(tmp_path / "c1/c.json")
    save_container(tmp_path / "c2/c.json", back, metadata=meta)
    cont_ok = ((tmp_path / "c1/c.json").read_bytes()
               == (tmp_path / "c2/c.json").read_bytes()) \
        and ((tmp_path / "c1/c.bin").read_bytes()
             == (tmp_path / "c2/c.bin").read_bytes())

    # groom file
    groom = clustered_groom(rng, n_strands=30, R=8)
    (tmp_path / "g1").mkdir()
    (tmp_path / "g2").mkdir()
    save_groom(tmp_path / "g1/g.json", groom)
    save_groom(tmp_path / "g2/g.json", load_groom(tmp_path / "g1/g.json"))
    groom_ok = ((tmp_path / "g1/g.json").read_bytes()
                == (tmp_path / "g2/g.json").read_bytes()) \
        and ((tmp_path / "g1/g.bin").read_bytes()
             == (tmp_path / "g2/g.bin").read_bytes())

    # scene.json
    rc = cli_main(["--seed", "2", "--out", str(tmp_path / "lib"), "demo-assets"])
    assert rc == 0
    from facegen.library import AssetLibrary
    from facegen.scene import sample_scene
    library = AssetLibrary.load(tmp_path / "lib/library.json")
    scene = sample_scene(library, 5)
    json1 = scene.to_json()
    json2 = SceneDescription.from_json(json1).to_json()
    scene_ok = json1 == json2

    with criterion(10, f"format roundtrips byte-identical: OBJ={obj_ok}, "
                       f"container={cont_ok}, groom={groom_ok}, scene={scene_ok}"):
        assert obj_ok and cont_ok and groom_ok and scene_ok
