"""Desk-scale demo asset bundle: builds a complete library directory
(model, expression library, GMM, grooms, HDRs, hair-color table, config)
that the sample/export pipeline can run against out of the box.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .container import encode_json, write_files
from .gmm import fit_gmm
from .hair import Groom, save_groom
from .hdr import HdrImage, write_hdr
from .library import AssetLibrary, save_expression_library, save_gmm
from .modelio import save_model
from .procedural import desk_head, synthetic_expression_library
from .sampling import ExpressionLibrary, HairColorTable


def make_demo_groom(style: str, n_strands: int, seed: int,
                    scale: float = 0.1) -> Groom:
    """Procedural groom: clustered roots on the upper head, strands swept
    outward then down by a smooth analytic field."""
    rng = np.random.default_rng(seed)
    if style == "scalp":
        lat_range = (0.45, 1.0)
        length = (0.35 * scale, 0.9 * scale)
    elif style == "eyebrow":
        lat_range = (0.15, 0.3)
        length = (0.05 * scale, 0.12 * scale)
    elif style == "beard":
        lat_range = (-0.5, -0.2)
        length = (0.1 * scale, 0.3 * scale)
    else:                        # eyelash
        lat_range = (0.1, 0.2)
        length = (0.03 * scale, 0.06 * scale)

    # roots on a head-sized sphere band, +y up, +z forward
    u = rng.uniform(0.25, 0.75, n_strands)          # azimuth fraction
    v = rng.uniform(*lat_range, n_strands)          # height fraction [-1, 1]
    phi = 2.0 * np.pi * (u - 0.5)
    sin_lat = np.clip(v, -0.95, 0.95)
    cos_lat = np.sqrt(1.0 - sin_lat ** 2)
    r = 0.9 * scale
    roots = np.stack([r * cos_lat * np.sin(phi),
                      r * sin_lat,
                      r * cos_lat * np.cos(phi)], axis=1)
    root_uv = np.stack([u, 0.5 * (v + 1.0)], axis=1)

    lengths = rng.uniform(*length, n_strands)
    steps = 14
    strands = []
    for i in range(n_strands):
        p = roots[i]
        out = p / np.linalg.norm(p)
        pts = [p]
        h = lengths[i] / steps
        d = out.copy()
        for _ in range(steps):
            # blend outward direction into gravity for a combed look
            d = 0.82 * d + 0.18 * np.array([0.0, -1.0, 0.0])
            d /= np.linalg.norm(d)
            pts.append(pts[-1] + h * d)
        strands.append(np.asarray(pts))
    return Groom(tuple(strands), root_uv, style=style)


def make_demo_hdr(kind: str, height: int = 32, width: int = 64,
                  seed: int = 0) -> HdrImage:
    rng = np.random.default_rng(seed)
    ys = np.linspace(0.0, 1.0, height)[:, None, None]
    xs = np.linspace(0.0, 1.0, width)[None, :, None]
    if kind == "sky":
        sky = np.array([0.35, 0.55, 1.2])
        ground = np.array([0.25, 0.2, 0.15])
        img = sky * (1.0 - ys) + ground * ys + 0.0 * xs
    else:
        img = np.full((height, width, 3), 0.08)
        cy, cx = int(0.3 * height), int(rng.integers(width))
        yy, xx = np.mgrid[0:height, 0:width]
        dist2 = (yy - cy) ** 2 + (np.minimum(np.abs(xx - cx),
                                             width - np.abs(xx - cx))) ** 2
        img = img + np.array([40.0, 36.0, 30.0]) * np.exp(-dist2 / 6.0)[..., None]
    return HdrImage(np.ascontiguousarray(np.broadcast_to(img, (height, width, 3))))


def build_demo_library(out_dir, seed: int = 0, n_identity: int = 4,
                       n_expressions: int = 48) -> Path:
    """Write a self-contained demo library; returns the config path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    model = desk_head(m=n_identity, n_expression=51, seed=seed,
                      identity_coupling=0.002)
    save_model(out / "model.json", model)

    betas = synthetic_expression_library(n_expressions, 51, seed=seed + 1)
    save_expression_library(out / "expressions.json",
                            ExpressionLibrary(betas, source="synthetic demo"))

    # identity statistics: two loose clusters in coefficient space
    half = 60
    cluster_a = rng.standard_normal((half, n_identity)) * 0.6 + 0.8
    cluster_b = rng.standard_normal((half, n_identity)) * 0.4 - 0.6
    gmm = fit_gmm(np.concatenate([cluster_a, cluster_b]), K=2, seed=seed)
    save_gmm(out / "gmm.json", gmm)

    groom_cfg: dict[str, list[str]] = {}
    specs = [("scalp", 2, 120), ("eyebrow", 1, 40), ("beard", 1, 60)]
    for style, count, strands in specs:
        groom_cfg[style] = []
        for i in range(count):
            name = f"groom_{style}_{i}.json"
            save_groom(out / name, make_demo_groom(style, strands, seed + 10 + i))
            groom_cfg[style].append(name)

    hdr_names = []
    for i, kind in enumerate(("sky", "sun")):
        name = f"env_{kind}.hdr"
        write_hdr(out / name, make_demo_hdr(kind, seed=seed + i))
        hdr_names.append(name)

    cfg = {
        "model": "model.json",
        "gmm": "gmm.json",
        "expression_library": "expressions.json",
        "textures": [f"skin_{i:03d}" for i in range(6)],
        "eye_colors": ["brown", "dark_brown", "blue", "green", "hazel"],
        "grooms": groom_cfg,
        "hdrs": hdr_names,
        "hair_color_table": "haircolor.json",
        "pose": {"joint_std": 0.08, "global_rot_std": 0.08},
        "eyelid": {"raise_ids": [0, 1], "lower_ids": [2, 3], "gain": 0.4},
        "camera": {"fov_deg": 20.0, "framing_scale": 1.4},
        "render": {"resolution": 1024, "spp": 256},
        "sampling": {"sigma": 0.8, "sigma_mode": "std"},
        "subdivision_levels": 3,
    }
    write_files(out, {
        "haircolor.json": encode_json(HairColorTable.uniform_placeholder().to_dict(), indent=1),
        "library.json": encode_json(cfg, indent=1)})
    path = out / "library.json"
    AssetLibrary.load(path)   # fail fast if the bundle is inconsistent
    return path
