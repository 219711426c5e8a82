"""Command-line entry point.

Subcommands: fit, sample, subdivide, encode-hair, decode-hair, fit-pca,
fit-gmm, pore-map, export, demo-assets.  Exit codes: 0 success, 1 usage,
2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .container import (decode_json, encode_json, load_container, read_json_object,
                        save_container, write_files)
from .errors import DataError, FacegenError, NumericError, naming
from .gmm import fit_gmm
from .hair import (
    decode_groom,
    encode_groom,
    load_groom,
    load_hair_code,
    save_groom,
    save_hair_code,
)
from .hdr import augment_rotations, preprocess_hdr, read_hdr
from .learning import INITS, FitSchedule, LossWeights, ScanSet, fit
from .library import AssetLibrary
from .modelio import save_model
from .objio import load_obj, save_obj
from .parallel import cpu_count, run_workers
from .pca import fit_pca, save_pca
from .poremap import pore_map, read_pgm, write_pgm16
from .sampling import split_seed
from .scene import SceneDescription, export_scene, realize_scene, sample_scene
from .subdivision import subdivide_catmull_clark

log = logging.getLogger("facegen")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _JsonLogFormatter(logging.Formatter):
    def format(self, record):
        return json.dumps({
            "level": record.levelname.lower(),
            "event": record.getMessage(),
            "logger": record.name,
        }, sort_keys=True)


def _setup_logging(json_logs: bool) -> None:
    handler = logging.StreamHandler(sys.stderr)
    if json_logs:
        handler.setFormatter(_JsonLogFormatter())
    else:
        handler.setFormatter(logging.Formatter("facegen: %(message)s"))
    root = logging.getLogger("facegen")
    root.handlers[:] = [handler]
    root.setLevel(logging.INFO)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="facegen",
        description="Synthetic face asset toolkit: model fitting, scene "
                    "sampling and export for an external renderer.")
    p.add_argument("--version", action="version", version=f"facegen {__version__}")
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config file (weights/schedule for fit)")
    p.add_argument("--out", type=Path, default=None, help="output path")
    p.add_argument("--threads", type=int, default=None,
                   help="sample's worker threads (default: FACEGEN_THREADS or 1)")
    p.add_argument("--sigma-mode", choices=("std", "var"), default=None,
                   help="interpret the identity sampling sigma as a std or "
                        "variance scale")
    p.add_argument("--json-logs", action="store_true",
                   help="machine-readable JSON logs on stderr")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit", help="learn the identity basis from registered scans")
    sp.add_argument("--scans", type=Path, required=True,
                    help="directory of registered .obj scans (template topology)")
    sp.add_argument("--basis-size", type=int, required=True, help="identity basis size m")

    sp = sub.add_parser("sample", help="sample scenes and export their geometry")
    sp.add_argument("--library", type=Path, required=True, help="library config JSON")
    sp.add_argument("--count", type=int, default=1)

    sp = sub.add_parser("subdivide", help="Catmull-Clark subdivision of an OBJ quad mesh")
    sp.add_argument("--mesh", type=Path, required=True)
    sp.add_argument("--levels", type=int, default=3)

    sp = sub.add_parser("encode-hair", help="encode a groom into maps + flow volume")
    sp.add_argument("--groom", type=Path, required=True)
    sp.add_argument("--uv-res", type=int, default=64)
    sp.add_argument("--vol-res", type=int, default=32)

    sp = sub.add_parser("decode-hair", help="reconstruct strands from a hair code")
    sp.add_argument("--code", type=Path, required=True)
    sp.add_argument("--count", type=int, default=200, help="strands to grow")
    sp.add_argument("--step", type=float, default=None,
                    help="growth step in meters (default: cell size / 4)")
    sp.add_argument("--reference", type=Path, default=None,
                    help="reference groom for a roundtrip report")

    sp = sub.add_parser("fit-pca", help="fit a PCA model to vectors or HDR images")
    sp.add_argument("--data", type=Path, default=None,
                    help="matrix container with one (n, d) tensor")
    sp.add_argument("--hdr-dir", type=Path, default=None,
                    help="directory of .hdr maps (preprocessed + augmented)")
    sp.add_argument("--components", type=int, default=50)
    sp.add_argument("--augment", type=int, default=5,
                    help="random yaw rotations per HDR image")

    sp = sub.add_parser("fit-gmm", help="fit a Gaussian mixture to coefficient vectors")
    sp.add_argument("--data", type=Path, required=True,
                    help="matrix container with one (n, m) tensor")
    sp.add_argument("--components", type=int, default=5)

    sp = sub.add_parser("pore-map", help="Laplacian-of-Gaussian pore map from a texture")
    sp.add_argument("--texture", type=Path, required=True, help="grayscale PGM input")
    sp.add_argument("--sigma", type=float, required=True, help="blob scale in pixels")

    sp = sub.add_parser("export", help="realize and export one scene description")
    sp.add_argument("--library", type=Path, required=True)
    sp.add_argument("--scene", type=Path, required=True)

    sub.add_parser("demo-assets", help="write a self-contained demo asset library")
    return p


# fit --config: loss weights and optimizer schedule, each optional
_FIT_CONFIG_SPEC = {
    "weights": {f.name: float for f in dataclasses.fields(LossWeights)},
    "schedule": {f.name: set(INITS) if f.name == "init" else type(f.default)
                 for f in dataclasses.fields(FitSchedule)},
}


def _require_out(args) -> Path:
    if args.out is None:
        raise DataError("--out is required for this command")
    return args.out


def _threads(args) -> int:
    env = os.environ.get("FACEGEN_THREADS")
    if args.threads is not None or not env:
        return args.threads or 1        # cli_main rejects --threads below 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise DataError(f"FACEGEN_THREADS={env!r} is not a whole number >= 1")
    return n


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    out = _require_out(args)
    scan_files = sorted(args.scans.glob("*.obj"))
    if not scan_files:
        raise DataError(f"no .obj scans found in {args.scans}")
    meshes = [load_obj(p) for p in scan_files]
    with naming(args.scans):
        scans = ScanSet.from_meshes(meshes, [p.stem for p in scan_files])

    with naming(args.config):
        cfg = (decode_json(read_json_object(args.config), _FIT_CONFIG_SPEC)
               if args.config is not None else {})
        weights = LossWeights(**cfg.get("weights", {}))
        schedule = FitSchedule(**cfg.get("schedule", {}))

    log.info(f"fitting m={args.basis_size} basis to {scans.n_scans} scans")
    model, report = fit(scans, args.basis_size, weights, schedule, args.seed)
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "model.json", model)
    write_files(out, {"report.json": encode_json(report.to_dict(), indent=1),
                      "trajectory.csv": report.trajectory_csv().encode()})
    save_container(out / "alphas.json", {"alphas": report.final_alphas},
                   metadata={"kind": "identity_coefficients"})
    log.info(f"fit finished: {report.iterations} iterations, "
             f"final loss {report.final_loss:.6g}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    out = _require_out(args)
    library = AssetLibrary.load(args.library)
    if args.sigma_mode is not None:
        library = dataclasses.replace(library, sigma_mode=args.sigma_mode)

    n = min(_threads(args), args.count, cpu_count())

    def scenes(k: int) -> None:
        for i in range(k, args.count, n):
            scene = sample_scene(library, split_seed(args.seed, i))
            export_scene(scene, realize_scene(library, scene), out / f"scene_{i:04d}")

    run_workers(scenes, n)
    log.info(f"exported {args.count} scene(s) to {out}")
    return EXIT_OK


def _cmd_subdivide(args) -> int:
    out = _require_out(args)
    mesh = load_obj(args.mesh)
    result = subdivide_catmull_clark(mesh, args.levels)
    save_obj(out, result)
    log.info(f"subdivided {args.levels} level(s): "
             f"{mesh.n_vertices} -> {result.n_vertices} vertices")
    return EXIT_OK


def _cmd_encode_hair(args) -> int:
    out = _require_out(args)
    groom = load_groom(args.groom)
    code = encode_groom(groom, R=args.uv_res, G=args.vol_res)
    save_hair_code(out, code)
    log.info(f"encoded {groom.n_strands} strands into "
             f"R={args.uv_res} maps and G={args.vol_res} flow volume")
    return EXIT_OK


def _cmd_decode_hair(args) -> int:
    out = _require_out(args)
    code = load_hair_code(args.code)
    step = args.step if args.step is not None else float(code.cell_size().min()) / 4.0
    groom, report = decode_groom(code, args.count, step, rng=args.seed)
    save_groom(out, groom)
    payload = report.to_dict()
    if args.reference is not None:
        from scipy.spatial import cKDTree
        ref = load_groom(args.reference)
        re_code = encode_groom(groom, R=code.uv_resolution,
                               G=code.volume_resolution, bbox=code.bbox)
        d = cKDTree(ref.points[ref.offsets[1:] - 1]).query(
            groom.points[groom.offsets[1:] - 1])[0]
        payload["roundtrip"] = {
            "endpoint_error_mean": float(d.mean()),
            "endpoint_error_per_strand": [float(x) for x in d],
            "density_rms_delta": _rms(re_code.density_map - code.density_map),
            "length_rms_delta": _rms(re_code.length_map - code.length_map),
            "cell_diagonal": code.cell_diagonal(),
        }
    write_files(out.parent, {out.stem + "_report.json": encode_json(payload, indent=1)})
    log.info(f"decoded {groom.n_strands} strands "
             f"({payload['n_early_terminated']} early-terminated: "
             f"{payload['n_zero_flow_stops']} zero-flow, {payload['n_wall_stops']} wall, "
             f"{payload['n_stubs']} stubs)")
    return EXIT_OK


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def _data_tensor(path) -> np.ndarray:
    """The one tensor of a --data container, as float64."""
    tensors, _ = load_container(path)
    if len(tensors) != 1:
        raise DataError(f"{path}: --data container must hold exactly one tensor")
    return next(iter(tensors.values())).astype(np.float64)


def _cmd_fit_pca(args) -> int:
    out = _require_out(args)
    if (args.data is None) == (args.hdr_dir is None):
        raise DataError("fit-pca needs exactly one of --data or --hdr-dir")
    if args.data is not None:
        rows = _data_tensor(args.data)
        tag = ""
    else:
        paths = sorted(args.hdr_dir.glob("*.hdr"))
        if not paths:
            raise DataError(f"no .hdr files in {args.hdr_dir}")
        rng = np.random.default_rng(args.seed)
        rows = []
        for p in paths:
            img = read_hdr(p)
            variants = augment_rotations(img, args.augment, rng) \
                if args.augment > 0 else [img]
            rows.extend(preprocess_hdr(v) for v in variants)
        rows = np.stack(rows)
        tag = "log1p+resize64x128"
    with naming(args.data or args.hdr_dir):
        model = fit_pca(rows, k=args.components, preprocessing=tag)
    save_pca(out, model)
    explained = float(model.explained_variance_ratio.sum())
    log.info(f"PCA on {rows.shape[0]}x{rows.shape[1]} data: k={model.n_components}, "
             f"explained variance {explained:.3f}")
    return EXIT_OK


def _cmd_fit_gmm(args) -> int:
    out = _require_out(args)
    data = _data_tensor(args.data)
    with naming(args.data):
        gmm = fit_gmm(data, K=args.components, seed=args.seed)
    from .library import save_gmm
    save_gmm(out, gmm)
    log.info(f"fitted GMM with K={args.components} on {data.shape[0]} samples, "
             f"final log-likelihood {gmm.ll_trajectory[-1]:.6g}")
    return EXIT_OK


def _cmd_pore_map(args) -> int:
    out = _require_out(args)
    tex = read_pgm(args.texture)
    response = pore_map(tex, args.sigma)
    write_pgm16(out, response, sidecar={"sigma": args.sigma})
    log.info(f"pore map {response.shape[1]}x{response.shape[0]} written to {out}")
    return EXIT_OK


def _cmd_export(args) -> int:
    out = _require_out(args)
    library = AssetLibrary.load(args.library)
    with naming(args.scene):
        scene = SceneDescription.from_dict(read_json_object(args.scene))
        geometry = realize_scene(library, scene)
    export_scene(scene, geometry, out)
    log.info(f"exported scene to {out}")
    return EXIT_OK


def _cmd_demo_assets(args) -> int:
    out = _require_out(args)
    from .demo import build_demo_library
    path = build_demo_library(out, seed=args.seed)
    log.info(f"demo library written to {path}")
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "sample": _cmd_sample,
    "subdivide": _cmd_subdivide,
    "encode-hair": _cmd_encode_hair,
    "decode-hair": _cmd_decode_hair,
    "fit-pca": _cmd_fit_pca,
    "fit-gmm": _cmd_fit_gmm,
    "pore-map": _cmd_pore_map,
    "export": _cmd_export,
    "demo-assets": _cmd_demo_assets,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            parser.error(f"--seed must be >= 0, got {args.seed}")
        if args.threads is not None and args.threads < 1:
            parser.error(f"--threads must be >= 1, got {args.threads}")
        for command, flag, least in (("sample", "count", 1), ("decode-hair", "count", 1),
                                     ("encode-hair", "uv_res", 4), ("encode-hair", "vol_res", 4),
                                     ("fit-pca", "augment", 0)):
            if args.command == command and getattr(args, flag) < least:
                parser.error(f"--{flag.replace('_', '-')} must be >= {least}, "
                             f"got {getattr(args, flag)}")
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    _setup_logging(args.json_logs)
    # bad input is converted to a FacegenError where it is read; any other
    # exception is a bug and propagates with its traceback
    try:
        return _COMMANDS[args.command](args)
    except NumericError as e:
        log.error(f"numeric failure: {e}")
        return EXIT_NUMERIC
    except (FacegenError, OSError) as e:
        log.error(f"data error: {e}")
        return EXIT_DATA


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
