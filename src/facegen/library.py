"""Asset library: the on-disk bundle of model, samplers and asset files
that scene generation draws from.

The library config is one JSON file of paths and sampler settings; every
referenced file must exist and parse at load time (fail fast).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .container import load_container, save_container
from .errors import DataError, InvalidParam
from .eyes import EyeGeometry, EyeGeometryParams, build_eye
from .gmm import GaussianMixture
from .hair import HAIR_STYLES, Groom, flip_groom, load_groom
from .hdr import HdrImage, read_hdr
from .model import BlendshapeModel
from .modelio import load_model
from .objio import obj_topology
from .sampling import ExpressionLibrary, HairColorTable, PoseDistribution
from .subdivision import catmull_clark_stencil

DEFAULT_EYE_COLORS = ("brown", "dark_brown", "blue", "green", "hazel")


def save_gmm(path, gmm: GaussianMixture) -> None:
    save_container(path, {
        "weights": gmm.weights,
        "means": gmm.means,
        "covariances": gmm.covariances,
    }, metadata={"kind": "gmm"})


def load_gmm(path) -> GaussianMixture:
    tensors, meta = load_container(path)
    if meta.get("kind") != "gmm":
        raise DataError(f"{path} is not a GMM container")
    return GaussianMixture(tensors["weights"], tensors["means"],
                           tensors["covariances"])


def save_expression_library(path, library: ExpressionLibrary) -> None:
    # coefficients are stored f32 per the interchange contract
    save_container(path, {"betas": library.betas.astype(np.float32)},
                   metadata={"kind": "expression_library", "source": library.source})


def load_expression_library(path) -> ExpressionLibrary:
    tensors, meta = load_container(path)
    if meta.get("kind") != "expression_library":
        raise DataError(f"{path} is not an expression library container")
    betas = np.clip(tensors["betas"].astype(np.float64), 0.0, 1.0)
    return ExpressionLibrary(betas, source=meta.get("source", ""))


@dataclass(frozen=True)
class EyelidCorrectionConfig:
    raise_ids: tuple[int, ...] = ()
    lower_ids: tuple[int, ...] = ()
    gain: float = 1.0


@dataclass(frozen=True)
class CameraConfig:
    fov_deg: float = 20.0
    framing_scale: float = 1.4


@dataclass(frozen=True)
class RenderConfig:
    resolution: int = 1024
    spp: int = 256


@dataclass(frozen=True)
class SceneTopology:
    """Everything scene realization and export need that depends only on the
    library: the template's subdivision stencil and subdivided topology,
    the eye meshes, the mirrored grooms and the OBJ `vt`/`f` text of the
    face and of the merged eyes."""

    stencil: sparse.csr_matrix                   # (V_L, V_0) Catmull-Clark
    face_quads: np.ndarray
    face_uvs: np.ndarray | None
    face_obj: str
    eye: EyeGeometry
    eyes_quads: np.ndarray                       # sclera, cornea per eye, left first
    eyes_obj: str
    flipped_grooms: dict[str, dict[str, Groom]]  # style -> id -> flip_groom(groom)

    @classmethod
    def compile(cls, model: BlendshapeModel, eye_params: EyeGeometryParams,
                grooms: dict[str, dict[str, Groom]], levels: int) -> "SceneTopology":
        stencil, face_quads, face_uvs = catmull_clark_stencil(model.template, levels)
        eye = build_eye(eye_params)
        parts = (eye.sclera, eye.cornea) * 2
        offsets = np.cumsum([0] + [p.n_vertices for p in parts[:-1]])
        eyes_quads = np.concatenate([p.quads + off for p, off in zip(parts, offsets)])
        return cls(
            stencil=stencil,
            face_quads=face_quads,
            face_uvs=face_uvs,
            face_obj=obj_topology(face_quads, face_uvs),
            eye=eye,
            eyes_quads=eyes_quads,
            eyes_obj=obj_topology(eyes_quads),
            flipped_grooms={style: {gid: flip_groom(g) for gid, g in pool.items()}
                            for style, pool in grooms.items()},
        )


@dataclass(frozen=True)
class AssetLibrary:
    """Loaded assets plus sampler configuration.

    `topology` is compiled from the model, eye parameters, grooms and
    subdivision levels by `load`; `dataclasses.replace` of the sampler
    settings keeps it.
    """

    root: Path
    model: BlendshapeModel
    gmm: GaussianMixture
    expressions: ExpressionLibrary
    textures: tuple[str, ...]
    eye_colors: tuple[str, ...]
    grooms: dict[str, dict[str, Groom]]          # style -> id -> groom
    hdrs: dict[str, HdrImage]                    # id -> image
    hair_colors: HairColorTable
    pose: PoseDistribution
    eyelid: EyelidCorrectionConfig
    camera: CameraConfig
    render: RenderConfig
    eye_params: EyeGeometryParams
    topology: SceneTopology
    sigma: float = 0.8
    sigma_mode: str = "std"
    subdivision_levels: int = 3

    @classmethod
    def load(cls, config_path) -> "AssetLibrary":
        config_path = Path(config_path)
        try:
            cfg = json.loads(config_path.read_text())
        except FileNotFoundError:
            raise
        except json.JSONDecodeError as e:
            raise DataError(f"invalid library config {config_path}: {e}") from e
        root = config_path.parent

        def resolve(rel: str) -> Path:
            p = root / rel
            if not p.exists():
                raise FileNotFoundError(f"library references missing file: {p}")
            return p

        model = load_model(resolve(cfg["model"]))
        gmm = load_gmm(resolve(cfg["gmm"]))
        if gmm.dim != model.n_identity:
            raise DataError(
                f"GMM dimension {gmm.dim} != model identity size {model.n_identity}")
        expressions = load_expression_library(resolve(cfg["expression_library"]))
        if expressions.betas.shape[1] != model.n_expression:
            raise DataError("expression library width != model expression basis size")

        textures = tuple(cfg.get("textures", ()))
        if not textures:
            raise InvalidParam("library must list at least one texture id")
        eye_colors = tuple(cfg.get("eye_colors", DEFAULT_EYE_COLORS))

        grooms: dict[str, dict[str, Groom]] = {}
        for style, paths in cfg.get("grooms", {}).items():
            if style not in HAIR_STYLES:
                raise InvalidParam(f"unknown groom style {style!r}")
            grooms[style] = {}
            for rel in paths:
                g = load_groom(resolve(rel))
                grooms[style][Path(rel).stem] = g

        hdrs = {Path(rel).stem: read_hdr(resolve(rel))
                for rel in cfg.get("hdrs", ())}
        if not hdrs:
            raise InvalidParam("library must list at least one HDR environment")

        if "hair_color_table" in cfg:
            table_cfg = json.loads(resolve(cfg["hair_color_table"]).read_text())
            hair_colors = HairColorTable.from_dict(table_cfg)
        else:
            hair_colors = HairColorTable.uniform_placeholder()

        pose_cfg = cfg.get("pose", {})
        pose = PoseDistribution(
            joint_std=np.asarray(pose_cfg.get("joint_std", 0.1)),
            global_rot_std=np.asarray(pose_cfg.get("global_rot_std", 0.1)),
        )
        lid_cfg = cfg.get("eyelid", {})
        eyelid = EyelidCorrectionConfig(
            raise_ids=tuple(lid_cfg.get("raise_ids", ())),
            lower_ids=tuple(lid_cfg.get("lower_ids", ())),
            gain=float(lid_cfg.get("gain", 1.0)),
        )
        cam_cfg = cfg.get("camera", {})
        camera = CameraConfig(fov_deg=float(cam_cfg.get("fov_deg", 20.0)),
                              framing_scale=float(cam_cfg.get("framing_scale", 1.4)))
        rend_cfg = cfg.get("render", {})
        render = RenderConfig(resolution=int(rend_cfg.get("resolution", 1024)),
                              spp=int(rend_cfg.get("spp", 256)))
        eye_cfg = cfg.get("eye_geometry", {})
        eye_params = EyeGeometryParams(
            sclera_radius=float(eye_cfg.get("sclera_radius", 0.012)),
            cornea_radius=float(eye_cfg.get("cornea_radius", 0.0065)),
            iris_flatten_depth=float(eye_cfg.get("iris_flatten_depth", 0.0035)),
            pupil_radius=float(eye_cfg.get("pupil_radius", 0.002)),
        )
        sampling_cfg = cfg.get("sampling", {})
        levels = int(cfg.get("subdivision_levels", 3))
        return cls(
            root=root,
            model=model,
            gmm=gmm,
            expressions=expressions,
            textures=textures,
            eye_colors=eye_colors,
            grooms=grooms,
            hdrs=hdrs,
            hair_colors=hair_colors,
            pose=pose,
            eyelid=eyelid,
            camera=camera,
            render=render,
            eye_params=eye_params,
            topology=SceneTopology.compile(model, eye_params, grooms, levels),
            sigma=float(sampling_cfg.get("sigma", 0.8)),
            sigma_mode=str(sampling_cfg.get("sigma_mode", "std")),
            subdivision_levels=levels,
        )
