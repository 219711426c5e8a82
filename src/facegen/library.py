"""Asset library: the on-disk bundle of model, samplers and asset files
that scene generation draws from.

The library config is one JSON file of paths and sampler settings
(`_CONFIG_SPEC`; unknown keys are rejected); every referenced file must
exist and parse at load time (fail fast).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .container import (decode_json, load_container, read_json_object, require_finite,
                        save_container)
from .errors import DataError, EmptyLibrary, InvalidParam, naming
from .eyes import EyeGeometry, EyeGeometryParams, build_eye
from .gmm import GaussianMixture
from .hair import HAIR_STYLES, Groom, flip_groom, load_groom
from .hdr import read_hdr
from .mesh import QuadMesh
from .model import BlendshapeModel
from .modelio import load_model
from .objio import obj_topology
from .sampling import (ExpressionLibrary, HairColorTable, PoseDistribution,
                       check_pose_acceptance)
from .subdivision import catmull_clark_stencil

DEFAULT_EYE_COLORS = ("brown", "dark_brown", "blue", "green", "hazel")


def save_gmm(path, gmm: GaussianMixture) -> None:
    save_container(path, {
        "weights": gmm.weights,
        "means": gmm.means,
        "covariances": gmm.covariances,
    }, metadata={"kind": "gmm"})


def load_gmm(path) -> GaussianMixture:
    tensors, _ = load_container(path, "gmm")
    require_finite(tensors)
    return GaussianMixture(tensors["weights"], tensors["means"],
                           tensors["covariances"])


def save_expression_library(path, library: ExpressionLibrary) -> None:
    # coefficients are stored f32 per the interchange contract
    save_container(path, {"betas": library.betas.astype(np.float32)},
                   metadata={"kind": "expression_library", "source": library.source})


def load_expression_library(path) -> ExpressionLibrary:
    tensors, meta = load_container(path, "expression_library")
    require_finite(tensors)
    library = ExpressionLibrary(tensors["betas"], source=meta.get("source", ""))
    if len(library) == 0:
        raise EmptyLibrary("expression library has no rows")
    return library


@dataclass(frozen=True)
class EyelidCorrectionConfig:
    raise_ids: tuple[int, ...] = ()
    lower_ids: tuple[int, ...] = ()
    gain: float = 1.0


def check_fov(fov_deg: float) -> None:
    """The camera field of view must lie in [1, 179] degrees."""
    if not 1.0 <= fov_deg <= 179.0:
        raise InvalidParam(f"$.camera.fov_deg {fov_deg} outside [1, 179]")


def check_render(resolution: int, spp: int) -> None:
    """The image resolution and the samples per pixel must be at least 1."""
    for name, value in (("resolution", resolution), ("spp", spp)):
        if value < 1:
            raise InvalidParam(f"$.render.{name} {value} below 1")


@dataclass(frozen=True)
class CameraConfig:
    fov_deg: float = 20.0
    framing_scale: float = 1.4

    def __post_init__(self):
        check_fov(self.fov_deg)
        if not self.framing_scale > 0:
            raise InvalidParam(f"$.camera.framing_scale {self.framing_scale} not above 0")


@dataclass(frozen=True)
class RenderConfig:
    resolution: int = 1024
    spp: int = 256

    def __post_init__(self):
        check_render(self.resolution, self.spp)


@dataclass(frozen=True)
class SceneTopology:
    """Everything scene realization and export need that depends only on the
    library: the template's subdivision stencil and subdivided mesh, the
    eye meshes merged as scenes export them, the mirrored grooms and the
    OBJ `vt`/`f` bytes of the face and of the merged eyes.  A scene moves
    the vertices of `face` and `eyes` (`QuadMesh.with_vertices`), so their
    topology is checked once, here."""

    stencil: sparse.csr_matrix                   # (V_L, V_0) Catmull-Clark
    face: QuadMesh                               # the subdivided template
    face_obj: bytes
    eye: EyeGeometry
    eyes: QuadMesh                               # sclera, cornea per eye, left first
    eyes_obj: bytes
    flipped_grooms: dict[str, dict[str, Groom]]  # style -> id -> flip_groom(groom)

    @classmethod
    def compile(cls, model: BlendshapeModel, eye_params: EyeGeometryParams,
                grooms: dict[str, dict[str, Groom]], levels: int) -> "SceneTopology":
        stencil, face_quads, face_uvs = catmull_clark_stencil(model.template, levels)
        face = QuadMesh(stencil @ model.template.vertices, face_quads, face_uvs)
        eye = build_eye(eye_params)
        parts = (eye.sclera, eye.cornea) * 2
        offsets = np.cumsum([0] + [p.n_vertices for p in parts[:-1]])
        eyes = QuadMesh(np.concatenate([p.vertices for p in parts]),
                        np.concatenate([p.quads + off for p, off in zip(parts, offsets)]))
        return cls(
            stencil=stencil,
            face=face,
            face_obj=obj_topology(face.quads, face.uvs),
            eye=eye,
            eyes=eyes,
            eyes_obj=obj_topology(eyes.quads),
            flipped_grooms={style: {gid: flip_groom(g) for gid, g in pool.items()}
                            for style, pool in grooms.items()},
        )


@dataclass(frozen=True)
class AssetLibrary:
    """Loaded assets plus sampler configuration.

    `topology` is compiled from the model, eye parameters, grooms and
    subdivision levels by `load`, and is the one record of the eye
    parameters and the levels; `dataclasses.replace` of the sampler
    settings keeps it.
    """

    root: Path
    model: BlendshapeModel
    gmm: GaussianMixture
    expressions: ExpressionLibrary
    textures: tuple[str, ...]
    eye_colors: tuple[str, ...]
    grooms: dict[str, dict[str, Groom]]          # style -> id -> groom
    hdrs: tuple[str, ...]                        # light ids; each file is checked at load
    hair_colors: HairColorTable
    pose: PoseDistribution
    eyelid: EyelidCorrectionConfig
    camera: CameraConfig
    render: RenderConfig
    topology: SceneTopology
    sigma: float = 0.8
    sigma_mode: str = "std"

    @classmethod
    def load(cls, config_path) -> "AssetLibrary":
        """Read a library config (`_CONFIG_SPEC`) and every file it names;
        any DataError names the config file, and the asset file when the
        error lies there."""
        config_path = Path(config_path)
        root = config_path.parent

        def read_asset(loader, rel: str):
            path = root / rel
            if not path.exists():
                raise FileNotFoundError(f"library references missing file: {path}")
            with naming(path):
                return loader(path)

        with naming(config_path):
            cfg = decode_json(read_json_object(config_path), _CONFIG_SPEC)
            textures, hdrs = cfg["textures"], cfg["hdrs"]
            eye_colors = cfg.get("eye_colors", DEFAULT_EYE_COLORS)
            if not (textures and hdrs and eye_colors):
                raise DataError("library textures, hdrs and eye_colors must not be empty")
            model = read_asset(load_model, cfg["model"])
            gmm = read_asset(load_gmm, cfg["gmm"])
            if gmm.dim != model.n_identity:
                raise DataError(
                    f"GMM dimension {gmm.dim} != model identity size {model.n_identity}")
            expressions = read_asset(load_expression_library, cfg["expression_library"])
            if expressions.betas.shape[1] != model.n_expression:
                raise DataError("expression library width != model expression basis size")
            grooms = {style: {Path(rel).stem: read_asset(load_groom, rel) for rel in rels}
                      for style, rels in cfg.get("grooms", {}).items()}
            hair_colors = HairColorTable.uniform_placeholder()
            if "hair_color_table" in cfg:
                hair_colors = read_asset(
                    lambda p: HairColorTable.from_dict(read_json_object(p)),
                    cfg["hair_color_table"])
            eyelid = EyelidCorrectionConfig(**cfg.get("eyelid", {}))
            for key in ("raise_ids", "lower_ids"):
                bad = [i for i in getattr(eyelid, key) if not 0 <= i < model.n_expression]
                if bad:
                    raise DataError(f"$.eyelid.{key} holds {bad}, outside the model's "
                                    f"expression range [0, {model.n_expression})")
            pose = PoseDistribution(**cfg.get("pose", {}))
            check_pose_acceptance(model.skeleton, pose)
            sampling = cfg.get("sampling", {})
            if sampling.get("sigma", 0.0) < 0:
                raise DataError(f"$.sampling.sigma {sampling['sigma']} is negative")
            for rel in hdrs:        # a scene names its light: only the id is kept
                read_asset(read_hdr, rel)
            return cls(
                root=root,
                model=model,
                gmm=gmm,
                expressions=expressions,
                textures=textures,
                eye_colors=eye_colors,
                grooms=grooms,
                hdrs=tuple(dict.fromkeys(Path(rel).stem for rel in hdrs)),
                hair_colors=hair_colors,
                pose=pose,
                eyelid=eyelid,
                camera=CameraConfig(**cfg.get("camera", {})),
                render=RenderConfig(**cfg.get("render", {})),
                topology=SceneTopology.compile(
                    model, EyeGeometryParams(**cfg.get("eye_geometry", {})), grooms,
                    cfg.get("subdivision_levels", 3)),
                **sampling,
            )


# The library config: file paths relative to the config's directory, asset
# ids and sampler settings.  model, gmm, expression_library, textures and
# hdrs are required; any other key left out takes the default of the field
# it sets.
_CONFIG_SPEC = {
    "model": str, "gmm": str, "expression_library": str, "hair_color_table": str,
    "grooms": {style: [str] for style in HAIR_STYLES}, "hdrs": [str],
    "textures": [str], "eye_colors": [str],
    "pose": {"joint_std": (4, 3), "global_rot_std": (3,)},
    "eyelid": {"raise_ids": [int], "lower_ids": [int], "gain": float},
    "camera": {"fov_deg": float, "framing_scale": float},
    "render": {"resolution": int, "spp": int},
    "eye_geometry": dict.fromkeys(
        ("sclera_radius", "cornea_radius", "iris_flatten_depth", "pupil_radius"), float),
    "sampling": {"sigma": float, "sigma_mode": {"std", "var"}},
    "subdivision_levels": int,
}
