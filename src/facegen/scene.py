"""Scene sampling, realization and export.

A SceneDescription is one synthetic-frame recipe: model parameters plus
asset ids (texture, eye color, grooms with flip flags, HDR with yaw) and
camera/render settings.  Realization turns it into geometry; export
writes renderer-consumable files with a content-hash manifest.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidParam
from .eyes import build_eye, shrinkwrap_eyelids
from .gmm import sample_identity
from .hair import HAIR_STYLES, Groom, flip_groom, save_groom
from .library import AssetLibrary, SceneTopology
from .mesh import QuadMesh
from .model import ModelParams, Pose, euler_xyz, evaluate, world_transforms
from .objio import dump_obj
from .sampling import (
    HairColor,
    gaze_eyelid_correction,
    sample_expression,
    sample_hair_color,
    sample_pose,
)
from .subdivision import subdivide_catmull_clark

# build_eye, flip_groom and subdivide_catmull_clark run once per library, in
# AssetLibrary.load, not per scene.  They stay importable from this module
# with the per-scene stages, where per-layer tracing looks every stage up.


@dataclass(frozen=True)
class GroomChoice:
    groom_id: str
    flip: bool


@dataclass(frozen=True)
class Camera:
    position: tuple[float, float, float]
    look_at: tuple[float, float, float]
    fov_deg: float


@dataclass(frozen=True)
class SceneDescription:
    params: ModelParams
    texture_id: str
    eye_color_id: str
    grooms: dict[str, GroomChoice]
    hair_color: HairColor
    hdr_id: str
    hdr_yaw: float
    camera: Camera
    resolution: int
    spp: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.hdr_yaw < 2.0 * np.pi:
            raise InvalidParam(f"hdr_yaw {self.hdr_yaw} outside [0, 2*pi)")

    def to_dict(self) -> dict:
        g = self.params.gamma
        return {
            "params": {
                "alpha": [float(x) for x in self.params.alpha],
                "beta": [float(x) for x in self.params.beta],
                "joint_angles": [[float(x) for x in row] for row in g.joint_angles],
                "global_rot": [float(x) for x in g.global_rot],
                "global_trans": [float(x) for x in g.global_trans],
            },
            "texture_id": self.texture_id,
            "eye_color_id": self.eye_color_id,
            "grooms": {style: {"id": c.groom_id, "flip": c.flip}
                       for style, c in sorted(self.grooms.items())},
            "hair_color": {
                "melanin": self.hair_color.melanin,
                "pheomelanin": self.hair_color.pheomelanin,
                "grayness": self.hair_color.grayness,
            },
            "hdr_id": self.hdr_id,
            "hdr_yaw": float(self.hdr_yaw),
            "camera": {
                "position": list(self.camera.position),
                "look_at": list(self.camera.look_at),
                "fov_deg": self.camera.fov_deg,
            },
            "render": {"resolution": self.resolution, "spp": self.spp},
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SceneDescription":
        validate_scene_dict(d)
        p = d["params"]
        params = ModelParams(
            np.asarray(p["alpha"], dtype=np.float64),
            np.asarray(p["beta"], dtype=np.float64),
            Pose(np.asarray(p["joint_angles"], dtype=np.float64),
                 np.asarray(p["global_rot"], dtype=np.float64),
                 np.asarray(p["global_trans"], dtype=np.float64)),
        )
        hc = d["hair_color"]
        cam = d["camera"]
        return cls(
            params=params,
            texture_id=d["texture_id"],
            eye_color_id=d["eye_color_id"],
            grooms={style: GroomChoice(v["id"], bool(v["flip"]))
                    for style, v in d["grooms"].items()},
            hair_color=HairColor(hc["melanin"], hc["pheomelanin"], hc["grayness"]),
            hdr_id=d["hdr_id"],
            hdr_yaw=float(d["hdr_yaw"]),
            camera=Camera(tuple(cam["position"]), tuple(cam["look_at"]),
                          float(cam["fov_deg"])),
            resolution=int(d["render"]["resolution"]),
            spp=int(d["render"]["spp"]),
            seed=int(d["seed"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SceneDescription":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# schema validation (minimal JSON-schema subset interpreter)
# ---------------------------------------------------------------------------

@functools.cache
def _schema() -> dict:
    with resources.files("facegen").joinpath("schemas/scene.schema.json").open() as f:
        return json.load(f)


def _check(instance, schema: dict, path: str) -> None:
    t = schema.get("type")
    if t == "object":
        if not isinstance(instance, dict):
            raise DataError(f"{path}: expected object")
        for key in schema.get("required", ()):
            if key not in instance:
                raise DataError(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in instance:
                _check(instance[key], sub, f"{path}.{key}")
        extra = schema.get("additionalProperties")
        if isinstance(extra, dict):
            for key in instance:
                if key not in props:
                    _check(instance[key], extra, f"{path}.{key}")
    elif t == "array":
        if not isinstance(instance, list):
            raise DataError(f"{path}: expected array")
        if "items" in schema:
            for i, item in enumerate(instance):
                _check(item, schema["items"], f"{path}[{i}]")
        if "minItems" in schema and len(instance) < schema["minItems"]:
            raise DataError(f"{path}: fewer than {schema['minItems']} items")
        if "maxItems" in schema and len(instance) > schema["maxItems"]:
            raise DataError(f"{path}: more than {schema['maxItems']} items")
    elif t == "number":
        if not isinstance(instance, (int, float)) or isinstance(instance, bool):
            raise DataError(f"{path}: expected number")
        if "minimum" in schema and instance < schema["minimum"]:
            raise DataError(f"{path}: {instance} below minimum {schema['minimum']}")
        if "exclusiveMaximum" in schema and instance >= schema["exclusiveMaximum"]:
            raise DataError(f"{path}: {instance} not below {schema['exclusiveMaximum']}")
        if "maximum" in schema and instance > schema["maximum"]:
            raise DataError(f"{path}: {instance} above maximum {schema['maximum']}")
    elif t == "integer":
        if not isinstance(instance, int) or isinstance(instance, bool):
            raise DataError(f"{path}: expected integer")
        if "minimum" in schema and instance < schema["minimum"]:
            raise DataError(f"{path}: {instance} below minimum {schema['minimum']}")
    elif t == "string":
        if not isinstance(instance, str):
            raise DataError(f"{path}: expected string")
        if "enum" in schema and instance not in schema["enum"]:
            raise DataError(f"{path}: {instance!r} not in {schema['enum']}")
    elif t == "boolean":
        if not isinstance(instance, bool):
            raise DataError(f"{path}: expected boolean")
    else:
        raise DataError(f"{path}: schema node missing a supported type")


def validate_scene_dict(d: dict) -> None:
    """Validate a scene dict against the published scene.schema.json."""
    _check(d, _schema(), "$")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def default_camera(library: AssetLibrary) -> Camera:
    """Frontal camera framed on the template head's bounding sphere."""
    lo, hi = library.model.template.bounding_box()
    center = 0.5 * (lo + hi)
    radius = 0.5 * float(np.linalg.norm(hi - lo))
    fov = np.radians(library.camera.fov_deg)
    dist = library.camera.framing_scale * radius / np.sin(0.5 * fov)
    pos = center + np.array([0.0, 0.0, dist])
    return Camera(tuple(float(x) for x in pos),
                  tuple(float(x) for x in center),
                  library.camera.fov_deg)


def sample_scene(library: AssetLibrary, seed: int) -> SceneDescription:
    """Independent draws of identity, expression, pose, texture, grooms,
    hair color and illumination; deterministic per seed."""
    rng = np.random.default_rng(seed)
    alpha = sample_identity(library.gmm, sigma=library.sigma, rng=rng,
                            sigma_mode=library.sigma_mode)
    beta = sample_expression(library.expressions, rng)
    pose = sample_pose(library.model.skeleton, library.pose, rng)

    coin = bool(rng.random() < 0.5)
    gaze_pitch = float(0.5 * (pose.joint_angles[2, 0] + pose.joint_angles[3, 0]))
    beta = gaze_eyelid_correction(beta, gaze_pitch, coin, library.eyelid.gain,
                                  library.eyelid.raise_ids, library.eyelid.lower_ids)

    texture_id = library.textures[int(rng.integers(len(library.textures)))]
    eye_color_id = library.eye_colors[int(rng.integers(len(library.eye_colors)))]

    grooms: dict[str, GroomChoice] = {}
    for style in HAIR_STYLES:
        pool = library.grooms.get(style)
        if not pool:
            continue
        names = sorted(pool)
        gid = names[int(rng.integers(len(names)))]
        grooms[style] = GroomChoice(gid, bool(rng.random() < 0.5))

    hair_color = sample_hair_color(library.hair_colors, rng)
    hdr_ids = sorted(library.hdrs)
    hdr_id = hdr_ids[int(rng.integers(len(hdr_ids)))]
    yaw = float(rng.uniform(0.0, 2.0 * np.pi))

    params = ModelParams(alpha, beta, pose)
    params.validate(library.model.skeleton)
    return SceneDescription(
        params=params,
        texture_id=texture_id,
        eye_color_id=eye_color_id,
        grooms=grooms,
        hair_color=hair_color,
        hdr_id=hdr_id,
        hdr_yaw=yaw,
        camera=default_camera(library),
        resolution=library.render.resolution,
        spp=library.render.spp,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

@dataclass
class RealizedScene:
    face: QuadMesh
    eyes: QuadMesh
    grooms: dict[str, Groom]
    eye_metadata: dict
    topology: SceneTopology          # the library topology the meshes share


def realize_scene(library: AssetLibrary, scene: SceneDescription) -> RealizedScene:
    """Geometry for one scene: posed subdivided face, placed eyes with
    shrinkwrapped lids, and grooms transported by the head transform."""
    model = library.model
    topo = library.topology
    params = scene.params
    posed = evaluate(model, params)
    face_verts = topo.stencil @ posed.vertices

    R_w, b_w, _ = world_transforms(model.skeleton, params.alpha,
                                   params.gamma.joint_angles)
    R_g = euler_xyz(params.gamma.global_rot)
    t_g = params.gamma.global_trans

    def to_world(joint: int, points: np.ndarray) -> np.ndarray:
        local = points @ R_w[joint].T + b_w[joint]
        return local @ R_g.T + t_g

    piv = model.skeleton.pivots(params.alpha)
    eye_verts = []
    for joint, lid_ids in ((2, model.eyelid_left), (3, model.eyelid_right)):
        center_world = to_world(joint, piv[joint][None])[0]
        rot = R_g @ R_w[joint]
        for part in (topo.eye.sclera, topo.eye.cornea):
            eye_verts.append(part.vertices @ rot.T + center_world)
        if lid_ids is not None and len(lid_ids):
            face_verts = shrinkwrap_eyelids(face_verts, lid_ids, center_world,
                                            library.eye_params.sclera_radius)
    face = QuadMesh(face_verts, topo.face_quads, topo.face_uvs)
    eyes = QuadMesh(np.concatenate(eye_verts), topo.eyes_quads)

    grooms: dict[str, Groom] = {}
    neck_R = R_g @ R_w[0]
    neck_t = b_w[0] @ R_g.T + t_g
    for style, choice in scene.grooms.items():
        pool = topo.flipped_grooms if choice.flip else library.grooms
        g = pool.get(style, {}).get(choice.groom_id)
        if g is None:
            raise DataError(f"{style} groom {choice.groom_id!r} is not in the library")
        grooms[style] = Groom.from_ragged(g.points @ neck_R.T + neck_t, g.offsets,
                                          g.root_uv, style=g.style)

    return RealizedScene(face=face, eyes=eyes, grooms=grooms,
                         eye_metadata=topo.eye.metadata, topology=topo)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

# every name export_scene can write; a re-export removes these first so a
# used directory never keeps files of an earlier scene, and nothing else
_EXPORT_NAMES = frozenset(
    {"face.obj", "eyes.obj", "scene.json", "manifest.json"}
    | {f"groom_{style}{ext}" for style in HAIR_STYLES for ext in (".json", ".bin")})


def export_scene(scene: SceneDescription, geometry: RealizedScene,
                 out_dir) -> dict[str, str]:
    """Write face.obj, eyes.obj, groom files and scene.json plus a
    manifest of their sha256 content hashes.  Returns {filename: hash}.

    Export-owned names left by an earlier export into `out_dir` are
    removed; other files there are kept and not listed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in _EXPORT_NAMES:
        (out / name).unlink(missing_ok=True)
    topo = geometry.topology
    (out / "face.obj").write_text(dump_obj(geometry.face, topo.face_obj))
    (out / "eyes.obj").write_text(dump_obj(geometry.eyes, topo.eyes_obj))
    written = ["face.obj", "eyes.obj", "scene.json"]
    for style, groom in sorted(geometry.grooms.items()):
        save_groom(out / f"groom_{style}.json", groom)
        written += [f"groom_{style}.json", f"groom_{style}.bin"]
    scene_dict = scene.to_dict()
    scene_dict["eye_metadata"] = geometry.eye_metadata
    (out / "scene.json").write_text(
        json.dumps(scene_dict, sort_keys=True, indent=1) + "\n")

    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in sorted(written)}
    (out / "manifest.json").write_text(
        json.dumps({"files": hashes}, sort_keys=True, indent=1) + "\n")
    return hashes
