"""Scene sampling, realization and export.

A SceneDescription is one synthetic-frame recipe: model parameters plus
asset ids (texture, eye color, grooms with flip flags, HDR with yaw) and
camera/render settings.  Realization turns it into geometry; export
writes renderer-consumable files with a content-hash manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import decode_json, encode_json, parse_json_object, write_files
from .errors import DataError, InvalidParam
from .eyes import build_eye, shrinkwrap_eyelids
from .gmm import sample_identity
from .hair import HAIR_STYLES, Groom, flip_groom, save_groom
from .library import AssetLibrary, SceneTopology, check_fov, check_render
from .mesh import QuadMesh
from .model import (ModelParams, Pose, apply_pose, euler_xyz, evaluate, evaluate_unposed,
                    world_transforms)
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
# AssetLibrary.load, and evaluate not at all.  They stay importable from this
# module with the per-scene stages, where per-layer tracing looks every stage up.


@dataclass(frozen=True)
class GroomChoice:
    groom_id: str
    flip: bool


@dataclass(frozen=True)
class Camera:
    position: tuple[float, float, float]
    look_at: tuple[float, float, float]
    fov_deg: float

    def __post_init__(self):
        check_fov(self.fov_deg)


_VEC3 = [float] * 3
# scene.json as SceneDescription.from_dict reads it (decode_json); the
# published schemas/scene.schema.json states the same document for renderers
_SCENE_SPEC = {
    "params": {"alpha": [float], "beta": [float], "joint_angles": [_VEC3] * 4,
               "global_rot": _VEC3, "global_trans": _VEC3},
    "texture_id": str, "eye_color_id": str,
    "grooms": dict.fromkeys(HAIR_STYLES, {"id": str, "flip": bool}),
    "hair_color": dict.fromkeys(("melanin", "pheomelanin", "grayness"), float),
    "hdr_id": str, "hdr_yaw": float,
    "camera": {"position": _VEC3, "look_at": _VEC3, "fov_deg": float},
    "render": {"resolution": int, "spp": int},
    "seed": int,
    "eye_metadata": dict,           # written by export_scene for the renderer
}


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
        # errors name the field by its path in the scene document (to_dict)
        beta = self.params.beta
        bad = np.flatnonzero(~((beta >= 0.0) & (beta <= 1.0)))
        if bad.size:
            raise InvalidParam(f"$.params.beta[{bad[0]}] {beta[bad[0]]} outside [0, 1]")
        if not 0.0 <= self.hdr_yaw < 2.0 * np.pi:
            raise InvalidParam(f"$.hdr_yaw {self.hdr_yaw} outside [0, 2*pi)")
        check_render(self.resolution, self.spp)

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
        """The scene a scene.json object holds; any mismatch with
        `_SCENE_SPEC` or the value ranges is a DataError naming the key."""
        d = decode_json(d, _SCENE_SPEC)
        p = d["params"]
        hc = d["hair_color"]
        cam = d["camera"]
        return cls(
            params=ModelParams(p["alpha"], p["beta"],
                               Pose(p["joint_angles"], p["global_rot"], p["global_trans"])),
            texture_id=d["texture_id"],
            eye_color_id=d["eye_color_id"],
            grooms={style: GroomChoice(v["id"], v["flip"])
                    for style, v in d["grooms"].items()},
            hair_color=HairColor(hc["melanin"], hc["pheomelanin"], hc["grayness"]),
            hdr_id=d["hdr_id"],
            hdr_yaw=d["hdr_yaw"],
            camera=Camera(cam["position"], cam["look_at"], cam["fov_deg"]),
            resolution=d["render"]["resolution"],
            spp=d["render"]["spp"],
            seed=d["seed"],
        )

    def to_json(self) -> str:
        return encode_json(self.to_dict(), indent=1).decode()

    @classmethod
    def from_json(cls, text: str) -> "SceneDescription":
        return cls.from_dict(parse_json_object(text, "scene JSON"))


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

    return SceneDescription(
        params=ModelParams(alpha, beta, pose),
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
    topology: SceneTopology          # the library topology the meshes share


def realize_scene(library: AssetLibrary, scene: SceneDescription) -> RealizedScene:
    """Geometry for one scene: posed subdivided face, placed eyes with
    shrinkwrapped lids, and grooms transported by the head transform, all
    from one composition of the joint transforms and the global rotation."""
    for key, asset_id, ids in (("texture_id", scene.texture_id, library.textures),
                               ("eye_color_id", scene.eye_color_id, library.eye_colors),
                               ("hdr_id", scene.hdr_id, library.hdrs)):
        if asset_id not in ids:
            raise DataError(f"{key} {asset_id!r} is not in the library")
    model = library.model
    topo = library.topology
    params = scene.params
    unposed = evaluate_unposed(model, params.alpha, params.beta)
    R_w, b_w, piv = world_transforms(model.skeleton, params.alpha,
                                     params.gamma.joint_angles)
    R_g = euler_xyz(params.gamma.global_rot)
    t_g = params.gamma.global_trans
    face_verts = topo.stencil @ apply_pose(model, R_w, b_w, R_g, t_g, unposed)

    eye_verts = []
    for joint, lid_ids in ((2, model.eyelid_left), (3, model.eyelid_right)):
        # the eye's pivot under its joint's world transform, then the global one
        center_world = (piv[joint] @ R_w[joint].T + b_w[joint]) @ R_g.T + t_g
        rot = R_g @ R_w[joint]
        for part in (topo.eye.sclera, topo.eye.cornea):
            eye_verts.append(part.vertices @ rot.T + center_world)
        if lid_ids is not None and len(lid_ids):
            face_verts = shrinkwrap_eyelids(face_verts, lid_ids, center_world,
                                            topo.eye.params.sclera_radius)
    face = topo.face.with_vertices(face_verts)
    eyes = topo.eyes.with_vertices(np.concatenate(eye_verts))

    grooms: dict[str, Groom] = {}
    neck_R = R_g @ R_w[0]
    neck_t = b_w[0] @ R_g.T + t_g
    for style, choice in scene.grooms.items():
        pool = topo.flipped_grooms if choice.flip else library.grooms
        g = pool.get(style, {}).get(choice.groom_id)
        if g is None:
            raise DataError(f"{style} groom {choice.groom_id!r} is not in the library")
        grooms[style] = g.with_points(g.points @ neck_R.T + neck_t)

    return RealizedScene(face=face, eyes=eyes, grooms=grooms, topology=topo)


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
    if out.is_dir():
        for name in _EXPORT_NAMES:
            (out / name).unlink(missing_ok=True)
    else:
        out.mkdir(parents=True)
    topo = geometry.topology
    scene_dict = scene.to_dict()
    scene_dict["eye_metadata"] = topo.eye.metadata
    hashes = write_files(out, {"face.obj": dump_obj(geometry.face, topo.face_obj),
                               "eyes.obj": dump_obj(geometry.eyes, topo.eyes_obj),
                               "scene.json": encode_json(scene_dict, indent=1)})
    for style, groom in sorted(geometry.grooms.items()):
        hashes.update(save_groom(out / f"groom_{style}.json", groom))
    write_files(out, {"manifest.json": encode_json({"files": hashes}, indent=1)})
    return hashes
