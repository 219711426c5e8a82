"""Blendshape-model serialization in the matrix container format.

Schema (version 1) tensors: template_vertices, template_quads,
identity_basis [m, V, 3], expression_basis [n, V, 3],
skinning_weights [V, 4], skeleton_t0 [4, 3], skeleton_a [4, 3, m],
skeleton_limits [4, 3, 2]; optional template_uvs and eyelid id lists.
"""

from __future__ import annotations

import numpy as np

from .container import load_container, require_finite, save_container
from .errors import DataError
from .mesh import QuadMesh
from .model import BlendshapeModel, Skeleton

MODEL_SCHEMA_VERSION = 1


def save_model(path, model: BlendshapeModel) -> None:
    tensors = {
        "template_vertices": model.template.vertices,
        "template_quads": model.template.quads.astype(np.float64),
        "identity_basis": model.identity_basis,
        "expression_basis": model.expression_basis,
        "skinning_weights": model.skinning_weights,
        "skeleton_t0": model.skeleton.t0,
        "skeleton_a": model.skeleton.a,
        "skeleton_limits": model.skeleton.limits,
    }
    if model.template.uvs is not None:
        tensors["template_uvs"] = model.template.uvs
    if model.skeleton.rest_rotations is not None:
        tensors["skeleton_rest_rotations"] = model.skeleton.rest_rotations
    if model.eyelid_left is not None:
        tensors["eyelid_left"] = model.eyelid_left.astype(np.float64)
    if model.eyelid_right is not None:
        tensors["eyelid_right"] = model.eyelid_right.astype(np.float64)
    save_container(path, tensors, metadata={
        "kind": "blendshape_model",
        "version": MODEL_SCHEMA_VERSION,
    })


def load_model(path) -> BlendshapeModel:
    tensors, meta = load_container(path, "blendshape_model")
    if meta.get("version") != MODEL_SCHEMA_VERSION:
        raise DataError(f"{path}: model version {meta.get('version')!r} is not the "
                        f"supported {MODEL_SCHEMA_VERSION}")
    require_finite(tensors)
    template = QuadMesh(
        tensors["template_vertices"],
        _indices(tensors, "template_quads"),
        tensors.get("template_uvs"),
    )
    skeleton = Skeleton(
        t0=tensors["skeleton_t0"],
        a=tensors["skeleton_a"],
        limits=tensors["skeleton_limits"],
        rest_rotations=tensors.get("skeleton_rest_rotations"),
    )
    return BlendshapeModel(
        template=template,
        identity_basis=tensors["identity_basis"],
        expression_basis=tensors["expression_basis"],
        skeleton=skeleton,
        skinning_weights=tensors["skinning_weights"],
        eyelid_left=_indices(tensors, "eyelid_left") if "eyelid_left" in tensors else None,
        eyelid_right=_indices(tensors, "eyelid_right") if "eyelid_right" in tensors else None,
    )


def _indices(tensors, name: str) -> np.ndarray:
    """The finite tensor `name` as int64 indices; a fractional entry is a
    DataError naming the tensor."""
    t = tensors[name]
    if not (t == np.round(t)).all():
        raise DataError(f"tensor {name!r} holds a non-integral index")
    return t.astype(np.int64)
