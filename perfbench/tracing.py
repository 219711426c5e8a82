"""Per-layer spans recorded from outside the program.

A traced run replaces each layer's public function at the module
attribute its caller looks it up by (``facegen.scene.subdivide_catmull_clark``,
``facegen.learning.total_loss``, ...) with a wrapper that times the call.
Calls made while another wrapped call is running become its children, so
every span gets its true self time: its duration minus the time covered by
its children.  Nothing under ``src/`` changes, and the originals are put
back when the ``installed`` block exits, even on error.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

# (module the caller looks the name up in, attribute, span name).  The span
# name is <defining module>.<function>; one span may be patched in several
# caller modules.  Spans too small to matter (gmm.sample_identity and the
# sampling.* draws inside scene.sample_scene, hdr.augment_rotations,
# poremap.read_pgm) are left unwrapped so their time stays with the caller
# and the metric list stays within 128 entries.
SPANS = (
    # scene-sample
    ("facegen.scene", "sample_scene", "scene.sample_scene"),
    ("facegen.scene", "realize_scene", "scene.realize_scene"),
    ("facegen.scene", "export_scene", "scene.export_scene"),
    ("facegen.scene", "evaluate", "model.evaluate"),
    ("facegen.scene", "world_transforms", "model.world_transforms"),
    ("facegen.scene", "subdivide_catmull_clark", "subdivision.subdivide_catmull_clark"),
    ("facegen.subdivision", "build_connectivity", "mesh.build_connectivity"),
    ("facegen.scene", "build_eye", "eyes.build_eye"),
    ("facegen.scene", "shrinkwrap_eyelids", "eyes.shrinkwrap_eyelids"),
    ("facegen.scene", "flip_groom", "hair.flip_groom"),
    ("facegen.scene", "dump_obj", "objio.dump_obj"),
    ("facegen.scene", "save_groom", "hair.save_groom"),
    # fit-desk, fit-large
    ("facegen.learning", "fit", "learning.fit"),
    ("facegen.procedural", "default_base_model", "procedural.default_base_model"),
    ("facegen.learning", "vertex_normals", "mesh.vertex_normals"),
    ("facegen.learning", "build_connectivity", "mesh.build_connectivity"),
    ("facegen.learning", "uniform_laplacian_matrix", "mesh.uniform_laplacian_matrix"),
    ("facegen.learning", "total_loss", "learning.total_loss"),
    ("facegen.learning", "evaluate_unposed", "model.evaluate_unposed"),
    ("facegen.learning", "pose_derivatives", "model.pose_derivatives"),
    ("facegen.learning", "lbs_apply", "model.lbs_apply"),
    ("facegen.learning", "euler_xyz_grad", "model.euler_xyz_grad"),
    ("facegen.learning", "adam_step", "adam.adam_step"),
    # asset-codecs
    ("facegen.hair", "encode_groom", "hair.encode_groom"),
    ("facegen.hair", "decode_groom", "hair.decode_groom"),
    ("facegen.gmm", "fit_gmm", "gmm.fit_gmm"),
    ("facegen.hdr", "read_hdr", "hdr.read_hdr"),
    ("facegen.hdr", "preprocess_hdr", "hdr.preprocess_hdr"),
    ("facegen.pca", "fit_pca", "pca.fit_pca"),
    ("facegen.poremap", "pore_map", "poremap.pore_map"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))


class Tracer:
    """Collects per-call self times (ms) by span name, kept in memory."""

    def __init__(self):
        self.self_ms: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
        self.top_level_s = 0.0      # summed duration of spans with no parent
        self._stack: list[list[float]] = []   # child time of each open span

    def _wrap(self, name: str, fn):
        samples = self.self_ms.setdefault(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                samples.append(1e3 * (dt - children[0]))
                if self._stack:
                    self._stack[-1][0] += dt
                else:
                    self.top_level_s += dt
        return traced

    @contextmanager
    def installed(self, spans=SPANS):
        """Patch every span's attribute for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in spans:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
