"""The facegen benchmark workloads, their output checks and their metrics.

Every workload is a closed loop with one client in one process: each
operation starts after the previous one ends.  A workload makes its inputs
from the seed through facegen's public API, sets up (timed, several
times), then runs operations back to back for the requested seconds.
Output checks run between operations and their time is excluded from the
measured window.  See README.md in this directory for the rationale.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from facegen import hair as fhair
from facegen import gmm as fgmm
from facegen import hdr as fhdr
from facegen import learning as flearning
from facegen import pca as fpca
from facegen import poremap as fpore
from facegen import scene as fscene
from facegen.cli import cli_main
from facegen.demo import build_demo_library, make_demo_groom, make_demo_hdr
from facegen.errors import FacegenError
from facegen.hair import Groom, encode_groom
from facegen.learning import FitSchedule, LossWeights, ScanSet
from facegen.library import AssetLibrary
from facegen.model import ModelParams, evaluate
from facegen.poremap import write_pgm16
from facegen.procedural import desk_head, synthetic_expression_library
from facegen.sampling import (
    ExpressionLibrary,
    PoseDistribution,
    sample_expression,
    sample_pose,
    split_seed,
)

from tracing import SPAN_NAMES, Tracer

# name -> unit; emitted by every workload with tracing off
END_TO_END = {
    "unit_ms_p50": "ms",
    "units_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; exact counts taken from the outputs (0 where not applicable)
COUNTS = {
    "scene.bytes_written": "bytes",
    "scene.files_written": "count",
    "subdivision.face_vertices": "count",
    "learning.iterations": "count",
    "gmm.em_iterations": "count",
    "hair.decode_full_length_ratio": "ratio",
    "hair.roundtrip_length_rms": "ratio",
}

SPAN_STATS = {"calls": "count", "self_ms_p50": "ms", "self_ms_p90": "ms",
              "self_share": "ratio"}


def per_layer_units() -> dict[str, str]:
    """name -> unit of every metric a traced run emits."""
    units = {f"{span}.{stat}": unit
             for span in SPAN_NAMES for stat, unit in SPAN_STATS.items()}
    units["unattributed.self_share"] = "ratio"
    units["trace.overhead_ms"] = "ms"
    units.update(COUNTS)
    return units


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, tests shrink them."""

    setup_repeats: int = 5              # scene-sample: library load + warm-up scene
    warmup_rounds: int = 5              # asset-codecs
    scene_check_count: int = 8          # scenes compared with `facegen sample`
    desk_scans: int = 30
    desk_m: int = 4
    desk_iterations: int = 50
    large_lat: int = 40                 # desk_head(m=8, lat=40, lon=48): V=1922
    large_lon: int = 48
    large_scans: int = 30
    large_m: int = 8
    large_iterations: int = 10
    groom_strands: int = 2000
    groom_clusters: int = 48            # criterion-7 groom, checked in set-up
    groom_uv_res: int = 64
    groom_vol_res: int = 32
    gmm_samples: int = 1000
    gmm_dim: int = 8
    gmm_components: int = 5
    hdr_files: int = 4
    hdr_height: int = 128
    hdr_width: int = 256
    hdr_rotations: int = 2
    pca_components: int = 8
    pore_size: int = 1024
    pore_sigma: float = 2.5


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


@dataclass
class Window:
    """One measured stretch of back-to-back operations."""

    durations: list[float] = field(default_factory=list)   # s per operation
    units: list[int] = field(default_factory=list)         # work units per operation
    unit_ms: list[float] = field(default_factory=list)     # ms per unit, per operation
    traced: list[bool] = field(default_factory=list)       # ran with the tracer installed
    busy_s: float = 0.0                                    # summed operation time
    failed: int = 0

    def part(self, traced: bool) -> "Window":
        """The operations that ran with (or without) the tracer."""
        keep = [k for k, t in enumerate(self.traced) if t == traced]
        return Window([self.durations[k] for k in keep], [self.units[k] for k in keep],
                      [self.unit_ms[k] for k in keep], [traced] * len(keep),
                      sum(self.durations[k] for k in keep))


def run_window(workload: "Workload", seconds: float, min_ops: int = 1,
               tracer: Tracer | None = None) -> Window:
    """Run operations 0, 1, ... until `seconds` of operation time have
    passed and at least `min_ops` have run.  With a tracer, every second
    operation runs with it installed, so host drift hits both kinds alike.
    Installing the tracer and checking outputs are outside operation time."""
    win = Window()
    i = 0
    while len(win.durations) < min_ops or win.busy_s < seconds:
        traced = tracer is not None and i % 2 == 1
        with tracer.installed() if traced else nullcontext():
            t0 = perf_counter()
            out = workload.op(i)
            t1 = perf_counter()
        units, unit_ms = workload.units(out, t1 - t0)
        win.durations.append(t1 - t0)
        win.units.append(units)
        win.unit_ms.append(unit_ms)
        win.traced.append(traced)
        win.busy_s += t1 - t0
        if not workload.check(i, out):
            win.failed += 1
        i += 1
    return win


class Workload:
    """Interface of a workload; subclasses fill in the operations."""

    min_ops = 1

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.counts: dict[str, float] = {}

    def setup(self) -> list[float]:
        """Make inputs (untimed) and time set-up; returns set-up samples (s)."""
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def units(self, out, seconds: float) -> tuple[int, float]:
        """(work units done, ms per unit) for one operation."""
        return 1, 1e3 * seconds

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def final_failures(self) -> int:
        """Failures found by checks that run once after the loop."""
        return 0

    def setup_samples(self, window: Window) -> list[float]:
        """Set-up samples taken during the measured window."""
        return []

    def summary(self, window: Window) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scene-sample
# ---------------------------------------------------------------------------

def _hash_tree_check(scene_dir: Path) -> bool:
    """Manifest lists exactly the other files, with matching sha256, and
    scene.json re-parses."""
    manifest = json.loads((scene_dir / "manifest.json").read_text())["files"]
    names = {p.name for p in scene_dir.iterdir()} - {"manifest.json"}
    if names != set(manifest):
        return False
    for name, digest in manifest.items():
        if hashlib.sha256((scene_dir / name).read_bytes()).hexdigest() != digest:
            return False
    fscene.SceneDescription.from_json((scene_dir / "scene.json").read_text())
    return True


class SceneSample(Workload):
    """`facegen sample` in-process on the demo library, one scene per op."""

    # set-up is re-timed after every 8th scene, not only before the window,
    # so that setup_s samples the host over the same span as the scenes
    SETUP_EVERY = 8

    def setup(self):
        self.min_ops = self.sizes.scene_check_count
        self.library_path = build_demo_library(self.work / "library", seed=0)
        self.out = self.work / "scenes"
        self.bytes = []
        self.files = []
        self.window_setups = []
        return [self._timed_setup() for _ in range(self.sizes.setup_repeats)]

    def _timed_setup(self) -> float:
        """Library load plus one warm-up scene, as a fresh `facegen sample`."""
        warmup = self.work / "warmup"
        t0 = perf_counter()
        self.library = AssetLibrary.load(self.library_path)
        self._scene(0, warmup)
        seconds = perf_counter() - t0
        shutil.rmtree(warmup)
        return seconds

    def _scene(self, i: int, out_dir: Path) -> int:
        scene = fscene.sample_scene(self.library, split_seed(self.seed, i))
        geometry = fscene.realize_scene(self.library, scene)
        fscene.export_scene(scene, geometry, out_dir)
        return geometry.face.n_vertices

    def op(self, i):
        return self._scene(i, self.out / f"scene_{i:04d}")

    def check(self, i, out):
        scene_dir = self.out / f"scene_{i:04d}"
        try:
            ok = _hash_tree_check(scene_dir)
        except (OSError, ValueError, KeyError, FacegenError):
            ok = False
        if i == 0:
            self.counts["subdivision.face_vertices"] = out
        if i < self.sizes.scene_check_count:
            files = list(scene_dir.iterdir())
            self.files.append(len(files))
            self.bytes.append(sum(p.stat().st_size for p in files))
        else:
            shutil.rmtree(scene_dir)
        if i % self.SETUP_EVERY == self.SETUP_EVERY - 1:
            self.window_setups.append(self._timed_setup())
        return ok

    def setup_samples(self, window):
        return self.window_setups

    def final_failures(self):
        """The first K scenes must be byte-identical to `facegen sample --count K`."""
        k = self.sizes.scene_check_count
        self.counts["scene.bytes_written"] = float(np.mean(self.bytes))
        self.counts["scene.files_written"] = float(np.mean(self.files))
        ref = self.work / "reference"
        rc = cli_main(["--seed", str(self.seed), "--out", str(ref), "sample",
                       "--library", str(self.library_path), "--count", str(k)])
        if rc != 0:
            return k
        failed = 0
        for i in range(k):
            a, b = self.out / f"scene_{i:04d}", ref / f"scene_{i:04d}"
            names = sorted(p.name for p in a.iterdir())
            same = names == sorted(p.name for p in b.iterdir()) and all(
                (a / n).read_bytes() == (b / n).read_bytes() for n in names)
            failed += not same
        return failed

    def summary(self, window):
        ms = [1e3 * d for d in window.durations]
        return [
            f"scenes_per_s  {len(ms) / window.busy_s:.4g} 1/s "
            f"({len(ms)} scenes in {window.busy_s:.3f} s)",
            f"scene_ms_p50  {percentile(ms, 50):.4g} ms (n={len(ms)})",
            f"scene_ms_p90  {percentile(ms, 90):.4g} ms (n={len(ms)}, "
            f"{len(ms) - int(np.ceil(0.9 * len(ms)))} samples beyond)",
        ]


# ---------------------------------------------------------------------------
# fit-desk, fit-large
# ---------------------------------------------------------------------------

class _Fit(Workload):
    """Repeated `learning.fit` calls on one scan set; one op per call."""

    def make_scans(self) -> tuple[ScanSet, int, FitSchedule]:
        raise NotImplementedError

    def setup(self):
        self.scans, self.m, self.schedule = self.make_scans()
        self.weights = LossWeights()
        # warm-up call: lazy first-call costs (cold BLAS/LAPACK) land in set-up
        t0 = perf_counter()
        _, report = self.op(-1)
        call_s = perf_counter() - t0
        traj = np.asarray(report.trajectory)
        self.reference = report.trajectory
        self.reference_ok = bool(np.all(np.isfinite(traj)) and traj[-1] < traj[0])
        self.counts["learning.iterations"] = report.iterations
        return [call_s - report.wall_time_s]

    def op(self, i):
        return flearning.fit(self.scans, self.m, self.weights, self.schedule,
                             seed=self.seed)

    def units(self, out, seconds):
        report = out[1]
        return report.iterations, 1e3 * report.wall_time_s / report.iterations

    def check(self, i, out):
        return self.reference_ok and out[1].trajectory == self.reference

    def setup_samples(self, window):
        # the part of each fit() call outside its loop
        return [d - u * ms / 1e3 for d, u, ms in
                zip(window.durations, window.units, window.unit_ms)]

    def summary(self, window):
        return [
            f"fit_iter_ms   {percentile(window.unit_ms, 50):.4g} ms "
            f"(median of {len(window.durations)} fit() calls)",
            f"fit_s         {percentile(window.durations, 50):.4g} s "
            f"(median of {len(window.durations)} calls, "
            f"{window.units[0]} iterations each)",
        ]


class FitDesk(_Fit):
    """Neutral identity blends of the desk head; README schedule."""

    def make_scans(self):
        s = self.sizes
        model = desk_head(m=s.desk_m)
        rng = np.random.default_rng(self.seed)
        alphas = rng.standard_normal((s.desk_scans, s.desk_m))
        verts = model.template.vertices + np.einsum(
            "nq,qvk->nvk", alphas, model.identity_basis)
        scans = ScanSet(verts, model.template.quads,
                        tuple(f"scan_{k:03d}" for k in range(s.desk_scans)))
        schedule = FitSchedule(iterations=s.desk_iterations, lr=0.01,
                               freeze_beta=True, freeze_pose=True,
                               early_stop_window=s.desk_iterations)
        return scans, s.desk_m, schedule


class FitLarge(_Fit):
    """Posed, expressive scans at V=1922; full joint minimization."""

    def make_scans(self):
        s = self.sizes
        model = desk_head(m=s.large_m, lat=s.large_lat, lon=s.large_lon)
        rng = np.random.default_rng(self.seed)
        expressions = ExpressionLibrary(synthetic_expression_library(
            48, model.n_expression, seed=self.seed))
        pose_dist = PoseDistribution(joint_std=0.08, global_rot_std=0.08)
        verts = np.stack([
            evaluate(model, ModelParams(rng.standard_normal(s.large_m),
                                        sample_expression(expressions, rng),
                                        sample_pose(model.skeleton, pose_dist, rng))
                     ).vertices
            for _ in range(s.large_scans)])
        scans = ScanSet(verts, model.template.quads,
                        tuple(f"scan_{k:03d}" for k in range(s.large_scans)))
        schedule = FitSchedule(iterations=s.large_iterations, lr=0.01,
                               early_stop_window=s.large_iterations)
        return scans, s.large_m, schedule


# ---------------------------------------------------------------------------
# asset-codecs
# ---------------------------------------------------------------------------

def clustered_groom(rng: np.random.Generator, n_strands: int, n_clusters: int,
                    R: int, scale: float = 0.1, segments: int = 12) -> Groom:
    """Groom of the kind acceptance criterion 7 roundtrips: roots clustered
    in a few UV texels, straight strands that lean."""
    texels = rng.choice(R * R, size=n_clusters, replace=False)
    iu, iv = texels // R, texels % R
    cluster = np.arange(n_strands) % n_clusters
    lean = rng.uniform(-0.3, 0.3, size=2)
    lengths = rng.uniform(0.4, 0.8, size=n_clusters) * scale
    uv = np.stack([(iu[cluster] + rng.integers(1, 1024, n_strands) / 1024.0) / R,
                   (iv[cluster] + rng.integers(1, 1024, n_strands) / 1024.0) / R],
                  axis=1)
    t = np.arange(segments) / segments
    d = np.stack([lean[0] * t, lean[1] * t, np.ones(segments)], axis=1)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    steps = (lengths[cluster] / segments)[:, None, None] * d[None]
    roots = np.stack([uv[:, 0] * scale, uv[:, 1] * scale, np.zeros(n_strands)], axis=1)
    points = np.concatenate(
        [roots[:, None], roots[:, None] + np.cumsum(steps, axis=1)], axis=1)
    return Groom(tuple(points), uv, style="scalp")


def _rel_rms(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)) / max(np.sqrt(np.mean(a ** 2)), 1e-12))


def _roundtrip_rms(groom: Groom, n_strands: int, R: int, G: int,
                   seed: int) -> tuple[float, float]:
    """Relative RMS of the density and length maps after decode + re-encode."""
    code = encode_groom(groom, R=R, G=G)
    step = float(code.cell_size().min()) / 4.0
    decoded, _ = fhair.decode_groom(code, n_strands, step, rng=seed)
    recode = encode_groom(decoded, R=R, G=G, bbox=code.bbox)
    return (_rel_rms(code.density_map, recode.density_map),
            _rel_rms(code.length_map, recode.length_map))


class AssetCodecs(Workload):
    """One op is one round of offline asset preparation."""

    def setup(self):
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        self.groom = make_demo_groom("scalp", s.groom_strands, seed=self.seed)
        # criterion 7 (10% RMS after decode + re-encode) on the kind of groom
        # it is defined for; the scalp groom's own figure is only reported
        criterion_groom = clustered_groom(rng, s.groom_strands, s.groom_clusters,
                                          s.groom_uv_res)
        self.criterion7_ok = max(_roundtrip_rms(
            criterion_groom, s.groom_strands, s.groom_uv_res, s.groom_vol_res,
            self.seed)) < 0.10
        # overlapping clusters, so EM runs its full max_iter on every seed
        centers = rng.standard_normal((s.gmm_components, s.gmm_dim))
        labels = np.arange(s.gmm_samples) % s.gmm_components
        self.gmm_data = centers[labels] + rng.standard_normal(
            (s.gmm_samples, s.gmm_dim))
        hdr_dir = self.work / "hdr"
        hdr_dir.mkdir(parents=True)
        self.hdr_paths = []
        for j in range(s.hdr_files):
            path = hdr_dir / f"env_{j:02d}.hdr"
            fhdr.write_hdr(path, make_demo_hdr("sun", s.hdr_height, s.hdr_width,
                                               seed=split_seed(self.seed, j)))
            self.hdr_paths.append(path)
        self.pgm_path = self.work / "skin.pgm"
        write_pgm16(self.pgm_path, rng.random((s.pore_size, s.pore_size)))

        samples = []
        for _ in range(s.warmup_rounds):
            t0 = perf_counter()
            out = self.op(-1)
            samples.append(perf_counter() - t0)
        self.reference = out
        self.reference_ok = self.criterion7_ok and self._criteria(out)
        code, decoded, report, gmm = out[:4]
        recode = encode_groom(decoded, R=s.groom_uv_res, G=s.groom_vol_res,
                              bbox=code.bbox)
        self.counts["gmm.em_iterations"] = len(gmm.ll_trajectory)
        self.counts["hair.decode_full_length_ratio"] = float(
            np.mean(~report.early_terminated))
        self.counts["hair.roundtrip_length_rms"] = _rel_rms(code.length_map,
                                                            recode.length_map)
        return samples

    def op(self, i):
        s = self.sizes
        code = fhair.encode_groom(self.groom, R=s.groom_uv_res, G=s.groom_vol_res)
        step = float(code.cell_size().min()) / 4.0
        decoded, report = fhair.decode_groom(code, s.groom_strands, step,
                                             rng=self.seed)
        # tol=0: a fixed EM iteration count, as the fits run with early stop off
        gmm = fgmm.fit_gmm(self.gmm_data, K=s.gmm_components, seed=self.seed,
                           tol=0.0)
        rot_rng = np.random.default_rng(self.seed)
        rows = []
        for path in self.hdr_paths:
            img = fhdr.read_hdr(path)
            rows.append(fhdr.preprocess_hdr(img))
            rows.extend(fhdr.preprocess_hdr(v) for v in
                        fhdr.augment_rotations(img, s.hdr_rotations, rot_rng))
        pca = fpca.fit_pca(np.stack(rows), k=s.pca_components)
        pores = fpore.pore_map(fpore.read_pgm(self.pgm_path), s.pore_sigma)
        return code, decoded, report, gmm, pca, pores

    @staticmethod
    def _criteria(out) -> bool:
        """Non-increasing PCA variance ratios, finite pore map and GMM means."""
        _, _, _, gmm, pca, pores = out
        return (bool(np.all(np.diff(pca.explained_variance_ratio) <= 1e-12))
                and bool(np.all(np.isfinite(pores)))
                and bool(np.all(np.isfinite(gmm.means))))

    def check(self, i, out):
        """Every round must reproduce the checked reference round exactly."""
        code, decoded, _, gmm, pca, pores = out
        ref_code, ref_decoded, _, ref_gmm, ref_pca, ref_pores = self.reference
        return (self.reference_ok
                and np.array_equal(code.flow_volume, ref_code.flow_volume)
                and np.array_equal(np.concatenate(decoded.strands),
                                   np.concatenate(ref_decoded.strands))
                and np.array_equal(gmm.means, ref_gmm.means)
                and np.array_equal(pca.components, ref_pca.components)
                and np.array_equal(pores, ref_pores))

    def summary(self, window):
        return [f"codec_round_s {percentile(window.durations, 50):.4g} s "
                f"(median of {len(window.durations)} rounds)",
                f"scalp groom length-map RMS after decode + re-encode "
                f"{self.counts['hair.roundtrip_length_rms']:.4f} "
                f"(criterion 7 allows 0.10 on its clustered grooms)"]


WORKLOADS = {
    "scene-sample": SceneSample,
    "fit-desk": FitDesk,
    "fit-large": FitLarge,
    "asset-codecs": AssetCodecs,
}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    summary: list[str]

    def to_json(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }, sort_keys=True)


def _span_values(tracer: Tracer, wall_s: float) -> dict[str, float]:
    values = {}
    for span in SPAN_NAMES:
        ms = tracer.self_ms[span]
        values[f"{span}.calls"] = len(ms)
        values[f"{span}.self_ms_p50"] = percentile(ms, 50)
        values[f"{span}.self_ms_p90"] = percentile(ms, 90)
        values[f"{span}.self_share"] = sum(ms) / 1e3 / wall_s
    values["unattributed.self_share"] = 1.0 - tracer.top_level_s / wall_s
    return values


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        sizes: Sizes = Sizes()) -> Result:
    """Run one workload in `work` (an empty scratch directory)."""
    workload = WORKLOADS[name](seed, sizes, work)
    setup = workload.setup()
    tracer = Tracer() if trace else None
    # a traced run needs an untraced and a traced operation
    whole = run_window(workload, seconds, max(workload.min_ops, 2 if trace else 1),
                       tracer)
    attempted = len(whole.durations)
    failed = min(attempted, whole.failed + workload.final_failures())
    window = whole.part(traced=False)

    cold_s = setup[0]
    setup += workload.setup_samples(window)
    setup_s = percentile(setup, 50)
    unit_ms = percentile(window.unit_ms, 50)
    if trace:
        traced = whole.part(traced=True)
        units = per_layer_units()
        values = _span_values(tracer, traced.busy_s)
        values["trace.overhead_ms"] = percentile(traced.unit_ms, 50) - unit_ms
        values.update({k: float(workload.counts.get(k, 0)) for k in COUNTS})
    else:
        units = END_TO_END
        values = {
            "unit_ms_p50": unit_ms,
            "units_per_s": sum(window.units) / window.busy_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {k: (v, units[k]) for k, v in values.items()}
    summary = workload.summary(window) + [
        f"setup_s       {setup_s:.4g} s (median of {len(setup)} set-ups; "
        f"the first, cold one took {cold_s:.4g} s)"]
    return Result(failed == 0, attempted, failed, metrics, summary)
