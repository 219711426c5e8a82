"""Statistical samplers for scene parameters: expression-library draws,
pose with gaze-dependent eyelid correction, and hair color.

Every sampler is a deterministic function of its inputs and a seed (or
an explicit numpy Generator).  There is no hidden global RNG; parallel
callers split the seed per stream with split_seed.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .container import decode_json
from .errors import (
    DataError,
    EmptyLibrary,
    EmptyTable,
    IndexOutOfRange,
    InvalidParam,
    NonNormalizedTable,
    TableRenormalized,
)
from .model import Pose, Skeleton

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def split_seed(seed: int, stream: int) -> int:
    """Independent per-stream seed: seed XOR hash(stream)."""
    return (int(seed) ^ _splitmix64(int(stream))) & _MASK64


# ---------------------------------------------------------------------------
# expression library
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpressionLibrary:
    """Captured expression coefficients, one row per entry, all in [0, 1]."""

    betas: np.ndarray                # (n, 51)
    source: str = ""

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=np.float64)
        if b.ndim != 2:
            raise InvalidParam(f"betas must be 2-D, got shape {b.shape}")
        if not ((b >= 0.0) & (b <= 1.0)).all():
            raise InvalidParam("expression coefficients must lie in [0, 1]")
        object.__setattr__(self, "betas", b)

    def __len__(self) -> int:
        return len(self.betas)


def sample_expression(library: ExpressionLibrary, rng=None) -> np.ndarray:
    """Uniform draw from the library; returns a copy of the row."""
    if len(library) == 0:
        raise EmptyLibrary("expression library is empty")
    rng = np.random.default_rng(rng)
    idx = int(rng.integers(len(library)))
    return library.betas[idx].copy()


# ---------------------------------------------------------------------------
# pose
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoseDistribution:
    """Per-axis normal stds for joint and global rotations (radians); global
    rotations are truncated to [-pi/2, pi/2]."""

    joint_std: np.ndarray = field(default_factory=lambda: np.full((4, 3), 0.1))
    global_rot_std: np.ndarray = field(default_factory=lambda: np.full(3, 0.1))

    def __post_init__(self):
        js = np.broadcast_to(np.asarray(self.joint_std, dtype=np.float64), (4, 3)).copy()
        gs = np.broadcast_to(np.asarray(self.global_rot_std, dtype=np.float64), (3,)).copy()
        stds = np.concatenate([js.ravel(), gs])
        if not ((stds >= 0) & (stds < np.inf)).all():
            raise InvalidParam("pose stds must be finite and nonnegative")
        object.__setattr__(self, "joint_std", js)
        object.__setattr__(self, "global_rot_std", gs)


# the global-rotation truncation, and the lowest acceptance probability of
# one axis that a pose distribution may have
GLOBAL_ROT_BOUND = np.pi / 2
MIN_ACCEPTANCE = 1e-6


def _acceptance(std: float, lo: float, hi: float) -> float:
    """Probability that a N(0, std) draw lies in [lo, hi]: Phi(hi/std) -
    Phi(lo/std), and for std = 0 one if 0 lies in [lo, hi], else zero."""
    if std == 0:
        return float(lo <= 0 <= hi)
    s = std * math.sqrt(2.0)
    return 0.5 * (math.erf(hi / s) - math.erf(lo / s))


def check_pose_acceptance(skeleton: Skeleton, config: PoseDistribution) -> None:
    """Every axis `sample_pose` draws must accept a draw with probability
    at least MIN_ACCEPTANCE; a DataError names the first that does not."""
    axes = [(f"$.pose.joint_std[{j}][{k}]", config.joint_std[j, k], *skeleton.limits[j, k])
            for j in range(4) for k in range(3)]
    axes += [(f"$.pose.global_rot_std[{k}]", config.global_rot_std[k],
              -GLOBAL_ROT_BOUND, GLOBAL_ROT_BOUND) for k in range(3)]
    for name, std, lo, hi in axes:
        p = _acceptance(std, lo, hi)
        if p < MIN_ACCEPTANCE:
            raise DataError(f"{name} {std:g} on the limits [{lo:g}, {hi:g}] accepts "
                            f"a draw with probability {p:.3g}, below {MIN_ACCEPTANCE:g}")


def _truncated_normal(rng: np.random.Generator, std: np.ndarray,
                      lo: np.ndarray, hi: np.ndarray, check: Callable[[], None]) -> np.ndarray:
    """Per-axis rejection sampling of N(0, std) truncated to [lo, hi]; a zero
    std draws 0.  `check()` runs if an axis is still pending after 100
    rounds, to raise for a distribution that accepts no draw in any time."""
    out = np.zeros_like(std)
    pending = (std > 0) | (lo > 0) | (hi < 0)     # a zero std draws 0, kept if in [lo, hi]
    rounds = 0
    while np.any(pending):
        draw = rng.standard_normal(out.shape) * std
        accept = pending & (draw >= lo) & (draw <= hi)
        out[accept] = draw[accept]
        pending &= ~accept
        rounds += 1
        if rounds == 100:
            check()
    return out


def sample_pose(skeleton: Skeleton, config: PoseDistribution | None = None,
                rng=None) -> Pose:
    """Truncated-normal joint and global rotations within physical limits.
    An axis still pending after 100 rounds raises `check_pose_acceptance`'s
    DataError if the distribution fails it."""
    config = config or PoseDistribution()
    rng = np.random.default_rng(rng)
    check = partial(check_pose_acceptance, skeleton, config)
    lo = skeleton.limits[..., 0]
    hi = skeleton.limits[..., 1]
    joint = _truncated_normal(rng, config.joint_std, lo, hi, check)
    grot = _truncated_normal(rng, config.global_rot_std, np.full(3, -GLOBAL_ROT_BOUND),
                             np.full(3, GLOBAL_ROT_BOUND), check)
    return Pose(joint_angles=joint, global_rot=grot, global_trans=np.zeros(3))


# ---------------------------------------------------------------------------
# gaze-dependent eyelid correction
# ---------------------------------------------------------------------------

def gaze_eyelid_correction(beta: np.ndarray, gaze_pitch: float, coin: bool,
                           gain: float, raise_ids, lower_ids) -> np.ndarray:
    """Raise eyelids when looking up, lower them when looking down.

    Applied only when `coin` is true (callers flip a fair coin); the
    correction adds gain*max(0, pitch) to the raise coefficients and
    gain*max(0, -pitch) to the lower coefficients, clamped to [0, 1].
    """
    beta = np.asarray(beta, dtype=np.float64)
    out = beta.copy()
    if not coin:
        return out
    raise_ids = np.asarray(raise_ids, dtype=np.int64)
    lower_ids = np.asarray(lower_ids, dtype=np.int64)
    for ids in (raise_ids, lower_ids):
        if ids.size and (ids.min() < 0 or ids.max() >= len(beta)):
            raise IndexOutOfRange(
                f"eyelid blendshape index out of range for beta of length {len(beta)}")
    out[raise_ids] += gain * max(0.0, gaze_pitch)
    out[lower_ids] += gain * max(0.0, -gaze_pitch)
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# hair color
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HairColor:
    melanin: float
    pheomelanin: float
    grayness: float

    def __post_init__(self):
        for name in ("melanin", "pheomelanin", "grayness"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidParam(f"{name}={v} outside [0, 1]")


_TABLE_FIELDS = ("weight", "melanin", "pheomelanin", "grayness")


@dataclass(frozen=True)
class HairColorTable:
    """Categorical distribution over (melanin, pheomelanin, grayness)."""

    weights: np.ndarray   # (n,)
    triples: np.ndarray   # (n, 3)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        t = np.asarray(self.triples, dtype=np.float64)
        if len(w) == 0:
            raise EmptyTable("hair color table is empty")
        if t.shape != (len(w), 3):
            raise InvalidParam(f"triples must be ({len(w)}, 3), got {t.shape}")
        if np.any(w < 0):
            raise NonNormalizedTable("table weights must be nonnegative")
        if np.any(t < 0) or np.any(t > 1):
            raise InvalidParam("table triples must lie in [0, 1]")
        total = w.sum()
        if abs(total - 1.0) > 1e-6:
            raise NonNormalizedTable(f"table weights sum to {total}, expected 1")
        if total != 1.0:
            warnings.warn("hair color table renormalized (sum off by < 1e-6)",
                          TableRenormalized)
            w = w / total
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "triples", t)

    @classmethod
    def uniform_placeholder(cls) -> "HairColorTable":
        """Placeholder stats: substitute real-world tables in production."""
        triples = np.array([
            [0.95, 0.30, 0.02],   # black
            [0.60, 0.35, 0.05],   # dark brown
            [0.35, 0.40, 0.05],   # brown
            [0.15, 0.60, 0.05],   # blond
            [0.25, 0.90, 0.02],   # red
            [0.40, 0.30, 0.80],   # graying
        ])
        n = len(triples)
        w = np.full(n, 1.0 / n)
        w[-1] = 1.0 - w[:-1].sum()   # make the float sum exactly 1
        return cls(w, triples)

    @classmethod
    def from_dict(cls, d: dict) -> "HairColorTable":
        """The table of a `to_dict` object; a malformed one is a DataError
        naming the offending key."""
        spec = {"entries": [dict.fromkeys(_TABLE_FIELDS, float)]}
        entries = decode_json(d, spec)["entries"]
        if not entries:
            raise EmptyTable("hair color table config has no entries")
        rows = np.array([[e[k] for k in _TABLE_FIELDS] for e in entries])
        return cls(rows[:, 0], rows[:, 1:])

    def to_dict(self) -> dict:
        return {"entries": [
            {"weight": float(w), "melanin": float(t[0]),
             "pheomelanin": float(t[1]), "grayness": float(t[2])}
            for w, t in zip(self.weights, self.triples)
        ]}


def sample_hair_color(table: HairColorTable, rng=None,
                      jitter: float = 0.02) -> HairColor:
    """Categorical draw plus small uniform jitter, clamped to [0, 1]^3."""
    rng = np.random.default_rng(rng)
    idx = int(rng.choice(len(table.weights), p=table.weights))
    trip = table.triples[idx].copy()
    if jitter > 0:
        trip += rng.uniform(-jitter, jitter, size=3)
    trip = np.clip(trip, 0.0, 1.0)
    return HairColor(float(trip[0]), float(trip[1]), float(trip[2]))
