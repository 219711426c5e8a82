"""PCA via full SVD: the low-dimensional representation shared by the
illumination model, hair codes and the texture stand-in.

Desk-scale data only (n in the hundreds), so exact SVD is used; no
randomized solver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .container import load_container, save_container
from .errors import DimensionMismatch, InvalidParam, NonFiniteInput, RankDeficient


@dataclass(frozen=True)
class PcaModel:
    """Mean, orthonormal components (d x k) and per-component variances."""

    mean: np.ndarray
    components: np.ndarray
    variances: np.ndarray
    explained_variance_ratio: np.ndarray
    preprocessing: str = ""

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        comp = np.asarray(self.components, dtype=np.float64)
        var = np.asarray(self.variances, dtype=np.float64).reshape(-1)
        evr = np.asarray(self.explained_variance_ratio, dtype=np.float64).reshape(-1)
        if comp.ndim != 2 or comp.shape[0] != mean.shape[0]:
            raise DimensionMismatch(
                f"components must be (d={mean.shape[0]}, k), got {comp.shape}")
        if len(var) != comp.shape[1] or len(evr) != comp.shape[1]:
            raise DimensionMismatch("one variance/ratio per component required")
        gram = comp.T @ comp
        if np.max(np.abs(gram - np.eye(comp.shape[1]))) > 1e-9:
            raise InvalidParam("components must be orthonormal within 1e-9")
        if np.any(np.diff(var) > 1e-12):
            raise InvalidParam("variances must be non-increasing")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "variances", var)
        object.__setattr__(self, "explained_variance_ratio", evr)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def n_components(self) -> int:
        return self.components.shape[1]


def fit_pca(samples: np.ndarray, k: int = 50, preprocessing: str = "") -> PcaModel:
    """Top-k principal components of mean-centered samples (n, d).

    Requires n >= 2 and k <= min(n - 1, d).  If the data rank is below k
    the model is truncated with a RankDeficient warning.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise DimensionMismatch(f"samples must be (n, d), got {samples.shape}")
    finite = np.isfinite(samples).all(axis=1)
    if not finite.all():
        raise NonFiniteInput(f"sample row {int(np.argmin(finite))} is not finite")
    n, d = samples.shape
    if n < 2:
        raise InvalidParam("need at least 2 samples")
    if k < 1 or k > min(n - 1, d):
        raise InvalidParam(f"k={k} must satisfy 1 <= k <= min(n-1={n - 1}, d={d})")
    mean = samples.mean(axis=0)
    centered = samples - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    tol = max(n, d) * np.finfo(np.float64).eps * (svals[0] if len(svals) else 0.0)
    rank = int(np.sum(svals > tol))
    if rank < k:
        warnings.warn(
            f"requested k={k} components but data rank is {rank}; truncating",
            RankDeficient)
        k = max(rank, 1)
    variances = svals ** 2 / (n - 1)
    total = variances.sum()
    ratios = variances[:k] / total if total > 0 else np.zeros(k)
    return PcaModel(
        mean=mean,
        components=vt[:k].T,
        variances=variances[:k],
        explained_variance_ratio=ratios,
        preprocessing=preprocessing,
    )


def pca_project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """z = C^T (x - mean); accepts a single vector or a batch (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.dim:
        raise DimensionMismatch(f"x has dim {x.shape[-1]}, model expects {model.dim}")
    return (x - model.mean) @ model.components


def pca_reconstruct(model: PcaModel, z: np.ndarray) -> np.ndarray:
    """x_hat = mean + C z; accepts a single vector or a batch (n, k)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != model.n_components:
        raise DimensionMismatch(
            f"z has dim {z.shape[-1]}, model has k={model.n_components}")
    return model.mean + z @ model.components.T


def save_pca(path, model: PcaModel) -> None:
    save_container(path, {
        "mean": model.mean,
        "components": model.components,
        "variances": model.variances,
        "explained_variance_ratio": model.explained_variance_ratio,
    }, metadata={"kind": "pca", "preprocessing": model.preprocessing})


def load_pca(path) -> PcaModel:
    tensors, meta = load_container(path, "pca")
    return PcaModel(
        mean=tensors["mean"],
        components=tensors["components"],
        variances=tensors["variances"],
        explained_variance_ratio=tensors["explained_variance_ratio"],
        preprocessing=meta.get("preprocessing", ""),
    )
