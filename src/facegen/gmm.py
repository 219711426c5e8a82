"""Gaussian mixture over identity coefficients: EM fitting with k-means++
initialization and scaled sampling.

The face-shape sampler draws a component by weight and scales the
component's standard deviation by sigma (default 0.8), so the sample
covariance of many draws approaches sigma^2 * Sigma.  A "var" mode that
reads sigma as a variance scale is provided behind the same API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, EmptyComponent, InvalidParam, NonFiniteInput,
                     SingularComponent)


@dataclass(frozen=True)
class GaussianMixture:
    weights: np.ndarray       # (K,)
    means: np.ndarray         # (K, m)
    covariances: np.ndarray   # (K, m, m)
    ll_trajectory: tuple[float, ...] = ()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        mu = np.asarray(self.means, dtype=np.float64)
        cov = np.asarray(self.covariances, dtype=np.float64)
        K = len(w)
        if mu.ndim != 2 or len(mu) != K or cov.shape != (K, mu.shape[1], mu.shape[1]):
            raise InvalidParam("need weights (K,), means (K, m), covariances (K, m, m)")
        if not ((w > 0).all() and abs(w.sum() - 1.0) <= 1e-9):
            raise InvalidParam("weights must be positive and sum to 1 within 1e-9")
        if not np.isfinite(mu).all():
            raise InvalidParam("means must be finite")
        if not (np.abs(cov - np.swapaxes(cov, 1, 2)) <= 1e-9).all():
            raise InvalidParam("covariances must be finite and symmetric")
        for name, value in (("weights", w), ("means", mu), ("covariances", cov),
                            ("_chols", _cholesky(cov))):
            object.__setattr__(self, name, value)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """Batched lower Cholesky factors; SingularComponent names the first non-SPD component."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        for k, c in enumerate(cov):
            try:
                np.linalg.cholesky(c)
            except np.linalg.LinAlgError as e:
                raise SingularComponent(f"component {k} covariance not SPD") from e
        raise


def _log_joint(data, weights, means, chols, delta=None) -> np.ndarray:
    """log w_k + log N(x | mu_k, L_k L_k^T) for all K components at once,
    component-major, shape (K, n), so that reductions over k run along
    contiguous rows.  The residuals are whitened by the inverse Cholesky
    factors, the precision-Cholesky form of scikit-learn (Pedregosa et al.,
    JMLR 2011).  `delta` is the (K, n, d) residuals data - means[:, None, :]
    when the caller already has them."""
    if delta is None:
        delta = np.atleast_2d(np.asarray(data, dtype=np.float64)) - means[:, None, :]
    white = delta @ np.linalg.inv(np.swapaxes(chols, 1, 2))
    logdet = np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    const = np.log(weights) - 0.5 * means.shape[1] * np.log(2.0 * np.pi) - logdet
    return const[:, None] - 0.5 * np.einsum("knd,knd->kn", white, white)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum_k exp(a[k]) of a finite (K, n) array."""
    top = a.max(axis=0)
    return top + np.log(np.exp(a - top).sum(axis=0))


def _kmeanspp_centers(data: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = len(data)
    centers = np.empty((K, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = np.sum((data - centers[0]) ** 2, axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0:
            centers[k] = data[rng.integers(n)]
        else:
            centers[k] = data[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((data - centers[k]) ** 2, axis=1))
    return centers


def fit_gmm(data: np.ndarray, K: int, seed: int = 0, ridge: float = 1e-6,
            max_iter: int = 200, tol: float = 1e-9) -> GaussianMixture:
    """EM fit with k-means++ init and ridge-regularized covariances.

    The log-likelihood is asserted non-decreasing across EM iterations.
    A component that collapses to zero responsibility is reseeded once
    from a random data point; a second collapse raises EmptyComponent.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionMismatch(f"data must be (n, d), got shape {data.shape}")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise NonFiniteInput(f"data row {int(np.argmin(finite))} is not finite")
    n, d = data.shape
    if n <= K:
        raise InvalidParam(f"need more samples ({n}) than components ({K})")
    if d < 1 or K < 1:
        raise InvalidParam("need K >= 1 and dimension >= 1")
    rng = np.random.default_rng(seed)

    centers = _kmeanspp_centers(data, K, rng)
    assign = np.argmin(
        np.sum((data[:, None, :] - centers[None]) ** 2, axis=2), axis=1)
    weights = np.empty(K)
    means = np.empty((K, d))
    covs = np.empty((K, d, d))
    global_cov = np.cov(data, rowvar=False, bias=True).reshape(d, d) + ridge * np.eye(d)
    for k in range(K):
        sel = data[assign == k]
        weights[k] = max(len(sel), 1) / n
        means[k] = sel.mean(axis=0) if len(sel) else centers[k]
        if len(sel) > 1:
            covs[k] = np.cov(sel, rowvar=False, bias=True).reshape(d, d) + ridge * np.eye(d)
        else:
            covs[k] = global_cov
    weights /= weights.sum()

    reseeded = False
    just_reseeded = False
    trajectory: list[float] = []
    prev_ll = -np.inf
    delta = None        # residuals of `means`, once an M-step has made them
    for _ in range(max_iter):
        log_joint = _log_joint(data, weights, means, _cholesky(covs), delta)
        log_norm = _logsumexp(log_joint)
        ll = float(log_norm.sum())
        if (trajectory and not just_reseeded
                and ll < prev_ll - 1e-9 * max(1.0, abs(prev_ll))):
            raise SingularComponent(
                f"EM log-likelihood decreased: {prev_ll} -> {ll}")
        just_reseeded = False
        trajectory.append(ll)
        resp = np.exp(log_joint - log_norm)                           # (K, n)

        nk = resp.sum(axis=1)
        empty = nk < 1e-10
        if np.any(empty):
            if reseeded:
                raise EmptyComponent(
                    f"{int(empty.sum())} component(s) collapsed twice during EM")
            reseeded = True
            just_reseeded = True
            for k in np.nonzero(empty)[0]:
                means[k] = data[rng.integers(n)]
                covs[k] = global_cov
                weights[k] = 1.0 / n
            weights /= weights.sum()
            delta = None
            prev_ll = ll
            continue

        weights = nk / n
        means = (resp @ data) / nk[:, None]
        delta = data - means[:, None, :]                              # (K, n, d)
        covs = np.swapaxes(resp[:, :, None] * delta, 1, 2) @ delta / nk[:, None, None]
        covs = 0.5 * (covs + np.swapaxes(covs, 1, 2)) + ridge * np.eye(d)

        if len(trajectory) > 1 and abs(ll - prev_ll) <= tol * max(1.0, abs(ll)):
            break
        prev_ll = ll

    return GaussianMixture(weights, means, covs, ll_trajectory=tuple(trajectory))


def sample_identity(gmm: GaussianMixture, sigma: float = 0.8,
                    rng: np.random.Generator | int | None = None,
                    size: int | None = None,
                    sigma_mode: str = "std") -> np.ndarray:
    """Draw identity coefficients: pick a component by weight, then sample
    mean + scale * L z with L the covariance Cholesky factor.

    sigma_mode "std" scales the standard deviation by sigma (covariance by
    sigma^2); "var" reads sigma as a variance scale (std by sqrt(sigma)).
    """
    if sigma_mode not in ("std", "var"):
        raise InvalidParam(f"unknown sigma_mode {sigma_mode!r}")
    if not sigma >= 0:
        raise InvalidParam(f"sigma must be >= 0, got {sigma}")
    scale = sigma if sigma_mode == "std" else float(np.sqrt(sigma))
    rng = np.random.default_rng(rng)
    n = 1 if size is None else size
    comps = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    z = rng.standard_normal((n, gmm.dim))
    chols = gmm._chols
    out = gmm.means[comps] + scale * np.einsum("nab,nb->na", chols[comps], z)
    return out[0] if size is None else out
