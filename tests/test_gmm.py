from types import SimpleNamespace

import numpy as np
import pytest

from conftest import fit_gmm_reference, log_joint_reference
from facegen import gmm as fgmm
from facegen.errors import (DimensionMismatch, EmptyComponent, InvalidParam, NonFiniteInput,
                            SingularComponent)
from facegen.gmm import GaussianMixture, fit_gmm, sample_identity


def two_cluster_data(rng, n=400, d=3, sep=8.0):
    a = rng.standard_normal((n // 2, d)) + sep
    b = rng.standard_normal((n // 2, d)) - sep
    return np.concatenate([a, b])


class TestFitGmm:
    def test_k1_closed_form(self, rng):
        data = rng.standard_normal((50, 4)) * np.array([1.0, 2.0, 0.5, 1.5])
        ridge = 1e-6
        gmm = fit_gmm(data, K=1, seed=0, ridge=ridge)
        assert np.allclose(gmm.means[0], data.mean(axis=0), atol=1e-12)
        expect = np.cov(data, rowvar=False, bias=True) + ridge * np.eye(4)
        assert np.allclose(gmm.covariances[0], expect, atol=1e-12)
        assert gmm.weights[0] == 1.0

    def test_two_separated_clusters(self, rng):
        data = two_cluster_data(rng)
        gmm = fit_gmm(data, K=2, seed=1)
        means = gmm.means[np.argsort(gmm.means[:, 0])]
        assert np.abs(means[0] - (-8.0)).max() < 0.05 * 8.0
        assert np.abs(means[1] - 8.0).max() < 0.05 * 8.0
        assert np.allclose(gmm.weights, 0.5, atol=0.05)

    def test_ll_trajectory_non_decreasing(self, rng):
        data = two_cluster_data(rng, n=200)
        gmm = fit_gmm(data, K=3, seed=2)
        traj = np.asarray(gmm.ll_trajectory)
        assert len(traj) >= 2
        assert np.all(np.diff(traj) >= -1e-9 * np.maximum(1.0, np.abs(traj[:-1])))

    def test_responsibilities_sum_to_one(self, rng):
        from scipy.special import logsumexp
        data = two_cluster_data(rng, n=100)
        gmm = fit_gmm(data, K=2, seed=3)
        log_joint = fgmm._log_joint(data, gmm.weights, gmm.means, gmm._chols).T
        resp = np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))
        assert np.abs(resp.sum(axis=1) - 1.0).max() < 1e-12

    def test_needs_more_samples_than_components(self, rng):
        with pytest.raises(InvalidParam):
            fit_gmm(rng.standard_normal((3, 2)), K=3, seed=0)

    def test_non_2d_rejected(self, rng):
        with pytest.raises(DimensionMismatch):
            fit_gmm(rng.standard_normal((10, 4, 2)), K=2, seed=0)
        with pytest.raises(DimensionMismatch):
            fit_gmm(rng.standard_normal(10), K=2, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_naming_row(self, rng, bad):
        data = rng.standard_normal((20, 3))
        data[7, 1] = bad
        data[12, 0] = bad
        with pytest.raises(NonFiniteInput, match="row 7 "):
            fit_gmm(data, K=2, seed=0)

    def test_non_spd_covariance_in_em_names_component(self, rng):
        # a negative ridge makes every covariance indefinite at the first E-step
        with pytest.raises(SingularComponent, match="component 0 covariance not SPD"):
            fit_gmm(two_cluster_data(rng, n=40), K=2, seed=0, ridge=-100.0)

    def test_deterministic(self, rng):
        data = two_cluster_data(rng, n=100)
        g1 = fit_gmm(data, K=2, seed=7)
        g2 = fit_gmm(data, K=2, seed=7)
        assert np.array_equal(g1.means, g2.means)
        assert np.array_equal(g1.covariances, g2.covariances)


def _assert_close(a, b, rtol):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= rtol * np.abs(b).max()


class TestBatchedEmMatchesReference:
    """The batched E- and M-steps against one triangular solve and one
    covariance update per component, from the same initialisation."""

    @pytest.mark.parametrize("K", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_fit_matches_reference(self, K, seed, tol):
        rng = np.random.default_rng(seed)
        centers = 8.0 * rng.standard_normal((K, 4))
        data = centers[np.arange(200) % K] + rng.standard_normal((200, 4))
        got = fit_gmm(data, K, seed=seed, tol=tol)
        ref = fit_gmm_reference(data, K, seed=seed, tol=tol)
        a, b = np.asarray(got.ll_trajectory), np.asarray(ref.ll_trajectory)
        if tol == 0.0 and len(a) != len(b):
            # With tol=0, EM stops only when the log-likelihood repeats bit
            # for bit, which reordered sums need not reproduce.  Both runs
            # must have reached the same plateau; then compare them after
            # the same number of EM steps.
            m = min(len(a), len(b))
            _assert_close(a[:m], b[:m], 1e-12)
            longer = a if len(a) > len(b) else b
            assert np.ptp(longer[m - 1:]) <= 1e-12 * np.abs(longer).max()
            got = fit_gmm(data, K, seed=seed, tol=tol, max_iter=m)
            ref = fit_gmm_reference(data, K, seed=seed, tol=tol, max_iter=m)
        for name in ("means", "covariances", "weights", "ll_trajectory"):
            _assert_close(getattr(got, name), getattr(ref, name), 1e-12)

    def test_asset_codecs_shape(self):
        # K=5, n=1000, d=8 with overlapping clusters, as in the benchmark
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((5, 8))
        data = centers[np.arange(1000) % 5] + rng.standard_normal((1000, 8))
        got, ref = fit_gmm(data, 5, seed=0), fit_gmm_reference(data, 5, seed=0)
        assert len(got.ll_trajectory) == len(ref.ll_trajectory)
        for name in ("means", "covariances", "weights", "ll_trajectory"):
            _assert_close(getattr(got, name), getattr(ref, name), 1e-12)

    def test_log_joint_matches_reference(self, rng):
        data = two_cluster_data(rng, n=100, d=4)
        gmm = fit_gmm(data, K=3, seed=4)
        for x in (data, data[0]):
            log_joint = fgmm._log_joint(x, gmm.weights, gmm.means, gmm._chols).T
            _assert_close(log_joint, log_joint_reference(gmm, x), 1e-13)


class TestEmReseed:
    """One k-means++ center is put far from every point, so its component
    gets no responsibility at the first E-step and EM reseeds it."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """Records the means each E-step sees; edit[i] alters the (K, n) log
        joint of step i."""
        def far_centers(data, K, rng):
            return np.stack([data[0], data[-1], np.full(data.shape[1], 1e6)])

        real = fgmm._log_joint
        rec = SimpleNamespace(means=[], edit={})

        def log_joint(data, weights, means, chols, delta=None):
            rec.means.append(means.copy())
            out = real(data, weights, means, chols, delta)
            return rec.edit.get(len(rec.means) - 1, lambda lj: lj)(out)

        monkeypatch.setattr(fgmm, "_kmeanspp_centers", far_centers)
        monkeypatch.setattr(fgmm, "_log_joint", log_joint)
        return rec

    def test_reseeded_once_then_completes(self, steps, rng):
        data = two_cluster_data(rng, n=200)
        gmm = fit_gmm(data, K=3, seed=0)
        assert np.all(steps.means[0][2] == 1e6)
        on_data_point = [i for i, m in enumerate(steps.means)
                         if any(np.array_equal(m[2], row) for row in data)]
        assert on_data_point == [1]
        assert len(gmm.ll_trajectory) == len(steps.means) >= 3
        assert np.all(np.isfinite(gmm.means)) and np.all(gmm.weights > 0)

    def test_ll_check_skipped_only_on_reseed_step(self, steps, rng):
        data = two_cluster_data(rng, n=200)
        plain = fit_gmm(data, K=3, seed=0)
        # a constant shift of one step's log joint lowers that step's
        # log-likelihood and leaves its responsibilities unchanged
        steps.means.clear()
        steps.edit[1] = lambda lj: lj - 1e3
        shifted = fit_gmm(data, K=3, seed=0)
        assert shifted.ll_trajectory[1] < shifted.ll_trajectory[0]
        assert len(shifted.ll_trajectory) == len(plain.ll_trajectory)
        _assert_close(shifted.means, plain.means, 1e-12)
        steps.means.clear()
        steps.edit = {2: lambda lj: lj - 1e3}
        with pytest.raises(SingularComponent, match="log-likelihood decreased"):
            fit_gmm(data, K=3, seed=0)

    def test_reseed_after_an_m_step_drops_its_residuals(self, monkeypatch, rng):
        # the M-step's residuals feed the next E-step, unless a reseed has
        # moved the means since
        real = fgmm._log_joint
        consistent = []

        def log_joint(data, weights, means, chols, delta=None):
            consistent.append(delta is None
                              or np.array_equal(delta, data - means[:, None, :]))
            out = real(data, weights, means, chols, delta)
            if len(consistent) == 3:
                # starve component 0 at step 2, raising the others so the
                # log-likelihood check passes
                out = out.copy()
                out[0] = -1e300
                out[1:] += 1e3
            return out

        monkeypatch.setattr(fgmm, "_log_joint", log_joint)
        fit_gmm(two_cluster_data(rng, n=200), K=3, seed=0)
        assert len(consistent) > 4 and all(consistent)

    def test_second_collapse_raises(self, steps, rng):
        def starve_component_0(lj):
            lj = lj.copy()
            lj[0] = -1e300
            return lj

        steps.edit[1] = starve_component_0
        with pytest.raises(EmptyComponent, match="collapsed twice"):
            fit_gmm(two_cluster_data(rng, n=200), K=3, seed=0)


class TestGaussianMixtureValidation:
    def test_chols_are_the_batched_numpy_factors(self, rng):
        # sample_identity draws through _chols, so a library's samples stay
        # byte-identical only if these factors do
        data = two_cluster_data(rng, n=300, d=5)
        gmm = fit_gmm(data, K=4, seed=2)
        assert np.array_equal(gmm._chols, np.linalg.cholesky(gmm.covariances))
        a = rng.standard_normal((6, 6, 6))
        covs = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(6)
        gmm = GaussianMixture(np.full(6, 1 / 6), np.zeros((6, 6)), covs)
        assert np.array_equal(gmm._chols, np.linalg.cholesky(covs))

    def test_indefinite_component_is_named(self):
        covs = np.stack([np.eye(3), 2.0 * np.eye(3), np.diag([1.0, -1.0, 1.0])])
        with pytest.raises(SingularComponent, match="component 2 covariance not SPD"):
            GaussianMixture(np.full(3, 1 / 3), np.zeros((3, 3)), covs)

    def test_indefinite_component_in_em_is_named(self, monkeypatch, rng):
        # three clusters, each seeding its own component; only cluster 2 is
        # tighter than the negative ridge, so only its covariance is indefinite
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        spread = np.array([10.0, 10.0, 0.1])
        data = np.concatenate([c + s * rng.standard_normal((50, 2))
                               for c, s in zip(centers, spread)])
        monkeypatch.setattr(fgmm, "_kmeanspp_centers", lambda data, K, rng: centers)
        with pytest.raises(SingularComponent, match="component 2 covariance not SPD"):
            fit_gmm(data, K=3, seed=0, ridge=-1.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidParam):
            GaussianMixture(np.array([0.6, 0.6]), np.zeros((2, 2)),
                            np.stack([np.eye(2)] * 2))

    @pytest.mark.parametrize("weights, mean, off_diagonal", [
        ([0.5, np.nan], 0.0, 0.0), ([np.nan, np.nan], 0.0, 0.0),
        ([0.5, 0.5], np.nan, 0.0), ([0.5, 0.5], 0.0, np.nan)],
        ids=["nan_weight", "nan_weights", "nan_mean", "nan_covariance"])
    def test_nan_rejected(self, weights, mean, off_diagonal):
        """A NaN weight would reach rng.choice, a NaN covariance the
        Cholesky factorisation."""
        with pytest.raises(InvalidParam):
            GaussianMixture(np.array(weights), np.array([[0.0, mean], [0.0, 0.0]]),
                            np.array([[[1.0, off_diagonal], [off_diagonal, 1.0]],
                                      np.eye(2)]))

    def test_covariance_must_be_spd(self):
        cov = np.array([[[1.0, 0.0], [0.0, -1.0]]])
        with pytest.raises(SingularComponent):
            GaussianMixture(np.array([1.0]), np.zeros((1, 2)), cov)

    def test_covariance_must_be_symmetric(self):
        cov = np.array([[[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(InvalidParam):
            GaussianMixture(np.array([1.0]), np.zeros((1, 2)), cov)


class TestSampleIdentity:
    def test_sigma_zero_returns_component_mean(self, rng):
        gmm = GaussianMixture(np.array([1.0]), np.array([[3.0, -1.0]]),
                              np.eye(2)[None])
        x = sample_identity(gmm, sigma=0.0, rng=5)
        assert np.array_equal(x, np.array([3.0, -1.0]))

    def test_fixed_seed_reproducible(self, rng):
        data = two_cluster_data(rng, n=100)
        gmm = fit_gmm(data, K=2, seed=0)
        a = sample_identity(gmm, sigma=0.8, rng=42, size=10)
        b = sample_identity(gmm, sigma=0.8, rng=42, size=10)
        assert np.array_equal(a, b)

    def test_sigma_scales_standard_deviation(self, rng):
        cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        gmm = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), cov[None])
        draws = sample_identity(gmm, sigma=0.8, rng=11, size=50_000)
        sample_cov = np.cov(draws, rowvar=False)
        rel = np.linalg.norm(sample_cov - 0.64 * cov) / np.linalg.norm(0.64 * cov)
        assert rel < 0.03

    def test_var_mode(self, rng):
        cov = np.eye(2) * 4.0
        gmm = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), cov[None])
        draws = sample_identity(gmm, sigma=0.25, rng=13, size=50_000,
                                sigma_mode="var")
        sample_cov = np.cov(draws, rowvar=False)
        assert np.allclose(np.diag(sample_cov), 1.0, rtol=0.05)

    def test_unknown_mode_rejected(self):
        gmm = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        with pytest.raises(InvalidParam):
            sample_identity(gmm, sigma_mode="bogus")

    @pytest.mark.parametrize("mode", ["std", "var"])
    @pytest.mark.parametrize("sigma", [-0.5, np.nan])
    def test_negative_sigma_rejected(self, mode, sigma):
        gmm = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        with pytest.raises(InvalidParam, match=r"^sigma must be >= 0, got "):
            sample_identity(gmm, sigma=sigma, sigma_mode=mode)

    def test_components_drawn_by_weight(self, rng):
        means = np.array([[0.0], [100.0]])
        covs = np.stack([np.eye(1) * 1e-6] * 2)
        gmm = GaussianMixture(np.array([0.25, 0.75]), means, covs)
        draws = sample_identity(gmm, sigma=1.0, rng=3, size=20_000)
        frac_high = float((draws[:, 0] > 50).mean())
        assert frac_high == pytest.approx(0.75, abs=0.02)
