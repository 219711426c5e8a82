import numpy as np
import pytest

from facegen.errors import DimensionMismatch, InvalidParam, NonFiniteInput, RankDeficient
from facegen.pca import PcaModel, fit_pca, load_pca, pca_project, pca_reconstruct, save_pca


class TestFitPca:
    def test_rank_one_line(self, rng):
        direction = np.array([1.0, 2.0, -1.0, 0.5])
        t = rng.standard_normal(30)
        data = np.array([3.0, 0.0, 1.0, -2.0]) + t[:, None] * direction
        model = fit_pca(data, k=1)
        assert model.explained_variance_ratio[0] > 0.99999

    def test_reconstruction_matches_svd_oracle(self, rng):
        data = rng.standard_normal((20, 10))
        centered = data - data.mean(axis=0)
        _, svals, _ = np.linalg.svd(centered, full_matrices=False)
        for k in range(1, 9):
            model = fit_pca(data, k=k)
            recon = pca_reconstruct(model, pca_project(model, data))
            err = float(np.sum((recon - data) ** 2))
            oracle = float(np.sum(svals[k:] ** 2))
            assert err == pytest.approx(oracle, abs=1e-9)

    def test_components_orthonormal(self, rng):
        model = fit_pca(rng.standard_normal((15, 8)), k=5)
        gram = model.components.T @ model.components
        assert np.abs(gram - np.eye(5)).max() < 1e-9

    def test_ratios_non_increasing_and_bounded(self, rng):
        model = fit_pca(rng.standard_normal((25, 12)), k=10)
        r = model.explained_variance_ratio
        assert np.all(np.diff(r) <= 1e-12)
        assert r.sum() <= 1.0 + 1e-9

    def test_error_monotone_in_k(self, rng):
        data = rng.standard_normal((30, 15))
        errs = []
        for k in range(1, 11):
            model = fit_pca(data, k=k)
            recon = pca_reconstruct(model, pca_project(model, data))
            errs.append(float(np.sum((recon - data) ** 2)))
        assert np.all(np.diff(errs) <= 1e-9)

    def test_rank_deficient_warns_and_truncates(self, rng):
        base = rng.standard_normal((2, 6))
        coeffs = rng.standard_normal((12, 2))
        data = coeffs @ base        # rank 2
        with pytest.warns(RankDeficient):
            model = fit_pca(data, k=5)
        assert model.n_components == 2

    def test_k_bounds_enforced(self, rng):
        data = rng.standard_normal((5, 3))
        with pytest.raises(InvalidParam):
            fit_pca(data, k=5)      # k > n-1
        with pytest.raises(InvalidParam):
            fit_pca(data, k=0)
        with pytest.raises(InvalidParam):
            fit_pca(data[:1], k=1)  # n < 2


    def test_non_2d_rejected(self, rng):
        with pytest.raises(DimensionMismatch):
            fit_pca(rng.standard_normal((10, 4, 2)), k=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_naming_row(self, rng, bad):
        data = rng.standard_normal((20, 6))
        data[4, 5] = bad
        with pytest.raises(NonFiniteInput, match="row 4 "):
            fit_pca(data, k=2)


class TestProjectReconstruct:
    def test_mean_maps_to_origin(self, rng):
        model = fit_pca(rng.standard_normal((10, 6)), k=3)
        z = pca_project(model, model.mean)
        assert np.allclose(z, 0.0, atol=1e-12)

    def test_component_direction_isolated(self, rng):
        model = fit_pca(rng.standard_normal((10, 6)), k=3)
        c = 2.5
        z = pca_project(model, model.mean + c * model.components[:, 0])
        assert z[0] == pytest.approx(c, abs=1e-9)
        assert np.allclose(z[1:], 0.0, atol=1e-9)

    def test_identity_on_subspace(self, rng):
        model = fit_pca(rng.standard_normal((12, 5)), k=4)
        z = rng.standard_normal(4)
        x = pca_reconstruct(model, z)
        assert np.allclose(pca_project(model, x), z, atol=1e-9)

    def test_dimension_mismatch(self, rng):
        model = fit_pca(rng.standard_normal((10, 6)), k=3)
        with pytest.raises(DimensionMismatch):
            pca_project(model, np.zeros(7))
        with pytest.raises(DimensionMismatch):
            pca_reconstruct(model, np.zeros(4))


class TestValidationAndIo:
    def test_non_orthonormal_rejected(self):
        with pytest.raises(InvalidParam):
            PcaModel(np.zeros(3), np.ones((3, 2)), np.ones(2), np.full(2, 0.5))

    def test_container_roundtrip(self, rng, tmp_path):
        model = fit_pca(rng.standard_normal((10, 6)), k=3, preprocessing="log1p")
        save_pca(tmp_path / "pca.json", model)
        again = load_pca(tmp_path / "pca.json")
        assert np.array_equal(model.mean, again.mean)
        assert np.array_equal(model.components, again.components)
        assert again.preprocessing == "log1p"

    @pytest.mark.parametrize("name", ["mean", "components", "variances",
                                      "explained_variance_ratio"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_rejected_by_name(self, rng, tmp_path, name, value):
        from facegen.container import save_container
        model = fit_pca(rng.standard_normal((10, 6)), k=3)
        tensors = {f: np.array(getattr(model, f)) for f in
                   ("mean", "components", "variances", "explained_variance_ratio")}
        tensors[name].flat[-1] = value
        with pytest.raises(NonFiniteInput, match=f"{name} holds non-finite values"):
            PcaModel(**tensors)
        save_container(tmp_path / "pca.json", tensors, metadata={"kind": "pca"})
        with pytest.raises(NonFiniteInput, match=f"pca.json: {name} holds non-finite"):
            load_pca(tmp_path / "pca.json")

    def test_container_of_another_kind_rejected(self, rng, tmp_path):
        from facegen.container import save_container
        from facegen.errors import DataError
        model = fit_pca(rng.standard_normal((10, 6)), k=3)
        save_container(tmp_path / "gmm.json", {
            "mean": model.mean, "components": model.components,
            "variances": model.variances,
            "explained_variance_ratio": model.explained_variance_ratio,
        }, metadata={"kind": "gmm"})
        with pytest.raises(DataError, match="gmm.json.*'gmm' is not 'pca'"):
            load_pca(tmp_path / "gmm.json")
