import time

import numpy as np
import pytest
from scipy.stats import chisquare, norm

from facegen.errors import (
    DataError,
    EmptyLibrary,
    IndexOutOfRange,
    InvalidParam,
    NonNormalizedTable,
)
from facegen.model import Skeleton
from facegen.procedural import desk_skeleton
from facegen.sampling import (
    ExpressionLibrary,
    HairColor,
    HairColorTable,
    PoseDistribution,
    _acceptance,
    check_pose_acceptance,
    gaze_eyelid_correction,
    sample_expression,
    sample_hair_color,
    sample_pose,
    split_seed,
)


class TestExpressionLibrary:
    def test_singleton_always_returned(self):
        lib = ExpressionLibrary(np.full((1, 5), 0.3))
        for seed in range(5):
            assert np.array_equal(sample_expression(lib, seed), np.full(5, 0.3))

    def test_returned_by_value(self):
        lib = ExpressionLibrary(np.zeros((1, 3)))
        out = sample_expression(lib, 0)
        out[0] = 99.0
        assert lib.betas[0, 0] == 0.0

    def test_uniformity_chi2(self):
        lib = ExpressionLibrary(np.linspace(0, 1, 10)[:, None] * np.ones((10, 4)))
        rng = np.random.default_rng(0)
        counts = np.zeros(10)
        for _ in range(10_000):
            beta = sample_expression(lib, rng)
            idx = int(round(beta[0] * 9))
            counts[idx] += 1
        assert chisquare(counts).pvalue > 0.001

    def test_empty_raises(self):
        lib = ExpressionLibrary(np.zeros((0, 5)))
        with pytest.raises(EmptyLibrary):
            sample_expression(lib, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParam):
            ExpressionLibrary(np.array([[0.5, 1.5]]))

    def test_nan_rejected(self):
        with pytest.raises(InvalidParam):
            ExpressionLibrary(np.array([[0.5, np.nan]]))


class TestSamplePose:
    @pytest.mark.parametrize("field", ["joint_std", "global_rot_std"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_std_not_finite_rejected(self, field, bad):
        """A NaN or infinite std never draws a value inside the limits."""
        with pytest.raises(InvalidParam):
            PoseDistribution(**{field: bad})

    def test_nan_limit_rejected(self):
        """A NaN limit accepts no draw, so it must not reach sample_pose."""
        skel = desk_skeleton(m=2)
        limits = skel.limits.copy()
        limits[1, 0, 0] = np.nan
        with pytest.raises(InvalidParam):
            Skeleton(skel.t0, skel.a, limits)

    def test_hopeless_axis_fails_fast_naming_it(self):
        """A jaw limit 50 stds out accepts no draw in any time: the sampler
        must say so, not loop."""
        skel = desk_skeleton(m=2)
        limits = skel.limits.copy()
        limits[1, 0] = [0.5, 0.6]
        skel = Skeleton(skel.t0, skel.a, limits)
        t0 = time.perf_counter()
        with pytest.raises(InvalidParam, match=r"joint 'jaw' axis 0: .* below 1e-06"):
            sample_pose(skel, PoseDistribution(joint_std=0.01), rng=0)
        assert time.perf_counter() - t0 < 1.0
        with pytest.raises(DataError, match=r"\$\.pose\.joint_std\[1\]\[0\] 0\.01 "):
            check_pose_acceptance(skel, PoseDistribution(joint_std=0.01))

    def test_unlikely_axis_still_samples(self):
        """An acceptance probability of about 1e-3 takes more than 100
        rounds on most seeds, but is no reason to fail."""
        skel = desk_skeleton(m=2)
        limits = skel.limits.copy()
        limits[1, 0] = [0.3, 0.6]
        skel = Skeleton(skel.t0, skel.a, limits)
        cfg = PoseDistribution(joint_std=0.1)
        check_pose_acceptance(skel, cfg)
        for seed in range(5):
            pose = sample_pose(skel, cfg, rng=seed)
            assert 0.3 <= pose.joint_angles[1, 0] <= 0.6

    def test_huge_global_std_rejected(self):
        with pytest.raises(DataError, match=r"\$\.pose\.global_rot_std\[0\] 1e\+07 "):
            check_pose_acceptance(desk_skeleton(m=2), PoseDistribution(global_rot_std=1e7))

    @pytest.mark.parametrize("std, lo, hi", [(0.1, -0.2, 0.3), (1.0, 0.5, 2.0),
                                             (0.01, -0.6, -0.5), (3.0, -0.1, 0.1)])
    def test_acceptance_is_the_normal_mass(self, std, lo, hi):
        expected = norm.cdf(hi / std) - norm.cdf(lo / std)
        assert _acceptance(std, lo, hi) == pytest.approx(expected, rel=1e-9, abs=1e-300)

    def test_acceptance_of_zero_std(self):
        assert _acceptance(0.0, -0.1, 0.1) == 1.0
        assert _acceptance(0.0, 0.0, 0.1) == 1.0
        assert _acceptance(0.0, 0.1, 0.2) == 0.0

    def test_std_zero_gives_zero(self):
        skel = desk_skeleton(m=2)
        cfg = PoseDistribution(joint_std=np.zeros((4, 3)), global_rot_std=np.zeros(3))
        pose = sample_pose(skel, cfg, rng=0)
        assert np.array_equal(pose.joint_angles, np.zeros((4, 3)))
        assert np.array_equal(pose.global_rot, np.zeros(3))

    def test_all_samples_within_limits(self):
        skel = desk_skeleton(m=2)
        cfg = PoseDistribution(joint_std=np.full((4, 3), 2.0))   # heavy truncation
        rng = np.random.default_rng(3)
        for _ in range(500):
            pose = sample_pose(skel, cfg, rng)
            assert np.all(pose.joint_angles >= skel.limits[..., 0])
            assert np.all(pose.joint_angles <= skel.limits[..., 1])

    def test_untruncated_std_matches_config(self):
        skel = desk_skeleton(m=2)
        cfg = PoseDistribution(joint_std=np.full((4, 3), 0.02))
        rng = np.random.default_rng(4)
        draws = np.stack([sample_pose(skel, cfg, rng).joint_angles
                          for _ in range(10_000)])
        # neck yaw limit is +-1.0 rad: effectively untruncated at std 0.02
        emp = draws[:, 0, 1].std()
        assert abs(emp - 0.02) / 0.02 < 0.05

    def test_reproducible(self):
        skel = desk_skeleton(m=2)
        p1 = sample_pose(skel, PoseDistribution(), rng=11)
        p2 = sample_pose(skel, PoseDistribution(), rng=11)
        assert np.array_equal(p1.joint_angles, p2.joint_angles)


class TestGazeEyelidCorrection:
    def test_zero_pitch_unchanged(self):
        beta = np.full(6, 0.4)
        for coin in (True, False):
            out = gaze_eyelid_correction(beta, 0.0, coin, 1.0, [0], [1])
            assert np.array_equal(out, beta)

    def test_tails_unchanged(self):
        beta = np.full(6, 0.4)
        out = gaze_eyelid_correction(beta, 0.5, False, 1.0, [0], [1])
        assert np.array_equal(out, beta)

    def test_looking_up_raises(self):
        beta = np.zeros(6)
        out = gaze_eyelid_correction(beta, 0.2, True, 1.0, [0], [1])
        assert out[0] == pytest.approx(0.2)
        assert out[1] == 0.0

    def test_looking_down_lowers(self):
        beta = np.zeros(6)
        out = gaze_eyelid_correction(beta, -0.3, True, 1.0, [0], [1])
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.3)

    def test_clamped_to_unit_interval(self):
        beta = np.full(4, 0.9)
        out = gaze_eyelid_correction(beta, 1.0, True, 1.0, [0], [])
        assert out[0] == 1.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            gaze_eyelid_correction(np.zeros(3), 0.1, True, 1.0, [5], [])

    def test_never_mutates_input(self):
        beta = np.zeros(4)
        gaze_eyelid_correction(beta, 0.5, True, 1.0, [0], [1])
        assert np.array_equal(beta, np.zeros(4))


class TestHairColor:
    def test_single_entry_zero_jitter(self):
        table = HairColorTable(np.array([1.0]), np.array([[0.2, 0.3, 0.4]]))
        c = sample_hair_color(table, rng=0, jitter=0.0)
        assert (c.melanin, c.pheomelanin, c.grayness) == (0.2, 0.3, 0.4)

    def test_outputs_in_unit_cube(self):
        table = HairColorTable(np.array([1.0]), np.array([[0.0, 1.0, 0.01]]))
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = sample_hair_color(table, rng)
            assert 0.0 <= c.melanin <= 1.0
            assert 0.0 <= c.pheomelanin <= 1.0
            assert 0.0 <= c.grayness <= 1.0

    def test_frequencies_match_weights(self):
        w = np.array([0.5, 0.3, 0.2])
        triples = np.array([[0.1, 0, 0], [0.5, 0, 0], [0.9, 0, 0]])
        table = HairColorTable(w, triples)
        rng = np.random.default_rng(2)
        counts = np.zeros(3)
        for _ in range(10_000):
            c = sample_hair_color(table, rng, jitter=0.0)
            counts[int(round((c.melanin - 0.1) / 0.4))] += 1
        assert chisquare(counts, w * 10_000).pvalue > 0.001

    def test_badly_normalized_rejected(self):
        with pytest.raises(NonNormalizedTable):
            HairColorTable(np.array([0.5, 0.2]), np.zeros((2, 3)))

    def test_slightly_off_renormalized_with_warning(self):
        w = np.array([0.5, 0.5 - 5e-7])
        with pytest.warns(UserWarning):
            table = HairColorTable(w, np.zeros((2, 3)))
        assert table.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_roundtrip_dict(self):
        table = HairColorTable.uniform_placeholder()
        again = HairColorTable.from_dict(table.to_dict())
        assert np.array_equal(table.weights, again.weights)
        assert np.array_equal(table.triples, again.triples)

    def test_invalid_color_rejected(self):
        with pytest.raises(InvalidParam):
            HairColor(1.2, 0.0, 0.0)

    def test_empty_table_rejected(self):
        from facegen.errors import EmptyTable
        with pytest.raises(EmptyTable):
            HairColorTable(np.zeros(0), np.zeros((0, 3)))
        with pytest.raises(EmptyTable):
            HairColorTable.from_dict({"entries": []})


def test_split_seed_decorrelates():
    seeds = {split_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert split_seed(7, 3) == split_seed(7, 3)
    assert split_seed(7, 3) != split_seed(8, 3)
