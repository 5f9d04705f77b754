import numpy as np
import pytest

from sulab import geometry
from sulab.data import Dataset, make_gaussian_dataset
from sulab.diagnostics import (EXTRAPOLATION, SUPERVISION, QualityPoint, calibrated_l2_values,
                               cfg_gap_curve,
                               estimate_region, fit_quality_line,
                               memorization_ratio, pat_quality,
                               regress_to_origin_ratio, score_error,
                               supervision_loss, velocity_weight)
from sulab.errors import InvalidArgumentError, RankDeficiencyError
from sulab.models import GaussianGroundTruthField
from sulab.schedule import VELOCITY


class ConstantScoreField:
    """Score field that always predicts a fixed vector."""

    from sulab.schedule import SCORE as prediction_kind

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.dim = self.c.size

    def evaluate_batch(self, zs, t, labels=None):
        return np.tile(self.c, (np.atleast_2d(zs).shape[0], 1))

    def evaluate(self, z, t, label=None):
        return self.c


class TestVelocityWeight:
    def test_formula(self):
        np.testing.assert_allclose(velocity_weight(0.5), 1.0)
        np.testing.assert_allclose(velocity_weight(0.25), (0.25 / 0.75) ** 2)

    def test_converts_score_error_to_velocity_error(self):
        # |v1 - v2|^2 = (t/(1-t))^2 |s1 - s2|^2 under the linear schedule.
        from sulab.schedule import SCORE, convert_value
        rng = np.random.default_rng(0)
        z = rng.normal(size=3)
        t = 0.37
        s1, s2 = rng.normal(size=3), rng.normal(size=3)
        v1 = convert_value(s1, SCORE, VELOCITY, z, t)
        v2 = convert_value(s2, SCORE, VELOCITY, z, t)
        np.testing.assert_allclose(
            np.sum((v1 - v2) ** 2),
            velocity_weight(t) * np.sum((s1 - s2) ** 2), rtol=1e-12)


class TestEstimateRegion:
    def test_constant_quantity_plain_mean(self):
        ds = make_gaussian_dataset(2, 8, seed=0)
        est = estimate_region(lambda zs, t: np.full(zs.shape[0], 3.0),
                              SUPERVISION, ds, n=10, timesteps=5, seed=0)
        assert est.value == pytest.approx(3.0)
        assert est.stderr == pytest.approx(0.0)
        assert len(est.curve) == 5

    def test_stderr_from_per_sample_means(self):
        # Sample i is the same (x, eps) pair at every timestep, so a quantity
        # that is constant per sample has the spread of n values, not n*T.
        ds = make_gaussian_dataset(2, 8, seed=0)
        n = 10
        est = estimate_region(lambda zs, t: np.arange(zs.shape[0], dtype=float),
                              SUPERVISION, ds, n=n, timesteps=25, seed=0)
        assert est.value == pytest.approx(4.5)
        assert est.stderr == pytest.approx(np.std(np.arange(n)) / np.sqrt(n))

    def test_extrapolation_requires_field(self):
        ds = make_gaussian_dataset(2, 8, seed=0)
        with pytest.raises(InvalidArgumentError):
            estimate_region(lambda zs, t: np.ones(zs.shape[0]),
                            EXTRAPOLATION, ds, n=2, timesteps=2, seed=0)

    def test_validation(self):
        ds = make_gaussian_dataset(2, 8, seed=0)
        q = lambda zs, t: np.ones(zs.shape[0])
        with pytest.raises(InvalidArgumentError):
            estimate_region(q, SUPERVISION, ds, n=0)
        with pytest.raises(InvalidArgumentError):
            estimate_region(q, "interior", ds)

    def test_deterministic(self):
        ds = make_gaussian_dataset(3, 16, seed=0)
        q = lambda zs, t: np.sum(zs * zs, axis=1)
        a = estimate_region(q, SUPERVISION, ds, n=20, timesteps=10, seed=7)
        b = estimate_region(q, SUPERVISION, ds, n=20, timesteps=10, seed=7)
        assert a.value == b.value and a.curve == b.curve

    def test_extrapolation_inputs_track_trajectories(self):
        # With the exact Gaussian field, trajectory states have norm scaling
        # sqrt(V(t)); the mean squared norm over inputs should match d * V(t).
        ds = make_gaussian_dataset(4, 8, seed=0)
        field = GaussianGroundTruthField(4)
        est = estimate_region(lambda zs, t: np.sum(zs * zs, axis=1),
                              EXTRAPOLATION, ds, field=field, n=40,
                              timesteps=12, seed=3)
        for t, mean_sq in est.curve:
            v = (1 - t) ** 2 + t**2
            expected = 4 * v / ((1 - 1e-3) ** 2 + 1e-3**2)
            # slack: 40 samples of a chi-square-like statistic
            assert abs(mean_sq / expected - 1.0) < 0.5


class TestScoreError:
    def test_zero_for_identical_fields(self):
        ds = make_gaussian_dataset(2, 8, seed=0)
        field = GaussianGroundTruthField(2)
        est, = score_error(field, [field], SUPERVISION, ds, n=10,
                           timesteps=10)
        assert est.value == 0.0

    def test_unit_error_gives_mean_velocity_weight(self):
        # |s1 - s2|^2 = 1 at every input, so the estimate is the mean of the
        # velocity weight over the drawn timesteps: the weight lives here,
        # not in estimate_region.
        ds = make_gaussian_dataset(2, 8, seed=0)
        est, = score_error(ConstantScoreField([1.0, 0.0]),
                           [ConstantScoreField([0.0, 0.0])], SUPERVISION, ds,
                           n=4, timesteps=50, seed=1)
        ts = np.array([t for t, _ in est.curve])
        assert est.value == pytest.approx(np.mean(velocity_weight(ts)))

    def test_constant_offset_closed_form(self):
        # Fields differing by a constant vector c: weighted error is
        # velocity_weight(t) * |c|^2 at every input.
        ds = make_gaussian_dataset(3, 8, seed=0)
        a = ConstantScoreField([1.0, 0.0, 0.0])
        b = ConstantScoreField([0.0, 2.0, 0.0])
        est, = score_error(a, [b], SUPERVISION, ds, n=5, timesteps=40, seed=2)
        ts = np.array([t for t, _ in est.curve])
        expected = np.mean(velocity_weight(ts) * 5.0)
        assert est.value == pytest.approx(expected, rel=1e-10)

    def test_supervision_loss_is_value(self):
        ds = make_gaussian_dataset(2, 8, seed=0)
        a = ConstantScoreField([1.0, 0.0])
        b = ConstantScoreField([0.0, 0.0])
        scalar = supervision_loss(a, b, ds, n=6, timesteps=9, seed=4)
        est, = score_error(a, [b], SUPERVISION, ds, n=6, timesteps=9, seed=4)
        assert scalar == est.value


class TestCfgGap:
    def test_zero_gap_when_cond_equals_uncond(self):
        ds = Dataset(points=np.random.default_rng(0).normal(size=(10, 2)),
                     labels=np.array([0, 1] * 5))
        f = lambda zs, t: -zs
        rows = cfg_gap_curve(lambda zs, t, lab: f(zs, t), f, ds, SUPERVISION,
                             [0.2, 0.5, 0.8], n=20, seed=0)
        for t, med, p10, p90 in rows:
            assert med == 0.0 and p10 == 0.0 and p90 == 0.0

    def test_constant_gap_magnitude(self):
        ds = Dataset(points=np.random.default_rng(0).normal(size=(10, 2)),
                     labels=np.array([0, 1] * 5))
        cond = lambda zs, t, lab: -zs + np.array([3.0, 4.0])
        uncond = lambda zs, t: -zs
        rows = cfg_gap_curve(cond, uncond, ds, SUPERVISION, [0.5], n=15,
                             seed=0)
        assert rows[0][1] == pytest.approx(5.0)

    def test_requires_labels_and_valid_grid(self):
        ds = make_gaussian_dataset(2, 8, seed=0)
        with pytest.raises(InvalidArgumentError):
            cfg_gap_curve(lambda z, t, l: z, lambda z, t: z, ds, SUPERVISION,
                          [0.5])
        labeled = Dataset(points=np.zeros((4, 2)),
                          labels=np.array([0, 0, 1, 1]))
        with pytest.raises(InvalidArgumentError):
            cfg_gap_curve(lambda z, t, l: z, lambda z, t: z, labeled,
                          SUPERVISION, [0.0, 0.5])


class TestMemorization:
    def test_calibrated_l2_exact_hit(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert calibrated_l2_values([0.0, 0.0], pts, 2)[0] == 0.0
        # a zero denominator (n points all hit exactly) reads 0, not nan
        assert calibrated_l2_values([[0.0, 0.0]], np.zeros((3, 2)), 2)[0] == 0.0

    def test_calibrated_l2_formula(self):
        pts = np.array([[0.0], [3.0]])
        # sample at 1: nearest sq dists are 1 and 4, ratio 1 / mean(1, 4)
        assert calibrated_l2_values([1.0], pts, 2)[0] == pytest.approx(1.0 / 2.5)

    def test_equidistant_is_one_over_mean(self):
        # sample equidistant from its n nearest points gives ratio 1.
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert calibrated_l2_values([0.0, 0.0], pts, 2)[0] == pytest.approx(1.0)

    def test_n_validation(self):
        pts = np.zeros((3, 2))
        with pytest.raises(InvalidArgumentError):
            calibrated_l2_values([0.0, 0.0], pts, 4)
        with pytest.raises(InvalidArgumentError):
            calibrated_l2_values([0.0, 0.0], pts, 0)

    def test_memorization_ratio_counts_below_threshold(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        samples = np.array([[0.01, 0.0],   # essentially on a point -> below
                            [5.0, 5.0]])   # equidistant -> ratio 1 -> above
        values = calibrated_l2_values(samples, pts, 4)
        assert memorization_ratio(values) == pytest.approx(0.5)

    def test_memorization_ratio_validation(self):
        with pytest.raises(InvalidArgumentError):
            memorization_ratio(np.zeros(0))
        with pytest.raises(InvalidArgumentError):
            memorization_ratio(np.zeros(1), threshold=1.0)

    def test_calibrated_values_vectorized(self):
        pts = np.random.default_rng(0).normal(size=(6, 2))
        samples = np.random.default_rng(1).normal(size=(4, 2))
        vals = calibrated_l2_values(samples, pts, 3)
        expected = []
        for s in samples:  # the definition, one sample at a time
            sq = np.sort(np.sum((pts - s) ** 2, axis=1))[:3]
            expected.append(sq[0] / np.mean(sq))
        np.testing.assert_array_equal(vals, expected)


class TestRowBlocks:
    @pytest.mark.parametrize("block", [1, 3, None])
    def test_blocks_match_one_pass_bitwise(self, monkeypatch, block):
        pts = np.random.default_rng(3).normal(size=(12, 5))
        samples = np.concatenate([
            np.random.default_rng(4).normal(size=(10, 5)),
            pts[[2, 7]], pts[[3]] + 1e-9])  # memorized and near-duplicate
        # the one-pass direct-difference form the blocks must reproduce
        sq = np.sum((pts[None, :, :] - samples[:, None, :]) ** 2, axis=2)
        nearest = np.sort(sq, axis=1)[:, :8]
        origins = np.argmin(sq, axis=1)
        origins[::4] = 0
        if block is not None:  # rows per block
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", block * pts.size)
        np.testing.assert_array_equal(
            calibrated_l2_values(samples, pts, 8),
            nearest[:, 0] / np.mean(nearest, axis=1))
        assert regress_to_origin_ratio(zip(origins, samples), pts) == \
            float(np.mean(np.argmin(sq, axis=1) == origins))

    def test_no_samples_give_no_values(self):
        values = calibrated_l2_values(np.zeros((0, 2)), np.eye(2), 1)
        assert values.shape == (0,)


class TestRegressToOrigin:
    def test_counts_nearest_matches(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        pairs = [(0, [0.1, 0.0]),   # nearest is 0 == origin: hit
                 (1, [9.5, 0.0]),   # nearest is 1 == origin: hit
                 (0, [9.0, 0.0])]   # nearest is 1 != origin: miss
        assert regress_to_origin_ratio(pairs, pts) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            regress_to_origin_ratio([], np.zeros((2, 2)))


class TestPatQuality:
    def test_partitions_sum_to_one(self):
        samples = np.random.default_rng(0).normal(size=(100, 2))
        bad, good, other = pat_quality(samples)
        assert bad + good + other == pytest.approx(1.0)

    def test_classification_cases(self):
        samples = np.array([
            [0.0, 0.0],    # center of the bridge: bad
            [1.0, 0.0],    # on the outer radius but inside bridge height? |y|=0<0.1 but |x|=1>0.2 so good
            [0.0, 0.5],    # radius 0.5 inside band, off bridge: good
            [5.0, 5.0],    # far outside band: other
        ])
        bad, good, other = pat_quality(samples)
        assert bad == pytest.approx(0.25)
        assert good == pytest.approx(0.5)
        assert other == pytest.approx(0.25)

    def test_requires_2d(self):
        with pytest.raises(InvalidArgumentError):
            pat_quality(np.zeros((3, 3)))


class TestQualityLine:
    def test_exact_line_recovered(self):
        pts = [QualityPoint(x, 2.0 * x + 1.0) for x in (0.1, 0.5, 1.0, 2.0)]
        slope, intercept, resid = fit_quality_line(pts)
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_residual_reported(self):
        pts = [QualityPoint(0.0, 0.0), QualityPoint(1.0, 0.0),
               QualityPoint(0.5, 1.0)]
        _, _, resid = fit_quality_line(pts)
        assert resid > 0.1

    def test_degenerate_abscissa(self):
        pts = [QualityPoint(1.0, 0.0), QualityPoint(1.0, 2.0)]
        with pytest.raises(RankDeficiencyError):
            fit_quality_line(pts)

    def test_too_few_points(self):
        with pytest.raises(InvalidArgumentError):
            fit_quality_line([QualityPoint(0.0, 0.0)])

    def test_non_finite_point_rejected(self):
        with pytest.raises(InvalidArgumentError):
            QualityPoint(np.nan, 0.0)
