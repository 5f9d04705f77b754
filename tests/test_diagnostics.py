import tracemalloc

import numpy as np
import pytest

from sulab import geometry
from sulab.data import Dataset, make_gaussian_dataset, supervision_draws
from sulab.diagnostics import (_T_MIN, EXTRAPOLATION, SUPERVISION,
                               calibrated_l2_values, cfg_gap_curve,
                               estimate_region, fit_quality_line,
                               memorization_ratio, pat_quality,
                               regress_to_origin_ratio, score_error)
from sulab.errors import InvalidArgumentError, RankDeficiencyError
from sulab.models import MlpScoreNetwork
from sulab.numerics import RngStream
from sulab.sampling import FIXED_HEUN, SolverConfig, integrate, states_at
from sulab.schedule import (SCORE, VELOCITY, convert_value, forward_process,
                            velocity_weight)
from conftest import population_field


class ConstantScoreField:
    """Score field that always predicts a fixed vector, and keeps the
    timestep of every batch it is asked for."""

    from sulab.schedule import SCORE as prediction_kind

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.dim = self.c.size
        self.ts = []

    def evaluate_batch(self, zs, t, labels=None):
        self.ts.append(t)
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
        ts = []

        def q(zs, t):
            ts.append(t)
            return np.full((1, zs.shape[0]), 3.0)

        est, = estimate_region(q, SUPERVISION, ds, n=10, timesteps=5, seed=0)
        assert est.value == pytest.approx(3.0)
        assert est.stderr == pytest.approx(0.0)
        assert len(ts) == 5

    def test_stderr_from_per_sample_means(self):
        # Sample i is the same (x, eps) pair at every timestep, so a quantity
        # that is constant per sample has the spread of n values, not n*T.
        ds = make_gaussian_dataset(2, 8, seed=0)
        n = 10
        est, = estimate_region(
            lambda zs, t: np.arange(zs.shape[0], dtype=float)[None],
            SUPERVISION, ds, n=n, timesteps=25, seed=0)
        assert est.value == pytest.approx(4.5)
        assert est.stderr == pytest.approx(np.std(np.arange(n)) / np.sqrt(n))

    def test_extrapolation_requires_field(self):
        ds = make_gaussian_dataset(2, 8, seed=0)
        with pytest.raises(InvalidArgumentError):
            estimate_region(lambda zs, t: np.ones((1, zs.shape[0])),
                            EXTRAPOLATION, ds, n=2, timesteps=2, seed=0)

    def test_validation(self):
        ds = make_gaussian_dataset(2, 8, seed=0)
        q = lambda zs, t: np.ones((1, zs.shape[0]))
        with pytest.raises(InvalidArgumentError):
            estimate_region(q, SUPERVISION, ds, n=0)
        with pytest.raises(InvalidArgumentError):
            estimate_region(q, "interior", ds)
        with pytest.raises(InvalidArgumentError, match=r"\(m, 4\) array"):
            estimate_region(lambda zs, t: np.ones(zs.shape[0]), SUPERVISION,
                            ds, n=4, timesteps=2)

    def test_deterministic(self):
        ds = make_gaussian_dataset(3, 16, seed=0)

        def run():  # the estimates, and each call's timestep and inputs
            calls = []

            def q(zs, t):
                calls.append((t, zs.tobytes()))
                return np.sum(zs * zs, axis=1)[None]

            return estimate_region(q, SUPERVISION, ds, n=20, timesteps=10,
                                   seed=7), calls

        first = run()
        assert len(first[1]) == 10 and first == run()

    def test_extrapolation_inputs_track_trajectories(self):
        # With the exact Gaussian field, trajectory states have norm scaling
        # sqrt(V(t)); the mean squared norm over inputs should match d * V(t).
        ds = make_gaussian_dataset(4, 8, seed=0)
        field = population_field(4)
        curve = []  # (t, mean squared norm of the inputs at t)

        def q(zs, t):
            sq = np.sum(zs * zs, axis=1)
            curve.append((t, float(np.mean(sq))))
            return sq[None]

        estimate_region(q, EXTRAPOLATION, ds, field=field, n=40, timesteps=12,
                        seed=3)
        assert len(curve) == 12
        for t, mean_sq in curve:
            v = (1 - t) ** 2 + t**2
            expected = 4 * v / ((1 - 1e-3) ** 2 + 1e-3**2)
            # slack: 40 samples of a chi-square-like statistic
            assert abs(mean_sq / expected - 1.0) < 0.5

    def test_m_quantities_match_one_at_a_time(self):
        # One pass over m quantities gives, bit for bit, what m passes give.
        ds = make_gaussian_dataset(3, 16, seed=0)
        qs = [lambda zs, t: np.sum(zs * zs, axis=1),
              lambda zs, t: t * zs[:, 0]]
        both = estimate_region(lambda zs, t: np.stack([q(zs, t) for q in qs]),
                               SUPERVISION, ds, n=20, timesteps=10, seed=7)
        alone = [estimate_region(lambda zs, t, q=q: q(zs, t)[None],
                                 SUPERVISION, ds, n=20, timesteps=10,
                                 seed=7)[0] for q in qs]
        assert both == alone


def _stacked_inputs(region, ds, field, n, ts, rng, solver, labels=None):
    """Every timestep's (T, n, d) queries in one stack, and the per-sample
    labels: the whole-grid stack that the per-timestep sources of the region
    estimators must match."""
    if region == SUPERVISION:
        x, eps, labels = supervision_draws(ds, n, rng)
        return np.stack([forward_process(x, eps, t) for t in ts]), labels
    z0 = np.stack([RngStream(rng.seed, stream=1000 + i).normal(ds.dim)
                   for i in range(n)])
    _, trajs = integrate(field, z0, solver, record=True, label=labels)
    return np.stack([states_at(trajs, t) for t in ts]), labels


def _stacked_estimates(quantity, region, ds, field, n, timesteps, seed):
    """estimate_region's (value, stderr) pairs from an (m, T, n) value
    stack over the whole grid."""
    ts = RngStream(seed, stream=0).uniform(_T_MIN, 1.0 - _T_MIN, timesteps)
    inputs, _ = _stacked_inputs(region, ds, field, n, ts,
                                RngStream(seed, stream=1), SolverConfig())
    vals = np.stack([quantity(inputs[j], float(t)) for j, t in enumerate(ts)],
                    axis=1)
    out = []
    for per_t in vals:
        total = 0.0
        for v in per_t:
            total += float(np.sum(v))
        out.append((total / (n * timesteps),
                    float(np.std(per_t.mean(axis=0)) / np.sqrt(n))))
    return out


def _score_errors(field, references):
    """score_error's quantity: one row per reference field."""
    def q(zs, t):
        own = convert_value(field.evaluate_batch(zs, t), field.prediction_kind,
                            SCORE, zs, t)
        return velocity_weight(t) * np.stack([
            np.sum((own - convert_value(ref.evaluate_batch(zs, t),
                                        ref.prediction_kind, SCORE, zs, t))
                   ** 2, axis=1) for ref in references])
    return q


class TestStreamedMatchesStacked:
    """The estimators read one timestep at a time, and give, bit for bit,
    what the whole-grid stack gives."""

    @pytest.mark.parametrize("region", [SUPERVISION, EXTRAPOLATION])
    @pytest.mark.parametrize("n, timesteps", [(30, 7), (64, 25)])
    def test_region_estimates_and_stderrs(self, region, n, timesteps):
        ds = make_gaussian_dataset(3, 16, seed=0)
        net = MlpScoreNetwork(3, width=8, hidden_layers=1, time_freqs=2,
                              seed=1)
        q = _score_errors(net, [population_field(3), net])
        got = estimate_region(q, region, ds, field=net, n=n,
                              timesteps=timesteps, seed=5)
        want = _stacked_estimates(q, region, ds, net, n, timesteps, seed=5)
        assert [(e.value, e.stderr) for e in got] == want
        assert got[0].stderr > 0.0

    @pytest.mark.parametrize("region", [SUPERVISION, EXTRAPOLATION])
    def test_cfg_gap_rows(self, region):
        ds = Dataset(points=np.random.default_rng(0).normal(size=(10, 2)),
                     labels=np.array([0, 1] * 5))
        net = MlpScoreNetwork(2, width=8, hidden_layers=1, time_freqs=2,
                              num_classes=2, seed=3)
        cond = lambda zs, t, lab: net.evaluate_batch(zs, t, lab)
        uncond = lambda zs, t: net.evaluate_batch(zs, t)
        solver = SolverConfig(kind=FIXED_HEUN, fixed_steps=8)
        grid = [0.2, 0.5, 0.8, 0.95]
        rows = cfg_gap_curve(cond, uncond, ds, region, grid, n=40, seed=2,
                             field=net, solver=solver)
        rng = RngStream(2, stream=0)
        labels = rng.integers(0, 2, 40) if region == EXTRAPOLATION else None
        inputs, labels = _stacked_inputs(region, ds, net, 40, np.asarray(grid),
                                         rng, solver, labels)
        want = []
        for t, zs in zip(grid, inputs):
            gaps = np.linalg.norm(cond(zs, t, labels) - uncond(zs, t), axis=1)
            want.append((t, float(np.median(gaps)),
                         float(np.percentile(gaps, 10)),
                         float(np.percentile(gaps, 90))))
        assert rows == want

    def test_score_error_memory_does_not_grow_with_the_grid(self):
        # A (T, n, d) query stack alone would take 32 MB here; one
        # timestep's queries take 0.32 MB.
        ds = make_gaussian_dataset(20, 300, seed=0)
        field = population_field(20)
        tracemalloc.start()
        try:
            score_error(field, [field], SUPERVISION, ds, n=2000,
                        timesteps=100, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestScoreError:
    def test_zero_for_identical_fields(self):
        ds = make_gaussian_dataset(2, 8, seed=0)
        field = population_field(2)
        est, = score_error(field, [field], SUPERVISION, ds, n=10,
                           timesteps=10)
        assert est.value == 0.0

    def test_unit_error_gives_mean_velocity_weight(self):
        # |s1 - s2|^2 = 1 at every input, so the estimate is the mean of the
        # velocity weight over the drawn timesteps: the weight lives here,
        # not in estimate_region.
        ds = make_gaussian_dataset(2, 8, seed=0)
        field = ConstantScoreField([1.0, 0.0])
        est, = score_error(field, [ConstantScoreField([0.0, 0.0])],
                           SUPERVISION, ds, n=4, timesteps=50, seed=1)
        ts = np.array(field.ts)
        assert ts.size == 50
        assert est.value == pytest.approx(np.mean(velocity_weight(ts)))

    def test_constant_offset_closed_form(self):
        # Fields differing by a constant vector c: weighted error is
        # velocity_weight(t) * |c|^2 at every input.
        ds = make_gaussian_dataset(3, 8, seed=0)
        a = ConstantScoreField([1.0, 0.0, 0.0])
        b = ConstantScoreField([0.0, 2.0, 0.0])
        est, = score_error(a, [b], SUPERVISION, ds, n=5, timesteps=40, seed=2)
        ts = np.array(a.ts)
        assert ts.size == 40
        expected = np.mean(velocity_weight(ts) * 5.0)
        assert est.value == pytest.approx(expected, rel=1e-10)


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
            monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", block * pts.size)
        np.testing.assert_array_equal(
            calibrated_l2_values(samples, pts, 8),
            nearest[:, 0] / np.mean(nearest, axis=1))
        assert regress_to_origin_ratio(origins, samples, pts) == \
            float(np.mean(np.argmin(sq, axis=1) == origins))

    def test_no_samples_give_no_values(self):
        values = calibrated_l2_values(np.zeros((0, 2)), np.eye(2), 1)
        assert values.shape == (0,)


class TestRegressToOrigin:
    def test_counts_nearest_matches(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        origins = [0, 1, 0]
        outputs = [[0.1, 0.0],   # nearest is 0 == origin: hit
                   [9.5, 0.0],   # nearest is 1 == origin: hit
                   [9.0, 0.0]]   # nearest is 1 != origin: miss
        assert regress_to_origin_ratio(origins, outputs, pts) == \
            pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            regress_to_origin_ratio([], np.zeros((0, 2)), np.zeros((2, 2)))

    def test_one_origin_per_output(self):
        with pytest.raises(InvalidArgumentError):
            regress_to_origin_ratio([0], np.zeros((3, 2)), np.zeros((2, 2)))


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
        xs = [0.1, 0.5, 1.0, 2.0]
        slope, intercept, resid = fit_quality_line(
            xs, [2.0 * x + 1.0 for x in xs])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_residual_reported(self):
        _, _, resid = fit_quality_line([0.0, 1.0, 0.5], [0.0, 0.0, 1.0])
        assert resid > 0.1

    def test_degenerate_abscissa(self):
        with pytest.raises(RankDeficiencyError):
            fit_quality_line([1.0, 1.0], [0.0, 2.0])

    def test_too_few_points(self):
        with pytest.raises(InvalidArgumentError):
            fit_quality_line([0.0], [0.0])

    def test_non_finite_point_rejected(self):
        for losses, qualities in (([np.nan, 1.0], [0.0, 1.0]),
                                  ([0.0, 1.0], [0.0, np.inf])):
            with pytest.raises(InvalidArgumentError):
                fit_quality_line(losses, qualities)
