import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sulab.data import Dataset, make_class_mixture
from sulab.empirical import (EmpiricalScoreOracle, mixture_weights,
                             naive_empirical_score)
from sulab.errors import (EmptyClassError, InvalidArgumentError,
                          SingularTimeError)
from sulab.numerics import RngStream


def _random_instance(seed, n=16, d=4):
    rng = RngStream(seed, 0)
    ds = Dataset(rng.normal((n, d)))
    z = rng.normal(d)
    t = float(rng.uniform(0.05, 0.95))
    return ds, z, t


def _score(oracle, z, t):
    return oracle.score_batch(np.asarray(z)[None, :], t)[0]


class TestStableVsNaive:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_naive_reference(self, seed):
        ds, z, t = _random_instance(seed)
        got = _score(EmpiricalScoreOracle(ds), z, t)
        try:
            want = naive_empirical_score(ds, z, t)
        except FloatingPointError:
            # every naive weight underflowed: outside the reference's benign
            # domain, where only the stable oracle still has an answer
            assert np.all(np.isfinite(got))
            return
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_survives_far_separated_points(self):
        # the naive formula underflows here; the stable one must not
        pts = np.array([[0.0, 0.0], [1e4, 0.0]])
        oracle = EmpiricalScoreOracle(Dataset(pts))
        s = _score(oracle, np.array([1.0, 0.0]), 0.01)
        assert np.all(np.isfinite(s))


class TestLogDensityGradient:
    def test_score_is_gradient_of_log_density(self):
        ds, z, t = _random_instance(3, n=8, d=3)
        oracle = EmpiricalScoreOracle(ds)
        a, s = 1.0 - t, t

        def log_p(zz):
            sq = np.sum((zz[None, :] - a * ds.points) ** 2, axis=1)
            m = np.max(-sq / (2 * s * s))
            return m + np.log(np.mean(np.exp(-sq / (2 * s * s) - m)))

        h = 1e-6
        grad = np.array([
            (log_p(z + h * e) - log_p(z - h * e)) / (2 * h)
            for e in np.eye(3)
        ])
        np.testing.assert_allclose(_score(oracle, z, t), grad, rtol=1e-5,
                                   atol=1e-5)


class TestBatchPath:
    def test_batch_matches_single(self):
        ds, _, _ = _random_instance(5, n=12, d=3)
        oracle = EmpiricalScoreOracle(ds)
        rng = RngStream(9, 0)
        zs = rng.normal((20, 3))
        ts = rng.uniform(0.05, 0.95, 20)
        batch = oracle.score_batch(zs, ts)
        singles = np.stack([_score(oracle, zs[i], float(ts[i])) for i in range(20)])
        np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-12)

    def test_scalar_t_broadcast(self):
        ds, _, _ = _random_instance(6, n=5, d=2)
        oracle = EmpiricalScoreOracle(ds)
        zs = RngStream(1, 1).normal((4, 2))
        batch = oracle.score_batch(zs, 0.3)
        singles = np.stack([_score(oracle, z, 0.3) for z in zs])
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestSoftmaxWeights:
    def test_weights_sum_to_one(self):
        ds, z, t = _random_instance(7)
        zs = np.stack([z, -z, 3.0 * z])
        ts = np.array([t, 0.5, 0.9])
        w = mixture_weights(zs, ds.points, 1.0 - ts, ts)
        assert w.shape == (3, ds.size)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w >= 0)

    def test_nearest_point_dominates_at_small_t(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        w = mixture_weights(np.array([[0.01, 0.0]]), pts, 0.95, 0.05)
        assert w[0, 0] > 0.999


class TestCollapsedScore:
    def test_separated_data_matches_exact(self):
        pts = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        ds = Dataset(pts)
        oracle = EmpiricalScoreOracle(ds)
        t = 0.1
        z = (1 - t) * pts[1] + t * RngStream(4, 0).normal(2)
        collapsed, idx = oracle.collapsed_score(z, t)
        assert idx == 1
        np.testing.assert_allclose(collapsed, _score(oracle, z, t), rtol=1e-3)

    def test_tie_breaks_to_lowest_index(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        _, idx = EmpiricalScoreOracle(Dataset(pts)).collapsed_score(
            np.array([0.0, 0.0]), 0.5)
        assert idx == 0

    def test_collapsed_score_formula(self):
        pts = np.array([[2.0, 0.0], [50.0, 50.0]])
        t = 0.5
        z = np.array([1.0, 0.5])
        collapsed, idx = EmpiricalScoreOracle(Dataset(pts)).collapsed_score(z, t)
        np.testing.assert_allclose(collapsed, (-z + 0.5 * pts[0]) / 0.25)
        assert idx == 0


class TestSingularAndClassHandling:
    def test_t_zero_raises(self):
        ds, z, _ = _random_instance(0)
        oracle = EmpiricalScoreOracle(ds)
        with pytest.raises(SingularTimeError):
            oracle.score_batch(z[None, :], 0.0)
        with pytest.raises(SingularTimeError):
            oracle.score_batch(np.stack([z, z]), np.array([0.5, 0.0]))

    def test_class_filter_restricts_mixture(self):
        ds = make_class_mixture(2, 8, seed=1, num_classes=2)
        cond = EmpiricalScoreOracle(ds, class_filter=0)
        sub = Dataset(ds.points[ds.class_indices(0)])
        plain = EmpiricalScoreOracle(sub)
        z = np.array([0.3, -0.2])
        np.testing.assert_allclose(_score(cond, z, 0.4), _score(plain, z, 0.4),
                                   rtol=1e-12)

    def test_empty_class_raises(self):
        ds = Dataset(np.zeros((2, 2)), labels=[0, 0])
        with pytest.raises((EmptyClassError, InvalidArgumentError)):
            EmpiricalScoreOracle(ds, class_filter=1)


class TestCfgScores:
    def test_single_class_gap_zero(self):
        ds = make_class_mixture(2, 8, seed=1, num_classes=1)
        cond = EmpiricalScoreOracle(ds, class_filter=0)
        uncond = EmpiricalScoreOracle(ds)
        z = np.array([[0.1, 0.2]])
        gap = np.linalg.norm(cond.score_batch(z, 0.5) - uncond.score_batch(z, 0.5))
        assert gap == pytest.approx(0.0, abs=1e-10)

    def test_two_class_gap_positive_on_one_side(self):
        ds = make_class_mixture(2, 16, seed=1, separation=8.0, num_classes=2)
        cond = EmpiricalScoreOracle(ds, class_filter=0)
        uncond = EmpiricalScoreOracle(ds)
        z = np.array([[-4.0, 0.0]])  # deep inside class 0 territory
        gap = np.linalg.norm(cond.score_batch(z, 0.9) - uncond.score_batch(z, 0.9))
        assert gap > 0.0
