import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sulab.errors import InvalidArgumentError, RankDeficiencyError
from sulab.empirical import mixture_weights
from sulab.numerics import (RngStream, cholesky_solve, log_sum_exp,
                            sliced_wasserstein)


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(7, 3).normal(10)
        b = RngStream(7, 3).normal(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(7, 0).normal(1000)
        b = RngStream(7, 1).normal(1000)
        assert np.abs(a - b).max() > 1e-6
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_seeds_differ(self):
        assert RngStream(1, 0).normal(5)[0] != RngStream(2, 0).normal(5)[0]

    def test_prefix_stability(self):
        # draws are a stream: the first k of a longer request match a shorter one
        long = RngStream(3, 1).normal(100)
        short = RngStream(3, 1).normal(100)
        np.testing.assert_array_equal(long[:10], short[:10])

    def test_choice_without_replacement(self):
        picks = RngStream(0, 0).choice(10, size=10)
        assert sorted(picks.tolist()) == list(range(10))

    def test_uniform_bounds(self):
        u = RngStream(1, 1).uniform(0.2, 0.8, 1000)
        assert u.min() >= 0.2 and u.max() <= 0.8


class TestLogSumExp:
    def test_single_value(self):
        assert log_sum_exp([3.0]) == pytest.approx(3.0)

    def test_two_equal(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(np.log(2.0))

    def test_extreme_values_no_overflow(self):
        assert log_sum_exp([1e4, 1e4]) == pytest.approx(1e4 + np.log(2.0))
        assert np.isfinite(log_sum_exp([-1e4, -1e4 + 1.0]))

    @settings(max_examples=50)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    def test_matches_naive(self, vals):
        naive = np.log(np.sum(np.exp(np.asarray(vals))))
        assert log_sum_exp(vals) == pytest.approx(naive, rel=1e-12, abs=1e-12)

    @settings(max_examples=50)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20),
           st.floats(-1e8, 1e8))
    def test_shift_invariance(self, vals, shift):
        shifted = log_sum_exp([v + shift for v in vals])
        assert shifted == pytest.approx(log_sum_exp(vals) + shift,
                                        rel=1e-9, abs=1e-6)


class TestStableSoftmax:
    """The package's one softmax: the mixture responsibilities."""

    def test_uniform(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        w = mixture_weights(np.zeros((1, 2)), pts, 0.5, 0.5)
        np.testing.assert_allclose(w, np.full((1, 3), 1 / 3), atol=1e-15)

    def test_huge_logits(self):
        # logits -|z - x_i|^2 / (2 sigma^2) of 0 and about -5e11
        pts = np.array([[0.0], [1e6]])
        w = mixture_weights(np.zeros((1, 1)), pts, 1.0, 1.0)
        assert w[0, 0] == pytest.approx(1.0)
        assert np.all(np.isfinite(w))

    @settings(max_examples=50)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           st.floats(-100, 100))
    def test_simplex(self, vals, z):
        pts = np.asarray(vals)[:, None]
        w = mixture_weights(np.array([[z]]), pts, 1.0, 0.1)
        assert np.all(w >= 0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)


class TestCholeskySolve:
    def test_matches_numpy_solve(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 8))
        spd = a @ a.T + 8 * np.eye(8)
        rhs = rng.normal(size=(8, 3))
        np.testing.assert_allclose(cholesky_solve(spd, rhs),
                                   np.linalg.solve(spd, rhs),
                                   rtol=1e-10, atol=1e-10)

    def test_identity(self):
        rhs = np.arange(4.0)
        np.testing.assert_allclose(cholesky_solve(np.eye(4), rhs), rhs)

    def test_rank_deficient_raises_with_pivot(self):
        bad = np.zeros((3, 3))
        bad[0, 0] = 1.0
        with pytest.raises(RankDeficiencyError):
            cholesky_solve(bad, np.ones(3))


class TestSlicedWasserstein:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(1).normal(size=(50, 3))
        assert sliced_wasserstein(pts, pts.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_translation_detected(self):
        pts = np.random.default_rng(2).normal(size=(200, 2))
        shifted = pts + np.array([3.0, 0.0])
        assert sliced_wasserstein(pts, shifted) > 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(40, 2)), rng.normal(size=(40, 2)) + 0.5
        assert sliced_wasserstein(a, b) == pytest.approx(
            sliced_wasserstein(b, a), rel=1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(30, 2)), rng.normal(size=(30, 2))
        assert sliced_wasserstein(a, b, seed=5) == sliced_wasserstein(a, b, seed=5)

    def test_unequal_sizes_supported(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(30, 2)), rng.normal(size=(75, 2))
        assert np.isfinite(sliced_wasserstein(a, b))

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            sliced_wasserstein(np.zeros((0, 2)), np.zeros((5, 2)))
        with pytest.raises(InvalidArgumentError):
            sliced_wasserstein(np.zeros((5, 2)), np.zeros((5, 3)))
