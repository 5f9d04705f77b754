import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sulab.errors import InvalidArgumentError, SingularTimeError
from sulab.schedule import (SCORE, VELOCITY, XPRED, alpha_sigma,
                            convert_value, forward_process)

finite_vec = st.lists(st.floats(-10, 10), min_size=2, max_size=6)
interior_t = st.floats(0.05, 0.95)


class TestLinearSchedule:
    def test_endpoint_values(self):
        assert alpha_sigma(0.0) == (1.0, 0.0)
        assert alpha_sigma(1.0) == (0.0, 1.0)

    def test_midpoint(self):
        assert alpha_sigma(0.5) == (0.5, 0.5)

    def test_derivatives_constant(self):
        # dz_t/dt = -x + eps at every t, which is the velocity DSM target
        rng = np.random.default_rng(0)
        x, eps = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
        ts = np.linspace(0.1, 0.9, 7)
        h = 1e-6
        fd = (forward_process(x, eps, ts + h)
              - forward_process(x, eps, ts - h)) / (2 * h)
        np.testing.assert_allclose(fd, eps - x, rtol=1e-6, atol=1e-8)

    def test_alpha_plus_sigma_is_one(self):
        a, s = alpha_sigma(np.linspace(0, 1, 11))
        np.testing.assert_allclose(a + s, np.ones(11))


class TestForwardProcess:
    def test_t_zero_returns_x(self):
        x, eps = np.array([1.0, 2.0]), np.array([5.0, -1.0])
        np.testing.assert_array_equal(forward_process(x, eps, 0.0), x)

    def test_t_one_returns_eps(self):
        x, eps = np.array([1.0, 2.0]), np.array([5.0, -1.0])
        np.testing.assert_array_equal(forward_process(x, eps, 1.0), eps)

    def test_midpoint_average(self):
        x, eps = np.array([2.0, 0.0]), np.array([0.0, 2.0])
        np.testing.assert_array_equal(forward_process(x, eps, 0.5),
                                      np.array([1.0, 1.0]))

    def test_batched_times_broadcast(self):
        x = np.ones((3, 2))
        eps = np.zeros((3, 2))
        ts = np.array([0.0, 0.5, 1.0])
        z = forward_process(x, eps, ts)
        np.testing.assert_allclose(z[:, 0], [1.0, 0.5, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            forward_process(np.ones(3), np.ones(4), 0.5)


class TestConversions:
    def test_velocity_from_score_formula(self):
        z = np.array([1.0, -2.0])
        s = np.array([0.5, 0.25])
        t = 0.5
        expected = -(t / (1 - t)) * s - z / (1 - t)
        np.testing.assert_allclose(convert_value(s, SCORE, VELOCITY, z, t), expected)

    def test_single_point_consistency(self):
        # score of a single training point y: s = (alpha*y - z)/sigma^2;
        # its velocity must equal (z - y)/t and its x-prediction y itself.
        rng = np.random.default_rng(0)
        y, z = rng.normal(size=3), rng.normal(size=3)
        t = 0.3
        s = ((1 - t) * y - z) / t**2
        np.testing.assert_allclose(convert_value(s, SCORE, VELOCITY, z, t),
                                   (z - y) / t, rtol=1e-12)
        np.testing.assert_allclose(convert_value(s, SCORE, XPRED, z, t),
                                   y, rtol=1e-10, atol=1e-12)

    @settings(max_examples=60)
    @given(finite_vec, finite_vec, interior_t,
           st.sampled_from([SCORE, VELOCITY, XPRED]),
           st.sampled_from([SCORE, VELOCITY, XPRED]))
    def test_round_trip(self, value, z, t, kind, target):
        n = min(len(value), len(z))
        v, zz = np.asarray(value[:n]), np.asarray(z[:n])
        there = convert_value(v, kind, target, zz, t)
        back = convert_value(there, target, kind, zz, t)
        np.testing.assert_allclose(back, v, rtol=1e-8, atol=1e-8)

    @settings(max_examples=40)
    @given(finite_vec, finite_vec, interior_t)
    def test_conversion_is_affine_consistent(self, value, z, t):
        # converting via an intermediate equals converting directly
        n = min(len(value), len(z))
        v, zz = np.asarray(value[:n]), np.asarray(z[:n])
        via = convert_value(convert_value(v, SCORE, VELOCITY, zz, t),
                            VELOCITY, XPRED, zz, t)
        direct = convert_value(v, SCORE, XPRED, zz, t)
        np.testing.assert_allclose(via, direct, rtol=1e-8, atol=1e-8)

    def test_identity_conversion_skips_singularity(self):
        v = np.array([1.0])
        np.testing.assert_array_equal(convert_value(v, SCORE, SCORE, v, 0.0), v)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.1, 1.5])
    def test_singular_times_rejected(self, t):
        with pytest.raises(SingularTimeError):
            convert_value(np.ones(2), SCORE, VELOCITY, np.ones(2), t)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidArgumentError):
            convert_value(np.ones(2), "bogus", SCORE, np.ones(2), 0.5)


class TestPrediction:
    def test_unknown_kind_rejected(self):
        # an unknown target kind, as an unknown source kind above
        with pytest.raises(InvalidArgumentError):
            convert_value(np.ones(2), SCORE, "huh", np.ones(2), 0.5)
