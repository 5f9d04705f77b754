import numpy as np
import pytest

from sulab.data import Dataset, make_gaussian_dataset
from sulab.empirical import EmpiricalScoreOracle
from sulab.errors import (DivergenceError, InvalidArgumentError,
                          NumericFailureError)
from sulab.models import MlpScoreNetwork, OracleField
from sulab import sampling
from sulab.sampling import (ADAPTIVE_RK45, FIXED_HEUN, SolverConfig,
                            denoise_from, integrate, sample, states_at,
                            velocity_fn)
from sulab.schedule import VELOCITY
from conftest import population_field


def _variance(t):
    return (1.0 - t) ** 2 + t**2


class ConstantVelocityField:
    """v(z, t) = c, so z(t_min) = z(t_start) - c * (t_start - t_min) exactly."""

    prediction_kind = VELOCITY

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.dim = self.c.size

    def evaluate_batch(self, zs, ts, labels=None):
        return np.broadcast_to(self.c, np.shape(zs))


class RowCountingField:
    """Passes evaluate_batch through to field, counting the rows evaluated."""

    def __init__(self, field):
        self.field, self.rows = field, 0
        self.prediction_kind, self.dim = field.prediction_kind, field.dim

    def evaluate_batch(self, zs, ts, labels=None):
        self.rows += len(zs)
        return self.field.evaluate_batch(zs, ts, labels)


class ExplodingField:
    prediction_kind = VELOCITY
    dim = 1

    def evaluate_batch(self, zs, ts, labels=None):
        with np.errstate(over="ignore"):
            return 1e200 * zs


class TestSolverConfig:
    def test_unknown_kind(self):
        with pytest.raises(InvalidArgumentError):
            SolverConfig(kind="rk99")

    def test_bad_tolerance(self):
        with pytest.raises(InvalidArgumentError):
            SolverConfig(atol=0.0)

    def test_bad_span(self):
        for t_min in (0.0, 0.5, 0.7):  # the default start 1 - t_min > t_min
            with pytest.raises(InvalidArgumentError):
                SolverConfig(t_min=t_min)
        with pytest.raises(InvalidArgumentError, match="t_start"):
            integrate(population_field(2), np.ones((1, 2)),
                      SolverConfig(t_min=0.3), t_start=0.2)

    def test_default_span(self):
        _, (traj,) = integrate(population_field(2), np.ones((1, 2)),
                               SolverConfig(t_min=1e-3), record=True)
        assert (traj.times[0], traj.times[-1]) == (0.999, 1e-3)


class TestVelocityFn:
    def test_velocity_kind_passes_through(self):
        field = ConstantVelocityField([2.0, -1.0])
        v = velocity_fn(field)
        np.testing.assert_array_equal(v(np.zeros((1, 2)), np.array([0.5])),
                                      [[2.0, -1.0]])

    def test_score_kind_converted(self):
        field = population_field(2)
        v = velocity_fn(field)
        z = np.array([[1.0, -0.5], [2.0, 0.25]])
        t = np.array([0.3, 0.8])
        expected = -z * ((1.0 - 2.0 * t) / _variance(t))[:, None]
        np.testing.assert_allclose(v(z, t), expected, rtol=1e-12)


class TestExactSolutions:
    def test_constant_velocity_exact(self):
        z0 = np.array([[0.0, 1.0]])
        for kind in (ADAPTIVE_RK45, FIXED_HEUN):
            c = SolverConfig(kind=kind, t_min=0.1)
            z, _ = integrate(ConstantVelocityField([1.0, -2.0]), z0, c,
                             t_start=0.9)
            np.testing.assert_allclose(z, z0 - 0.8 * np.array([1.0, -2.0]),
                                       atol=1e-10)

    def test_gaussian_field_closed_form(self):
        # dz/dt = (V'/2V) z with V(t) = (1-t)^2 + t^2, hence
        # z(t_min) = z(t_start) * sqrt(V(t_min) / V(t_start)).
        field = population_field(3)
        z0 = np.array([[1.0, -2.0, 0.5]])
        cfg = SolverConfig(t_min=0.2, atol=1e-10, rtol=1e-8)
        z, _ = integrate(field, z0, cfg, t_start=0.9)
        expected = z0 * np.sqrt(_variance(0.2) / _variance(0.9))
        np.testing.assert_allclose(z, expected, rtol=1e-6)

    def test_gaussian_full_span_is_identity(self):
        # V is symmetric about 1/2, so V(t_min) = V(1 - t_min).
        field = population_field(2)
        z0 = np.array([[0.7, -1.3]])
        z, _ = integrate(field, z0, SolverConfig(atol=1e-10, rtol=1e-8))
        np.testing.assert_allclose(z, z0, rtol=1e-6)


class TestTrajectory:
    def test_times_strictly_decreasing_and_counts(self):
        field = population_field(2)
        z0 = np.array([[1.0, 0.0]])
        _, (traj,) = integrate(field, z0, SolverConfig(), record=True)
        ts = np.array(traj.times)
        assert ts[0] == 0.999 and ts[-1] == pytest.approx(1e-3)
        assert np.all(np.diff(ts) < 0)
        assert traj.accepted == len(traj) - 1

    def test_state_at_interpolates_closed_form(self):
        field = population_field(2)
        z0 = np.array([[1.0, -1.0]])
        _, (traj,) = integrate(field, z0,
                               SolverConfig(kind=FIXED_HEUN, fixed_steps=400),
                               record=True)
        for t in (0.7, 0.5, 0.25):
            expected = z0[0] * np.sqrt(_variance(t) / _variance(0.999))
            np.testing.assert_allclose(traj.state_at(t), expected, rtol=1e-3)

    def test_state_at_clamps_to_span(self):
        field = ConstantVelocityField([1.0])
        _, (traj,) = integrate(field, np.zeros((1, 1)),
                               SolverConfig(t_min=0.2), record=True,
                               t_start=0.8)
        np.testing.assert_array_equal(traj.state_at(0.95), traj.states[0])
        np.testing.assert_array_equal(traj.state_at(0.05), traj.states[-1])


    @staticmethod
    def _record(kind=ADAPTIVE_RK45):
        # rows of different scale take different step sequences
        z0 = np.random.default_rng(4).normal(size=(5, 2)) * np.array(
            [[1e-3], [0.1], [1.0], [10.0], [1e3]])
        cfg = SolverConfig(kind=kind, atol=1e-9, rtol=1e-7, t_min=0.1,
                           fixed_steps=7)
        return integrate(population_field(2), z0, cfg, record=True,
                         t_start=0.9)[1]

    @pytest.mark.parametrize("kind", [ADAPTIVE_RK45, FIXED_HEUN])
    def test_packed_record_layout(self, kind):
        trajs = self._record(kind)
        lengths = [len(traj) for traj in trajs]
        assert len(trajs) == 5
        np.testing.assert_array_equal(trajs.offsets,
                                      np.concatenate([[0], np.cumsum(lengths)]))
        assert trajs.times.shape == (trajs.offsets[-1],)
        assert trajs.states.shape == (trajs.offsets[-1], 2)
        for traj in trajs:
            assert np.shares_memory(traj.times, trajs.times)
            assert np.shares_memory(traj.states, trajs.states)
            assert traj.times[0] == 0.9 and traj.times[-1] == 0.1
            assert np.all(np.diff(traj.times) < 0)
            assert len(traj) == traj.accepted + 1
        if kind == ADAPTIVE_RK45:
            assert len(set(lengths)) > 1

    def test_states_at_matches_interpolation_definition(self):
        trajs = self._record()
        # outside the span at both ends, on its ends, on recorded times, between
        ts = [0.95, 0.9, 0.1, 0.05, 0.5, 0.3, float(trajs[2].times[3]),
              float(trajs[0].times[-2])]
        for t in ts:
            got = states_at(trajs, t)
            assert got.shape == (5, 2)
            for b, traj in enumerate(trajs):
                times, states = list(traj.times), traj.states
                if t >= times[0]:
                    want = states[0]
                elif t <= times[-1]:
                    want = states[-1]
                else:
                    j = next(i for i, ti in enumerate(times) if ti <= t)
                    w = (t - times[j]) / (times[j - 1] - times[j])
                    want = w * states[j - 1] + (1.0 - w) * states[j]
                np.testing.assert_array_equal(got[b], want)
                np.testing.assert_array_equal(traj.state_at(t), want)


class TestFailures:
    def test_non_finite_state_raises(self):
        with pytest.raises(NumericFailureError):
            integrate(ExplodingField(), np.ones((1, 1)),
                      SolverConfig(kind=FIXED_HEUN, fixed_steps=3))

    def test_max_steps_divergence(self, monkeypatch):
        monkeypatch.setattr(sampling, "_MAX_STEPS", 2)
        field = population_field(2)
        with pytest.raises(DivergenceError, match=r"max steps \(2\)"):
            integrate(field, np.ones((1, 2)),
                      SolverConfig(atol=1e-14, rtol=1e-13))


class TestBatchedIntegration:
    """Each row of a batch takes the step sequence it takes on its own."""

    @staticmethod
    def _starts():
        # rows of very different scale, so the adaptive step sequences differ
        scales = 10.0 ** np.linspace(-3.0, 3.0, 7)
        return np.random.default_rng(0).normal(size=(7, 3)) * scales[:, None]

    @pytest.mark.parametrize("kind", [ADAPTIVE_RK45, FIXED_HEUN])
    def test_elementwise_field_rows_match_single_runs_bitwise(self, kind):
        field = population_field(3)
        cfg = SolverConfig(kind=kind, atol=1e-9, rtol=1e-7, fixed_steps=20)
        z0 = self._starts()
        zs, trajs = integrate(field, z0, cfg, record=True)
        assert len({t.accepted + t.rejected for t in trajs}) > (kind == ADAPTIVE_RK45)
        for i in range(7):
            z, (traj,) = integrate(field, z0[i:i + 1], cfg, record=True)
            np.testing.assert_array_equal(zs[i], z[0])
            np.testing.assert_array_equal(trajs[i].times, traj.times)
            assert (trajs[i].accepted, trajs[i].rejected) == (traj.accepted, traj.rejected)

    def test_oracle_and_mlp_rows_match_single_runs(self):
        ds = make_gaussian_dataset(3, 16, seed=2)
        net = MlpScoreNetwork(3, width=16, hidden_layers=2, time_freqs=2, seed=0)
        net.params[-2] = 0.1 * np.random.default_rng(1).normal(size=net.params[-2].shape)
        z0 = np.random.default_rng(3).normal(size=(7, 3))
        for field in (OracleField(EmpiricalScoreOracle(ds)), net):
            zs, _ = integrate(field, z0, SolverConfig())
            singles = np.concatenate([integrate(field, z0[i:i + 1], SolverConfig())[0]
                                      for i in range(7)])
            np.testing.assert_allclose(zs, singles, rtol=0, atol=1e-10)

    def test_adaptive_evaluates_six_rows_per_attempt(self):
        # first same as last: an attempt evaluates stages 2-7, its first
        # stage being the initial step's f0 or the last accepted step's
        # seventh; the initial step adds two rows
        oracle = OracleField(EmpiricalScoreOracle(make_gaussian_dataset(3, 16, seed=2)))
        z0 = np.random.default_rng(3).normal(size=(7, 3))
        rejected = 0
        for starts in (z0, *z0[:, None]):  # the batch, then each row alone
            field = RowCountingField(oracle)
            _, trajs = integrate(field, starts, SolverConfig(), record=True)
            assert field.rows == sum(6 * (t.accepted + t.rejected) + 2
                                     for t in trajs)
            rejected += sum(t.rejected for t in trajs)
        assert rejected > 0  # so a rejected row's cached stage is reused

    def test_failures_name_the_row(self, monkeypatch):
        z0 = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(NumericFailureError, match="sample 2"):
            integrate(ExplodingField(), z0, SolverConfig(kind=FIXED_HEUN, fixed_steps=3))
        with pytest.raises(NumericFailureError, match="sample 2"):
            integrate(ExplodingField(), z0, SolverConfig())
        monkeypatch.setattr(sampling, "_MAX_STEPS", 50)
        with pytest.raises(DivergenceError, match="sample 1"):
            integrate(population_field(2), np.array([[0.0, 0.0], [1.0, 1.0]]),
                      SolverConfig(atol=1e-14, rtol=1e-13))

    def test_rejects_unbatched_state(self):
        with pytest.raises(InvalidArgumentError):
            integrate(population_field(2), np.ones(2))


class TestSample:
    def test_prefix_reproducibility(self):
        oracle = OracleField(EmpiricalScoreOracle(make_gaussian_dataset(2, 16, seed=1)))
        cfg = SolverConfig()
        for field in (population_field(2), oracle):
            a, _ = sample(field, 5, cfg, seed=3)
            b, _ = sample(field, 2, cfg, seed=3)
            np.testing.assert_array_equal(a[:2], b)

    def test_seed_changes_samples(self):
        field = population_field(2)
        a, _ = sample(field, 3, SolverConfig(), seed=0)
        b, _ = sample(field, 3, SolverConfig(), seed=1)
        assert not np.allclose(a, b)

    def test_n_validation(self):
        with pytest.raises(InvalidArgumentError):
            sample(population_field(2), 0)

    def test_empirical_oracle_memorizes_at_small_t_end(self):
        # With few well-separated points, the empirical-score flow collapses
        # each sample onto (1 - t_end) times its nearest training point.
        points = np.array([[-10.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        ds = Dataset(points=points)
        field = OracleField(EmpiricalScoreOracle(ds))
        out, _ = sample(field, 6, SolverConfig(t_min=1e-3), seed=0)
        scaled = (1.0 - 1e-3) * points
        dists = np.linalg.norm(out[:, None, :] - scaled[None, :, :], axis=2)
        assert np.max(dists.min(axis=1)) < 1e-2


class TestDenoiseFrom:
    def test_below_t_min_returns_input(self):
        field = population_field(2)
        z = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(
            denoise_from(field, z, 5e-4, SolverConfig(t_min=1e-3)), z)

    def test_matches_closed_form(self):
        field = population_field(2)
        z = np.array([[0.5, -0.5], [2.0, 1.0]])
        out = denoise_from(field, z, 0.6,
                           SolverConfig(atol=1e-10, rtol=1e-8, t_min=1e-3))
        expected = z * np.sqrt(_variance(1e-3) / _variance(0.6))
        np.testing.assert_allclose(out, expected, rtol=1e-6)
