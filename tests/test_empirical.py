import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sulab import empirical
from sulab.data import Dataset, make_class_mixture, make_gaussian_dataset
from sulab.empirical import EmpiricalScoreOracle, naive_empirical_score
from sulab.errors import InvalidArgumentError, SingularTimeError
from sulab.geometry import BLOCK_ELEMENTS, sq_distance_blocks
from sulab.numerics import RngStream
from sulab.schedule import forward_process
from conftest import population_field


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

    def test_per_row_t_length(self):
        ds, _, _ = _random_instance(6, n=5, d=2)
        oracle = EmpiricalScoreOracle(ds)
        zs = RngStream(1, 1).normal((5, 2))
        # one value stands for every row, as a full per-row array would
        np.testing.assert_array_equal(oracle.score_batch(zs, np.array([0.3])),
                                      oracle.score_batch(zs, np.full(5, 0.3)))
        with pytest.raises(InvalidArgumentError, match="3 values for 5 rows"):
            oracle.score_batch(zs, np.full(3, 0.3))


def _height(n):
    """Rows per block of an oracle over n points."""
    return max(1, min(empirical._ROW_BLOCK, BLOCK_ELEMENTS // n))


_SIZES = [(1, 1), (5, 1), (16, 2), (1024, 16), (4096, 16), (70_000, 2)]
# per-row ts (None), then a scalar t of 0.5 for every size
_CASES = [(n, d, t) for t in (None, 0.5) for n, d in _SIZES]


class TestRowBlocks:
    """Every call, at a scalar t or one t per row, runs in row blocks of one
    fixed height: 32 rows at N = 1,024, fewer where 32 rows would pass 2^16
    weights."""

    @pytest.mark.parametrize(
        "n, d, t", _CASES,
        ids=[f"N{n}-d{d}" + ("" if t is None else f"-t{t}") for n, d, t in _CASES])
    @pytest.mark.parametrize("per_block, extra",
                             [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["1", "H-1", "H", "H+1", "3H+5"])
    def test_rows_independent_of_batch_and_block(self, n, d, t, per_block, extra):
        # N = 1 or d = 1 makes one of the two products a matrix-vector
        # product; N = 70,000 gives one-row blocks
        oracle = EmpiricalScoreOracle(make_gaussian_dataset(d, n, seed=2))
        b = max(1, per_block * _height(n) + extra)
        rng = RngStream(3, 0)
        zs = rng.normal((b, d))
        ts = rng.uniform(0.05, 0.95, b)

        def score(rows):
            return oracle.score_batch(zs[rows], ts[rows] if t is None else t)
        batch = score(slice(None))
        singles = np.concatenate([score(slice(i, i + 1)) for i in range(b)])
        np.testing.assert_array_equal(batch, singles)
        half = (b + 1) // 2
        np.testing.assert_array_equal(batch[:half], score(slice(half)))

    @staticmethod
    def _peak_bytes(per_row):
        # (256, 4096) float64 weights alone would take 8 MB
        oracle = EmpiricalScoreOracle(make_gaussian_dataset(16, 4096, seed=2))
        rng = RngStream(4, 0)
        zs = rng.normal((256, 16))
        ts = rng.uniform(0.05, 0.95, 256) if per_row else 0.5
        tracemalloc.start()
        try:
            oracle.score_batch(zs, ts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_bounded(self):
        assert self._peak_bytes(per_row=True) < 2 << 20

    def test_memory_bounded_scalar_t(self):
        assert self._peak_bytes(per_row=False) < 2 << 20


def _direct_softmax_cdf(zs, points, ts):
    """Per-row normalized CDFs (B, N) of softmax(-|z - alpha x|^2 / (2 sigma^2))
    from direct differences: |z - alpha x|^2 = alpha^2 |z / alpha - x|^2."""
    a, s = 1.0 - ts, ts
    sq = np.concatenate(list(sq_distance_blocks(zs / a[:, None], points.T)))
    logits = -(a * a / (2.0 * s * s))[:, None] * sq
    logits -= logits.max(axis=1, keepdims=True)
    cdf = np.cumsum(np.exp(logits), axis=1)
    return cdf / cdf[:, -1:], logits


class TestLogitFloor:
    """Shifted logits are floored at -600 before the exp; where they lie
    below -708 (subnormal or zero weights without the floor) the scores keep
    the unfloored formula's bits."""

    @pytest.mark.parametrize("per_row", [True, False], ids=["per-row", "scalar"])
    def test_scores_equal_the_unfloored_formula(self, per_row, monkeypatch):
        ds = make_gaussian_dataset(16, 1024, seed=2)
        rng = RngStream(3, 0)
        zs = rng.normal((101, 16))
        ts = rng.uniform(0.05, 0.95, 101) if per_row else np.full(101, 0.15)
        _, logits = _direct_softmax_cdf(zs, ds.points, ts)
        assert np.mean(logits < -708.0) > 0.01
        oracle = EmpiricalScoreOracle(ds)
        t = ts if per_row else 0.15
        floored = oracle.score_batch(zs, t)
        monkeypatch.setattr(empirical, "_LOGIT_FLOOR", -np.inf)
        np.testing.assert_array_equal(floored, oracle.score_batch(zs, t))


def _drawn_indices(pts, zs, ts, rng):
    """The index in pts (distinct points) of each point that the oracle of
    pts draws for the rows of zs."""
    drawn = EmpiricalScoreOracle(Dataset(pts)).draw(zs, ts, rng)
    hits = np.stack([(drawn == p).all(axis=1) for p in pts])
    assert np.all(hits.sum(axis=0) == 1)  # every row is one of the points
    return hits.argmax(axis=0)


class TestSoftmaxWeights:
    """foe's target draw: one point per row from the softmax
    responsibilities, the logits one product against the augmented points."""

    def test_weights_sum_to_one(self):
        # 20,000 draws per row: each point's pick frequency matches its
        # direct-difference weight, and the picks cover the whole row total
        ds, z, t = _random_instance(7)
        reps = 20_000
        zs = np.repeat(np.stack([z, -z, 3.0 * z]), reps, axis=0)
        ts = np.repeat([t, 0.5, 0.9], reps)
        picks = _drawn_indices(ds.points, zs, ts, RngStream(3, 0))
        assert picks.min() >= 0 and picks.max() < ds.size
        cdf, _ = _direct_softmax_cdf(zs[::reps], ds.points, ts[::reps])
        w = np.diff(cdf, axis=1, prepend=0.0)
        freq = np.stack([np.bincount(picks[k * reps:(k + 1) * reps],
                                     minlength=ds.size) / reps
                         for k in range(3)])
        np.testing.assert_allclose(freq.sum(axis=1), 1.0)
        assert np.all(np.abs(freq - w) <= 5.0 * np.sqrt(w * (1 - w) / reps)
                      + 1.0 / reps)

    def test_matches_direct_difference_reference(self):
        # a foe-like score subset: 32 points in 16-D, two classes 8 apart;
        # region-like queries at per-row t over [t_min, 1 - t_min], where
        # far logits fall below -708 and their exps underflow
        n, t_min = 100_000, 1e-3
        pts = make_class_mixture(16, 16, seed=4, separation=8.0).points
        region = make_class_mixture(16, 128, seed=5, separation=8.0).points
        rng = RngStream(6, 0)
        x = region[rng.integers(0, len(region), n)]
        ts = rng.uniform(t_min, 1.0 - t_min, n)
        zs = forward_process(x, rng.normal(x.shape), ts)
        picks = _drawn_indices(pts, zs, ts, RngStream(7, 0))
        u = RngStream(7, 0).uniform(size=n)  # the draw's own u, row by row
        cdf, logits = _direct_softmax_cdf(zs, pts, ts)
        assert np.any(logits < -708.0)
        want = np.minimum((cdf < u[:, None]).sum(axis=1), len(pts) - 1)
        # a pick may differ only where u lies on a CDF boundary, to rounding
        near = np.abs(cdf - u[:, None]).min(axis=1) < 1e-12
        assert near.sum() <= 5
        np.testing.assert_array_equal(picks[~near], want[~near])

    def test_nearest_point_dominates_at_small_t(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        drawn = EmpiricalScoreOracle(Dataset(pts)).draw(
            np.tile([0.01, 0.0], (1000, 1)), np.full(1000, 0.05), RngStream(8, 0))
        np.testing.assert_array_equal(drawn, np.tile(pts[0], (1000, 1)))


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


class TestPopulationScore:
    """At std > 0 the oracle is the score of the population that mixes
    N(x_i, std^2 I): components about alpha x_i with variance
    sigma^2 + (alpha std)^2. p_data = N(0, I) is the one-point std-1 oracle,
    whose score is -z / (alpha^2 + sigma^2)."""

    @staticmethod
    def score(z, t):
        z = np.asarray(z, dtype=float)
        return population_field(z.shape[-1]).evaluate_batch(z, t)[0]

    def test_matches_log_density_gradient(self):
        # independent oracle: finite differences of log N(0, (a^2+s^2) I)
        z = np.array([0.3, -0.7, 1.1])
        t = 0.4
        var = (1 - t) ** 2 + t**2
        h = 1e-6

        def logp(zz):
            return -0.5 * np.sum(zz * zz) / var

        grad = np.array([
            (logp(z + h * e) - logp(z - h * e)) / (2 * h)
            for e in np.eye(3)
        ])
        np.testing.assert_allclose(self.score(z, t), grad,
                                   rtol=1e-6, atol=1e-8)

    def test_t_half_variance(self):
        z = np.array([1.0])
        np.testing.assert_allclose(self.score(z, 0.5), [-2.0])

    def test_endpoints_finite(self):
        np.testing.assert_allclose(self.score(np.array([2.0]), 0.0), [-2.0])
        np.testing.assert_allclose(self.score(np.array([2.0]), 1.0), [-2.0])

    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
    @pytest.mark.parametrize("t", [1.2, -0.1, np.nan], ids=["1.2", "-0.1", "nan"])
    @pytest.mark.parametrize("std", [0.0, 1.0], ids=["empirical", "population"])
    def test_out_of_range_rejected(self, std, t, per_row):
        # t outside [0, 1] has no alpha_t; per row, one row out of range is
        # enough. score_batch, draw and collapsed_score share the one check.
        oracle = (EmpiricalScoreOracle(_random_instance(0, n=4, d=2)[0])
                  if std == 0.0 else population_field(2).oracle)
        zs = np.ones((2, 2))
        ts = np.array([0.5, t]) if per_row else t
        with pytest.raises(InvalidArgumentError, match="outside"):
            oracle.score_batch(zs, ts)
        with pytest.raises(InvalidArgumentError, match="outside"):
            oracle.draw(zs, np.broadcast_to(ts, 2), RngStream(0, 0))
        if not per_row:
            with pytest.raises(InvalidArgumentError, match="outside"):
                oracle.collapsed_score(zs[0], t)

    def test_one_point_equals_the_closed_form_bitwise(self):
        zs = RngStream(5, 0).normal((300, 20))
        oracle = population_field(20).oracle
        for t in (0.0, 0.37, 1.0, np.linspace(0.0, 1.0, 300)):
            a, s = np.broadcast_to(1.0 - t, 300), np.broadcast_to(t, 300)
            want = -zs / (a * a + s * s)[:, None]
            assert oracle.score_batch(zs, t).tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [0.0, 0.4])
    def test_mixture_matches_log_density_gradient(self, t):
        # independent oracle: finite differences of the log density of the
        # mixture of N(a x_i, (s^2 + a^2 0.49) I); at std > 0, t = 0 is the
        # population itself
        ds, z, _ = _random_instance(11, n=5, d=3)
        a, s = 1.0 - t, t
        var = s * s + a * a * 0.49
        h = 1e-6

        def logp(zz):
            logits = -np.sum((zz - a * ds.points) ** 2, axis=1) / (2 * var)
            m = logits.max()
            return m + np.log(np.mean(np.exp(logits - m)))

        grad = np.array([
            (logp(z + h * e) - logp(z - h * e)) / (2 * h)
            for e in np.eye(3)
        ])
        got = _score(EmpiricalScoreOracle(ds, std=0.7), z, t)
        np.testing.assert_allclose(got, grad, rtol=1e-6, atol=1e-8)

    def test_draw_and_collapsed_score_read_the_same_variance(self):
        # one point: draw returns it, and the collapsed score is the score
        x = np.array([1.5, -0.5, 2.0])
        oracle = EmpiricalScoreOracle(Dataset(x[None, :]), std=0.7)
        zs = RngStream(12, 0).normal((3, 3))
        ts = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(oracle.draw(zs, ts, RngStream(13, 0)),
                                      np.tile(x, (3, 1)))
        for z, t in zip(zs, ts):
            collapsed, i = oracle.collapsed_score(z, t)
            assert i == 0
            assert collapsed.tobytes() == _score(oracle, z, t).tobytes()
            var = t * t + (1.0 - t) ** 2 * 0.49
            np.testing.assert_allclose(collapsed, (-z + (1.0 - t) * x) / var,
                                       rtol=1e-12)


class TestSingularAndClassHandling:
    def test_t_zero_raises(self):
        ds, z, _ = _random_instance(0)
        oracle = EmpiricalScoreOracle(ds)
        with pytest.raises(SingularTimeError):
            oracle.score_batch(z[None, :], 0.0)
        with pytest.raises(SingularTimeError):
            oracle.score_batch(np.stack([z, z]), np.array([0.5, 0.0]))

    def test_class_filter_restricts_mixture(self):
        # a class's mixture is the oracle of the class's subset: its score
        # sums over that class alone, and its collapsed index is the subset's
        ds = make_class_mixture(2, 8, seed=1, num_classes=2)
        idx = ds.class_indices(1)  # 8..15: subset and dataset indices differ
        cond = EmpiricalScoreOracle(ds.subset(idx))
        sub = Dataset(ds.points[idx])
        plain = EmpiricalScoreOracle(sub)
        z = np.array([0.3, -0.2])
        np.testing.assert_allclose(_score(cond, z, 0.4), _score(plain, z, 0.4),
                                   rtol=1e-12)
        _, i = cond.collapsed_score(z, 0.4)  # alpha = 0.6
        assert i == np.argmin(np.linalg.norm(z - 0.6 * sub.points, axis=1))

    def test_empty_class_raises(self):
        ds = Dataset(np.zeros((2, 2)), labels=[0, 0])
        with pytest.raises(InvalidArgumentError, match="nonempty"):
            EmpiricalScoreOracle(ds.subset(ds.class_indices(1)))


class TestCfgScores:
    def test_single_class_gap_zero(self):
        ds = make_class_mixture(2, 8, seed=1, num_classes=1)
        cond = EmpiricalScoreOracle(ds.subset(ds.class_indices(0)))
        uncond = EmpiricalScoreOracle(ds)
        z = np.array([[0.1, 0.2]])
        gap = np.linalg.norm(cond.score_batch(z, 0.5) - uncond.score_batch(z, 0.5))
        assert gap == pytest.approx(0.0, abs=1e-10)

    def test_two_class_gap_positive_on_one_side(self):
        ds = make_class_mixture(2, 16, seed=1, separation=8.0, num_classes=2)
        cond = EmpiricalScoreOracle(ds.subset(ds.class_indices(0)))
        uncond = EmpiricalScoreOracle(ds)
        z = np.array([[-4.0, 0.0]])  # deep inside class 0 territory
        gap = np.linalg.norm(cond.score_batch(z, 0.9) - uncond.score_batch(z, 0.9))
        assert gap > 0.0
