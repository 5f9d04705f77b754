import copy
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from sulab import geometry
from sulab.cli import DEFAULTS
from sulab.data import Dataset, make_class_mixture, make_gaussian_dataset
from sulab.errors import InvalidArgumentError, SingularTimeError
from sulab.experiments import RUNNERS, RunContext
from sulab.geometry import (bhattacharyya_overlap,
                            in_supervision_region_batch, r_star, rstar_by_t)
from sulab.numerics import RngStream
from sulab.sampling import SolverConfig, integrate, states_at
from conftest import population_field


class TestSupervisionRegion:
    def test_point_on_shell_is_inside(self):
        ds = make_gaussian_dataset(16, 4, seed=0)
        t = 0.3
        # construct z exactly sigma*sqrt(d) away from alpha*x_0
        direction = np.zeros(16)
        direction[0] = 1.0
        z = (1 - t) * ds.points[0] + t * np.sqrt(16) * direction
        # delta near 1 shrinks the band to almost nothing: still inside
        assert in_supervision_region_batch(ds, z[None], t, delta=1 - 1e-12)[0]

    def test_far_point_is_outside(self):
        ds = make_gaussian_dataset(8, 4, seed=0)
        z = 1e3 * np.ones(8)
        assert not in_supervision_region_batch(ds, z[None], 0.3, delta=0.1)[0]

    def test_band_halfwidth_formula(self):
        # one point; queries just inside and just outside the band edge
        ds = Dataset(np.zeros((1, 4)))
        t, delta = 0.25, 0.05
        edge = t * np.sqrt(4) + t * np.sqrt(4 * np.log(1 / delta))
        zs = np.zeros((2, 4))
        zs[:, 0] = [edge * (1 - 1e-9), edge * (1 + 1e-9)]
        np.testing.assert_array_equal(
            in_supervision_region_batch(ds, zs, t, delta), [True, False])

    def test_batch_matches_single(self):
        # the batch at one t against the definition, one query at a time
        ds = make_gaussian_dataset(6, 10, seed=1)
        rng = RngStream(2, 0)
        zs = rng.normal((30, 6)) * 2
        band = np.sqrt(6 * np.log(1 / 0.05))
        for t in rng.uniform(0.2, 0.8, 5):
            flags = in_supervision_region_batch(ds, zs, t, delta=0.05)
            singles = [
                np.min(np.abs(np.linalg.norm(z - (1 - t) * ds.points, axis=1)
                              - t * np.sqrt(6))) <= t * band
                for z in zs]
            np.testing.assert_array_equal(flags, singles)

    def test_forward_draws_concentrate(self):
        # most forward-process draws land inside their own shell
        d = 64
        ds = make_gaussian_dataset(d, 8, seed=3)
        rng = RngStream(4, 0)
        t = 0.5
        idx = rng.integers(0, 8, 500)
        zs = (1 - t) * ds.points[idx] + t * rng.normal((500, d))
        flags = in_supervision_region_batch(ds, zs, t, delta=0.01)
        assert flags.mean() >= 0.99

    def test_delta_bounds(self):
        ds = make_gaussian_dataset(2, 2, seed=0)
        for bad in (0.0, 1.0, -1.0, 2.0):
            with pytest.raises(InvalidArgumentError):
                in_supervision_region_batch(ds, np.zeros((1, 2)), 0.5, bad)

    def test_t_zero_raises(self):
        ds = make_gaussian_dataset(2, 2, seed=0)
        with pytest.raises(SingularTimeError):
            in_supervision_region_batch(ds, np.zeros((1, 2)), 0.0, 0.1)


class TestRStar:
    def test_on_shell_is_one(self):
        ds = make_gaussian_dataset(9, 3, seed=0)
        t = 0.4
        direction = np.zeros(9)
        direction[1] = 1.0
        z = (1 - t) * ds.points[2] + t * np.sqrt(9) * direction
        rs = r_star(ds, z, t)
        assert rs.r_star == pytest.approx(1.0, abs=1e-12)
        assert rs.i_star == 2

    def test_at_scaled_point_is_zero_for_single_point(self):
        ds = Dataset(np.array([[2.0, 0.0]]))
        rs = r_star(ds, np.array([1.0, 0.0]), 0.5)
        assert rs.r_star == pytest.approx(0.0, abs=1e-12)

    def test_picks_shell_closest_to_one(self):
        ds = Dataset(np.array([[0.0, 0.0], [10.0, 0.0]]))
        t = 0.5
        # z on the shell of point 1 (radius sigma*sqrt(2) around alpha*x_1)
        z = np.array([5.0, t * np.sqrt(2)])
        assert r_star(ds, z, t).i_star == 1

    def test_profile_matches_whole_grid_reading(self):
        # rstar_by_t's rows over the whole grid equal, bit for bit, r_star
        # of the (B, d) states read at each t in turn
        ds = make_gaussian_dataset(3, 12, seed=2)
        _, trajs = integrate(population_field(3),
                             RngStream(4, 0).normal((16, 3)), SolverConfig(),
                             record=True)
        grid = [0.9995, 0.8, 0.5, 0.31, 0.1, 5e-4]  # both ends clamp
        want = [(t, r_star(ds, states_at(trajs, t), t).r_star) for t in grid]
        got = rstar_by_t(ds, trajs, np.asarray(grid))
        assert [t for t, _ in got] == grid
        for (_, r), (_, ref) in zip(got, want):
            assert r.tobytes() == ref.tobytes()

    def test_profile_runs_over_trajectory(self):
        # r* read along recorded trajectories, as rstar-profile does
        ds = make_gaussian_dataset(3, 4, seed=1)
        _, trajs = integrate(population_field(3), np.eye(3),
                             SolverConfig(), record=True)
        for t in (0.9, 0.5):
            batch = r_star(ds, states_at(trajs, t), t)
            for b, traj in enumerate(trajs):
                one = r_star(ds, traj.state_at(t), t)
                assert (batch.r_star[b], batch.i_star[b]) == (one.r_star,
                                                              one.i_star)

    @pytest.mark.parametrize("block,bench_shape",
                             [(1, False), (3, False), (None, False), (None, True)],
                             ids=["1", "3", "None", "d16-N1024"])
    def test_batch_matches_single_states_bitwise(self, monkeypatch, block,
                                                 bench_shape):
        t = 0.5
        if bench_shape:  # the oracle benchmark's points, 4 rows per block
            ds = make_gaussian_dataset(16, 1024, seed=0)
            zs = (1 - t) * ds.points[:70] + t * RngStream(2, 0).normal((70, 16))
        else:
            ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0],
                                   [0.0, 3.0]]))
            zs = np.concatenate([
                RngStream(2, 0).normal((7, 2)),
                # equidistant from points 0, 1 and 2: the tie goes to index 0
                [[0.0, 0.4], [0.0, -2.0]]])
        if block is not None:  # rows per block
            monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", block * ds.points.size)
        batch = r_star(ds, zs, t)
        assert batch.r_star.shape == batch.i_star.shape == (len(zs),)
        for b, z in enumerate(zs):
            one = r_star(ds, z, t)
            assert type(one.r_star) is float and type(one.i_star) is int
            assert batch.r_star[b] == one.r_star
            assert batch.i_star[b] == one.i_star
        if not bench_shape:
            assert batch.i_star[7] == 0 and batch.i_star[8] == 0


class TestBhattacharyyaOverlap:
    def test_closed_form_matches_quadrature_1d(self):
        # overlap of N(a*x0, s^2) and N(a*x1, s^2): integral of sqrt(p*q)
        rng = RngStream(0, 0)
        for _ in range(25):
            x0, x1 = rng.normal(2) * 3
            t = float(rng.uniform(0.1, 0.9))
            ds = Dataset(np.array([[x0], [x1]]))
            a, s = 1 - t, t

            def integrand(u):
                p = np.exp(-((u - a * x0) ** 2) / (2 * s * s))
                q = np.exp(-((u - a * x1) ** 2) / (2 * s * s))
                return np.sqrt(p * q) / (s * np.sqrt(2 * np.pi))

            numeric, _ = quad(integrand, -60, 60, limit=200)
            assert bhattacharyya_overlap(ds, t) == pytest.approx(
                numeric, abs=1e-6)

    def test_well_separated_toy_curve_shape(self):
        # C(t) needs every pairwise distance large to vanish at mid t
        ds = make_class_mixture(16, 8, seed=1, separation=20.0,
                                cluster_std=4.0, num_classes=2)
        pts = ds.points
        sq = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        assert np.min(sq[np.triu_indices(ds.size, 1)]) > 64.0
        early = bhattacharyya_overlap(ds, 0.3)
        mid = bhattacharyya_overlap(ds, 0.5)
        late = bhattacharyya_overlap(ds, 0.99)
        assert early < mid < 1e-3
        assert late > 0.9

    def test_monotone_in_t(self):
        ds = Dataset(np.array([[0.0, 0.0], [5.0, 0.0]]))
        vals = [bhattacharyya_overlap(ds, t) for t in np.linspace(0.1, 0.95, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_identical_points_overlap_one(self):
        ds = Dataset(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert bhattacharyya_overlap(ds, 0.5) == pytest.approx(1.0)

    def test_matches_direct_pairwise_minimum_over_blocks(self):
        # 300 points in 8-D span 12 row blocks; a near-duplicate pair sits
        # in a late one, where the expanded form would cancel
        pts = np.random.default_rng(4).normal(size=(300, 8))
        pts[251] = pts[250] + 1e-6
        sq = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(sq, np.inf)
        for t in (0.1, 0.5, 0.9):
            a, s = 1 - t, t
            assert bhattacharyya_overlap(Dataset(pts), t) == pytest.approx(
                np.exp(-a * a * sq.min() / (8 * s * s)), rel=1e-12)

    def test_memory_bounded(self):
        # row blocks of the direct differences, never an N x N array
        ds = Dataset(np.random.default_rng(5).normal(size=(4096, 2)))
        tracemalloc.start()
        try:
            bhattacharyya_overlap(ds, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_grid_equals_scalar_calls_bitwise(self):
        ds = make_class_mixture(3, 12, seed=6, num_classes=3)
        grid = np.array([0.05, 0.1, 0.33, 0.5, 0.77, 0.95, 1.0])
        for c in (None, 0, 1, 2):
            part = ds if c is None else ds.subset(ds.class_indices(c))
            got = bhattacharyya_overlap(part, grid)
            assert got.shape == grid.shape
            want = [bhattacharyya_overlap(part, float(t)) for t in grid]
            assert all(type(w) is np.float64 for w in want)
            assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("grid_size", [1, 19])
    def test_overlap_curve_searches_each_point_set_once(self, monkeypatch,
                                                        grid_size):
        passes = []
        real = geometry.sq_distance_blocks

        def counted(a, b_t):
            passes.append(a.shape[0])
            return real(a, b_t)

        monkeypatch.setattr(geometry, "sq_distance_blocks", counted)
        cfg = copy.deepcopy(DEFAULTS["overlap-curve"])
        cfg["t_grid"] = list(np.linspace(0.05, 0.95, grid_size))
        result = RUNNERS["overlap-curve"](cfg, RunContext())
        assert len(result.tables["overlap_curve"]) == 1 + 3 * grid_size
        assert passes == [64, 32, 32]  # all points, then each class

    def test_class_filter(self):
        ds = make_class_mixture(2, 8, seed=2, num_classes=2)
        full = bhattacharyya_overlap(ds, 0.5)
        pts = ds.points[ds.class_indices(0)]
        within = bhattacharyya_overlap(ds.subset(ds.class_indices(0)), 0.5)
        # the max over all pairs dominates the max over a class's pairs
        assert full >= within
        # and a class's overlap is that of its own closest pair
        sq = min(np.sum((pts[i] - pts[j]) ** 2)
                 for i in range(len(pts)) for j in range(i))
        assert within == pytest.approx(np.exp(-0.25 * sq / (8 * 0.25)))
