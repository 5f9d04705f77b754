"""End-to-end acceptance suite.

Each test class exercises one headline guarantee of the package at full
(desk) scale: oracle exactness, shell geometry, solver accuracy, training
equivalences, and the behavioral results of the bundled experiments run at
their shipped default configurations.  These tests are slower than the unit
suites; run them with plain `pytest`.
"""

import copy
import hashlib
import json

import numpy as np
import pytest
from scipy import integrate as scipy_integrate
from scipy import stats

from sulab.cli import DEFAULTS, main
from sulab.data import Dataset, make_class_mixture, make_gaussian_dataset, \
    split_score_region
from sulab.empirical import EmpiricalScoreOracle, naive_empirical_score
from sulab.experiments import RUNNERS, RunContext
from sulab.geometry import bhattacharyya_overlap, in_supervision_region_batch
from sulab.models import GaussianGroundTruthField, MlpScoreNetwork, OracleField
from sulab.numerics import RngStream, log_sum_exp
from sulab.sampling import SolverConfig, integrate, sample
from sulab.schedule import SCORE, VELOCITY, XPRED, convert_value
from sulab.training import sample_softmax_points


# ---------------------------------------------------------------------------
# shared experiment runs (expensive; computed once per session)

@pytest.fixture(scope="session")
def gaussian_run():
    return RUNNERS["gaussian"](copy.deepcopy(DEFAULTS["gaussian"]),
                               RunContext())


@pytest.fixture(scope="session")
def foe_run():
    cfg = copy.deepcopy(DEFAULTS["foe"])
    cfg["region_factors"] = [1, 8]
    return RUNNERS["foe"](cfg, RunContext(threads=2))


@pytest.fixture(scope="session")
def pat_run():
    return RUNNERS["pat"](copy.deepcopy(DEFAULTS["pat"]),
                          RunContext(threads=2))


@pytest.fixture(scope="session")
def cfg_gap_run():
    return RUNNERS["cfg-gap"](copy.deepcopy(DEFAULTS["cfg-gap"]), RunContext())


@pytest.fixture(scope="session")
def memorize_run():
    return RUNNERS["memorize-from-t"](
        copy.deepcopy(DEFAULTS["memorize-from-t"]), RunContext())


# ---------------------------------------------------------------------------
# 1. empirical-score oracle exactness

def _log_density(ds, z, t):
    sq = np.sum((z[None, :] - (1.0 - t) * ds.points) ** 2, axis=1)
    return (log_sum_exp(-sq / (2.0 * t * t)) - np.log(ds.size)
            - ds.dim / 2.0 * np.log(2.0 * np.pi * t * t))


class TestOracleExactness:
    def test_matches_naive_direct_summation(self):
        # The naive reference works in raw exponentials, so instances whose
        # largest exponent falls below the normal floating-point range are
        # redrawn (the reference itself is meaningless there).
        rng = np.random.default_rng(0)
        done = 0
        while done < 1000:
            n = int(rng.integers(2, 65))
            d = int(rng.integers(1, 17))
            ds = Dataset(rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0))
            t = float(rng.uniform(0.05, 0.95))
            z = rng.normal(size=d) * rng.uniform(0.5, 3.0)
            sq = np.sum((z[None, :] - (1.0 - t) * ds.points) ** 2, axis=1)
            if (-sq / (2.0 * t * t)).max() < -600.0:
                continue
            reference = naive_empirical_score(ds, z, t)
            stable = EmpiricalScoreOracle(ds).score_batch(z[None, :], t)[0]
            rel = np.linalg.norm(stable - reference) / \
                max(np.linalg.norm(reference), 1e-300)
            assert rel < 1e-10
            done += 1

    def test_matches_log_density_gradient(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(2, 17))
            ds = Dataset(rng.normal(size=(n, d)))
            t = float(rng.uniform(0.1, 0.9))
            z = rng.normal(size=d)
            score = EmpiricalScoreOracle(ds).score_batch(z[None, :], t)[0]
            h = 1e-5
            fd = np.array([
                (_log_density(ds, z + h * e, t) - _log_density(ds, z - h * e, t))
                / (2.0 * h) for e in np.eye(d)])
            rel = np.linalg.norm(score - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5


# ---------------------------------------------------------------------------
# 2. forward draws concentrate in the union of shells

class TestShellConcentration:
    def test_forward_draws_stay_inside(self):
        ds = make_gaussian_dataset(64, 16, seed=0)
        rng = RngStream(1, stream=0)
        for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            idx = rng.integers(0, ds.size, 10_000)
            x = ds.points[idx]
            eps = rng.normal((10_000, 64))
            zs = (1.0 - t) * x + t * eps
            inside = in_supervision_region_batch(ds, zs, t, delta=0.01)
            assert np.mean(inside) >= 0.99


# ---------------------------------------------------------------------------
# 3. the score collapses to the nearest component on separated data

class TestScoreCollapse:
    def test_collapsed_equals_exact_on_separated_data(self):
        rng = np.random.default_rng(2)
        d = 8
        for t in (0.1, 0.3, 0.5):
            spacing = 25.0 * t * np.sqrt(d)
            pts = np.arange(8)[:, None] * np.ones(d)[None, :] * spacing
            dists = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            np.fill_diagonal(dists, np.inf)
            assert dists.min() >= 20.0 * t * np.sqrt(d)
            ds = Dataset(pts)
            oracle = EmpiricalScoreOracle(ds)
            idx = rng.integers(0, 8, 500)
            zs = (1.0 - t) * ds.points[idx] + t * rng.normal(size=(500, d))
            ok = 0
            for z in zs:
                exact = oracle.score_batch(z[None, :], t)[0]
                collapsed, _ = oracle.collapsed_score(z, t)
                rel = np.linalg.norm(exact - collapsed) / np.linalg.norm(exact)
                ok += rel < 1e-3
            assert ok / 500 >= 0.99


# ---------------------------------------------------------------------------
# 4. shell-overlap coefficient: closed form vs quadrature, and curve shape

class TestShellOverlapCoefficient:
    def test_closed_form_matches_quadrature_1d(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x1, x2 = rng.normal(size=2) * 3.0
            ds = Dataset(np.array([[x1], [x2]]))
            t = float(rng.uniform(0.05, 0.95))
            closed = bhattacharyya_overlap(ds, t)
            a, s = 1.0 - t, t

            def integrand(u):
                return np.sqrt(
                    np.exp(-(u - a * x1) ** 2 / (2 * s * s))
                    * np.exp(-(u - a * x2) ** 2 / (2 * s * s))
                ) / (np.sqrt(2.0 * np.pi) * s)

            quad, _ = scipy_integrate.quad(integrand, -np.inf, np.inf)
            assert abs(closed - quad) < 1e-6

    def test_two_class_curve_shape(self):
        # overlap of the two class components: ~0 through t = 0.5, -> 1 at t -> 1
        d = 8
        means = np.zeros((2, d))
        means[0, 0], means[1, 0] = -4.0, 4.0
        ds = Dataset(means)
        curve = [bhattacharyya_overlap(ds, t)
                 for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)]
        assert all(c < 1e-3 for c in curve[:5])
        assert curve[-1] > 0.99
        assert all(b >= a for a, b in zip(curve, curve[1:]))


# ---------------------------------------------------------------------------
# 5. solver accuracy against the Gaussian closed form

def _gaussian_closed_form(z0, t_start, t_end):
    v = lambda t: (1.0 - t) ** 2 + t ** 2
    return z0 * np.sqrt(v(t_end) / v(t_start))


class TestSolverAccuracy:
    def test_adaptive_matches_closed_form(self):
        rng = np.random.default_rng(4)
        cfg = SolverConfig()
        for _ in range(100):
            d = int(rng.integers(2, 9))
            z0 = rng.normal(size=d) * rng.uniform(0.5, 2.0)
            terminal = integrate(GaussianGroundTruthField(d), z0[None, :],
                                 cfg)[0][0]
            exact = _gaussian_closed_form(z0, 0.999, cfg.t_min)
            err = np.linalg.norm(terminal - exact)
            assert err <= 10.0 * (cfg.atol + cfg.rtol * np.linalg.norm(exact))

    def test_heun_second_order(self):
        ds = make_gaussian_dataset(4, 8, seed=5)
        field = OracleField(EmpiricalScoreOracle(ds))
        rng = np.random.default_rng(5)
        starts = [rng.normal(size=4) for _ in range(10)]
        ref_cfg = SolverConfig(atol=1e-12, rtol=1e-12, t_start=0.9, t_min=0.2)
        refs = [integrate(field, z[None, :], ref_cfg)[0][0] for z in starts]
        errors = {}
        for steps in (80, 160, 320):
            cfg = SolverConfig(kind="fixed-heun", fixed_steps=steps,
                               t_start=0.9, t_min=0.2)
            errors[steps] = np.mean([
                np.linalg.norm(integrate(field, z[None, :], cfg)[0][0] - ref)
                for z, ref in zip(starts, refs)])
        assert 3.5 <= errors[80] / errors[160] <= 4.5
        assert 3.5 <= errors[160] / errors[320] <= 4.5


# ---------------------------------------------------------------------------
# 6. sampling the exact oracle memorizes the training set uniformly

class TestOracleSamplingMemorizes:
    def test_samples_land_on_points_with_uniform_coverage(self):
        ds = make_gaussian_dataset(8, 16, seed=3)
        field = OracleField(EmpiricalScoreOracle(ds))
        samples, _ = sample(field, 500, SolverConfig(), seed=11)
        dists = np.linalg.norm(
            samples[:, None, :] - ds.points[None, :, :], axis=2)
        nearest = dists.min(axis=1)
        assert np.mean(nearest < 1e-2 * np.sqrt(8)) >= 0.95
        counts = np.bincount(dists.argmin(axis=1), minlength=16)
        assert stats.chisquare(counts).pvalue > 0.01


# ---------------------------------------------------------------------------
# 7. network gradients are exact

class TestGradientExactness:
    def test_every_parameter_matches_central_differences(self):
        net = MlpScoreNetwork(dim=2, width=8, hidden_layers=2,
                              time_freqs=4, seed=0)
        noise = RngStream(7, stream=0)
        for p in net.params:
            p += 0.2 * noise.normal(p.shape)  # move off the zero-init head
        rng = np.random.default_rng(3)
        for _ in range(20):
            zs = rng.normal(size=(4, 2))
            ts = rng.uniform(0.1, 0.9, 4)
            targets = rng.normal(size=(4, 2))
            _, flat_g = net.loss_and_grads(zs, ts, targets)
            flat_p = net.flat  # every parameter tensor is a view into it
            for j in range(flat_p.size):
                h = 1e-5 * max(1.0, abs(flat_p[j]))
                orig = flat_p[j]
                flat_p[j] = orig + h
                lp, _ = net.loss_and_grads(zs, ts, targets)
                flat_p[j] = orig - h
                lm, _ = net.loss_and_grads(zs, ts, targets)
                flat_p[j] = orig
                fd = (lp - lm) / (2.0 * h)
                denom = max(abs(fd), abs(flat_g[j]), 1e-8)
                assert abs(fd - flat_g[j]) / denom < 1e-4


# ---------------------------------------------------------------------------
# 8. the importance-sampled region-decoupled loss is an unbiased
#    reformulation of the exact-target regression

class TestRegionDecoupledEquivalence:
    def _setup(self):
        ds = make_class_mixture(2, 16, seed=0, separation=6.0)
        pair = split_score_region(ds, 4, 12, seed=0)
        score_pts = ds.points[pair.score_idx]
        oracle = EmpiricalScoreOracle(ds.subset(pair.score_idx))
        return ds, pair, score_pts, oracle

    def test_target_expectation_identity_by_enumeration(self):
        _, _, score_pts, oracle = self._setup()
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = rng.normal(size=2) * 2.0
            t = float(rng.uniform(0.1, 0.9))
            zs, ts = z[None, :], np.array([t])
            diff = z[None, :] - (1.0 - t) * score_pts
            logits = -np.sum(diff * diff, axis=1) / (2.0 * t * t)
            w = np.exp(logits - logits.max())
            w /= w.sum()
            expected = sum(
                w[j] * convert_value(score_pts[j][None, :], XPRED, VELOCITY,
                                     zs, ts)[0]
                for j in range(score_pts.shape[0]))
            exact = convert_value(
                oracle.score_batch(zs, ts), SCORE, VELOCITY, zs, ts)[0]
            assert np.abs(expected - exact).max() < 1e-10

    def test_averaged_gradients_match_within_monte_carlo_error(self):
        ds, pair, score_pts, oracle = self._setup()
        net = MlpScoreNetwork(dim=2, width=4, hidden_layers=1,
                              time_freqs=2, seed=1)
        noise = RngStream(8, stream=0)
        for p in net.params:
            p += 0.3 * noise.normal(p.shape)
        region_pts = ds.points[pair.region_idx]
        batch, n_batches = 1000, 100   # 1e5 samples total
        rng = RngStream(9, stream=0)
        diffs = []
        for _ in range(n_batches):
            idx = rng.integers(0, region_pts.shape[0], batch)
            x = region_pts[idx]
            eps = rng.normal(x.shape)
            ts = 0.05 + (1.0 - 0.05 - 1e-3) * rng.uniform(size=batch)
            zs = (1.0 - ts)[:, None] * x + ts[:, None] * eps
            picks = sample_softmax_points(score_pts, zs, ts, rng)
            single_draw = convert_value(score_pts[picks], XPRED, VELOCITY,
                                        zs, ts)
            exact = convert_value(
                oracle.score_batch(zs, ts), SCORE, VELOCITY, zs, ts)
            _, g_single = net.loss_and_grads(zs, ts, single_draw)
            _, g_exact = net.loss_and_grads(zs, ts, exact)
            diffs.append(g_single - g_exact)
        diffs = np.array(diffs)
        mean = diffs.mean(axis=0)
        stderr = diffs.std(axis=0, ddof=1) / np.sqrt(n_batches)
        z_scores = np.abs(mean) / np.maximum(stderr, 1e-300)
        # aggregate discrepancy within 3 standard errors, and no parameter
        # grossly out (5 sigma guards the per-parameter multiple-comparison)
        assert np.linalg.norm(mean) <= 3.0 * np.linalg.norm(stderr)
        assert z_scores.max() < 5.0
        assert np.mean(z_scores < 3.0) >= 0.99


# ---------------------------------------------------------------------------
# 9. Gaussian toy: the trained net fits the finite-sample score in the
#    supervision region while diverging from the population score elsewhere

def _error_curves(run):
    table = run.tables["error_curves"]
    header, rows = table[0], table[1:]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


class TestGaussianSelectiveUnderfitting:
    def test_supervision_region_prefers_finite_sample_score(self, gaussian_run):
        curves = _error_curves(gaussian_run)
        assert curves["ema_sup_vs_empirical"][-1] < \
            0.5 * curves["ema_sup_vs_gt"][-1]

    def test_supervision_error_curves_shape(self, gaussian_run):
        curves = _error_curves(gaussian_run)
        vs_empirical = curves["ema_sup_vs_empirical"]
        vs_gt = curves["ema_sup_vs_gt"]
        assert vs_empirical[-1] < 0.5 * vs_empirical[0]   # keeps improving
        assert vs_gt[-1] > 0.25 * vs_gt[0]                # plateaus
        assert vs_empirical[-1] < vs_gt[-1]

    def test_ambient_error_decreases(self, gaussian_run):
        curves = _error_curves(gaussian_run)
        ambient = curves["ema_ambient_vs_gt"]
        assert ambient[-1] <= 0.5 * ambient[0]


# ---------------------------------------------------------------------------
# 10. enlarging the sampling region around a fixed target subset raises
#     the memorization ratio of generated samples

def _foe_ratios(run, threshold):
    rows = run.tables["foe_sweep"][1:]
    out = {}
    for factor, _, thr, value in rows:
        if isinstance(thr, float) and abs(thr - threshold) < 1e-12:
            out[factor] = value
    return out


class TestRegionSweepMemorization:
    def test_direction_at_all_thresholds(self, foe_run):
        for threshold in (1.0 / 3.0, 0.25, 0.5):
            ratios = _foe_ratios(foe_run, threshold)
            assert ratios[8] > ratios[1]

    def test_gap_magnitude_at_default_threshold(self, foe_run):
        ratios = _foe_ratios(foe_run, 1.0 / 3.0)
        assert ratios[8] - ratios[1] >= 0.2


# ---------------------------------------------------------------------------
# 11. perception-aligned variants cut the bad-sample fraction in half

class TestPerceptionAlignedVariants:
    def test_baseline_produces_bad_samples(self, pat_run):
        quality = {row[0]: row[1] for row in pat_run.tables["pat_quality"][1:]}
        assert quality["baseline"] > 0.10

    def test_every_variant_halves_bad_fraction(self, pat_run):
        quality = {row[0]: row[1] for row in pat_run.tables["pat_quality"][1:]}
        for variant in ("polar", "krr", "equivariant"):
            assert quality[variant] < 0.5 * quality["baseline"]

    def test_variants_agree_directionally(self, pat_run):
        quality = {row[0]: row[1] for row in pat_run.tables["pat_quality"][1:]}
        assert all(quality[v] < quality["baseline"]
                   for v in ("polar", "krr", "equivariant"))


# ---------------------------------------------------------------------------
# 12. conditional/unconditional gap: tiny where supervised, large where
#     the model is queried at inference

def _gap_table(run):
    return {(row[0], row[1], row[2]): row[3]
            for row in run.tables["cfg_gap"][1:]}


class TestConditionalGapByRegion:
    def test_oracle_gap_negligible_in_supervision_region(self, cfg_gap_run):
        gaps = _gap_table(cfg_gap_run)
        norms = {row[0]: row[1] for row in cfg_gap_run.tables["score_norms"][1:]}
        for t in (0.1, 0.2, 0.3, 0.4, 0.5):
            assert gaps[("oracle", "supervision", t)] < 0.01 * norms[t]

    def test_inference_gap_dominates_supervision_gap(self, cfg_gap_run):
        gaps = _gap_table(cfg_gap_run)
        sup = gaps[("model", "supervision", 0.5)]
        ext = gaps[("model", "extrapolation", 0.5)]
        assert ext >= 5.0 * sup


# ---------------------------------------------------------------------------
# 13. partial denoising returns to the originating point for small
#     start times and stops doing so as the start time grows

class TestPartialDenoising:
    def test_regress_to_origin_profile(self, memorize_run):
        rows = memorize_run.tables["memorize_from_t"][1:]
        ratios = {row[0]: row[1] for row in rows}
        for t_from, ratio in ratios.items():
            if t_from <= 0.3:
                assert ratio >= 0.9
        ordered = [ratios[t] for t in sorted(ratios)]
        assert all(b <= a for a, b in zip(ordered, ordered[1:]))
        assert any(ratio < 0.5 for t_from, ratio in ratios.items()
                   if 0.3 < t_from < 1.0)


# ---------------------------------------------------------------------------
# 14. reruns with a fixed seed are bit-identical

_SMALL_SOLVER = {"kind": "fixed-heun", "fixed_steps": 8, "t_min": 0.01}
_SMALL_MODEL = {"width": 8, "hidden_layers": 1, "time_freqs": 2}
_SMALL_TRAIN = {"iterations": 20}

_DETERMINISM_CONFIGS = {
    "gaussian": {"dataset": {"dim": 4, "n_points": 8}, "model": _SMALL_MODEL,
                 "train": {**_SMALL_TRAIN, "eval_interval": 10},
                 "diagnostics": {"n": 20, "timesteps": 5}},
    "foe": {"dataset": {"n_per_class": 8}, "n_score": 4,
            "region_factors": [1, 2], "n_samples": 5, "calibration_n": 2,
            "model": _SMALL_MODEL, "train": _SMALL_TRAIN,
            "solver": _SMALL_SOLVER},
    "pat": {"variants": ["baseline", "krr"], "n_samples": 5,
            "model": _SMALL_MODEL, "train": _SMALL_TRAIN,
            "solver": _SMALL_SOLVER, "krr": {"n_draws": 64}},
    "cfg-gap": {"dataset": {"dim": 4, "n_per_class": 8},
                "model": _SMALL_MODEL, "train": _SMALL_TRAIN,
                "solver": _SMALL_SOLVER, "t_grid": [0.3, 0.5],
                "diagnostics": {"n": 10}},
    "memorize-from-t": {"t_from_grid": [0.3, 0.6], "noise_draws": 1,
                        "calibration_n": 2, "model": _SMALL_MODEL,
                        "train": _SMALL_TRAIN, "solver": _SMALL_SOLVER},
    "rstar-profile": {"dataset": {"dim": 4, "n_points": 8}, "n_samples": 8,
                      "t_grid": [0.3, 0.6], "solver": _SMALL_SOLVER},
    "overlap-curve": {"dataset": {"dim": 4, "n_per_class": 8},
                      "t_grid": [0.2, 0.5, 0.8]},
    "scaling-line": {"dataset": {"n_per_class": 8}, "widths": [4, 8],
                     "n_samples": 8,
                     "model": {"hidden_layers": 1, "time_freqs": 2},
                     "train": _SMALL_TRAIN,
                     "solver": _SMALL_SOLVER,
                     "diagnostics": {"n": 20, "timesteps": 5}},
}


def _run_digests(experiment, out, threads):
    """SHA-256 of every CSV and checkpoint of one determinism-config run."""
    cfg = {"experiment": experiment, "seed": 0, "out": str(out),
           **copy.deepcopy(_DETERMINISM_CONFIGS[experiment])}
    cfg_path = out.with_suffix(".json")
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--threads", threads]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted([*out.glob("*.csv"), *out.glob("*.ckpt")])}


class TestDeterministicReruns:
    @pytest.mark.parametrize("experiment", sorted(_DETERMINISM_CONFIGS))
    def test_rerun_bit_identical(self, experiment, tmp_path):
        digests = [_run_digests(experiment, tmp_path / tag, "1")
                   for tag in ("a", "b")]
        assert digests[0] and digests[0] == digests[1]

    @pytest.mark.parametrize("experiment", ["foe", "pat", "scaling-line"])
    def test_sweep_members_in_workers_bit_identical(self, experiment,
                                                    tmp_path):
        digests = [_run_digests(experiment, tmp_path / f"threads{threads}",
                                threads) for threads in ("1", "2")]
        assert digests[0] and digests[0] == digests[1]
