"""End-to-end experiment drivers behind the command line.

Each driver takes a fully resolved configuration dict (see `cli.DEFAULTS`)
and a RunContext, and returns an ExperimentResult: named CSV tables (header
row first) plus model checkpoints to be written next to them. Every driver is
deterministic for a fixed seed, at any `threads`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .data import Dataset, make_class_mixture, make_gaussian_dataset, \
    make_pat_toy_dataset, split_score_region, supervision_draws
from .diagnostics import EXTRAPOLATION, SUPERVISION, calibrated_l2_values, \
    cfg_gap_curve, memorization_ratio, pat_quality, regress_to_origin_ratio, \
    score_error, supervision_loss, fit_quality_line
from .empirical import EmpiricalScoreOracle
from .errors import InvalidArgumentError
from .geometry import bhattacharyya_overlap, rstar_by_t
from .models import GaussianGroundTruthField, IDENTITY, MlpScoreNetwork, \
    OracleField, POLAR, RADIAL_EQUIVARIANT, fit_krr_denoiser_field
from .numerics import RngStream, sliced_wasserstein
from .sampling import SolverConfig, denoise_from, sample
from .schedule import SCORE, convert_value, forward_process
from .training import TrainConfig, TrainReport, ema_network, train

Table = list  # header row followed by value rows


@dataclass
class ExperimentResult:
    tables: dict = dc_field(default_factory=dict)       # name -> Table
    checkpoints: dict = dc_field(default_factory=dict)  # name -> (net, ema_params)


@dataclass(frozen=True)
class RunContext:
    """What a run may use besides its config: up to `threads` worker
    processes for the independent members of a sweep."""
    threads: int = 1

    def map(self, fn, members) -> list:
        """[fn(m) for m in members] in member order, from up to `threads`
        spawned workers with one BLAS thread each: fn must be module-level
        and its argument and result picklable. A member's error is raised."""
        members = list(members)
        workers = min(self.threads, len(members))
        if workers <= 1:
            return [fn(m) for m in members]
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        env = dict(os.environ)  # BLAS sizes its pool when numpy loads
        os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                          MKL_NUM_THREADS="1")
        try:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing
                                     .get_context("spawn")) as pool:
                return list(pool.map(fn, members))
        finally:
            os.environ.clear()
            os.environ.update(env)


# ---------------------------------------------------------------------------
# shared builders

def build_dataset(dcfg: dict, seed: int) -> Dataset:
    """The dataset of a config's `dataset` section: `kind` (gaussian or
    class-mixture) picks the maker, the other keys are its keywords."""
    make = make_gaussian_dataset if dcfg["kind"] == "gaussian" \
        else make_class_mixture
    return make(**{k: v for k, v in dcfg.items() if k != "kind"}, seed=seed)


def loss_curve_table(report: TrainReport) -> Table:
    return [["iteration", "loss"], *[[it, ls] for it, ls in report.loss_curve]]


def samples_table(samples: np.ndarray) -> Table:
    d = samples.shape[1]
    header = [f"z_{j}" for j in range(d)]
    return [header, *[list(map(float, row)) for row in samples]]


# ---------------------------------------------------------------------------
# gaussian: selective underfitting on an isotropic-normal training set

def run_gaussian(cfg: dict, ctx: RunContext) -> ExperimentResult:
    seed = cfg["seed"]
    ds = build_dataset(cfg["dataset"], seed)
    net = MlpScoreNetwork(ds.dim, **cfg["model"], seed=seed)
    oracle_field = OracleField(EmpiricalScoreOracle(ds))
    gt_field = GaussianGroundTruthField(ds.dim)
    diag = cfg["diagnostics"]
    # "ambient" draws come from the true data distribution, not the finite
    # training set: reuse the supervision-region estimator over fresh draws.
    ambient_ds = make_gaussian_dataset(ds.dim, diag["n"], seed=seed + 1)

    def errors(field, tag):
        kw = dict(n=diag["n"], timesteps=diag["timesteps"], seed=seed)
        # both supervision errors read the same inputs: one pass, one forward
        emp, gt = score_error(field, [oracle_field, gt_field], SUPERVISION,
                              ds, **kw)
        ambient, = score_error(field, [gt_field], SUPERVISION, ambient_ds, **kw)
        return {f"{tag}sup_vs_empirical": emp.value,
                f"{tag}sup_vs_gt": gt.value,
                f"{tag}ambient_vs_gt": ambient.value}

    def hook(iteration, raw_net, ema_net):
        raw = errors(raw_net, "")
        if np.array_equal(raw_net.flat, ema_net.flat):  # iteration 0: same bits
            return {**raw, **{f"ema_{k}": v for k, v in raw.items()}}
        return {**raw, **errors(ema_net, "ema_")}

    report = train(net, TrainConfig(**cfg["train"], seed=seed), dataset=ds,
                   eval_hooks=[hook])

    names = ["sup_vs_empirical", "sup_vs_gt", "ambient_vs_gt",
             "ema_sup_vs_empirical", "ema_sup_vs_gt", "ema_ambient_vs_gt"]
    rows = [[it, *[values[n] for n in names]]
            for it, values in report.eval_records]
    return ExperimentResult(
        tables={"loss_curve": loss_curve_table(report),
                "error_curves": [["iteration", *names], *rows]},
        checkpoints={"model": (net, report.ema_params)})


# ---------------------------------------------------------------------------
# foe: region-decoupled training sweep over the region-subset size

def _foe_member(cfg: dict, ds: Dataset, pair) -> tuple:
    """One region size: the net, its EMA and the EMA net's samples."""
    seed = cfg["seed"]
    net = MlpScoreNetwork(ds.dim, **cfg["model"], seed=seed)
    report = train(net, TrainConfig(**cfg["train"], seed=seed), dataset=ds,
                   subset_pair=pair)
    samples, _ = sample(ema_network(net, report.ema_params), cfg["n_samples"],
                        SolverConfig(**cfg["solver"]), seed=seed + 2)
    return net, report.ema_params, samples


def run_foe(cfg: dict, ctx: RunContext) -> ExperimentResult:
    seed = cfg["seed"]
    ds = build_dataset(cfg["dataset"], seed)
    n_score, factors = cfg["n_score"], cfg["region_factors"]
    # checked before any member trains: these settings, each split as drawn
    if not 1 <= cfg["calibration_n"] <= n_score:
        raise InvalidArgumentError(f"calibration_n: {cfg['calibration_n']} "
                                   f"outside [1, n_score={n_score}]")
    for thr in cfg["thresholds"]:
        if not 0.0 < thr < 1.0:
            raise InvalidArgumentError(f"thresholds: {thr} outside (0, 1)")
    pairs = [split_score_region(ds, n_score, n_score * factor, seed=seed)
             for factor in factors]
    members = ctx.map(partial(_foe_member, cfg, ds), pairs)
    rows = []
    result = ExperimentResult()
    for factor, pair, (net, ema, samples) in zip(factors, pairs, members):
        n_region = n_score * factor
        score_pts = ds.points[pair.score_idx]
        cal = calibrated_l2_values(samples, score_pts, n=cfg["calibration_n"])
        for thr in cfg["thresholds"]:
            rows.append([factor, n_region, thr, memorization_ratio(cal, thr)])
        rows.append([factor, n_region, "mean_calibrated", float(np.mean(cal))])
        result.tables[f"samples_factor{factor}"] = samples_table(samples)
        result.checkpoints[f"model_factor{factor}"] = (net, ema)
    result.tables["foe_sweep"] = [
        ["region_factor", "n_region", "threshold", "value"], *rows]
    return result


# ---------------------------------------------------------------------------
# pat: four-point toy, baseline versus perception-aligned variants

PAT_VARIANTS = ("baseline", "polar", "krr", "equivariant")
_PAT_INPUT_MAPS = {"baseline": IDENTITY, "polar": POLAR,
                   "equivariant": RADIAL_EQUIVARIANT}


def _pat_member(cfg: dict, variant: str) -> tuple:
    """One variant: its samples and its (net, ema), None for the KRR field."""
    ds, seed, ckpt = make_pat_toy_dataset(), cfg["seed"], None
    if variant == "krr":
        k = cfg["krr"]
        field = fit_krr_denoiser_field(
            ds, n_draws=k["n_draws"], gamma=k["gamma"], ridge=k["ridge"],
            seed=seed, input_map=POLAR, time_scale=k["time_scale"],
            t_min=cfg["solver"]["t_min"])
    else:
        net = MlpScoreNetwork(ds.dim, **cfg["model"],
                              input_map=_PAT_INPUT_MAPS[variant], seed=seed)
        report = train(net, TrainConfig(**cfg["train"], seed=seed), dataset=ds)
        ckpt = (net, report.ema_params)
        field = ema_network(*ckpt)
    samples, _ = sample(field, cfg["n_samples"], SolverConfig(**cfg["solver"]),
                        seed=seed + 2)
    return samples, ckpt


def run_pat(cfg: dict, ctx: RunContext) -> ExperimentResult:
    for variant in cfg["variants"]:  # all checked before any member trains
        if variant not in PAT_VARIANTS:
            raise InvalidArgumentError(f"unknown pat variant {variant!r}")
    result = ExperimentResult()
    quality_rows = []
    members = ctx.map(partial(_pat_member, cfg), cfg["variants"])
    for variant, (samples, ckpt) in zip(cfg["variants"], members):
        quality_rows.append([variant, *pat_quality(samples)])
        result.tables[f"samples_{variant}"] = samples_table(samples)
        if ckpt is not None:
            result.checkpoints[f"model_{variant}"] = ckpt
    result.tables["pat_quality"] = [
        ["variant", "bad_fraction", "good_fraction", "other_fraction"],
        *quality_rows]
    return result


# ---------------------------------------------------------------------------
# cfg-gap: conditional/unconditional score gap by region

def run_cfg_gap(cfg: dict, ctx: RunContext) -> ExperimentResult:
    seed = cfg["seed"]
    ds = build_dataset(cfg["dataset"], seed)
    net = MlpScoreNetwork(ds.dim, **cfg["model"], num_classes=ds.num_classes,
                          seed=seed)
    tcfg = TrainConfig(**cfg["train"], class_dropout=cfg["class_dropout"],
                       seed=seed)
    report = train(net, tcfg, dataset=ds)
    model = ema_network(net, report.ema_params)
    solver = SolverConfig(**cfg["solver"])
    t_grid = np.asarray(cfg["t_grid"], dtype=float)
    diag = cfg["diagnostics"]

    def model_cond(zs, t, labels):
        return convert_value(model.evaluate_batch(zs, t, labels),
                             model.prediction_kind, SCORE, zs, t)

    cond_oracle = {c: EmpiricalScoreOracle(ds, class_filter=c)
                   for c in range(ds.num_classes)}
    uncond_oracle = EmpiricalScoreOracle(ds)

    def oracle_cond(zs, t, labels):
        out = np.empty_like(zs)
        for c, oracle in cond_oracle.items():
            rows = labels == c
            if rows.any():
                out[rows] = oracle.score_batch(zs[rows], t)
        return out

    rows = []
    for source, cond, uncond, regions in (
            ("model", model_cond, partial(model_cond, labels=None),
             (SUPERVISION, EXTRAPOLATION)),
            ("oracle", oracle_cond, uncond_oracle.score_batch, (SUPERVISION,))):
        for region in regions:
            for t, med, p10, p90 in cfg_gap_curve(
                    cond, uncond, ds, region, t_grid, n=diag["n"], seed=seed,
                    field=model, solver=solver):
                rows.append([source, region, t, med, p10, p90])
    # reference scale: mean supervision-region oracle score norm per timestep
    norm_rows = []
    x, eps, _ = supervision_draws(ds, diag["n"], RngStream(seed, stream=5))
    for t in t_grid:
        zs = forward_process(x, eps, t)
        norms = np.linalg.norm(uncond_oracle.score_batch(zs, float(t)), axis=1)
        norm_rows.append([float(t), float(np.mean(norms))])
    return ExperimentResult(
        tables={"cfg_gap": [["source", "region", "t", "median", "p10", "p90"],
                            *rows],
                "score_norms": [["t", "mean_score_norm"], *norm_rows]},
        checkpoints={"model": (net, report.ema_params)})


# ---------------------------------------------------------------------------
# memorize-from-t: partial denoising from forward-noised training points

def run_memorize_from_t(cfg: dict, ctx: RunContext) -> ExperimentResult:
    seed = cfg["seed"]
    ds = build_dataset(cfg["dataset"], seed)
    reps = cfg["noise_draws"]
    if reps < 1:  # this and calibration_n are checked before the net trains
        raise InvalidArgumentError(f"noise_draws: must be >= 1, got {reps}")
    if not 1 <= cfg["calibration_n"] <= ds.size:
        raise InvalidArgumentError(f"calibration_n: {cfg['calibration_n']} "
                                   f"outside [1, {ds.size}] (dataset size)")
    net = MlpScoreNetwork(ds.dim, **cfg["model"], seed=seed)
    report = train(net, TrainConfig(**cfg["train"], seed=seed), dataset=ds)
    model = ema_network(net, report.ema_params)
    solver = SolverConfig(**cfg["solver"])
    rng = RngStream(seed, stream=3)
    idx = np.tile(np.arange(ds.size), reps)
    eps = rng.normal((idx.size, ds.dim))
    rows = []
    for t_from in cfg["t_from_grid"]:
        zs = forward_process(ds.points[idx], eps, t_from)
        outs = denoise_from(model, zs, float(t_from), solver)
        cals = calibrated_l2_values(outs, ds.points, n=cfg["calibration_n"])
        rows.append([float(t_from),
                     regress_to_origin_ratio(idx, outs, ds.points),
                     float(np.mean(cals))])
    return ExperimentResult(
        tables={"memorize_from_t":
                [["t_from", "regress_to_origin", "mean_calibrated_l2"], *rows]},
        checkpoints={"model": (net, report.ema_params)})


# ---------------------------------------------------------------------------
# rstar-profile: nearest-shell statistics along sampling trajectories

def run_rstar_profile(cfg: dict, ctx: RunContext) -> ExperimentResult:
    seed = cfg["seed"]
    ds = build_dataset(cfg["dataset"], seed)
    field = OracleField(EmpiricalScoreOracle(ds))
    _, trajectories = sample(field, cfg["n_samples"],
                             SolverConfig(**cfg["solver"]), seed=seed,
                             record=True)
    rows = [[t, float(np.mean(vals)), float(np.percentile(vals, 10)),
             float(np.percentile(vals, 90))]
            for t, vals in rstar_by_t(ds, trajectories, cfg["t_grid"])]
    return ExperimentResult(
        tables={"rstar_profile":
                [["t", "mean_normalized_rstar", "p10", "p90"], *rows]})


# ---------------------------------------------------------------------------
# overlap-curve: Bhattacharyya shell-overlap coefficient over time

def run_overlap_curve(cfg: dict, ctx: RunContext) -> ExperimentResult:
    seed = cfg["seed"]
    ds = build_dataset(cfg["dataset"], seed)
    t_grid = np.asarray(cfg["t_grid"], dtype=float)
    rows = [[float(t), "all", bhattacharyya_overlap(ds, float(t))]
            for t in t_grid]
    for c in range(ds.num_classes):
        rows.extend([[float(t), str(c),
                      bhattacharyya_overlap(ds, float(t), class_filter=c)]
                     for t in t_grid])
    return ExperimentResult(
        tables={"overlap_curve": [["t", "class", "overlap"], *rows]})


# ---------------------------------------------------------------------------
# scaling-line: supervision loss versus sample quality across model widths

def _scaling_member(cfg: dict, ds: Dataset, net: MlpScoreNetwork) -> tuple:
    """One width: the net, its EMA, its supervision loss and its samples."""
    seed, diag = cfg["seed"], cfg["diagnostics"]
    report = train(net, TrainConfig(**cfg["train"], seed=seed), dataset=ds)
    model = ema_network(net, report.ema_params)
    loss = supervision_loss(model, OracleField(EmpiricalScoreOracle(ds)), ds,
                            n=diag["n"], timesteps=diag["timesteps"],
                            seed=seed)
    samples, _ = sample(model, cfg["n_samples"], SolverConfig(**cfg["solver"]),
                        seed=seed + 2)
    return net, report.ema_params, loss, samples


def run_scaling_line(cfg: dict, ctx: RunContext) -> ExperimentResult:
    seed = cfg["seed"]
    ds = build_dataset(cfg["dataset"], seed)
    reference = build_dataset(cfg["dataset"], seed + 9).points
    # every width and net is checked before any member trains
    if len(cfg["widths"]) < 2 or len(set(cfg["widths"])) < len(cfg["widths"]):
        raise InvalidArgumentError(
            f"widths: need at least two, all distinct; got {cfg['widths']}")
    nets = [MlpScoreNetwork(ds.dim, width=width, **cfg["model"], seed=seed)
            for width in cfg["widths"]]
    rows = []
    result = ExperimentResult()
    members = ctx.map(partial(_scaling_member, cfg, ds), nets)
    for width, (net, ema, loss, samples) in zip(cfg["widths"], members):
        quality = sliced_wasserstein(samples, reference, seed=seed)
        rows.append([width, loss, quality])
        result.checkpoints[f"model_width{width}"] = (net, ema)
    slope, intercept, rms = fit_quality_line([r[1] for r in rows],
                                             [r[2] for r in rows])
    result.tables["scaling_points"] = [
        ["width", "supervision_loss", "quality"], *rows]
    result.tables["scaling_fit"] = [
        ["slope", "intercept", "rms_residual"], [slope, intercept, rms]]
    return result


RUNNERS = {
    "gaussian": run_gaussian,
    "foe": run_foe,
    "pat": run_pat,
    "cfg-gap": run_cfg_gap,
    "memorize-from-t": run_memorize_from_t,
    "rstar-profile": run_rstar_profile,
    "overlap-curve": run_overlap_curve,
    "scaling-line": run_scaling_line,
}
