"""End-to-end experiment drivers behind the command line.

Each driver takes a fully resolved configuration dict (see `cli.DEFAULTS`)
and a RunContext, and returns an ExperimentResult: named CSV tables (header
row first) plus model checkpoints to be written next to them. Every driver is
deterministic for a fixed seed, at any `threads`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field, replace
from functools import partial

import numpy as np

from .data import Dataset, make_class_mixture, make_gaussian_dataset, \
    make_pat_toy_dataset, split_score_region, supervision_draws
from .diagnostics import EXTRAPOLATION, SUPERVISION, calibrated_l2_values, \
    cfg_gap_curve, memorization_ratio, pat_quality, regress_to_origin_ratio, \
    score_error, fit_quality_line
from .empirical import EmpiricalScoreOracle
from .errors import InvalidArgumentError
from .geometry import bhattacharyya_overlap, rstar_by_t
from .models import IDENTITY, MlpScoreNetwork, \
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

def checked(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), called before any net trains, with its
    InvalidArgumentError prefixed by `where`: the config section (solver,
    model, train, dataset) or key its settings come from."""
    try:
        return make(*args, **kwargs)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{where}: {exc}") from None


def build_dataset(dcfg: dict, seed: int) -> Dataset:
    """The dataset of a config's `dataset` section: `kind` (gaussian or
    class-mixture) picks the maker, the other keys are its keywords."""
    make = make_gaussian_dataset if dcfg["kind"] == "gaussian" \
        else make_class_mixture
    return checked("dataset", make,
                   **{k: v for k, v in dcfg.items() if k != "kind"}, seed=seed)


def check_t_grid(cfg: dict, key: str, allow_one: bool = True) -> None:
    """Refuse an empty cfg[key], or a timestep of it outside (0, 1], or
    outside (0, 1) when not `allow_one`, before any net trains; the error
    names the key."""
    if not cfg[key]:
        raise InvalidArgumentError(f"{key}: need at least one timestep, got []")
    for t in cfg[key]:
        if not (0.0 < t < 1.0 or (allow_one and t == 1.0)):
            raise InvalidArgumentError(
                f"{key}: {t} outside (0, 1{']' if allow_one else ')'}")


def check_sweep(cfg: dict, key: str, least: int = 1) -> None:
    """Refuse fewer than `least` (1 or 2) values in the sweep list cfg[key],
    or a repeated one, before any net trains: each value names artifacts."""
    if len(cfg[key]) < least or len(set(cfg[key])) < len(cfg[key]):
        raise InvalidArgumentError(
            f"{key}: need at least {('one', 'two')[least - 1]}, all distinct; "
            f"got {cfg[key]}")


def _fit_and_sample(cfg: dict, tcfg: TrainConfig, solver: SolverConfig,
                    job: tuple) -> tuple:
    """One sweep member; job is (field, dataset, subset pair or None). A net
    is trained (by foe's loss given a pair) and replaced by its EMA net.
    Returns ((net, ema) or None, cfg["n_samples"] samples at seed + 2)."""
    field, ds, pair = job
    ckpt = None
    if isinstance(field, MlpScoreNetwork):
        ckpt = field, train(field, tcfg, ds, pair).ema_params
        field = ema_network(*ckpt)
    samples, _ = sample(field, cfg["n_samples"], solver, seed=cfg["seed"] + 2)
    return ckpt, samples


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
    net = checked("model", MlpScoreNetwork, ds.dim, **cfg["model"], seed=seed)
    tcfg = checked("train", TrainConfig, **cfg["train"], seed=seed)
    oracle_field = OracleField(EmpiricalScoreOracle(ds))
    gt_field = OracleField(EmpiricalScoreOracle(Dataset(np.zeros((1, ds.dim))), std=1.0))
    diag = cfg["diagnostics"]
    # "ambient" draws come from the true data distribution, not the finite
    # training set: reuse the supervision-region estimator over fresh draws.
    ambient_ds = make_gaussian_dataset(ds.dim, diag["n"], seed=seed + 1)

    def errors(field):
        kw = dict(n=diag["n"], timesteps=diag["timesteps"], seed=seed)
        # both supervision errors read the same inputs: one pass, one forward
        emp, gt = score_error(field, [oracle_field, gt_field], SUPERVISION,
                              ds, **kw)
        ambient, = score_error(field, [gt_field], SUPERVISION, ambient_ds, **kw)
        return [emp.value, gt.value, ambient.value]

    rows = []

    def hook(iteration, raw_net, ema_net):
        raw = errors(raw_net)
        same = np.array_equal(raw_net.flat, ema_net.flat)  # iteration 0: same bits
        rows.append([iteration, *raw, *(raw if same else errors(ema_net))])

    report = train(net, tcfg, dataset=ds, eval_hooks=[hook])

    names = ["sup_vs_empirical", "sup_vs_gt", "ambient_vs_gt",
             "ema_sup_vs_empirical", "ema_sup_vs_gt", "ema_ambient_vs_gt"]
    return ExperimentResult(
        tables={"loss_curve": loss_curve_table(report),
                "error_curves": [["iteration", *names], *rows]},
        checkpoints={"model": (net, report.ema_params)})


# ---------------------------------------------------------------------------
# foe: region-decoupled training sweep over the region-subset size

def run_foe(cfg: dict, ctx: RunContext) -> ExperimentResult:
    seed = cfg["seed"]
    ds = build_dataset(cfg["dataset"], seed)
    n_score, factors = cfg["n_score"], cfg["region_factors"]
    # checked before any member trains: these settings, each split as drawn
    check_sweep(cfg, "region_factors")
    if not 1 <= n_score <= ds.size:
        raise InvalidArgumentError(
            f"n_score: {n_score} outside [1, {ds.size}] (dataset size)")
    if not 1 <= cfg["calibration_n"] <= n_score:
        raise InvalidArgumentError(f"calibration_n: {cfg['calibration_n']} "
                                   f"outside [1, n_score={n_score}]")
    for thr in cfg["thresholds"]:
        if not 0.0 < thr < 1.0:
            raise InvalidArgumentError(f"thresholds: {thr} outside (0, 1)")
    solver = checked("solver", SolverConfig, **cfg["solver"])
    tcfg = checked("train", TrainConfig, **cfg["train"], seed=seed)
    jobs = [(checked("model", MlpScoreNetwork, ds.dim, **cfg["model"],
                     seed=seed), ds,
             checked("region_factors", split_score_region, ds, n_score,
                     n_score * factor, seed=seed)) for factor in factors]
    members = ctx.map(partial(_fit_and_sample, cfg, tcfg, solver), jobs)
    rows = []
    result = ExperimentResult()
    for factor, (_, _, pair), (ckpt, samples) in zip(factors, jobs, members):
        n_region = n_score * factor
        score_pts = ds.points[pair.score_idx]
        cal = calibrated_l2_values(samples, score_pts, n=cfg["calibration_n"])
        for thr in cfg["thresholds"]:
            rows.append([factor, n_region, thr, memorization_ratio(cal, thr)])
        rows.append([factor, n_region, "mean_calibrated", float(np.mean(cal))])
        result.tables[f"samples_factor{factor}"] = samples_table(samples)
        result.checkpoints[f"model_factor{factor}"] = ckpt
    result.tables["foe_sweep"] = [
        ["region_factor", "n_region", "threshold", "value"], *rows]
    return result


# ---------------------------------------------------------------------------
# pat: four-point toy, baseline versus perception-aligned variants

PAT_VARIANTS = ("baseline", "polar", "krr", "equivariant")
_PAT_INPUT_MAPS = {"baseline": IDENTITY, "polar": POLAR,
                   "equivariant": RADIAL_EQUIVARIANT}


def run_pat(cfg: dict, ctx: RunContext) -> ExperimentResult:
    k = cfg["krr"]  # every setting is checked before any member starts
    check_sweep(cfg, "variants")
    for variant in cfg["variants"]:
        if variant not in PAT_VARIANTS:
            raise InvalidArgumentError(f"variants: unknown pat variant {variant!r}")
    for key, bad, need in (("n_draws", k["n_draws"] < 1, ">= 1"),
                           ("gamma", k["gamma"] <= 0, "> 0"),
                           ("ridge", k["ridge"] < 0, ">= 0")):
        if bad:
            raise InvalidArgumentError(f"krr.{key}: must be {need}, got {k[key]}")
    seed, ds = cfg["seed"], make_pat_toy_dataset()
    solver = checked("solver", SolverConfig, **cfg["solver"])
    tcfg = checked("train", TrainConfig, **cfg["train"], seed=seed)
    jobs = [(fit_krr_denoiser_field(ds, **k, seed=seed, t_min=solver.t_min)
             if variant == "krr"
             else checked("model", MlpScoreNetwork, ds.dim, **cfg["model"],
                          input_map=_PAT_INPUT_MAPS[variant], seed=seed),
             ds, None) for variant in cfg["variants"]]
    members = ctx.map(partial(_fit_and_sample, cfg, tcfg, solver), jobs)
    result = ExperimentResult()
    quality_rows = []
    for variant, (ckpt, samples) in zip(cfg["variants"], members):
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
    seed, solver = cfg["seed"], checked("solver", SolverConfig, **cfg["solver"])
    check_t_grid(cfg, "t_grid", allow_one=False)
    ds = build_dataset(cfg["dataset"], seed)
    net = checked("model", MlpScoreNetwork, ds.dim, **cfg["model"],
                  num_classes=ds.num_classes, seed=seed)
    tcfg = checked("train", TrainConfig, **cfg["train"], seed=seed)
    tcfg = checked("class_dropout", replace, tcfg,
                   class_dropout=cfg["class_dropout"])
    report = train(net, tcfg, dataset=ds)
    model = ema_network(net, report.ema_params)
    t_grid = np.asarray(cfg["t_grid"], dtype=float)
    diag = cfg["diagnostics"]

    def model_cond(zs, t, labels):
        return convert_value(model.evaluate_batch(zs, t, labels),
                             model.prediction_kind, SCORE, zs, t)

    cond_oracle = {c: EmpiricalScoreOracle(ds.subset(ds.class_indices(c)))
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
    reps = cfg["noise_draws"]  # at least 1, as resolve_config checks
    if not 1 <= cfg["calibration_n"] <= ds.size:  # checked before training
        raise InvalidArgumentError(f"calibration_n: {cfg['calibration_n']} "
                                   f"outside [1, {ds.size}] (dataset size)")
    check_t_grid(cfg, "t_from_grid")
    solver = checked("solver", SolverConfig, **cfg["solver"])
    net = checked("model", MlpScoreNetwork, ds.dim, **cfg["model"], seed=seed)
    tcfg = checked("train", TrainConfig, **cfg["train"], seed=seed)
    report = train(net, tcfg, dataset=ds)
    model = ema_network(net, report.ema_params)
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
    check_t_grid(cfg, "t_grid")
    ds = build_dataset(cfg["dataset"], seed)
    solver = checked("solver", SolverConfig, **cfg["solver"])
    field = OracleField(EmpiricalScoreOracle(ds))
    _, trajectories = sample(field, cfg["n_samples"], solver, seed=seed,
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
    check_t_grid(cfg, "t_grid")
    ds = build_dataset(cfg["dataset"], seed)
    t_grid = np.asarray(cfg["t_grid"], dtype=float)
    parts = {"all": ds, **{str(c): ds.subset(ds.class_indices(c))
                           for c in range(ds.num_classes)}}
    rows = [[float(t), name, value] for name, part in parts.items()
            for t, value in zip(t_grid, checked("dataset", bhattacharyya_overlap,
                                                part, t_grid))]
    return ExperimentResult(
        tables={"overlap_curve": [["t", "class", "overlap"], *rows]})


# ---------------------------------------------------------------------------
# scaling-line: supervision loss versus sample quality across model widths

def run_scaling_line(cfg: dict, ctx: RunContext) -> ExperimentResult:
    seed = cfg["seed"]
    ds = build_dataset(cfg["dataset"], seed)
    reference = build_dataset(cfg["dataset"], seed + 9).points
    # every width and net is checked before any member trains
    check_sweep(cfg, "widths", least=2)
    if min(cfg["widths"]) < 1:
        raise InvalidArgumentError(f"widths: {min(cfg['widths'])} is below 1")
    solver = checked("solver", SolverConfig, **cfg["solver"])
    tcfg = checked("train", TrainConfig, **cfg["train"], seed=seed)
    jobs = [(checked("model", MlpScoreNetwork, ds.dim, width=width,
                     **cfg["model"], seed=seed), ds, None)
            for width in cfg["widths"]]
    members = ctx.map(partial(_fit_and_sample, cfg, tcfg, solver), jobs)
    oracle = OracleField(EmpiricalScoreOracle(ds))
    rows = []
    result = ExperimentResult()
    for width, (ckpt, samples) in zip(cfg["widths"], members):
        loss, = score_error(ema_network(*ckpt), [oracle], SUPERVISION, ds,
                            **cfg["diagnostics"], seed=seed)
        quality = sliced_wasserstein(samples, reference, seed=seed)
        rows.append([width, loss.value, quality])
        result.checkpoints[f"model_width{width}"] = ckpt
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
