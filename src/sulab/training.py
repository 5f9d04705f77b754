"""Training losses and the optimizer loop.

Three losses over one Adam/EMA loop:
  dsm        - standard denoising regression on forward-process draws,
  oracle-dsm - regression onto the exact empirical score of an oracle,
  foe        - region-decoupled importance-sampled loss: inputs come from the
               region subset's forward process, targets from a single point y
               drawn with softmax responsibilities over the score subset.
Targets are always expressed in the network's prediction kind. Timesteps are
clamped to [t_min, 1 - t_min] to keep every conversion finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .data import Dataset, SubsetPair
from .empirical import EmpiricalScoreOracle, mixture_weights
from .errors import InvalidArgumentError, NumericFailureError
from .models import MlpScoreNetwork
from .numerics import RngStream
from .schedule import SCORE, VELOCITY, XPRED

DSM = "dsm"
ORACLE_DSM = "oracle-dsm"
FOE = "foe"
LOSS_KINDS = (DSM, ORACLE_DSM, FOE)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 1000
    batch_size: int = 128
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    ema_decay: float = 0.999
    class_dropout: float = 0.0
    loss_kind: str = DSM
    eval_interval: int = 100
    seed: int = 0
    t_min: float = 1e-3
    foe_target_draws: int = 1  # >1 averages multiple y draws per example

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise InvalidArgumentError("adam betas must lie in [0, 1)")
        if self.lr <= 0:
            raise InvalidArgumentError("lr must be positive")
        if not (0.0 <= self.ema_decay < 1.0):
            raise InvalidArgumentError("ema decay must lie in [0, 1)")
        if not (0.0 <= self.class_dropout <= 1.0):
            raise InvalidArgumentError("class dropout must lie in [0, 1]")
        if self.loss_kind not in LOSS_KINDS:
            raise InvalidArgumentError(f"unknown loss kind {self.loss_kind!r}")
        if self.iterations < 0 or self.batch_size < 1:
            raise InvalidArgumentError("bad iterations or batch size")


class AdamState:
    """Per-parameter first/second moment accumulators plus a step counter."""

    def __init__(self, params: list[np.ndarray]):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.step = 0


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray], cfg: TrainConfig) -> list[np.ndarray]:
    """In-place bias-corrected Adam update (no weight decay)."""
    if len(params) != len(grads):
        raise InvalidArgumentError("params/grads length mismatch")
    state.step += 1
    b1, b2 = cfg.beta1, cfg.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        if not np.all(np.isfinite(g)):
            raise NumericFailureError("non-finite gradient", iteration=state.step)
        m, v = state.m[i], state.v[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        denom = np.sqrt(v * (1.0 / c2))
        denom += cfg.adam_eps
        np.divide(m, denom, out=denom)
        denom *= cfg.lr / c1
        p -= denom
    return params


def ema_update(ema_params: list[np.ndarray], params: list[np.ndarray],
               decay: float) -> list[np.ndarray]:
    """ema <- decay * ema + (1 - decay) * params, in place."""
    for e, p in zip(ema_params, params):
        e *= decay
        e += (1.0 - decay) * p
    return ema_params


def _draw_times(rng: RngStream, n: int, t_min: float) -> np.ndarray:
    return rng.uniform(t_min, 1.0 - t_min, n)


def _dsm_targets(kind: str, x: np.ndarray, eps: np.ndarray, ts: np.ndarray) -> np.ndarray:
    if kind == SCORE:
        return -eps / ts[:, None]
    if kind == VELOCITY:
        return eps - x
    return x  # XPRED


def _point_targets(kind: str, y: np.ndarray, zs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Single-point regression target built from a clean point y at (z, t).

    Closed forms under the linear schedule (avoid the generic conversion's
    cancellation at small t): score (alpha y - z)/sigma^2, velocity (z - y)/t,
    x-pred y.
    """
    if kind == SCORE:
        return ((1.0 - ts)[:, None] * y - zs) / (ts * ts)[:, None]
    if kind == VELOCITY:
        return (zs - y) / ts[:, None]
    return y


def _batch_labels(ds: Dataset, idx: np.ndarray, cfg: TrainConfig, rng: RngStream):
    if ds.labels is None:
        return None
    lab = ds.labels[idx].copy()
    if cfg.class_dropout > 0.0:
        drop = rng.uniform(size=len(idx)) < cfg.class_dropout
        lab[drop] = ds.num_classes  # null token
    return lab


def dsm_step(net: MlpScoreNetwork, ds: Dataset, cfg: TrainConfig, rng: RngStream,
             adam: AdamState, ema: list[np.ndarray] | None = None) -> float:
    """One optimizer step on the Monte Carlo denoising loss."""
    idx = rng.integers(0, ds.size, cfg.batch_size)
    x = ds.points[idx]
    eps = rng.normal(x.shape)
    ts = _draw_times(rng, cfg.batch_size, cfg.t_min)
    zs = (1.0 - ts)[:, None] * x + ts[:, None] * eps
    targets = _dsm_targets(net.prediction_kind, x, eps, ts)
    lab = _batch_labels(ds, idx, cfg, rng)
    loss, grads = net.loss_and_grads(zs, ts, targets, lab)
    if not np.isfinite(loss):
        raise NumericFailureError("non-finite training loss", iteration=adam.step + 1)
    adam_step(adam, net.params, grads, cfg)
    if ema is not None:
        ema_update(ema, net.params, cfg.ema_decay)
    return loss


def oracle_dsm_step(net: MlpScoreNetwork, oracle: EmpiricalScoreOracle,
                    cfg: TrainConfig, rng: RngStream, adam: AdamState,
                    ema: list[np.ndarray] | None = None,
                    region_ds: Dataset | None = None) -> float:
    """One step regressing the network onto the exact empirical score.

    Inputs z_t come from the forward process over region_ds (default: the
    oracle's own dataset); the target is the oracle score converted to the
    network's prediction kind.
    """
    source = region_ds if region_ds is not None else oracle.dataset
    idx = rng.integers(0, source.size, cfg.batch_size)
    x = source.points[idx]
    eps = rng.normal(x.shape)
    ts = _draw_times(rng, cfg.batch_size, cfg.t_min)
    zs = (1.0 - ts)[:, None] * x + ts[:, None] * eps
    scores = oracle.score_batch(zs, ts)
    targets = _score_to_kind(net.prediction_kind, scores, zs, ts)
    loss, grads = net.loss_and_grads(zs, ts, targets, None)
    if not np.isfinite(loss):
        raise NumericFailureError("non-finite training loss", iteration=adam.step + 1)
    adam_step(adam, net.params, grads, cfg)
    if ema is not None:
        ema_update(ema, net.params, cfg.ema_decay)
    return loss


def _score_to_kind(kind: str, scores: np.ndarray, zs: np.ndarray,
                   ts: np.ndarray) -> np.ndarray:
    if kind == SCORE:
        return scores
    a = (1.0 - ts)[:, None]
    s_col = ts[:, None]
    if kind == VELOCITY:
        return -(s_col / a) * scores - zs / a
    return (s_col * s_col / a) * scores + zs / a  # XPRED


def sample_softmax_points(score_points: np.ndarray, zs: np.ndarray,
                          ts: np.ndarray, rng: RngStream) -> np.ndarray:
    """Draw index j per row with probability softmax(-|z - alpha x_j|^2 / (2 sigma^2))."""
    w, _ = mixture_weights(zs, score_points, 1.0 - ts, ts)
    cdf = np.cumsum(w, axis=1)
    u = rng.uniform(size=zs.shape[0])
    picks = (cdf < u[:, None]).sum(axis=1)
    return np.minimum(picks, score_points.shape[0] - 1)


def foe_step(net: MlpScoreNetwork, pair: SubsetPair, ds: Dataset, cfg: TrainConfig,
             rng: RngStream, adam: AdamState,
             ema: list[np.ndarray] | None = None) -> float:
    """One step on the region-decoupled importance-sampled loss.

    x ~ Unif(region subset), z_t from the forward process, then y drawn from
    the softmax responsibilities over the score subset; the regression target
    is the single-point target built from y.
    """
    region_pts = ds.points[pair.region_idx]
    score_pts = ds.points[pair.score_idx]
    idx = rng.integers(0, region_pts.shape[0], cfg.batch_size)
    x = region_pts[idx]
    eps = rng.normal(x.shape)
    ts = _draw_times(rng, cfg.batch_size, cfg.t_min)
    zs = (1.0 - ts)[:, None] * x + ts[:, None] * eps
    if cfg.foe_target_draws == 1:
        picks = sample_softmax_points(score_pts, zs, ts, rng)
        targets = _point_targets(net.prediction_kind, score_pts[picks], zs, ts)
    else:
        acc = np.zeros_like(zs)
        for _ in range(cfg.foe_target_draws):
            picks = sample_softmax_points(score_pts, zs, ts, rng)
            acc += _point_targets(net.prediction_kind, score_pts[picks], zs, ts)
        targets = acc / cfg.foe_target_draws
    loss, grads = net.loss_and_grads(zs, ts, targets, None)
    if not np.isfinite(loss):
        raise NumericFailureError("non-finite training loss", iteration=adam.step + 1)
    adam_step(adam, net.params, grads, cfg)
    if ema is not None:
        ema_update(ema, net.params, cfg.ema_decay)
    return loss


@dataclass
class TrainReport:
    loss_curve: list = dc_field(default_factory=list)   # (iteration, loss)
    eval_records: list = dc_field(default_factory=list)  # (iteration, name, value)
    final_params: list = dc_field(default_factory=list)
    ema_params: list = dc_field(default_factory=list)


def ema_network(net: MlpScoreNetwork, ema_params: list[np.ndarray]) -> MlpScoreNetwork:
    """Clone of the network carrying the EMA parameter snapshot."""
    clone = MlpScoreNetwork(**net.descriptor())
    clone.set_params(ema_params)
    return clone


def train(net: MlpScoreNetwork, cfg: TrainConfig, dataset: Dataset | None = None,
          oracle: EmpiricalScoreOracle | None = None,
          subset_pair: SubsetPair | None = None,
          region_ds: Dataset | None = None, eval_hooks=()) -> TrainReport:
    """Run cfg.iterations optimizer steps and invoke hooks at eval_interval.

    Hooks are callables (iteration, net, ema_net) -> dict of metric values;
    they run on frozen snapshots and their records land in the report.
    Deterministic for a fixed cfg.seed.
    """
    if cfg.loss_kind == DSM and dataset is None:
        raise InvalidArgumentError("dsm loss needs a dataset")
    if cfg.loss_kind == ORACLE_DSM and oracle is None:
        raise InvalidArgumentError("oracle-dsm loss needs an oracle")
    if cfg.loss_kind == FOE and (subset_pair is None or dataset is None):
        raise InvalidArgumentError("foe loss needs a dataset and a subset pair")
    rng = RngStream(cfg.seed, stream=0)
    adam = AdamState(net.params)
    ema = net.clone_params()
    report = TrainReport()

    def run_hooks(iteration):
        if not eval_hooks:
            return
        ema_net = ema_network(net, ema)
        for hook in eval_hooks:
            for name, value in hook(iteration, net, ema_net).items():
                report.eval_records.append((iteration, name, float(value)))

    run_hooks(0)
    for it in range(1, cfg.iterations + 1):
        try:
            if cfg.loss_kind == DSM:
                loss = dsm_step(net, dataset, cfg, rng, adam, ema)
            elif cfg.loss_kind == ORACLE_DSM:
                loss = oracle_dsm_step(net, oracle, cfg, rng, adam, ema,
                                       region_ds=region_ds)
            else:
                loss = foe_step(net, subset_pair, dataset, cfg, rng, adam, ema)
        except NumericFailureError as exc:
            raise NumericFailureError(str(exc), iteration=it) from exc
        report.loss_curve.append((it, loss))
        if cfg.eval_interval > 0 and it % cfg.eval_interval == 0:
            run_hooks(it)
    report.final_params = net.clone_params()
    report.ema_params = [e.copy() for e in ema]
    return report
