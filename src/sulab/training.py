"""Training losses and the optimizer loop.

One optimizer step, dsm_step, serves three losses; the loss kind only
chooses the input points and the regression target:
  dsm        - standard denoising regression on forward-process draws,
  oracle-dsm - regression onto the exact empirical score of an oracle,
  foe        - region-decoupled importance-sampled loss: inputs come from the
               region subset's forward process, targets from a single point y
               drawn with softmax responsibilities over the score subset.
Targets are always expressed in the network's prediction kind. Timesteps are
clamped to [t_min, 1 - t_min] to keep every conversion finite. Parameters,
gradients, the Adam moments and the EMA are each one flat float64 vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .data import Dataset, SubsetPair, supervision_draws
from .empirical import EmpiricalScoreOracle, mixture_weights
from .errors import InvalidArgumentError, NumericFailureError
from .models import MlpScoreNetwork
from .numerics import RngStream
from .schedule import (SCORE, XPRED, alpha_sigma, convert_value, dsm_target,
                       forward_process)

DSM = "dsm"
ORACLE_DSM = "oracle-dsm"
FOE = "foe"
LOSS_KINDS = (DSM, ORACLE_DSM, FOE)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 1000
    batch_size: int = 128
    lr: float = 1e-3
    ema_decay: float = 0.999
    class_dropout: float = 0.0
    loss_kind: str = DSM
    eval_interval: int = 100
    seed: int = 0
    t_min: float = 1e-3

    def __post_init__(self):
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
        if not 0.0 < self.t_min < 0.5:
            raise InvalidArgumentError("t_min must lie in (0, 0.5)")


# Adam and the EMA pass over the flat vectors in slices of this many elements
# (256 KB) through a one-slice buffer, instead of making full-size temporaries
_BLOCK = 1 << 15


class AdamState:
    """First/second moment vectors over the flat parameters, plus a step counter."""

    def __init__(self, params: list[np.ndarray]):
        size = sum(np.size(p) for p in params)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.step = 0


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              cfg: TrainConfig) -> np.ndarray:
    """In-place bias-corrected Adam update of the flat params (no weight decay)."""
    if params.shape != grads.shape:
        raise InvalidArgumentError("params/grads length mismatch")
    if not np.all(np.isfinite(grads)):
        raise NumericFailureError("non-finite gradient", iteration=state.step + 1)
    state.step += 1
    b1, b2, eps = 0.9, 0.999, 1e-8  # moment decays, denominator offset
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    buf = np.empty(min(params.size, _BLOCK))
    for k in range(0, params.size, _BLOCK):
        s = slice(k, k + _BLOCK)
        g, m, v = grads[s], state.m[s], state.v[s]
        t = buf[:g.size]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=t)
        v *= b2
        v += np.multiply(np.multiply(g, g, out=t), 1.0 - b2, out=t)
        np.sqrt(np.multiply(v, 1.0 / c2, out=t), out=t)
        t += eps
        params[s] -= np.multiply(np.divide(m, t, out=t), cfg.lr / c1, out=t)
    return params


def ema_update(ema_params: np.ndarray, params: np.ndarray,
               decay: float) -> np.ndarray:
    """ema <- decay * ema + (1 - decay) * params, in place."""
    buf = np.empty(min(ema_params.size, _BLOCK))
    for k in range(0, ema_params.size, _BLOCK):
        e = ema_params[k:k + _BLOCK]
        e *= decay
        e += np.multiply(params[k:k + _BLOCK], 1.0 - decay, out=buf[:e.size])
    return ema_params


def _denoising_target(kind: str, x, eps, zs, ts, rng) -> np.ndarray:
    """The dsm target: the closed form for the noise that made zs."""
    return dsm_target(kind, x, eps, ts)


def dsm_step(net: MlpScoreNetwork, ds: Dataset, cfg: TrainConfig, rng: RngStream,
             adam: AdamState, ema: np.ndarray | None = None,
             target=_denoising_target) -> float:
    """One optimizer step of every loss kind.

    Draws x from ds, noise and time (then class dropout onto the null
    token), forms z_t, and regresses the net onto target(kind, x, eps, zs,
    ts, rng), which may draw last. Adam then updates the flat parameters, and
    the EMA follows.
    """
    x, eps, lab = supervision_draws(ds, cfg.batch_size, rng)
    ts = rng.uniform(cfg.t_min, 1.0 - cfg.t_min, cfg.batch_size)
    zs = forward_process(x, eps, ts)
    if lab is not None and cfg.class_dropout > 0.0:
        lab[rng.uniform(size=len(lab)) < cfg.class_dropout] = ds.num_classes
    targets = target(net.prediction_kind, x, eps, zs, ts, rng)
    loss, grads = net.loss_and_grads(zs, ts, targets, lab)
    if not np.isfinite(loss):
        raise NumericFailureError("non-finite training loss", iteration=adam.step + 1)
    adam_step(adam, net.flat, grads, cfg)
    if ema is not None:
        ema_update(ema, net.flat, cfg.ema_decay)
    return loss


def sample_softmax_points(score_points: np.ndarray, zs: np.ndarray,
                          ts: np.ndarray, rng: RngStream) -> np.ndarray:
    """Draw index j per row with probability softmax(-|z - alpha x_j|^2 / (2 sigma^2))."""
    w, _ = mixture_weights(zs, score_points, *alpha_sigma(ts))
    cdf = np.cumsum(w, axis=1)
    u = rng.uniform(size=zs.shape[0])
    picks = (cdf < u[:, None]).sum(axis=1)
    return np.minimum(picks, score_points.shape[0] - 1)


@dataclass
class TrainReport:
    loss_curve: list = dc_field(default_factory=list)   # (iteration, loss)
    eval_records: list = dc_field(default_factory=list)  # (iteration, {name: value})
    ema_params: np.ndarray | None = None  # flat vector, as clone_params gives


def ema_network(net: MlpScoreNetwork, ema_params: np.ndarray) -> MlpScoreNetwork:
    """Clone of the network carrying the EMA parameter snapshot."""
    clone = MlpScoreNetwork(**net.descriptor())
    clone.set_params(ema_params)
    return clone


def train(net: MlpScoreNetwork, cfg: TrainConfig, dataset: Dataset | None = None,
          oracle: EmpiricalScoreOracle | None = None,
          subset_pair: SubsetPair | None = None, eval_hooks=()) -> TrainReport:
    """Run cfg.iterations optimizer steps and invoke hooks at eval_interval.

    The loss kind picks the input points and the target of dsm_step once:
    dsm draws from dataset, oracle-dsm from the oracle's dataset, foe from
    the region subset of dataset. Hooks are callables
    (iteration, net, ema_net) -> dict of metric values; they run on frozen
    snapshots, and each round's merged dict lands in the report.
    Deterministic for a fixed cfg.seed.
    """
    if cfg.loss_kind == DSM and dataset is None:
        raise InvalidArgumentError("dsm loss needs a dataset")
    if cfg.loss_kind == ORACLE_DSM and oracle is None:
        raise InvalidArgumentError("oracle-dsm loss needs an oracle")
    if cfg.loss_kind == FOE and (subset_pair is None or dataset is None):
        raise InvalidArgumentError("foe loss needs a dataset and a subset pair")
    target = _denoising_target
    if cfg.loss_kind == ORACLE_DSM:
        dataset = oracle.dataset

        def target(kind, x, eps, zs, ts, rng):
            return convert_value(oracle.score_batch(zs, ts), SCORE, kind, zs, ts)
    elif cfg.loss_kind == FOE:
        score_pts = dataset.points[subset_pair.score_idx]
        dataset = dataset.subset(subset_pair.region_idx)

        def target(kind, x, eps, zs, ts, rng):
            y = score_pts[sample_softmax_points(score_pts, zs, ts, rng)]
            return convert_value(y, XPRED, kind, zs, ts)
    rng = RngStream(cfg.seed, stream=0)
    adam = AdamState(net.params)
    ema = net.clone_params()
    report = TrainReport()

    def run_hooks(iteration):
        if not eval_hooks:
            return
        ema_net = ema_network(net, ema)
        report.eval_records.append((iteration, {
            name: float(value) for hook in eval_hooks
            for name, value in hook(iteration, net, ema_net).items()}))

    run_hooks(0)
    for it in range(1, cfg.iterations + 1):
        loss = dsm_step(net, dataset, cfg, rng, adam, ema, target)
        report.loss_curve.append((it, loss))
        if cfg.eval_interval > 0 and it % cfg.eval_interval == 0:
            run_hooks(it)
    report.ema_params = ema
    return report
