"""Training losses and the optimizer loop.

One optimizer step, dsm_step, serves two losses, which differ only in the
input points and the clean point y that each input regresses onto:
  dsm - standard denoising regression on forward-process draws; y is the
        point x that made z_t,
  foe - region-decoupled importance-sampled loss: inputs come from the
        region subset's forward process, y is one point that the score
        subset's EmpiricalScoreOracle draws from its mixture's posterior.
train runs foe when it is given a subset pair and dsm otherwise. The target
is y converted from x-prediction into the network's prediction kind.
Timesteps are clamped to [t_min, 1 - t_min] to keep every conversion
finite. A step's forward and backward run in float32 (mixed precision,
Micikevicius et al. 2018). Parameters, gradients as returned, the Adam
moments and the EMA are each one flat float64 vector; one blocked pass per
step updates all of them but the gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .data import Dataset, SubsetPair, supervision_draws
from .empirical import EmpiricalScoreOracle
from .errors import InvalidArgumentError, NumericFailureError
from .models import MlpScoreNetwork
from .numerics import RngStream
from .schedule import XPRED, convert_value, forward_process


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 1000
    batch_size: int = 128
    lr: float = 1e-3
    ema_decay: float = 0.999
    class_dropout: float = 0.0
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
        if self.iterations < 0 or self.batch_size < 1:
            raise InvalidArgumentError("bad iterations or batch size")
        if self.eval_interval < 0:  # 0: no periodic evaluation
            raise InvalidArgumentError("eval_interval must be >= 0")
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
              cfg: TrainConfig, ema: np.ndarray | None = None) -> np.ndarray:
    """In-place bias-corrected Adam update of the flat params (no weight
    decay). Given ema, each of its slices then moves in place to
    decay * ema + (1 - decay) * params, right after that slice's update."""
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
        if ema is not None:
            e = ema[s]
            e *= cfg.ema_decay
            e += np.multiply(params[s], 1.0 - cfg.ema_decay, out=t)
    return params


def dsm_step(net: MlpScoreNetwork, ds: Dataset, cfg: TrainConfig, rng: RngStream,
             adam: AdamState, ema: np.ndarray | None = None,
             clean=None) -> float:
    """One optimizer step of either loss.

    Draws x from ds, noise and time (then class dropout onto the null
    token) and forms z_t. The clean point y is x, or clean(zs, ts, rng),
    which may draw last; the net regresses onto y converted from
    x-prediction into its prediction kind, in float32 arithmetic. Adam then
    updates the flat float64 parameters, and the EMA, when given, in the
    same pass.
    """
    x, eps, lab = supervision_draws(ds, cfg.batch_size, rng)
    ts = rng.uniform(cfg.t_min, 1.0 - cfg.t_min, cfg.batch_size)
    zs = forward_process(x, eps, ts)
    if lab is not None and cfg.class_dropout > 0.0:
        lab[rng.uniform(size=len(lab)) < cfg.class_dropout] = ds.num_classes
    y = x if clean is None else clean(zs, ts, rng)
    targets = convert_value(y, XPRED, net.prediction_kind, zs, ts)
    loss, grads = net.loss_and_grads(zs, ts, targets, lab, dtype=np.float32)
    if not np.isfinite(loss):
        raise NumericFailureError("non-finite training loss", iteration=adam.step + 1)
    adam_step(adam, net.flat, grads, cfg, ema)
    return loss


@dataclass
class TrainReport:
    """The loss curve and the final EMA; eval hooks keep their own rows."""
    loss_curve: list = dc_field(default_factory=list)   # (iteration, loss)
    ema_params: np.ndarray | None = None  # flat vector, as clone_params gives


def ema_network(net: MlpScoreNetwork, ema_params: np.ndarray) -> MlpScoreNetwork:
    """Clone of the network carrying the EMA parameter snapshot."""
    clone = MlpScoreNetwork(**net.descriptor())
    clone.set_params(ema_params)
    return clone


def train(net: MlpScoreNetwork, cfg: TrainConfig, dataset: Dataset,
          subset_pair: SubsetPair | None = None, eval_hooks=()) -> TrainReport:
    """Run cfg.iterations optimizer steps and invoke hooks at eval_interval.

    Without subset_pair the loss is dsm on dataset. With it the loss is foe:
    inputs from the pair's region subset of dataset, each regressing onto a
    clean point drawn by the oracle of its score subset. Hooks are callables
    (iteration, net, ema_net), called at iteration 0 and, unless
    eval_interval is 0, every eval_interval steps, with the live net and a
    snapshot of its EMA. They keep what they record; train ignores their
    return values. Deterministic for a fixed cfg.seed.
    """
    clean = None
    if subset_pair is not None:
        clean = EmpiricalScoreOracle(dataset.subset(subset_pair.score_idx)).draw
        dataset = dataset.subset(subset_pair.region_idx)
    rng = RngStream(cfg.seed, stream=0)
    adam = AdamState(net.params)
    ema = net.clone_params()
    report = TrainReport()

    def run_hooks(iteration):
        ema_net = ema_network(net, ema) if eval_hooks else None
        for hook in eval_hooks:
            hook(iteration, net, ema_net)

    run_hooks(0)
    for it in range(1, cfg.iterations + 1):
        loss = dsm_step(net, dataset, cfg, rng, adam, ema, clean)
        report.loss_curve.append((it, loss))
        if cfg.eval_interval > 0 and it % cfg.eval_interval == 0:
            run_hooks(it)
    report.ema_params = ema
    return report
