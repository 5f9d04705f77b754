"""Measurements: region-conditional Monte Carlo estimators, score errors,
supervision loss, conditional/unconditional gap curves, memorization metrics,
2D sample-quality classification, and the loss-to-quality line fit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, supervision_draws
from .errors import InvalidArgumentError, RankDeficiencyError
from .geometry import sq_distance_blocks
from .numerics import RngStream
from .schedule import SCORE, convert_value, forward_process
from .sampling import SolverConfig, integrate, states_at

SUPERVISION = "supervision"
EXTRAPOLATION = "extrapolation"
_T_MIN = 1e-3  # estimator timesteps are drawn on [_T_MIN, 1 - _T_MIN]


def velocity_weight(t):
    """Timestep weighting t^2 / (1 - t)^2: converts squared score error into
    squared velocity error under the linear schedule."""
    t = np.asarray(t, dtype=float)
    return (t * t) / ((1.0 - t) ** 2)


@dataclass(frozen=True)
class RegionEstimate:
    value: float
    curve: list  # (t, mean weighted value) per timestep
    stderr: float


@dataclass(frozen=True)
class QualityPoint:
    supervision_loss: float
    quality: float

    def __post_init__(self):
        if not (np.isfinite(self.supervision_loss) and np.isfinite(self.quality)):
            raise InvalidArgumentError("quality point must be finite")


def _region_inputs(region: str, ds: Dataset, field, n: int, ts: np.ndarray,
                   rng: RngStream, solver: SolverConfig, labels_for_traj=None):
    """Per-timestep query batches (T, n, d) for a region, plus per-sample
    labels or None: supervision, the forward-process states of n fixed
    supervision_draws from rng, varied only in timestep; extrapolation, the
    states at the same timesteps along n inference trajectories of field,
    integrated as one batch with labels_for_traj, trajectory i starting
    from the RNG stream (rng.seed, 1000 + i)."""
    if region == SUPERVISION:
        x, eps, labels = supervision_draws(ds, n, rng)
        return forward_process(x[None], eps[None], ts), labels
    if region != EXTRAPOLATION:
        raise InvalidArgumentError(f"unknown region {region!r}")
    if field is None:
        raise InvalidArgumentError("extrapolation region needs a field for trajectories")
    z0 = np.stack([RngStream(rng.seed, stream=1000 + i).normal(ds.dim)
                   for i in range(n)])
    _, trajs = integrate(field, z0, solver, record=True, label=labels_for_traj)
    return states_at(trajs, ts), labels_for_traj


def estimate_region(quantity, region: str, ds: Dataset, field=None,
                    n: int = 1000, timesteps: int = 100, seed: int = 0):
    """Monte Carlo estimate of a quantity over a region.

    quantity(zs, t) takes a batch (n, d) at a scalar timestep and returns n
    values, or an (m, n) array of m quantities over the same inputs, which
    gives a list of m RegionEstimates. T timesteps are drawn uniformly on the
    clamped range; each estimate is the plain mean over all n*T terms.
    Extrapolation trajectories come from the default solver. Sample i is the
    same (x, eps) pair, or the same trajectory, at every timestep, so the
    standard error comes from the n per-sample means.
    """
    if n < 1 or timesteps < 1:
        raise InvalidArgumentError("n and timesteps must be >= 1")
    rng = RngStream(seed, stream=0)
    ts = rng.uniform(_T_MIN, 1.0 - _T_MIN, timesteps)
    inputs, _ = _region_inputs(region, ds, field, n, ts,
                               RngStream(seed, stream=1), SolverConfig())
    vals = np.stack([np.asarray(quantity(inputs[j], float(t)), dtype=float)
                     for j, t in enumerate(ts)], axis=-2)  # ([m,] T, n)

    count = n * timesteps

    def summary(per_t):
        total = 0.0
        for v in per_t:
            total += float(np.sum(v))
        mean = total / count
        curve = [(float(t), float(np.mean(v))) for t, v in zip(ts, per_t)]
        return RegionEstimate(mean, curve,
                              float(np.std(per_t.mean(axis=0)) / np.sqrt(n)))

    return summary(vals) if vals.ndim == 2 else [summary(v) for v in vals]


def score_error(field, references, region: str, ds: Dataset, n: int = 1000,
                timesteps: int = 100, seed: int = 0) -> list:
    """Velocity-weighted squared score error of `field` against each of a
    list of reference fields, one estimate each, from one pass over the
    region inputs: per input, velocity_weight(t) * ||score(field) -
    score(reference)||^2, with the field evaluated once per batch.
    Extrapolation-region trajectories come from the field under test itself."""

    def q(zs, t):
        own = convert_value(field.evaluate_batch(zs, t), field.prediction_kind,
                            SCORE, zs, t)
        out = np.empty((len(references), zs.shape[0]))
        for row, ref in zip(out, references):
            diff = own - convert_value(ref.evaluate_batch(zs, t),
                                       ref.prediction_kind, SCORE, zs, t)
            row[:] = np.einsum("bj,bj->b", diff, diff)
        return velocity_weight(t) * out

    return estimate_region(q, region, ds, field=field, n=n,
                           timesteps=timesteps, seed=seed)


def supervision_loss(field, reference, ds: Dataset, n: int = 1000,
                     timesteps: int = 100, seed: int = 0) -> float:
    """The supervision-region, velocity-weighted score error scalar."""
    return score_error(field, [reference], SUPERVISION, ds, n=n,
                       timesteps=timesteps, seed=seed)[0].value


def cfg_gap_curve(cond_scores, uncond_scores, ds: Dataset, region: str,
                  t_grid, n: int = 200, seed: int = 0, field=None,
                  solver: SolverConfig | None = None) -> list:
    """Per-timestep distribution summaries of the conditional/unconditional gap.

    cond_scores(zs, t, labels) and uncond_scores(zs, t) must return scores.
    Supervision inputs are forward draws (each sample keeps its own class);
    extrapolation inputs are states along inference trajectories of field
    sampled with uniformly drawn class labels. Returns rows
    (t, median, p10, p90).
    """
    if ds.labels is None:
        raise InvalidArgumentError("cfg gap needs a labeled dataset")
    t_grid = np.asarray(t_grid, dtype=float)
    if n < 1 or np.any((t_grid <= 0.0) | (t_grid >= 1.0)):
        raise InvalidArgumentError("need n >= 1 and a t grid inside (0, 1)")
    rng = RngStream(seed, stream=0)
    labels = (rng.integers(0, ds.num_classes, n) if region == EXTRAPOLATION
              else None)
    inputs, labels = _region_inputs(region, ds, field, n, t_grid, rng,
                                    solver or SolverConfig(), labels)
    rows = []
    for j, t in enumerate(t_grid):
        gaps = np.linalg.norm(
            cond_scores(inputs[j], float(t), labels)
            - uncond_scores(inputs[j], float(t)), axis=1)
        rows.append((float(t), float(np.median(gaps)),
                     float(np.percentile(gaps, 10)),
                     float(np.percentile(gaps, 90))))
    return rows


def calibrated_l2_values(samples, subset_points, n: int) -> np.ndarray:
    """Per sample: the nearest squared distance over the mean of the n
    nearest squared distances (0 where that mean is 0); near 0 flags an
    unusually close (memorized) sample.

    Squared distances concentrate only in high dimension, so the metric has a
    floor: against a 32-point subset of the two-class mixture (separation 8,
    unit std) with n=8, the fraction of novel population draws below 1/3 is
    75-85% at d=2, 8% at d=8 and 0.5% at d=16. A memorization ratio
    only means something well above that floor.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    pts = np.atleast_2d(np.asarray(subset_points, dtype=float))
    if n < 1 or n > pts.shape[0]:
        raise InvalidArgumentError(f"n={n} outside [1, {pts.shape[0]}]")
    out = []
    for sq in sq_distance_blocks(samples, pts):
        nearest = np.sort(sq, axis=1)[:, :n]
        denom = np.mean(nearest, axis=1)
        out.append(np.divide(nearest[:, 0], denom, out=np.zeros_like(denom),
                             where=denom != 0.0))
    return np.concatenate(out)


def memorization_ratio(values, threshold: float = 1 / 3) -> float:
    """Fraction of calibrated_l2_values output below the threshold."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise InvalidArgumentError("empty samples")
    if not (0.0 < threshold < 1.0):
        raise InvalidArgumentError("threshold must lie in (0, 1)")
    return float(np.mean(values < threshold))


def regress_to_origin_ratio(pairs, dataset_points) -> float:
    """Fraction of (origin index, denoised output) pairs whose output's nearest
    dataset point is its origin."""
    pairs = list(pairs)
    if not pairs:
        raise InvalidArgumentError("empty pairs")
    pts = np.atleast_2d(np.asarray(dataset_points, dtype=float))
    origins = np.array([int(i) for i, _ in pairs])
    outs = np.array([np.asarray(out, dtype=float) for _, out in pairs])
    nearest = np.concatenate([np.argmin(sq, axis=1)
                              for sq in sq_distance_blocks(outs, pts)])
    return float(np.mean(nearest == origins))


def pat_quality(samples) -> tuple[float, float, float]:
    """(bad_fraction, good_fraction, other_fraction) of 2D samples against the
    four-point toy; fractions sum to 1.

    bad: on the short Euclidean bridge strictly between the two inner points,
    |y| < 0.1 and |x| < 0.15 (the width stops short of the points so
    memorized samples do not count). good: radius within 0.15 of the
    [0.2, 1.0] radial band, not bad.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[1] != 2:
        raise InvalidArgumentError("pat quality requires 2D samples")
    x, y = samples[:, 0], samples[:, 1]
    r = np.hypot(x, y)
    bad = (np.abs(y) < 0.1) & (np.abs(x) < 0.15)
    in_band = (r >= 0.2 - 0.15) & (r <= 1.0 + 0.15)
    good = in_band & ~bad
    bad_f = float(np.mean(bad))
    good_f = float(np.mean(good))
    return bad_f, good_f, 1.0 - bad_f - good_f


def fit_quality_line(points) -> tuple[float, float, float]:
    """Ordinary least squares of quality on supervision loss.

    Returns (slope, intercept, rms residual)."""
    points = list(points)
    if len(points) < 2:
        raise InvalidArgumentError("need at least two quality points")
    xs = np.array([p.supervision_loss for p in points])
    ys = np.array([p.quality for p in points])
    if np.ptp(xs) == 0.0:
        raise RankDeficiencyError("degenerate abscissa: all losses identical")
    a = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ys - (slope * xs + intercept)
    return slope, intercept, float(np.sqrt(np.mean(resid * resid)))
