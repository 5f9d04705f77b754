"""Forward interpolant and conversions among score / velocity / x-prediction.

Only the linear interpolant alpha(t) = 1 - t, sigma(t) = t is built; the
Schedule type is an enum-style class so other interpolants can slot in later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SingularTimeError

SCORE = "score"
VELOCITY = "velocity"
XPRED = "x-pred"
PREDICTION_KINDS = (SCORE, VELOCITY, XPRED)


class LinearSchedule:
    """alpha(t) = 1 - t, sigma(t) = t on t in [0, 1]."""

    kind = "linear"

    @staticmethod
    def alpha(t):
        return 1.0 - np.asarray(t, dtype=float)

    @staticmethod
    def sigma(t):
        return np.asarray(t, dtype=float) + 0.0

    @staticmethod
    def alpha_prime(t):
        return np.full_like(np.asarray(t, dtype=float), -1.0)

    @staticmethod
    def sigma_prime(t):
        return np.full_like(np.asarray(t, dtype=float), 1.0)


@dataclass(frozen=True)
class Prediction:
    """A model output tagged with its parameterization."""

    kind: str
    value: np.ndarray

    def __post_init__(self):
        if self.kind not in PREDICTION_KINDS:
            raise InvalidArgumentError(f"unknown prediction kind {self.kind!r}")
        v = np.asarray(self.value, dtype=float)
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("prediction value contains non-finite entries")
        object.__setattr__(self, "value", v)


def forward_process(x, eps, t, schedule=LinearSchedule) -> np.ndarray:
    """z_t = alpha_t * x + sigma_t * eps. Broadcasts over leading batch axes."""
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x.shape != eps.shape:
        raise InvalidArgumentError("x and eps must have the same shape")
    t = np.asarray(t, dtype=float)
    a = schedule.alpha(t)
    s = schedule.sigma(t)
    if t.ndim > 0:
        a = a.reshape(t.shape + (1,) * (x.ndim - t.ndim))
        s = s.reshape(t.shape + (1,) * (x.ndim - t.ndim))
    return a * x + s * eps


def convert_value(value, kind: str, target: str, z, t) -> np.ndarray:
    """Reparameterize a prediction through its linear relations at (z, t).

    Under the linear schedule:
        v = -t/(1-t) * s - z/(1-t)
        x = t^2/(1-t) * s + z/(1-t)
    Defined for t in (0, 1); t is a scalar or one value per row of a (B, d)
    batch. Uses score as the common intermediate.
    """
    if kind not in PREDICTION_KINDS or target not in PREDICTION_KINDS:
        raise InvalidArgumentError("unknown prediction kind")
    value = np.asarray(value, dtype=float)
    z = np.asarray(z, dtype=float)
    if kind == target:
        return value
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 < t) & (t < 1.0)):
        raise SingularTimeError(f"conversion undefined at t={t}")
    if t.ndim:
        t = t[:, None]
    # to score
    if kind == SCORE:
        s = value
    elif kind == VELOCITY:
        s = -((1.0 - t) * value + z) / t
    else:  # XPRED
        s = ((1.0 - t) * value - z) / (t * t)
    # from score
    if target == SCORE:
        return s
    if target == VELOCITY:
        return -(t / (1.0 - t)) * s - z / (1.0 - t)
    return (t * t / (1.0 - t)) * s + z / (1.0 - t)


def convert(p: Prediction, z, t: float, target: str) -> Prediction:
    """Prediction-typed wrapper around :func:`convert_value`."""
    return Prediction(target, convert_value(p.value, p.kind, target, z, t))


def marginal_gaussian_score(z, t, schedule=LinearSchedule) -> np.ndarray:
    """Exact marginal score of the forward process when p_data = N(0, I):
    the marginal at time t is N(0, (alpha_t^2 + sigma_t^2) I), so the score is
    -z / (alpha_t^2 + sigma_t^2). t is a scalar or one value per row of z."""
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise InvalidArgumentError("t must lie in [0, 1]")
    a, s = schedule.alpha(t), schedule.sigma(t)
    var = a * a + s * s
    return -np.asarray(z, dtype=float) / (var[:, None] if t.ndim else var)
