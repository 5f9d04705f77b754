"""The parameterization: forward process, the one conversion among score /
velocity / x-prediction (training targets too) and the velocity weight.

Only the linear interpolant alpha(t) = 1 - t, sigma(t) = t is built, and
this module is the only one that knows it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, SingularTimeError

SCORE = "score"
VELOCITY = "velocity"
XPRED = "x-pred"
PREDICTION_KINDS = (SCORE, VELOCITY, XPRED)


def alpha_sigma(t):
    """(alpha_t, sigma_t) = (1 - t, t) as float arrays; t scalar or per-row."""
    t = np.asarray(t, dtype=float)
    return 1.0 - t, t


def forward_process(x, eps, t) -> np.ndarray:
    """z_t = alpha_t * x + sigma_t * eps; t is a scalar or one value per row
    of a (B, d) batch."""
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x.shape != eps.shape:
        raise InvalidArgumentError("x and eps must have the same shape")
    a, s = alpha_sigma(t)
    if s.ndim:
        a, s = a[:, None], s[:, None]
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


def velocity_weight(t):
    """Timestep weighting t^2 / (1 - t)^2: converts squared score error into
    squared velocity error under the linear schedule."""
    t = np.asarray(t, dtype=float)
    return (t * t) / ((1.0 - t) ** 2)
