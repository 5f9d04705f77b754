"""The parameterization: forward process, DSM targets and the one conversion
among score / velocity / x-prediction.

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
    """z_t = alpha_t * x + sigma_t * eps. Broadcasts over leading batch axes."""
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x.shape != eps.shape:
        raise InvalidArgumentError("x and eps must have the same shape")
    a, s = alpha_sigma(t)
    if s.ndim > 0:
        a = a.reshape(s.shape + (1,) * (x.ndim - s.ndim))
        s = s.reshape(s.shape + (1,) * (x.ndim - s.ndim))
    return a * x + s * eps


def dsm_target(kind: str, x: np.ndarray, eps: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The denoising regression target for z_t = forward_process(x, eps, ts)
    in closed form: score -eps/t, velocity eps - x (dz/dt), x-pred x."""
    if kind == SCORE:
        return -eps / ts[:, None]
    if kind == VELOCITY:
        return eps - x
    return x  # XPRED


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


def marginal_gaussian_score(z, t) -> np.ndarray:
    """Exact marginal score of the forward process when p_data = N(0, I):
    the marginal at time t is N(0, (alpha_t^2 + sigma_t^2) I), so the score is
    -z / (alpha_t^2 + sigma_t^2). t is a scalar or one value per row of z."""
    a, s = alpha_sigma(t)
    if not np.all((0.0 <= s) & (s <= 1.0)):
        raise InvalidArgumentError("t must lie in [0, 1]")
    var = a * a + s * s
    return -np.asarray(z, dtype=float) / (var[:, None] if s.ndim else var)
