"""Exact empirical score of a finite training set.

The smoothed training density at time t is a uniform Gaussian mixture with
means alpha_t * x_i and shared isotropic variance v = sigma_t^2 +
(alpha_t std)^2, where std is each point's own spread, 0 for a training set.
Its score is a softmax-weighted pull toward every one of the scaled training
points. Up to -|z|^2 / (2 v), which is the same for every i and so drops out
of the softmax, the logit -|z - alpha x_i|^2 / (2 v) is one product of the
augmented query [z alpha / v, -alpha^2 / (2 v)] with the augmented point
[x_i, |x_i|^2]. Each row's largest logit is subtracted before the exp, so
arbitrarily separated points stay finite. The same weights give the score
and foe's clean points; a restricted mixture, such as one class's, is the
oracle of a subset dataset.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .errors import InvalidArgumentError, SingularTimeError
from .geometry import BLOCK_ELEMENTS, sq_distance_blocks
from .schedule import alpha_sigma

# Rows per product. Over the oracle calls of one bench oracle-memorize
# sampling (N = 1,024, d = 16, 1 BLAS thread), 32 rows were as fast as any
# height from 8 to 64, and over twice as fast as one product per row.
_ROW_BLOCK = 32


def _augmented(points: np.ndarray) -> np.ndarray:
    """The contiguous (d + 1, N) columns [x_i, |x_i|^2] of points (N, d)."""
    return np.vstack([points.T, np.einsum("ij,ij->i", points, points)])


# Shifted logits are raised to this floor before the exp. Below about -708
# the exp underflows to subnormals or 0, which slows both the exp and the
# products that read its weights; exp(-600) ~ 1e-261 vanishes beside a row's
# largest weight, 1, in any sum of order one.
_LOGIT_FLOOR = -600.0


def _shifted_exp(zs: np.ndarray, aug: np.ndarray, a, v, height=None) -> np.ndarray:
    """(height, N) exp(max(logit - row max, _LOGIT_FLOOR)) of zs (B, d)
    against aug, with a and v (B, 1), from one matrix product. The augmented
    query is written in place into one (height, d + 1) array; height defaults
    to B, and rows past B are zero queries, whose weights are all 1."""
    c = a / v
    q = np.zeros((height or len(zs), zs.shape[1] + 1))
    np.multiply(zs, c, out=q[:len(zs), :-1])
    q[:len(zs), -1:] = -0.5 * a * c
    e = q @ aug
    e -= e.max(axis=1, keepdims=True)
    np.maximum(e, _LOGIT_FLOOR, out=e)
    return np.exp(e, out=e)


class EmpiricalScoreOracle:
    """Exact score of the Gaussian-smoothed training set, over all its
    points. The mixture of a class, or of any other part of a training set,
    is the oracle of that part: EmpiricalScoreOracle(ds.subset(idx)). With
    std > 0 it is the population that mixes N(x_i, std^2 I) uniformly:
    gaussian's, N(0, I), is the oracle of one point at 0 with std 1."""

    def __init__(self, dataset: Dataset, std: float = 0.0):
        self.dim = dataset.dim
        self._points = dataset.points
        self._aug = _augmented(self._points)
        self._std = std

    def _alpha_var(self, t):
        """(alpha_t, v) in t's shape. Refuses t outside [0, 1], NaN too, and
        v = 0 (t = 0 at std 0)."""
        t = np.asarray(t, dtype=float)
        inside = (0.0 <= t) & (t <= 1.0)
        if not inside.all():
            raise InvalidArgumentError(f"t={t.flat[np.argmin(inside)]} lies outside [0, 1]")
        a, s = alpha_sigma(t)
        v = s * s + (a * self._std) ** 2
        if not v.all():
            raise SingularTimeError("mixture score undefined at t=0 (variance 0)")
        return a, v

    def score_batch(self, zs: np.ndarray, t) -> np.ndarray:
        """(1/v) * (-z + alpha * sum_i w_i x_i) over a batch of queries,
        with t a scalar or an array of one value or one per row. The means are
        (e @ X) / sum(e) from the unnormalized weights e, in row blocks of one
        fixed height, _ROW_BLOCK rows or fewer so that no block passes
        BLOCK_ELEMENTS weights; no (B, N) array is built. The queries of a
        short last block are zero-padded: every product then has one shape,
        so a row's bits depend neither on its neighbours nor on the batch
        size."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        if np.ndim(t) and np.size(t) not in (1, len(zs)):
            raise InvalidArgumentError(f"t has {np.size(t)} values for {len(zs)} rows")
        a, v = (np.broadcast_to(np.ravel(x), len(zs))[:, None]
                for x in self._alpha_var(t))
        height = min(_ROW_BLOCK, max(1, BLOCK_ELEMENTS // len(self._points)))
        means = np.empty_like(zs)
        for k in range(0, len(zs), height):
            rows = slice(k, k + height)
            z = zs[rows]
            e = _shifted_exp(z, self._aug, a[rows], v[rows], height)
            means[rows] = (e @ self._points / e.sum(axis=1, keepdims=True))[:len(z)]
        return (a * means - zs) / v

    def draw(self, zs: np.ndarray, ts: np.ndarray, rng) -> np.ndarray:
        """foe's clean points: one point per row of zs (B, d), at one t per
        row, drawn from the mixture's posterior. Row j takes the first point
        whose running sum of shifted exps reaches u_j times the row total, one
        rng.uniform u_j per row. One whole-batch product, not score_batch's
        32-row blocks (8-19% slower on foe runs); a row's bits depend on its batch."""
        a, v = self._alpha_var(ts)
        e = _shifted_exp(zs, self._aug, a[:, None], v[:, None])
        cdf = np.cumsum(e, axis=1, out=e)
        u = rng.uniform(size=zs.shape[0])
        return self._points[(cdf < (u * cdf[:, -1])[:, None]).sum(axis=1)]

    def collapsed_score(self, z, t: float) -> tuple[np.ndarray, int]:
        """Single-nearest-component approximation: (-z + alpha * x_i) / v
        and i, its dataset's argmin of |z - alpha x_i| (ties to the lowest)."""
        z = np.asarray(z, dtype=float)
        a, v = map(float, self._alpha_var(t))
        sq, = next(sq_distance_blocks(z[None, :], a * self._aug[:-1]))
        i = int(np.argmin(sq))  # np.argmin returns the first minimum
        return (-z + a * self._points[i]) / v, i


def naive_empirical_score(dataset: Dataset, z, t: float) -> np.ndarray:
    """Direct-summation reference: unstabilized mixture-score formula.

    Independent of the oracle's log-space path; used as a correctness check on
    small, benign instances only.
    """
    z = np.asarray(z, dtype=float)
    a, s = map(float, alpha_sigma(t))
    if s <= 0.0:
        raise SingularTimeError("t=0")
    w = np.array(
        [np.exp(-np.sum((z - a * x) ** 2) / (2 * s * s)) for x in dataset.points]
    )
    total = w.sum()
    if total == 0.0:
        raise FloatingPointError("naive formula underflowed")
    mean = (w / total) @ dataset.points
    return (-z + a * mean) / (s * s)
