"""Exact empirical score of a finite training set.

The smoothed training density at time t is a uniform Gaussian mixture with
means alpha_t * x_i and shared isotropic variance sigma_t^2. Its score is a
softmax-weighted pull toward every one of the scaled training points; all
weight computations go through log-space max subtraction so arbitrarily
separated points stay finite.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .errors import EmptyClassError, SingularTimeError
from .geometry import sq_distance_blocks
from .schedule import alpha_sigma


def _rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b as one product per row: a row's bits then do not depend on
    the rows it is batched with, as they can in one matrix product."""
    return np.matmul(a[:, None, :], b)[:, 0]


def mixture_weights(zs: np.ndarray, points: np.ndarray, alphas,
                    sigmas) -> np.ndarray:
    """Responsibilities proportional to exp(-|z - alpha x_i|^2 / (2 sigma^2)),
    normalized over each row of zs (B, d).

    alphas and sigmas are scalars or per-row (B,) arrays. The squared
    distances use the expanded form |z|^2 - 2 alpha z.x + alpha^2 |x|^2, with
    no (B, N, d) tensor, and the softmax subtracts each row's largest logit.
    A scalar alpha takes one matrix product for the batch; per-row alphas
    take one product per row, so each row's result is independent of the
    other rows in its batch (geometry.expanded_sq_distances would change
    that order and move every oracle output). Returns the (B, N) weights.
    """
    a = np.reshape(alphas, (-1, 1))
    s = np.reshape(sigmas, (-1, 1))
    sq = zs @ points.T if np.ndim(alphas) == 0 else _rowwise_matmul(zs, points.T)
    sq *= -2.0 * a
    sq += np.einsum("ij,ij->i", zs, zs)[:, None]
    sq += (a * a) * np.einsum("ij,ij->i", points, points)[None, :]
    sq /= -(2.0 * s * s)
    sq -= sq.max(axis=1, keepdims=True)
    np.exp(sq, out=sq)
    sq /= sq.sum(axis=1, keepdims=True)
    return sq


class EmpiricalScoreOracle:
    """Exact score of the Gaussian-smoothed training set, over all its points.

    class_filter restricts the mixture to points of one class, renormalized
    uniformly within the class.
    """

    def __init__(self, dataset: Dataset, class_filter: int | None = None):
        if class_filter is not None:
            idx = dataset.class_indices(class_filter)
            if idx.size == 0:
                raise EmptyClassError(f"class {class_filter} has no members")
            self._indices = idx
        else:
            self._indices = np.arange(dataset.size)
        self.dim = dataset.dim
        self._points = dataset.points[self._indices]

    def score_batch(self, zs: np.ndarray, t) -> np.ndarray:
        """(1/sigma^2) * (-z + alpha * sum_i w_i x_i) over a batch of queries;
        t scalar or per-row array."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        if np.any(np.asarray(t) <= 0.0):
            raise SingularTimeError("empirical score undefined at t=0")
        a, s = alpha_sigma(t)
        points = self._points
        if np.ndim(t) == 0:
            # one t for the batch: scale the points once and take single
            # matrix products (only per-row t needs rows computed apart)
            points, a = a * points, 1.0
        w = mixture_weights(zs, points, a, s)
        if np.ndim(t) == 0:
            means = w @ points
        else:
            means = _rowwise_matmul(w, points)
        return (-zs + np.reshape(a, (-1, 1)) * means) / np.reshape(s * s, (-1, 1))

    def collapsed_score(self, z, t: float) -> tuple[np.ndarray, int]:
        """Single-nearest-component approximation: (-z + alpha * x_i) / sigma^2
        at the argmin of |z - alpha x_i|, ties broken by lowest index."""
        z = np.asarray(z, dtype=float)
        a, s = map(float, alpha_sigma(t))
        if s <= 0.0:
            raise SingularTimeError(f"collapsed score undefined at t={t} (sigma=0)")
        sq, = next(sq_distance_blocks(z[None, :], a * self._points))
        local = int(np.argmin(sq))  # np.argmin returns the first minimum
        i = int(self._indices[local])
        return (-z + a * self._points[local]) / (s * s), i


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
