"""Shared numeric substrate: RNG streams, log-sum-exp, Cholesky solves,
sliced Wasserstein distance.

All randomness in the package flows through :class:`RngStream`, a thin wrapper
over numpy's counter-based Philox generator keyed by (seed, stream). The same
(seed, stream, draw sequence) reproduces bit-identical values on any platform.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, RankDeficiencyError


class RngStream:
    """Reproducible substream of a counter-based generator.

    Parameters
    ----------
    seed : int
        64-bit master seed, in [0, 2**64).
    stream : int
        Substream index, in [0, 2**64); distinct indices give statistically
        independent streams under the same seed.
    """

    def __init__(self, seed: int, stream: int = 0):
        for name, value in (("seed", seed), ("stream", stream)):
            if not 0 <= value < 2 ** 64:
                raise InvalidArgumentError(
                    f"{name} {value} outside [0, 2**64): it must fit a uint64")
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream], dtype=np.uint64))
        )

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size)

    def choice(self, n, size, replace=False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


def log_sum_exp(values) -> float:
    """log(sum(exp(v))) via max subtraction; never overflows for finite input."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise InvalidArgumentError("log_sum_exp of an empty list")
    m = np.max(v)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(v - m))))


def cholesky_solve(matrix, rhs) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A by Cholesky
    factorization; a matrix that is not raises RankDeficiencyError with the
    order of its first leading minor that is not positive definite."""
    from scipy import linalg  # here, so only a KRR fit loads it
    a = np.asarray_chkfinite(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    if b.shape[0] != a.shape[0]:
        raise InvalidArgumentError("rhs length does not match matrix")
    factor, info = linalg.lapack.dpotrf(a, lower=True, clean=False)
    if info > 0:
        raise RankDeficiencyError("matrix is not positive definite", pivot=info)
    return linalg.cho_solve((factor, True), b)


_PROJECTIONS = 64  # random directions per sliced_wasserstein call


def sliced_wasserstein(a, b, seed: int = 0) -> float:
    """Mean 1-Wasserstein distance between _PROJECTIONS random 1D projections
    of two point sets, all projected in one pass.

    Each projection compares the sorted projected points. Point sets of
    different sizes are compared at the quantiles of a common grid of
    max(len(a), len(b)) midpoints, interpolated linearly.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise InvalidArgumentError("point sets must be nonempty")
    if a.shape[1] != b.shape[1]:
        raise InvalidArgumentError("dimension mismatch between point sets")
    u = RngStream(seed, stream=0).normal((_PROJECTIONS, a.shape[1]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pa, pb = np.sort(a @ u.T, axis=0), np.sort(b @ u.T, axis=0)
    if len(pa) != len(pb):
        q = (np.arange(max(len(pa), len(pb))) + 0.5) / max(len(pa), len(pb))
        pa, pb = np.quantile(pa, q, axis=0), np.quantile(pb, q, axis=0)
    return float(np.mean(np.abs(pa - pb)))
