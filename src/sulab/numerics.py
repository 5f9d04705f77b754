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
        64-bit master seed.
    stream : int
        Substream index; distinct indices give statistically independent
        streams under the same seed.
    """

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0 or stream < 0:
            raise InvalidArgumentError("seed and stream must be nonnegative")
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

    def permutation(self, n) -> np.ndarray:
        return self._gen.permutation(n)


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
    """Solve A x = b for symmetric positive definite A by Cholesky factorization."""
    from scipy import linalg  # here, so only a KRR fit loads it
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    if b.shape[0] != a.shape[0]:
        raise InvalidArgumentError("rhs length does not match matrix")
    try:
        factor = linalg.cho_factor(a, lower=True)
    except linalg.LinAlgError as exc:
        # scipy reports the failing leading minor in its message; expose the index.
        pivot = None
        msg = str(exc)
        for tok in msg.replace("-", " ").split():
            if tok.isdigit():
                pivot = int(tok)
                break
        raise RankDeficiencyError("matrix is not positive definite", pivot=pivot) from exc
    return linalg.cho_solve(factor, b)


_PROJECTIONS = 64  # random directions per sliced_wasserstein call


def sliced_wasserstein(a, b, seed: int = 0) -> float:
    """Mean 1-Wasserstein distance between _PROJECTIONS random 1D projections
    of two point sets.

    Uses the sorted-difference formula on each projection. Point sets may have
    different sizes; projected empirical CDFs are compared on a common quantile
    grid of size lcm-free max(len(a), len(b)) via interpolation.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise InvalidArgumentError("point sets must be nonempty")
    if a.shape[1] != b.shape[1]:
        raise InvalidArgumentError("dimension mismatch between point sets")
    d = a.shape[1]
    rng = RngStream(seed, stream=0)
    total = 0.0
    for _ in range(_PROJECTIONS):
        u = rng.normal(d)
        u /= np.linalg.norm(u)
        pa = np.sort(a @ u)
        pb = np.sort(b @ u)
        if len(pa) == len(pb):
            total += float(np.mean(np.abs(pa - pb)))
        else:
            q = (np.arange(max(len(pa), len(pb))) + 0.5) / max(len(pa), len(pb))
            qa = np.quantile(pa, q)
            qb = np.quantile(pb, q)
            total += float(np.mean(np.abs(qa - qb)))
    return total / _PROJECTIONS
