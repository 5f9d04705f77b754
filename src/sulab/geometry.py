"""Supervision-region geometry: shell membership, trajectory deviation, and
the worst-case pairwise shell overlap coefficient."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InvalidArgumentError, SingularTimeError
from .sampling import states_at
from .schedule import alpha_sigma


# The row blocks of sq_distance_blocks' (rows, d, N) differences and of the
# oracle's per-row-t (rows, N) weights hold at most this many elements
# (512 KB, so the passes over them stay in cache), or one row's when larger
BLOCK_ELEMENTS = 1 << 16


def sq_distance_blocks(a: np.ndarray, b_t: np.ndarray):
    """Squared Euclidean distances from the rows of a (B, d) to the columns
    of b_t (d, N), yielded as (rows, N) blocks in row order, from the direct
    difference (exact on near-duplicates, where |a|^2 - 2 a.b + |b|^2
    cancels) summed over coordinates in order: a row's bits are its own."""
    block = max(1, BLOCK_ELEMENTS // b_t.size)
    for k in range(0, max(a.shape[0], 1), block):  # (0, N) for no rows
        diff = a[k:k + block, :, None] - b_t
        yield np.add.reduce(np.square(diff, out=diff), axis=1)


@dataclass(frozen=True)
class RStar:
    r_star: float | np.ndarray  # arrays of shape (B,) for a batch of states
    i_star: int | np.ndarray


def in_supervision_region_batch(ds: Dataset, zs: np.ndarray, t, delta: float) -> np.ndarray:
    """Membership flags in the union of shells, with dist_i = |z - alpha x_i|,
    |dist_i - sigma sqrt(d)| <= sigma sqrt(d log(1/delta)),
    for a batch of queries at one t. Divided by sigma sqrt(d), that is
    |r_star - 1| <= sqrt(log(1/delta))."""
    if not (0.0 < delta < 1.0):
        raise InvalidArgumentError("delta must lie in (0, 1)")
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    return np.abs(r_star(ds, zs, t).r_star - 1.0) <= np.sqrt(np.log(1.0 / delta))


def r_star(ds: Dataset, z, t: float) -> RStar:
    """Nearest-shell-normalized deviation: r_i = |z - alpha x_i| / (sigma sqrt(d)),
    r_star = r at the index whose r is closest to 1 (ties to lowest index).

    z is one state (d,), giving a float and an int, or a batch (B, d), giving
    arrays (B,)."""
    z = np.asarray(z, dtype=float)
    a, s = map(float, alpha_sigma(t))
    if s <= 0.0:
        raise SingularTimeError(f"r_star undefined at t={t} (sigma=0)")
    zs = np.atleast_2d(z)
    centers = a * ds.points_t
    r = np.concatenate([np.sqrt(sq) for sq in sq_distance_blocks(zs, centers)])
    r /= s * np.sqrt(ds.dim)
    i = np.argmin(np.abs(r - 1.0), axis=1)
    r = r[np.arange(zs.shape[0]), i]
    return RStar(float(r[0]), int(i[0])) if z.ndim == 1 else RStar(r, i)


def rstar_by_t(ds: Dataset, trajs, t_grid) -> list:
    """(t, r* (B,) of every recorded trajectory's state at t) for each t,
    reading the states one timestep at a time."""
    return [(t, r_star(ds, states_at(trajs, t), t).r_star)
            for t in map(float, t_grid)]


def bhattacharyya_overlap(ds: Dataset, t):
    """Worst-case pairwise overlap of ds's mixture components (a class's is
    that of ds.subset(ds.class_indices(c))): max over i != j of
    exp(-alpha^2 |x_i - x_j|^2 / (8 sigma^2)), at a scalar t (an np.float64)
    or over an array of timesteps (an array of their overlaps). The closest
    pair is found once, for every t."""
    if ds.size < 2:
        raise InvalidArgumentError("overlap needs at least two points")
    a, s = alpha_sigma(t)
    if np.any(s <= 0.0):
        raise SingularTimeError(f"overlap undefined at t={t} (sigma=0)")
    min_sq, k = np.inf, 0
    for sq in sq_distance_blocks(ds.points, ds.points_t):
        rows = np.arange(sq.shape[0])
        sq[rows, k + rows] = np.inf  # self-pairs
        min_sq = min(min_sq, float(sq.min()))
        k += sq.shape[0]
    return np.exp(-(a * a) * min_sq / (8.0 * s * s))
