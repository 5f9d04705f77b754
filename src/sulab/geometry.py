"""Supervision-region geometry: shell membership, trajectory deviation, and
the worst-case pairwise shell overlap coefficient."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InvalidArgumentError, SingularTimeError
from .sampling import states_at
from .schedule import alpha_sigma


# sq_distance_blocks takes rows in blocks whose (rows, N, d) difference array
# holds at most this many elements (512 KB, so the passes over it stay in
# cache), or one row's (N, d) when larger
_BLOCK_ELEMENTS = 1 << 16


def sq_distance_blocks(a: np.ndarray, b: np.ndarray):
    """Squared Euclidean distances from the rows of a (B, d) to those of
    b (N, d), yielded as (rows, N) blocks in row order. Each comes from the
    direct difference, which keeps near-duplicates exact where the expanded
    |a|^2 - 2 a.b + |b|^2 cancels, summed as np.linalg.norm sums it."""
    block = max(1, _BLOCK_ELEMENTS // b.size)
    for k in range(0, max(a.shape[0], 1), block):  # (0, N) for no rows
        yield np.add.reduce(np.square(a[k:k + block, None, :] - b), axis=2)


@dataclass(frozen=True)
class RStar:
    r_star: float | np.ndarray  # arrays of shape (B,) for a batch of states
    i_star: int | np.ndarray


def in_supervision_region_batch(ds: Dataset, zs: np.ndarray, t, delta: float) -> np.ndarray:
    """Membership flags in the union of shells, with dist_i = |z - alpha x_i|,
    |dist_i - sigma sqrt(d)| <= sigma sqrt(d log(1/delta)),
    for a batch of queries at scalar or per-row t. Divided by sigma sqrt(d),
    that is |r_star - 1| <= sqrt(log(1/delta))."""
    if not (0.0 < delta < 1.0):
        raise InvalidArgumentError("delta must lie in (0, 1)")
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    ts = np.broadcast_to(np.asarray(t, dtype=float), (zs.shape[0],))
    out = np.empty(zs.shape[0], dtype=bool)
    for tv in np.unique(ts):
        rows = np.flatnonzero(ts == tv)
        out[rows] = (np.abs(r_star(ds, zs[rows], tv).r_star - 1.0)
                     <= np.sqrt(np.log(1.0 / delta)))
    return out


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
    centers = a * ds.points
    r = np.concatenate([np.sqrt(sq) for sq in sq_distance_blocks(zs, centers)])
    r /= s * np.sqrt(ds.dim)
    i = np.argmin(np.abs(r - 1.0), axis=1)
    r = r[np.arange(zs.shape[0]), i]
    return RStar(float(r[0]), int(i[0])) if z.ndim == 1 else RStar(r, i)


def rstar_by_t(ds: Dataset, trajs, t_grid) -> list:
    """(t, r* (B,) of every recorded trajectory's state at t) for each t."""
    return [(float(t), r_star(ds, zs, float(t)).r_star)
            for t, zs in zip(t_grid, states_at(trajs, t_grid))]


def bhattacharyya_overlap(ds: Dataset, t: float, class_filter: int | None = None) -> float:
    """Worst-case pairwise overlap of mixture components:
    max over i != j of exp(-alpha^2 |x_i - x_j|^2 / (8 sigma^2))."""
    pts = ds.points if class_filter is None else ds.points[ds.class_indices(class_filter)]
    n = pts.shape[0]
    if n < 2:
        raise InvalidArgumentError("overlap needs at least two points")
    a, s = map(float, alpha_sigma(t))
    if s <= 0.0:
        raise SingularTimeError(f"overlap undefined at t={t} (sigma=0)")
    sq = (
        np.einsum("ij,ij->i", pts, pts)[:, None]
        - 2.0 * pts @ pts.T
        + np.einsum("ij,ij->i", pts, pts)[None, :]
    )
    np.fill_diagonal(sq, np.inf)
    min_sq = max(float(sq.min()), 0.0)  # expansion can go slightly negative on duplicates
    return float(np.exp(-(a * a) * min_sq / (8.0 * s * s)))
