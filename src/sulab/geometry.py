"""Supervision-region geometry: shell membership, trajectory deviation, and
the worst-case pairwise shell overlap coefficient."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InvalidArgumentError, SingularTimeError
from .schedule import alpha_sigma


@dataclass(frozen=True)
class RStar:
    r_star: float
    i_star: int


def in_supervision_region_batch(ds: Dataset, zs: np.ndarray, t, delta: float) -> np.ndarray:
    """Membership flags in the union of shells, with dist_i = |z - alpha x_i|,
    |dist_i - sigma sqrt(d)| <= sigma sqrt(d log(1/delta)),
    for a batch of queries at scalar or per-row t."""
    if not (0.0 < delta < 1.0):
        raise InvalidArgumentError("delta must lie in (0, 1)")
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    ts = np.broadcast_to(np.asarray(t, dtype=float), (zs.shape[0],))
    out = np.empty(zs.shape[0], dtype=bool)
    d = ds.dim
    log_term = np.sqrt(d * np.log(1.0 / delta))
    for tv in np.unique(ts):
        rows = np.flatnonzero(ts == tv)
        a, s = map(float, alpha_sigma(tv))
        if s <= 0.0:
            raise SingularTimeError("t=0")
        dist = np.linalg.norm(zs[rows][:, None, :] - a * ds.points[None, :, :], axis=2)
        res = np.abs(dist - s * np.sqrt(d)).min(axis=1)
        out[rows] = res <= s * log_term
    return out


def r_star(ds: Dataset, z, t: float) -> RStar:
    """Nearest-shell-normalized deviation: r_i = |z - alpha x_i| / (sigma sqrt(d)),
    r_star = r at the index whose r is closest to 1 (ties to lowest index)."""
    z = np.asarray(z, dtype=float)
    a, s = map(float, alpha_sigma(t))
    if s <= 0.0:
        raise SingularTimeError(f"r_star undefined at t={t} (sigma=0)")
    r = np.linalg.norm(z[None, :] - a * ds.points, axis=1) / (s * np.sqrt(ds.dim))
    i = int(np.argmin(np.abs(r - 1.0)))
    return RStar(float(r[i]), i)


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
