"""Finite training sets: construction, file I/O, and score/region subsetting.

Text format: one point per line, comma-separated floats, optionally followed by
an integer class column when a sidecar descriptor (same path + ``.meta``)
declares ``labels=last``. Raw format: magic ``SUDS``, u32 version, u32 d,
u64 N, N*d little-endian f64, then N u32 labels if present.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidArgumentError
from .numerics import RngStream

_RAW_MAGIC = b"SUDS"
_RAW_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """An immutable N x d point cloud with optional class labels."""

    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidArgumentError("points must be a nonempty N x d matrix")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("points contain non-finite values")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (pts.shape[0],):
                raise InvalidArgumentError("labels length must equal N")
            if np.any(lab < 0):
                raise InvalidArgumentError("labels must be nonnegative")
            lab = lab.copy()
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def num_classes(self) -> int:
        return 0 if self.labels is None else int(self.labels.max()) + 1

    def class_indices(self, label: int) -> np.ndarray:
        if self.labels is None:
            raise InvalidArgumentError("dataset has no labels")
        return np.flatnonzero(self.labels == label)

    def subset(self, idx, name: str = "") -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(
            self.points[idx],
            None if self.labels is None else self.labels[idx],
            name or self.name,
        )


@dataclass(frozen=True)
class SubsetPair:
    """Nested index sets: score_idx defines the score target, region_idx the
    supervision region. score_idx must be a subset of region_idx."""

    score_idx: np.ndarray
    region_idx: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.score_idx, dtype=np.int64)
        r = np.asarray(self.region_idx, dtype=np.int64)
        if s.size == 0 or r.size == 0:
            raise InvalidArgumentError("subsets must be nonempty")
        if len(set(s.tolist())) != s.size or len(set(r.tolist())) != r.size:
            raise InvalidArgumentError("subsets must not contain duplicates")
        if not set(s.tolist()) <= set(r.tolist()):
            raise InvalidArgumentError("score_idx must nest inside region_idx")
        object.__setattr__(self, "score_idx", np.sort(s))
        object.__setattr__(self, "region_idx", np.sort(r))


def make_gaussian_dataset(dim: int, n: int, seed: int, name: str = "gaussian") -> Dataset:
    """n i.i.d. standard-normal points in `dim` dimensions; reproducible per seed."""
    if dim < 1 or n < 1:
        raise InvalidArgumentError("dim and n must be >= 1")
    rng = RngStream(seed, stream=0)
    return Dataset(rng.normal((n, dim)), name=name)


def make_pat_toy_dataset() -> Dataset:
    """The four-point 2D toy set on the x-axis used by the perception experiments."""
    pts = np.array([[-1.0, 0.0], [-0.2, 0.0], [0.2, 0.0], [1.0, 0.0]])
    return Dataset(pts, name="pat-toy")


def make_class_mixture(
    dim: int,
    n_per_class: int,
    seed: int,
    separation: float = 8.0,
    cluster_std: float = 1.0,
    num_classes: int = 2,
    name: str = "class-mixture",
) -> Dataset:
    """Labeled Gaussian mixture: class c is N(m_c, cluster_std^2 I) with means
    spread `separation` apart along the first axis."""
    if dim < 1 or n_per_class < 1 or num_classes < 1:
        raise InvalidArgumentError("dim, n_per_class, num_classes must be >= 1")
    rng = RngStream(seed, stream=0)
    offsets = (np.arange(num_classes) - (num_classes - 1) / 2.0) * separation
    blocks, labels = [], []
    for c in range(num_classes):
        mean = np.zeros(dim)
        mean[0] = offsets[c]
        blocks.append(mean + cluster_std * rng.normal((n_per_class, dim)))
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    return Dataset(np.vstack(blocks), np.concatenate(labels), name=name)


def supervision_draws(ds: Dataset, n: int, rng: RngStream):
    """(x, eps, labels) for n forward-process draws over ds, drawn from rng:
    training points x (n, d) with replacement, then noise eps (n, d); labels
    are a copy of the points' classes, or None. The states z_t = alpha x +
    sigma eps are the supervision region: the inputs training regresses on.
    """
    idx = rng.integers(0, ds.size, n)
    eps = rng.normal((n, ds.dim))
    return ds.points[idx], eps, None if ds.labels is None else ds.labels[idx]


def split_score_region(ds: Dataset, n_score: int, n_region: int, seed: int) -> SubsetPair:
    """Draw nested score/region subsets.

    score_idx: n_score indices uniformly without replacement. region_idx adds
    n_region - n_score more from the complement. When the dataset is labeled,
    both draws are stratified so each class contributes an (as even as
    possible) share of the quota.
    """
    n = ds.size
    if not (1 <= n_score <= n_region <= n):
        raise InvalidArgumentError(
            f"need 1 <= n_score ({n_score}) <= n_region ({n_region}) <= N ({n})"
        )
    rng = RngStream(seed, stream=0)
    if ds.labels is None:
        perm = rng.permutation(n)
        score = perm[:n_score]
        region = perm[:n_region]
    else:
        score = _stratified_from_pools(
            [ds.class_indices(c) for c in range(ds.num_classes)], n_score, rng)
        extra_quota = n_region - n_score
        if extra_quota > 0:
            taken = set(score.tolist())
            pool_parts = []
            for c in range(ds.num_classes):
                members = [i for i in ds.class_indices(c).tolist() if i not in taken]
                pool_parts.append(np.array(members, dtype=np.int64))
            extra = _stratified_from_pools(pool_parts, extra_quota, rng)
            region = np.concatenate([score, extra])
        else:
            region = score
    return SubsetPair(score, region)


def _stratified_from_pools(pools, quota: int, rng: RngStream) -> np.ndarray:
    # Fill per-class quotas as evenly as the pools permit, round-robin for the
    # remainder, in class order for determinism.
    counts = [0] * len(pools)
    remaining = quota
    capacity = [len(p) for p in pools]
    while remaining > 0:
        progressed = False
        for c in range(len(pools)):
            if remaining == 0:
                break
            if counts[c] < capacity[c]:
                counts[c] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise InvalidArgumentError("quota exceeds available points")
    picks = []
    for c, pool in enumerate(pools):
        if counts[c] > 0:
            sel = rng.choice(len(pool), size=counts[c], replace=False)
            picks.append(pool[np.sort(sel)])
    return np.concatenate(picks)


def save_points(ds: Dataset, path, fmt: str = "csv") -> None:
    """Write a dataset in the text or raw format (see module docstring)."""
    path = Path(path)
    if fmt == "csv":
        with open(path, "w") as fh:
            for i in range(ds.size):
                row = ",".join(repr(float(v)) for v in ds.points[i])
                if ds.labels is not None:
                    row += f",{int(ds.labels[i])}"
                fh.write(row + "\n")
        if ds.labels is not None:
            Path(str(path) + ".meta").write_text("labels=last\n")
    elif fmt == "raw-f64":
        with open(path, "wb") as fh:
            fh.write(_RAW_MAGIC)
            fh.write(struct.pack("<IIQ", _RAW_VERSION, ds.dim, ds.size))
            fh.write(np.ascontiguousarray(ds.points, dtype="<f8").tobytes())
            if ds.labels is not None:
                fh.write(np.ascontiguousarray(ds.labels, dtype="<u4").tobytes())
    else:
        raise InvalidArgumentError(f"unknown format {fmt!r}")


def load_points(path, fmt: str = "csv", name: str = "") -> Dataset:
    """Load a dataset written by :func:`save_points`."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    if fmt == "csv":
        return _load_csv(path, name or path.stem)
    if fmt == "raw-f64":
        return _load_raw(path, name or path.stem)
    raise InvalidArgumentError(f"unknown format {fmt!r}")


def _load_csv(path: Path, name: str) -> Dataset:
    labeled = False
    meta = Path(str(path) + ".meta")
    if meta.exists():
        for line in meta.read_text().splitlines():
            line = line.strip()
            if line == "labels=last":
                labeled = True
            elif line and not line.startswith("#"):
                raise FormatError(f"unknown sidecar directive {line!r}")
    rows, labels = [], []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise FormatError("inconsistent row width", line=lineno)
            try:
                if labeled:
                    rows.append([float(v) for v in fields[:-1]])
                    labels.append(int(fields[-1]))
                else:
                    rows.append([float(v) for v in fields])
            except ValueError as exc:
                raise FormatError(f"cannot parse row: {exc}", line=lineno) from exc
    if not rows:
        raise FormatError(f"empty dataset file: {path}")
    return Dataset(np.array(rows), np.array(labels) if labeled else None, name)


def _load_raw(path: Path, name: str) -> Dataset:
    blob = path.read_bytes()
    if len(blob) < 20 or blob[:4] != _RAW_MAGIC:
        raise FormatError(f"bad magic in {path}")
    version, d, n = struct.unpack("<IIQ", blob[4:20])
    if version != _RAW_VERSION:
        raise FormatError(f"unsupported raw version {version}")
    need = 20 + 8 * d * n
    if len(blob) < need:
        raise FormatError(f"truncated raw file {path}")
    pts = np.frombuffer(blob[20:need], dtype="<f8").reshape(n, d)
    labels = None
    rest = blob[need:]
    if rest:
        if len(rest) != 4 * n:
            raise FormatError(f"trailing bytes are not a label block in {path}")
        labels = np.frombuffer(rest, dtype="<u4").astype(np.int64)
    return Dataset(pts, labels, name)
