"""Finite training sets: construction, file I/O, and score/region subsetting.

Text format: one point per line, comma-separated floats, optionally followed by
an integer class column when a sidecar descriptor (same path + ``.meta``)
declares ``labels=last``. Raw format: magic ``SUDS``, u32 version, u32 d,
u64 N, N*d little-endian f64, then N u32 labels if present.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def points_t(self) -> np.ndarray:
        """The contiguous (d, N) transpose of points."""
        return np.ascontiguousarray(self.points.T)

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

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(self.points[idx],
                       None if self.labels is None else self.labels[idx])


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


def make_gaussian_dataset(dim: int, n_points: int, seed: int) -> Dataset:
    """n_points i.i.d. standard-normal points in `dim` dimensions; reproducible
    per seed."""
    if dim < 1 or n_points < 1:
        raise InvalidArgumentError("dim and n_points must be >= 1")
    rng = RngStream(seed, stream=0)
    return Dataset(rng.normal((n_points, dim)))


def make_pat_toy_dataset() -> Dataset:
    """The four-point 2D toy set on the x-axis used by the perception experiments."""
    pts = np.array([[-1.0, 0.0], [-0.2, 0.0], [0.2, 0.0], [1.0, 0.0]])
    return Dataset(pts)


def make_class_mixture(
    dim: int,
    n_per_class: int,
    seed: int,
    separation: float = 8.0,
    cluster_std: float = 1.0,
    num_classes: int = 2,
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
    return Dataset(np.vstack(blocks), np.concatenate(labels))


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
    """Draw nested score/region subsets, stratified by class (an unlabeled
    dataset is one class).

    score_idx: n_score indices without replacement, each class contributing
    an (as even as its size permits) share. region_idx adds n_region -
    n_score more, drawn the same way from the points not yet taken.
    """
    n = ds.size
    if not (1 <= n_score <= n_region <= n):
        raise InvalidArgumentError(
            f"need 1 <= n_score ({n_score}) <= n_region ({n_region}) <= N ({n})"
        )
    rng = RngStream(seed, stream=0)
    classes = [np.arange(n)] if ds.labels is None else \
        [ds.class_indices(c) for c in range(ds.num_classes)]
    score = _stratified_from_pools(classes, n_score, rng)
    region = score
    if n_region > n_score:  # each class's members not yet taken, in order
        pools = [np.setdiff1d(pool, score) for pool in classes]
        region = np.concatenate(
            [score, _stratified_from_pools(pools, n_region - n_score, rng)])
    return SubsetPair(score, region)


def _stratified_from_pools(pools, quota: int, rng: RngStream) -> np.ndarray:
    # Round r offers one slot to each class with more than r points, in class
    # order; the first `quota` slots set each class's count. The caller's size
    # check keeps quota within the pools' total.
    k = len(pools)
    slots = np.sort(np.concatenate(
        [np.arange(len(pool)) * k + c for c, pool in enumerate(pools)]))
    counts = np.bincount(slots[:quota] % k, minlength=k)
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


def load_points(path, fmt: str = "csv") -> Dataset:
    """Load a dataset written by :func:`save_points`; points or labels that
    no Dataset holds raise FormatError naming the file."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    if fmt not in ("csv", "raw-f64"):
        raise InvalidArgumentError(f"unknown format {fmt!r}")
    try:
        return _load_csv(path) if fmt == "csv" else _load_raw(path)
    except InvalidArgumentError as exc:
        raise FormatError(f"{path}: {exc}") from None
    except OSError as exc:  # names the file: the data or its .meta sidecar
        raise FormatError(f"cannot read {path}: {exc}") from None


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_csv(path: Path) -> Dataset:
    labeled = False
    meta = Path(str(path) + ".meta")
    if meta.exists():
        for line in _read_text(meta).splitlines():
            line = line.strip()
            if line == "labels=last":
                labeled = True
            elif line and not line.startswith("#"):
                raise FormatError(f"unknown sidecar directive {line!r}")
    rows, labels = [], []
    width = None
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
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
                labels.append(np.int64(int(fields[-1])))
            else:
                rows.append([float(v) for v in fields])
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"cannot parse row: {exc}", line=lineno) from exc
    if not rows:
        raise FormatError(f"empty dataset file: {path}")
    return Dataset(np.array(rows), np.array(labels) if labeled else None)


def _load_raw(path: Path) -> Dataset:
    blob = path.read_bytes()
    if len(blob) < 20 or blob[:4] != _RAW_MAGIC:
        raise FormatError(f"bad magic in {path}")
    version, d, n = struct.unpack("<IIQ", blob[4:20])
    if version != _RAW_VERSION:
        raise FormatError(f"unsupported raw version {version}")
    if d < 1 or n < 1:
        raise FormatError(f"no points in raw file {path}")
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
    return Dataset(pts, labels)
