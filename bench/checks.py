"""Correctness checks on each workload's outputs.

Every check recomputes what it tests with numpy (and scipy's erf), apart
from the program: the MLP forward from the checkpoint bytes, the empirical and
Gaussian scores, calibrated-l2 and r-star. Only the training sets are
regenerated with `sulab.data`, because they are the program's inputs, not
its outputs. Each check returns a list of `Failure`s; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import erf


@dataclass(frozen=True)
class Failure:
    check: str
    detail: str


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# artifacts

def check_manifest(art: Path) -> list[Failure]:
    """Every artifact the manifest lists exists with the listed SHA-256, and
    every file beside the manifest is listed."""
    manifest = json.loads((art / "manifest.json").read_text())
    listed = {a["name"]: a["sha256"] for a in manifest["artifacts"]}
    out = []
    for name, digest in sorted(listed.items()):
        path = art / name
        if not path.is_file():
            out.append(Failure("manifest_digests", f"{name} is missing"))
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            out.append(Failure("manifest_digests", f"{name} digest mismatch"))
    present = {p.name for p in art.iterdir() if p.name != "manifest.json"}
    for name in sorted(present - set(listed)):
        out.append(Failure("manifest_digests", f"{name} is not in the manifest"))
    return out


# ---------------------------------------------------------------------------
# gaussian-train

def read_checkpoint(path: Path):
    """(descriptor, params, ema_params or None) from the checkpoint bytes:
    b"SUCK", <u32 version, u32 header length>, JSON descriptor, then each
    parameter as little-endian float64, raw parameters first."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"SUCK":
        raise ValueError(f"{path}: bad magic")
    _, hlen = struct.unpack("<II", blob[4:12])
    desc = json.loads(blob[12:12 + hlen])
    if desc["input_map"] != "identity" or desc["num_classes"] != 0:
        raise ValueError("only unconditional identity-map nets are read here")
    sizes = ([desc["dim"] + 1 + 2 * desc["time_freqs"]]
             + [desc["width"]] * desc["hidden_layers"] + [desc["dim"]])
    shapes = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        shapes += [(fan_out, fan_in), (fan_out,)]
    flat = np.frombuffer(blob, dtype="<f8", offset=12 + hlen)
    count = sum(int(np.prod(s)) for s in shapes)
    sets = []
    for base in (0, count) if desc.get("has_ema") else (0,):
        params, pos = [], base
        for shape in shapes:
            size = int(np.prod(shape))
            params.append(flat[pos:pos + size].reshape(shape))
            pos += size
        sets.append(params)
    if flat.size != count * len(sets):
        raise ValueError(f"{path}: {flat.size} values, expected {count * len(sets)}")
    return desc, sets[0], sets[1] if len(sets) > 1 else None


def mlp_score(desc: dict, params: list, zs: np.ndarray, t: float) -> np.ndarray:
    """The checkpointed net's prediction at (zs, t), converted to a score."""
    omega = np.pi * 2.0 ** np.arange(desc["time_freqs"])
    tf = np.concatenate([[t], np.sin(t * omega), np.cos(t * omega)])
    h = np.concatenate([zs, np.broadcast_to(tf, (zs.shape[0], tf.size))], axis=1)
    n_layers = len(params) // 2
    for li in range(n_layers):
        a = h @ params[2 * li].T + params[2 * li + 1]
        h = a * 0.5 * (1.0 + erf(a / math.sqrt(2.0))) if li < n_layers - 1 else a
    kind = desc["prediction_kind"]
    if kind == "velocity":   # v = eps - x with z = (1-t) x + t eps
        return -((1.0 - t) * h + zs) / t
    if kind == "x-pred":
        return ((1.0 - t) * h - zs) / (t * t)
    return h


def empirical_score(points: np.ndarray, zs: np.ndarray, t: float) -> np.ndarray:
    """Score of the uniform mixture of N((1-t) x_i, t^2 I)."""
    scaled = (1.0 - t) * points
    sq = ((zs[:, None, :] - scaled[None, :, :]) ** 2).sum(axis=2)
    logits = -sq / (2.0 * t * t)
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    return (w @ scaled - zs) / (t * t)


def gaussian_score(zs: np.ndarray, t: float) -> np.ndarray:
    """Score of the forward marginal N(0, ((1-t)^2 + t^2) I) of N(0, I) data."""
    return -zs / ((1.0 - t) ** 2 + t * t)


def supervision_errors(score_fn, points: np.ndarray, seed: int, n: int = 300,
                       timesteps: int = 30, t_min: float = 1e-3):
    """Velocity-weighted squared error of score_fn(zs, t) against the
    empirical and the Gaussian score, over forward draws from the training
    points: (error vs empirical, error vs Gaussian)."""
    rng = np.random.default_rng([seed, 77])
    x = points[rng.integers(0, points.shape[0], n)]
    eps = rng.standard_normal(x.shape)
    errs = np.zeros(2)
    for t in rng.uniform(t_min, 1.0 - t_min, timesteps):
        zs = (1.0 - t) * x + t * eps
        s = score_fn(zs, t)
        w = t * t / (1.0 - t) ** 2
        for k, ref in enumerate((empirical_score(points, zs, t),
                                 gaussian_score(zs, t))):
            errs[k] += w * np.mean(np.sum((s - ref) ** 2, axis=1))
    return tuple(errs / timesteps)


def check_sup_error_ordering(score_fn, points, seed) -> list[Failure]:
    emp, gt = supervision_errors(score_fn, points, seed)
    if not emp < gt:
        return [Failure("fits_empirical_score",
                        f"error vs empirical {emp:.4g} >= vs Gaussian {gt:.4g}")]
    return []


def check_error_falls(art: Path) -> list[Failure]:
    header, rows = read_csv(art / "error_curves.csv")
    col = header.index("sup_vs_empirical")
    first, last = float(rows[0][col]), float(rows[-1][col])
    if rows[0][0] != "0" or not last < 0.5 * first:
        return [Failure("sup_error_halves",
                        f"sup_vs_empirical {first:.4g} -> {last:.4g}")]
    return []


def check_gaussian(inputs: dict, art: Path) -> list[Failure]:
    from sulab.data import make_gaussian_dataset
    d = inputs["dataset"]
    points = make_gaussian_dataset(d["dim"], d["n_points"], seed=inputs["seed"]).points
    desc, params, _ = read_checkpoint(art / "model.ckpt")
    return (check_error_falls(art)
            + check_sup_error_ordering(
                lambda zs, t: mlp_score(desc, params, zs, t), points,
                inputs["seed"])
            + check_manifest(art))


# ---------------------------------------------------------------------------
# foe-sweep

def calibrated_l2(samples: np.ndarray, subset: np.ndarray, n: int) -> np.ndarray:
    """Per sample: nearest squared distance over the mean of the n nearest."""
    sq = ((samples[:, None, :] - subset[None, :, :]) ** 2).sum(axis=2)
    nearest = np.sort(sq, axis=1)[:, :n]
    denom = nearest.mean(axis=1)
    return np.divide(nearest[:, 0], denom, out=np.zeros_like(denom),
                     where=denom > 0)


def check_foe_ratios(sweep: list[list[str]], samples: dict, subsets: dict,
                     calibration_n: int) -> list[Failure]:
    """sweep: foe_sweep.csv rows; samples / subsets: factor -> points."""
    out = []
    ratio_at_third = {}
    for factor, _, thr, value in sweep:
        if thr == "mean_calibrated":
            continue
        f, thr_v, value = int(factor), float(thr), float(value)
        cal = calibrated_l2(samples[f], subsets[f], calibration_n)
        mine = float(np.mean(cal < thr_v))
        if abs(mine - value) > 1.0 / len(cal) + 1e-12:
            out.append(Failure("ratios_reproduced",
                               f"factor {f} threshold {thr}: emitted {value}, "
                               f"recomputed {mine}"))
        if math.isclose(thr_v, 1 / 3):
            ratio_at_third[f] = mine
    lo, hi = min(ratio_at_third), max(ratio_at_third)
    if not ratio_at_third[hi] > ratio_at_third[lo]:
        out.append(Failure("larger_region_memorizes_more",
                           f"ratio at 1/3: factor {lo} {ratio_at_third[lo]}, "
                           f"factor {hi} {ratio_at_third[hi]}"))
    return out


def check_foe(inputs: dict, art: Path) -> list[Failure]:
    from sulab.data import make_class_mixture, split_score_region
    d, seed = inputs["dataset"], inputs["seed"]
    ds = make_class_mixture(d["dim"], d["n_per_class"], seed=seed,
                            separation=d["separation"],
                            cluster_std=d["cluster_std"],
                            num_classes=d["num_classes"])
    samples, subsets = {}, {}
    for f in inputs["region_factors"]:
        pair = split_score_region(ds, inputs["n_score"], inputs["n_score"] * f,
                                  seed=seed)
        subsets[f] = ds.points[pair.score_idx]
        _, rows = read_csv(art / f"samples_factor{f}.csv")
        samples[f] = np.array(rows, dtype=float)
    _, sweep = read_csv(art / "foe_sweep.csv")
    return (check_foe_ratios(sweep, samples, subsets, inputs["calibration_n"])
            + check_manifest(art))


# ---------------------------------------------------------------------------
# oracle-memorize

def poisson_limit(lam: float, points: int, p: float = 1e-6) -> int:
    """Smallest k with points * P(Poisson(lam) >= k) < p."""
    k, term, cdf = 0, math.exp(-lam), 0.0
    while points * (1.0 - cdf) >= p:
        cdf += term
        k += 1
        term *= lam / k
    return k


def check_memorized(samples: np.ndarray, points: np.ndarray) -> list[Failure]:
    """The exact empirical flow ends on training points, each point drawing
    roughly its 1/N share."""
    n, d = samples.shape
    sq = ((samples[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    nearest = sq.argmin(axis=1)
    dist = np.sqrt(sq[np.arange(n), nearest])
    out = []
    on = float(np.mean(dist <= 1e-2 * math.sqrt(d)))
    if on < 0.95:
        out.append(Failure("samples_on_training_points",
                           f"{on:.3f} of samples within 1e-2*sqrt(d)"))
    counts = np.bincount(nearest, minlength=points.shape[0])
    limit = poisson_limit(n / points.shape[0], points.shape[0])
    if counts.max() >= limit:
        out.append(Failure("no_point_dominates",
                           f"point {int(counts.argmax())} drew {int(counts.max())}"
                           f" of {n} samples (limit {limit - 1})"))
    return out


def rstar(points: np.ndarray, z: np.ndarray, t: float) -> float:
    r = np.sqrt(((z[None, :] - (1.0 - t) * points) ** 2).sum(axis=1)) / (
        t * math.sqrt(points.shape[1]))
    return float(r[np.argmin(np.abs(r - 1.0))])


def check_rstar(points, times, states, offsets, t_grid, emitted) -> list[Failure]:
    """Recompute r* along each recorded trajectory (states linearly
    interpolated in t) and compare with the emitted geometry.r_star values."""
    worst = 0.0
    for i in range(len(offsets) - 1):
        ts = times[offsets[i]:offsets[i + 1]][::-1]   # increasing
        zs = states[offsets[i]:offsets[i + 1]][::-1]
        for j, t in enumerate(t_grid):
            z = np.array([np.interp(t, ts, zs[:, k]) for k in range(zs.shape[1])])
            mine = rstar(points, z, t)
            worst = max(worst, abs(mine - emitted[i, j]) / max(abs(mine), 1e-12))
    if worst > 1e-8:
        return [Failure("rstar_reproduced", f"largest relative gap {worst:.3g}")]
    return []


def check_oracle(inputs: dict, art: Path) -> list[Failure]:
    from sulab.data import make_gaussian_dataset
    points = make_gaussian_dataset(inputs["dim"], inputs["n_points"],
                                   seed=inputs["seed"]).points
    traj = np.load(art / "trajectories.npz")
    return (check_memorized(np.load(art / "samples.npy"), points)
            + check_rstar(points, traj["times"], traj["states"],
                          traj["offsets"], inputs["t_grid"],
                          np.load(art / "rstar.npy")))
