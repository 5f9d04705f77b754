"""Trainable and fitted score fields.

MlpScoreNetwork is a small fully-connected net with hand-written exact
backpropagation (no autodiff dependency), smooth GELU activations, sinusoidal
time features, an optional trainable class embedding with a null-class token,
and three input maps: identity, polar, and radial-equivariant. The KRR
denoiser fits a Gaussian-kernel ridge regression from noisy features to clean
targets. Both (plus oracle and analytic wrappers) share the ScoreField
interface: evaluate_batch(zs, ts, labels) -> predictions in prediction_kind.
"""

from __future__ import annotations

import json
import struct

import numpy as np
from scipy.special import erf

from .data import Dataset
from .errors import FormatError, InvalidArgumentError, RankDeficiencyError
from .numerics import RngStream, cholesky_solve
from .schedule import (PREDICTION_KINDS, SCORE, VELOCITY, XPRED,
                       LinearSchedule, marginal_gaussian_score)

IDENTITY = "identity"
POLAR = "polar"
RADIAL_EQUIVARIANT = "radial-equivariant"
INPUT_MAPS = (IDENTITY, POLAR, RADIAL_EQUIVARIANT)

_CKPT_MAGIC = b"SUCK"
_CKPT_VERSION = 1

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def _gelu_grad(x):
    phi = 0.5 * (1.0 + erf(x / _SQRT2))
    return phi + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def polar_features(z) -> np.ndarray:
    """(r, cos theta, sin theta) for a 2D point; (0, 1, 0) at the origin."""
    z = np.asarray(z, dtype=float)
    if z.shape != (2,):
        raise InvalidArgumentError("polar features require a 2-vector")
    r = float(np.linalg.norm(z))
    if r == 0.0:
        return np.array([0.0, 1.0, 0.0])
    return np.array([r, z[0] / r, z[1] / r])


def _polar_features_batch(zs: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(zs, axis=1)
    out = np.zeros((zs.shape[0], 3))
    out[:, 0] = r
    safe = r > 0.0
    out[safe, 1] = zs[safe, 0] / r[safe]
    out[safe, 2] = zs[safe, 1] / r[safe]
    out[~safe, 1] = 1.0
    return out


def _time_features(ts: np.ndarray, freqs: int) -> np.ndarray:
    # raw t plus sin/cos at geometrically spaced frequencies
    omega = np.pi * (2.0 ** np.arange(freqs))
    arg = ts[:, None] * omega[None, :]
    return np.concatenate([ts[:, None], np.sin(arg), np.cos(arg)], axis=1)


class MlpScoreNetwork:
    """Fully-connected score network with exact hand-rolled gradients.

    hidden_layers hidden layers of width `width`, GELU activations, and a
    zero-initialized linear head (so the initial output is identically zero).
    Class-conditional nets reserve embedding row `num_classes` as the null
    token; evaluating with label None uses that row.
    """

    def __init__(self, dim: int, width: int = 256, hidden_layers: int = 4,
                 prediction_kind: str = VELOCITY, input_map: str = IDENTITY,
                 time_freqs: int = 16, num_classes: int = 0,
                 class_emb_dim: int = 0, seed: int = 0):
        if prediction_kind not in PREDICTION_KINDS:
            raise InvalidArgumentError(f"unknown prediction kind {prediction_kind!r}")
        if input_map not in INPUT_MAPS:
            raise InvalidArgumentError(f"unknown input map {input_map!r}")
        if input_map in (POLAR, RADIAL_EQUIVARIANT) and dim != 2:
            raise InvalidArgumentError(f"{input_map} input map requires dim=2")
        if num_classes > 0 and class_emb_dim <= 0:
            class_emb_dim = 8
        self.dim = dim
        self.width = width
        self.hidden_layers = hidden_layers
        self.prediction_kind = prediction_kind
        self.input_map = input_map
        self.time_freqs = time_freqs
        self.num_classes = num_classes
        self.class_emb_dim = class_emb_dim if num_classes > 0 else 0

        feat = {IDENTITY: dim, POLAR: 3, RADIAL_EQUIVARIANT: 1}[input_map]
        self.in_dim = feat + (1 + 2 * time_freqs) + self.class_emb_dim
        self.out_dim = 2 if input_map == RADIAL_EQUIVARIANT else dim

        rng = RngStream(seed, stream=0)
        sizes = [self.in_dim] + [width] * hidden_layers + [self.out_dim]
        self.params: list[np.ndarray] = []
        for li in range(len(sizes) - 1):
            fan_in = sizes[li]
            if li == len(sizes) - 2:
                w = np.zeros((sizes[li + 1], fan_in))
            else:
                bound = 1.0 / np.sqrt(fan_in)
                w = rng.uniform(-bound, bound, (sizes[li + 1], fan_in))
            self.params.append(w)
            self.params.append(np.zeros(sizes[li + 1]))
        if self.class_emb_dim > 0:
            self.params.append(0.1 * rng.normal((num_classes + 1, self.class_emb_dim)))
        self._n_layers = len(sizes) - 1

    # -- feature assembly ---------------------------------------------------

    def _null_labels(self, n: int) -> np.ndarray:
        return np.full(n, self.num_classes, dtype=np.int64)

    def _resolve_labels(self, labels, n: int) -> np.ndarray | None:
        if self.class_emb_dim == 0:
            return None
        if labels is None:
            return self._null_labels(n)
        lab = np.broadcast_to(np.asarray(labels, dtype=np.int64), (n,)).copy()
        if np.any((lab < 0) | (lab > self.num_classes)):
            raise InvalidArgumentError("label outside [0, num_classes]")
        return lab

    def _features(self, zs: np.ndarray, ts: np.ndarray, labels) -> np.ndarray:
        if self.input_map == IDENTITY:
            zf = zs
        elif self.input_map == POLAR:
            zf = _polar_features_batch(zs)
        else:
            zf = np.linalg.norm(zs, axis=1)[:, None]
        parts = [zf, _time_features(ts, self.time_freqs)]
        if self.class_emb_dim > 0:
            emb = self.params[-1]
            parts.append(emb[labels])
        return np.concatenate(parts, axis=1)

    def _frame(self, zs: np.ndarray) -> np.ndarray:
        """Local polar frame (e_r, e_perp) per sample; canonical axes at the origin."""
        r = np.linalg.norm(zs, axis=1)
        frame = np.zeros((zs.shape[0], 2, 2))
        safe = r > 0.0
        er = np.zeros_like(zs)
        er[safe] = zs[safe] / r[safe, None]
        er[~safe, 0] = 1.0
        frame[:, 0, :] = er
        frame[:, 1, 0] = -er[:, 1]
        frame[:, 1, 1] = er[:, 0]
        return frame

    # -- forward / backward -------------------------------------------------

    def _forward(self, feats: np.ndarray):
        h = feats
        pre, post, phis = [], [feats], []
        for li in range(self._n_layers):
            w, b = self.params[2 * li], self.params[2 * li + 1]
            a = h @ w.T + b
            if li < self._n_layers - 1:
                pre.append(a)
                phi = 0.5 * (1.0 + erf(a / _SQRT2))
                phis.append(phi)
                h = a * phi
                post.append(h)
            else:
                h = a
        return h, pre, post, phis

    def evaluate_batch(self, zs, ts, labels=None) -> np.ndarray:
        """Batched prediction in self.prediction_kind."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (zs.shape[0],))
        lab = self._resolve_labels(labels, zs.shape[0])
        out = self._forward(self._features(zs, ts, lab))[0]
        if self.input_map == RADIAL_EQUIVARIANT:
            out = np.einsum("bk,bkj->bj", out, self._frame(zs))
        return out

    def evaluate(self, z, t, label=None) -> np.ndarray:
        """One row of evaluate_batch (the single-query probe of bench/probes.py)."""
        return self.evaluate_batch(np.asarray(z)[None, :], float(t),
                                   None if label is None else [label])[0]

    def loss_and_grads(self, zs, ts, targets, labels=None):
        """Mean squared-error loss over the batch and exact parameter gradients.

        loss = mean_b || prediction_b - target_b ||^2.
        Returns (loss, grads) with grads aligned to self.params.
        """
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(targets))):
            raise InvalidArgumentError("non-finite values in batch")
        n = zs.shape[0]
        if n == 0:
            raise InvalidArgumentError("empty batch")
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (n,))
        lab = self._resolve_labels(labels, n)
        feats = self._features(zs, ts, lab)
        out, pre, post, phis = self._forward(feats)
        if self.input_map == RADIAL_EQUIVARIANT:
            frame = self._frame(zs)
            pred = np.einsum("bk,bkj->bj", out, frame)
        else:
            pred = out
        diff = pred - targets
        loss = float(np.mean(np.sum(diff * diff, axis=1)))
        dpred = 2.0 * diff / n
        if self.input_map == RADIAL_EQUIVARIANT:
            dout = np.einsum("bj,bkj->bk", dpred, frame)
        else:
            dout = dpred

        grads: list[np.ndarray] = [None] * len(self.params)  # type: ignore[list-item]
        delta = dout
        for li in range(self._n_layers - 1, -1, -1):
            w = self.params[2 * li]
            grads[2 * li] = delta.T @ post[li]
            grads[2 * li + 1] = delta.sum(axis=0)
            if li > 0:
                a = pre[li - 1]
                # d gelu(a)/da = phi(a) + a * N(a; 0, 1), reusing phi from forward.
                act_grad = phis[li - 1] + a * (_INV_SQRT_2PI * np.exp(-0.5 * a * a))
                delta = (delta @ w) * act_grad
            else:
                dfeats = delta @ w
        if self.class_emb_dim > 0:
            grads[-1] = np.zeros_like(self.params[-1])
            demb = dfeats[:, -self.class_emb_dim:]
            np.add.at(grads[-1], lab, demb)
        return loss, grads

    def clone_params(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params]

    def set_params(self, params: list[np.ndarray]) -> None:
        if len(params) != len(self.params):
            raise InvalidArgumentError("parameter list length mismatch")
        self.params = [np.asarray(p, dtype=float).copy() for p in params]

    # -- checkpoint format --------------------------------------------------

    def descriptor(self) -> dict:
        return {
            "dim": self.dim, "width": self.width,
            "hidden_layers": self.hidden_layers,
            "prediction_kind": self.prediction_kind,
            "input_map": self.input_map, "time_freqs": self.time_freqs,
            "num_classes": self.num_classes, "class_emb_dim": self.class_emb_dim,
        }

    def save(self, path, ema_params: list[np.ndarray] | None = None) -> None:
        desc = self.descriptor()
        desc["has_ema"] = ema_params is not None
        blob = json.dumps(desc, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
            fh.write(blob)
            for p in self.params:
                fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())
            if ema_params is not None:
                for p in ema_params:
                    fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path):
        """Returns (network, ema_params-or-None)."""
        with open(path, "rb") as fh:
            if fh.read(4) != _CKPT_MAGIC:
                raise FormatError(f"bad checkpoint magic in {path}")
            version, blob_len = struct.unpack("<II", fh.read(8))
            if version != _CKPT_VERSION:
                raise FormatError(f"unsupported checkpoint version {version}")
            desc = json.loads(fh.read(blob_len).decode())
            has_ema = desc.pop("has_ema", False)
            net = cls(**{k: v for k, v in desc.items()})
            for i, p in enumerate(net.params):
                raw = fh.read(8 * p.size)
                net.params[i] = np.frombuffer(raw, dtype="<f8").reshape(p.shape).copy()
            ema = None
            if has_ema:
                ema = []
                for p in net.params:
                    raw = fh.read(8 * p.size)
                    ema.append(np.frombuffer(raw, dtype="<f8").reshape(p.shape).copy())
        return net, ema


class KrrDenoiser:
    """Gaussian-kernel ridge regression from noisy features to clean targets."""

    def __init__(self, inputs, targets, gamma: float, ridge: float, coeffs):
        self.inputs = np.asarray(inputs, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        self.gamma = float(gamma)
        self.ridge = float(ridge)
        self.coeffs = np.asarray(coeffs, dtype=float)

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = (
            np.einsum("ij,ij->i", a, a)[:, None]
            - 2.0 * a @ b.T
            + np.einsum("ij,ij->i", b, b)[None, :]
        )
        return np.exp(-self.gamma * np.maximum(sq, 0.0))

    def predict(self, query) -> np.ndarray:
        return self.predict_batch(np.asarray(query, dtype=float)[None, :])[0]

    def predict_batch(self, queries) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if queries.shape[1] != self.inputs.shape[1]:
            raise InvalidArgumentError("query dimension mismatch")
        return self._kernel(queries, self.inputs) @ self.coeffs

    def residual(self) -> float:
        """Relative residual of the solved dual system."""
        k = self._kernel(self.inputs, self.inputs) + self.ridge * np.eye(len(self.inputs))
        num = np.linalg.norm(k @ self.coeffs - self.targets)
        return float(num / np.linalg.norm(self.targets))


def krr_fit(features, targets, gamma: float, ridge: float) -> KrrDenoiser:
    """Solve (K + ridge I) C = targets with k(a, b) = exp(-gamma |a-b|^2)."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if features.shape[0] != targets.shape[0] or features.shape[0] < 1:
        raise InvalidArgumentError("need matching, nonempty features and targets")
    if gamma <= 0 or ridge < 0:
        raise InvalidArgumentError("gamma must be > 0 and ridge >= 0")
    stub = KrrDenoiser(features, targets, gamma, ridge, np.zeros_like(targets))
    k = stub._kernel(features, features) + ridge * np.eye(features.shape[0])
    try:
        coeffs = cholesky_solve(k, targets)
    except RankDeficiencyError:
        raise
    return KrrDenoiser(features, targets, gamma, ridge, coeffs)


# -- ScoreField wrappers ----------------------------------------------------


class OracleField:
    """ScoreField facade over an EmpiricalScoreOracle (score parameterization)."""

    prediction_kind = SCORE

    def __init__(self, oracle):
        self.oracle = oracle
        self.dim = oracle.dim

    def evaluate_batch(self, zs, ts, labels=None):
        return self.oracle.score_batch(zs, ts)


class GaussianGroundTruthField:
    """Exact marginal score of the forward process under p_data = N(0, I)."""

    prediction_kind = SCORE

    def __init__(self, dim: int, schedule=LinearSchedule):
        self.dim = dim
        self.schedule = schedule

    def evaluate_batch(self, zs, ts, labels=None):
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        return marginal_gaussian_score(
            zs, np.broadcast_to(np.asarray(ts, dtype=float), zs.shape[:1]),
            self.schedule)


class KrrScoreField:
    """ScoreField facade over a KRR denoiser (x-prediction parameterization).

    Features are input_map(z) with t appended, scaled by time_scale.
    """

    prediction_kind = XPRED

    def __init__(self, denoiser: KrrDenoiser, input_map: str = IDENTITY,
                 time_scale: float = 1.0, dim: int = 2):
        if input_map not in (IDENTITY, POLAR):
            raise InvalidArgumentError("KRR field supports identity or polar features")
        self.denoiser = denoiser
        self.input_map = input_map
        self.time_scale = float(time_scale)
        self.dim = dim

    def features(self, zs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (zs.shape[0],))
        zf = zs if self.input_map == IDENTITY else _polar_features_batch(zs)
        return np.concatenate([zf, (self.time_scale * ts)[:, None]], axis=1)

    def evaluate_batch(self, zs, ts, labels=None):
        return self.denoiser.predict_batch(self.features(zs, ts))


def fit_krr_denoiser_field(ds: Dataset, n_draws: int, gamma: float, ridge: float,
                           seed: int, input_map: str = IDENTITY,
                           time_scale: float = 1.0,
                           t_min: float = 1e-3) -> KrrScoreField:
    """Build KRR training pairs from the forward process over ds and fit.

    Draws n_draws (x, eps, t) with t stratified over [t_min, 1 - t_min];
    features are input_map(z_t) with scaled t appended, targets are clean x.
    """
    if n_draws < 1:
        raise InvalidArgumentError("n_draws must be >= 1")
    rng = RngStream(seed, stream=0)
    idx = rng.integers(0, ds.size, n_draws)
    eps = rng.normal((n_draws, ds.dim))
    # stratified t: one per draw, jittered within equal bins
    bins = (np.arange(n_draws) + rng.uniform(size=n_draws)) / n_draws
    ts = t_min + (1.0 - 2.0 * t_min) * bins
    x = ds.points[idx]
    zs = (1.0 - ts)[:, None] * x + ts[:, None] * eps
    field = KrrScoreField(
        KrrDenoiser(np.zeros((1, 1)), np.zeros((1, 1)), gamma, ridge, np.zeros((1, 1))),
        input_map=input_map, time_scale=time_scale, dim=ds.dim,
    )
    feats = field.features(zs, ts)
    field.denoiser = krr_fit(feats, x, gamma, ridge)
    return field
