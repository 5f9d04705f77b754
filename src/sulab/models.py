"""Trainable and fitted score fields.

MlpScoreNetwork is a small fully-connected net with hand-written exact
backpropagation (no autodiff), tanh-form GELU activations, sinusoidal
time features, an optional trainable class embedding with a null-class token,
and three input maps: identity, polar, and radial-equivariant. The KRR
score field fits a Gaussian-kernel ridge regression from noisy features to
clean targets. Both, and OracleField over a mixture oracle (the empirical
score, or N(0, I)'s as the one-point std-1 oracle), share the ScoreField
interface: evaluate_batch(zs, ts, labels) -> predictions in prediction_kind.
The parameters and checkpoints are float64, and so is every evaluation.
loss_and_grads runs its forward and backward in the dtype it is given,
float32 for training steps, and returns its loss and gradient in float64.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .data import Dataset, supervision_draws
from .errors import FormatError, InvalidArgumentError
from .numerics import RngStream, cholesky_solve
from .schedule import (PREDICTION_KINDS, SCORE, VELOCITY, XPRED,
                       forward_process)

IDENTITY = "identity"
POLAR = "polar"
RADIAL_EQUIVARIANT = "radial-equivariant"
INPUT_MAPS = (IDENTITY, POLAR, RADIAL_EQUIVARIANT)

_CKPT_MAGIC = b"SUCK"
_CKPT_VERSION = 2  # version 1 nets used the exact GELU
# header keys and their JSON types: the descriptor plus has_ema (always true)
_CKPT_KEYS = {"dim": int, "width": int, "hidden_layers": int,
              "prediction_kind": str, "input_map": str, "time_freqs": int,
              "num_classes": int, "class_emb_dim": int, "has_ema": bool}

# tanh-form GELU (Hendrycks & Gimpel 2016): a * phi(a), with
# phi(a) = (1 + tanh(_GELU_C * (a + _GELU_K * a^3))) / 2
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive C-order views of the flat vector, one per shape."""
    out, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[start:start + size].reshape(shape))
        start += size
    return out


def _layout(dim, width, hidden_layers, input_map, time_freqs, num_classes,
            class_emb_dim, **_) -> tuple[int, int, int, int]:
    """(input width, output width, class embedding width, parameter count)
    of a net; the count in closed form, so that load can check a header's
    size against its file before any array is made."""
    emb = class_emb_dim if num_classes > 0 else 0
    n_in = ({IDENTITY: dim, POLAR: 3, RADIAL_EQUIVARIANT: 1}[input_map]
            + 1 + 2 * time_freqs + emb)
    n_out = 2 if input_map == RADIAL_EQUIVARIANT else dim
    layers = (width * (n_in + 1) + (hidden_layers - 1) * width * (width + 1)
              + n_out * (width + 1)) if hidden_layers else n_out * (n_in + 1)
    return n_in, n_out, emb, layers + (num_classes + 1) * emb


def _polar_features_batch(zs: np.ndarray) -> np.ndarray:
    """(r, cos theta, sin theta) per row of a 2D batch; (0, 1, 0) at the origin."""
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

    hidden_layers hidden layers of width `width`, tanh-form GELU activations
    and a zero-initialized linear head (so the initial output is zero).
    Class-conditional nets embed labels in class_emb_dim >= 1 columns and
    reserve row `num_classes` as the null token, used for label None.

    All parameters live in one contiguous float64 vector, `flat`; `params`
    is the list of per-tensor views into it (weights and bias per layer,
    then the class embedding), so parameters are changed in place.
    """

    def __init__(self, dim: int, width: int = 256, hidden_layers: int = 4,
                 prediction_kind: str = VELOCITY, input_map: str = IDENTITY,
                 time_freqs: int = 16, num_classes: int = 0,
                 class_emb_dim: int = 8, seed: int = 0):
        if prediction_kind not in PREDICTION_KINDS:
            raise InvalidArgumentError(f"unknown prediction kind {prediction_kind!r}")
        if input_map not in INPUT_MAPS:
            raise InvalidArgumentError(f"unknown input map {input_map!r}")
        if input_map in (POLAR, RADIAL_EQUIVARIANT) and dim != 2:
            raise InvalidArgumentError(f"{input_map} input map requires dim=2")
        if width < 1 or hidden_layers < 0 or time_freqs < 0:
            raise InvalidArgumentError("need width >= 1, hidden_layers >= 0, time_freqs >= 0")
        if num_classes < 0:
            raise InvalidArgumentError(f"num_classes must be >= 0, got {num_classes}")
        if num_classes > 0 and class_emb_dim < 1:
            raise InvalidArgumentError(f"class_emb_dim must be >= 1, got {class_emb_dim}")
        self.dim = dim
        self.width = width
        self.hidden_layers = hidden_layers
        self.prediction_kind = prediction_kind
        self.input_map = input_map
        self.time_freqs = time_freqs
        self.num_classes = num_classes
        self.in_dim, self.out_dim, self.class_emb_dim, size = _layout(
            dim, width, hidden_layers, input_map, time_freqs, num_classes,
            class_emb_dim)

        rng = RngStream(seed, stream=0)
        sizes = [self.in_dim] + [width] * hidden_layers + [self.out_dim]
        shapes = []
        for li in range(len(sizes) - 1):
            shapes += [(sizes[li + 1], sizes[li]), (sizes[li + 1],)]
        if self.class_emb_dim > 0:
            shapes.append((num_classes + 1, self.class_emb_dim))
        self.flat = np.zeros(size)
        self.params = _views(self.flat, shapes)
        for li in range(len(sizes) - 2):  # the head and the biases stay zero
            bound = 1.0 / np.sqrt(sizes[li])
            self.params[2 * li][...] = rng.uniform(-bound, bound, shapes[2 * li])
        if self.class_emb_dim > 0:
            self.params[-1][...] = 0.1 * rng.normal(shapes[-1])
        self._n_layers = len(sizes) - 1
        self._bufs = [np.empty((0, width))] * (3 * hidden_layers + 1)  # see _work

    # -- feature assembly ---------------------------------------------------

    def _resolve_labels(self, labels, n: int) -> np.ndarray | None:
        if self.class_emb_dim == 0:
            return None
        if labels is None:  # the null token
            return np.full(n, self.num_classes, dtype=np.int64)
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
        er = _polar_features_batch(zs)[:, 1:]
        return np.stack([er, np.stack([-er[:, 1], er[:, 0]], axis=1)], axis=1)

    # -- forward / backward -------------------------------------------------

    def _work(self, i: int, n: int, dtype) -> np.ndarray:
        """Rows [:n] of work array i, a (rows, width) array of dtype that grows
        to the largest batch seen, so forwards and backwards reuse their pages;
        it is made anew when its dtype is not the one asked for. There are
        three per hidden layer (see _forward), then the backward's scratch."""
        buf = self._bufs[i]
        if buf.shape[0] < n or buf.dtype != dtype:
            self._bufs[i] = buf = np.empty((n, self.width), dtype)
        return buf[:n]

    def _forward(self, feats: np.ndarray, keep: bool = False,
                 params=None) -> np.ndarray:
        """The output, a fresh array in the dtype of feats, which params (by
        default self.params) share. Hidden layer li writes its pre-activation,
        GELU phi and activation into work arrays 3li, 3li+1 and 3li+2 when
        keep (for the backward), else into arrays 0, 1 and, over phi, 1."""
        n, h, dtype = feats.shape[0], feats, feats.dtype
        params = self.params if params is None else params
        for li in range(self._n_layers - 1):
            w, b, k = params[2 * li], params[2 * li + 1], 3 * li * keep
            a = np.matmul(h, w.T, out=self._work(k, n, dtype))
            a += b
            phi = np.multiply(a, a, out=self._work(k + 1, n, dtype))
            phi *= _GELU_C * _GELU_K
            phi += _GELU_C
            phi *= a
            np.tanh(phi, out=phi)
            phi += 1.0
            phi *= 0.5
            h = np.multiply(a, phi,
                            out=self._work(k + 2, n, dtype) if keep else phi)
        w, b = params[2 * self._n_layers - 2], params[2 * self._n_layers - 1]
        return h @ w.T + b

    def _predict(self, zs, ts, labels, keep=False, params=None):
        """(prediction, resolved labels, frame or None, features). The
        features and the arithmetic take the dtype of params, by default
        self.params; a frame's rotation is float64."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (zs.shape[0],))
        lab = self._resolve_labels(labels, zs.shape[0])
        params = self.params if params is None else params
        feats = self._features(zs, ts, lab).astype(params[0].dtype, copy=False)
        out = self._forward(feats, keep, params)
        frame = self._frame(zs) if self.input_map == RADIAL_EQUIVARIANT else None
        if frame is not None:
            out = np.einsum("bk,bkj->bj", out, frame)
        return out, lab, frame, feats

    def evaluate_batch(self, zs, ts, labels=None) -> np.ndarray:
        """Batched prediction in self.prediction_kind."""
        return self._predict(zs, ts, labels)[0]

    def evaluate(self, z, t, label=None) -> np.ndarray:
        """One row of evaluate_batch (the single-query probe of bench/probes.py)."""
        return self.evaluate_batch(np.asarray(z)[None, :], float(t),
                                   None if label is None else [label])[0]

    def loss_and_grads(self, zs, ts, targets, labels=None, dtype=np.float64):
        """Mean squared-error loss over the batch and exact parameter gradients.

        loss = mean_b || prediction_b - target_b ||^2.
        The forward and backward run in dtype, over one copy of self.flat in
        it: training passes float32 (see dsm_step), everything else float64.
        Returns (loss, grads), both float64, with grads one vector aligned to
        self.flat.
        """
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(targets))):
            raise InvalidArgumentError("non-finite values in batch")
        n = zs.shape[0]
        if n == 0:
            raise InvalidArgumentError("empty batch")
        shapes = [p.shape for p in self.params]
        flat = self.flat.astype(dtype, copy=False)
        params = _views(flat, shapes)
        pred, lab, frame, feats = self._predict(zs, ts, labels, True, params)
        diff = pred - targets
        loss = float(np.mean(np.sum(diff * diff, axis=1)))
        dpred = 2.0 * diff / n
        dout = dpred if frame is None else np.einsum("bj,bkj->bk", dpred, frame)

        flat_grads = np.empty_like(self.flat)  # written in dtype, kept in float64
        grads = _views(flat_grads, shapes)
        delta = dout.astype(dtype, copy=False)
        for li in range(self._n_layers - 1, -1, -1):
            w = params[2 * li]
            post = self._work(3 * li - 1, n, dtype) if li > 0 else feats  # layer input
            np.matmul(delta.T, post, out=grads[2 * li])
            np.sum(delta, axis=0, out=grads[2 * li + 1])
            if li > 0:
                a = self._work(3 * li - 3, n, dtype)
                phi = self._work(3 * li - 2, n, dtype)
                # d gelu(a)/da = phi + 2 a phi (1 - phi) C (1 + 3 K a^2),
                # reusing phi and post = a phi from the forward
                act_grad = np.subtract(1.0, phi, out=self._work(-1, n, dtype))
                act_grad *= post
                scale = np.multiply(a, a, out=post)  # post is spent
                scale *= 6.0 * _GELU_C * _GELU_K
                scale += 2.0 * _GELU_C
                act_grad *= scale
                act_grad += phi
                delta = np.matmul(delta, w, out=post)
                delta *= act_grad
            elif self.class_emb_dim > 0:  # embedding rows: their columns of d feats
                grads[-1][...] = 0.0
                np.add.at(grads[-1], lab, (delta @ w)[:, -self.class_emb_dim:])
        return loss, flat_grads

    def clone_params(self) -> np.ndarray:
        return self.flat.copy()

    def _vector(self, params) -> np.ndarray:
        """A parameter set: one flat vector of self.flat's length, as
        clone_params and load give it."""
        params = np.asarray(params, dtype=float)
        if params.shape != self.flat.shape:
            raise InvalidArgumentError("parameter vector length mismatch")
        return params

    def set_params(self, params) -> None:
        self.flat[...] = self._vector(params)

    # -- checkpoint format --------------------------------------------------

    def descriptor(self) -> dict:
        return {k: getattr(self, k) for k in _CKPT_KEYS if k != "has_ema"}

    def __getstate__(self):
        # a plain pickle would copy the views in `params` apart from `flat`
        return self.descriptor(), self.flat

    def __setstate__(self, state):
        self.__init__(**state[0])
        self.flat[...] = state[1]

    def save(self, path, ema_params) -> None:
        """Magic, u32 version, u32 header length, the JSON descriptor with
        has_ema true, then the flat parameters and the EMA vector as
        little-endian f64."""
        blob = json.dumps({**self.descriptor(), "has_ema": True},
                          sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
            fh.write(blob)
            fh.write(np.asarray(self.flat, dtype="<f8").data)
            fh.write(np.asarray(self._vector(ema_params), dtype="<f8").data)

    @classmethod
    def load(cls, path):
        """Returns (network, flat EMA vector). Anything but a checkpoint
        with a known header, has_ema true and exactly its parameter bytes
        raises FormatError naming the file."""
        try:
            blob = Path(path).read_bytes()
        except OSError as exc:
            raise FormatError(f"cannot read checkpoint {path}: {exc}") from exc
        if len(blob) < 12 or blob[:4] != _CKPT_MAGIC:
            raise FormatError(f"bad checkpoint magic in {path}")
        version, blob_len = struct.unpack("<II", blob[4:12])
        if version != _CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version} in {path}")
        try:
            desc = json.loads(blob[12:12 + blob_len].decode())
            if (set(desc) != set(_CKPT_KEYS)
                    or any(type(desc[k]) is not t for k, t in _CKPT_KEYS.items())):
                raise ValueError("unknown keys or value types")
            if not desc.pop("has_ema"):
                raise ValueError("no EMA parameters (has_ema is false)")
            n_bytes = len(blob) - 12 - blob_len
            want = 16 * _layout(**desc)[3]  # KeyError: bad map
            if n_bytes != want:
                raise ValueError(f"{n_bytes} parameter bytes, expected {want}")
            net = cls(**desc)
        except (ValueError, TypeError, KeyError) as exc:
            raise FormatError(f"bad checkpoint {path}: {exc}") from None
        body = np.frombuffer(blob, dtype="<f8", offset=12 + blob_len)
        net.flat[...] = body[:net.flat.size]
        return net, body[net.flat.size:].copy()


def _gaussian_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma |a_i - b_j|^2), the squared distances expanded as
    |a|^2 - 2 a.b + |b|^2 to stay on one matrix product; the expansion can
    cancel below 0 where rows nearly coincide, so it is floored at 0."""
    sq = (np.einsum("ij,ij->i", a, a)[:, None] - 2.0 * a @ b.T
          + np.einsum("ij,ij->i", b, b)[None, :])
    return np.exp(-gamma * np.maximum(sq, 0.0))


# -- ScoreField wrappers ----------------------------------------------------


class OracleField:
    """ScoreField facade over an EmpiricalScoreOracle (score parameterization)."""

    prediction_kind = SCORE

    def __init__(self, oracle):
        self.oracle = oracle
        self.dim = oracle.dim

    def evaluate_batch(self, zs, ts, labels=None):
        return self.oracle.score_batch(zs, ts)


class KrrScoreField:
    """Gaussian-kernel ridge regression from noisy 2D states to clean points,
    as a ScoreField (x-prediction parameterization).

    Features are the polar features (r, cos theta, sin theta) of z with t
    appended. The coefficients C solve (K + ridge I) C = targets over the
    features of the training states zs at ts, with
    k(a, b) = exp(-gamma |a - b|^2).
    """

    prediction_kind = XPRED
    dim = 2

    def __init__(self, zs, ts, targets, gamma: float, ridge: float):
        self.inputs = self.features(zs, ts)
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if self.inputs.shape[0] != targets.shape[0] or targets.shape[0] < 1:
            raise InvalidArgumentError("need matching, nonempty features and targets")
        if gamma <= 0 or ridge < 0:
            raise InvalidArgumentError("gamma must be > 0 and ridge >= 0")
        self.gamma = float(gamma)
        k = (_gaussian_kernel(self.inputs, self.inputs, self.gamma)
             + ridge * np.eye(self.inputs.shape[0]))
        self.coeffs = cholesky_solve(k, targets)

    def features(self, zs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        if zs.shape[1] != 2:
            raise InvalidArgumentError("KRR polar features require dim=2")
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (zs.shape[0],))
        return np.concatenate([_polar_features_batch(zs), ts[:, None]], axis=1)

    def evaluate_batch(self, zs, ts, labels=None):
        queries = self.features(zs, ts)
        return _gaussian_kernel(queries, self.inputs, self.gamma) @ self.coeffs


def fit_krr_denoiser_field(ds: Dataset, n_draws: int, gamma: float, ridge: float,
                           seed: int, t_min: float = 1e-3) -> KrrScoreField:
    """Build KRR training pairs from the forward process over a 2D ds and fit.

    Draws n_draws (x, eps, t) with t stratified over [t_min, 1 - t_min];
    features are the polar features of z_t with t appended, targets are
    clean x.
    """
    if n_draws < 1:
        raise InvalidArgumentError("n_draws must be >= 1")
    rng = RngStream(seed, stream=0)
    x, eps, _ = supervision_draws(ds, n_draws, rng)
    # stratified t: one per draw, jittered within equal bins
    bins = (np.arange(n_draws) + rng.uniform(size=n_draws)) / n_draws
    ts = t_min + (1.0 - 2.0 * t_min) * bins
    return KrrScoreField(forward_process(x, eps, ts), ts, x, gamma, ridge)
