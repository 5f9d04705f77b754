"""Probability-flow ODE integration over any ScoreField.

Integrates dz/dt = v(z, t) from t_start down to t_min, where v is the field's
prediction converted to the velocity parameterization. Three integrators:
an adaptive Dormand-Prince 5(4) embedded pair, fixed-step Heun, and fixed-step
Euler. A run ends at t_min, and by default starts at 1 - t_min, because the
parameterization conversions are singular at t in {0, 1}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, InvalidArgumentError, NumericFailureError
from .numerics import RngStream
from .schedule import VELOCITY, convert_value

ADAPTIVE_RK45 = "adaptive-rk45"
FIXED_HEUN = "fixed-heun"
FIXED_EULER = "fixed-euler"
SOLVER_KINDS = (ADAPTIVE_RK45, FIXED_HEUN, FIXED_EULER)

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])

_SAFETY = 0.9
_GROW = 5.0
_SHRINK = 0.2


@dataclass(frozen=True)
class SolverConfig:
    kind: str = ADAPTIVE_RK45
    atol: float = 1e-6
    rtol: float = 1e-3
    max_steps: int = 100_000
    t_min: float = 1e-3
    t_start: float | None = None  # default 1 - t_min; a run ends at t_min
    fixed_steps: int = 100        # step count for the fixed-step kinds

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise InvalidArgumentError(f"unknown solver kind {self.kind!r}")
        if self.atol <= 0 or self.rtol <= 0:
            raise InvalidArgumentError("tolerances must be positive")
        if self.t_min <= 0 or self.fixed_steps < 1:
            raise InvalidArgumentError("t_min and fixed_steps must be positive")
        start, end = self.resolve_span()
        if not start > end:
            raise InvalidArgumentError(f"need t_start ({start}) > t_min ({end})")

    def resolve_span(self) -> tuple[float, float]:
        start = 1.0 - self.t_min if self.t_start is None else self.t_start
        return float(start), float(self.t_min)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One row's accepted states in strictly decreasing t order: views into
    the TrajectoryRecord of its integrate call."""

    times: np.ndarray   # (n,)
    states: np.ndarray  # (n, d)
    accepted: int = 0
    rejected: int = 0

    @property
    def offsets(self) -> np.ndarray:
        return np.array([0, self.times.size])  # a record of this one row

    def __len__(self):
        return self.times.size

    def state_at(self, t: float) -> np.ndarray:
        """The state at t, read as states_at reads it."""
        return states_at(self, [t])[0, 0]


class TrajectoryRecord(list):
    """The Trajectory of each row of one integrate call, with the packed
    arrays they are views into: row i holds times[offsets[i]:offsets[i + 1]],
    strictly decreasing, and the matching rows of states."""

    def __init__(self, chunks, accepted, rejected):
        """Pack the (rows, t, z) chunks, one per accepted step, row by row."""
        rows, times, states = map(np.concatenate, zip(*chunks))
        order = np.argsort(rows, kind="stable")
        self.times, self.states = times[order], states[order]
        self.offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=len(accepted)))])
        cuts = self.offsets[1:-1]
        super().__init__(map(Trajectory, np.split(self.times, cuts),
                             np.split(self.states, cuts), accepted.tolist(),
                             rejected.tolist()))


def states_at(trajs, ts) -> np.ndarray:
    """States (T, B, d) read at the times ts along every row of a
    TrajectoryRecord (or along one Trajectory): linear interpolation between
    the two recorded states around t, clamped to the first state for t at or
    above a row's span and to the last for t at or below it. Every row holds
    at least two states, as integrate records them."""
    ts = np.asarray(ts, dtype=float)[:, None]
    times, states = trajs.times, trajs.states
    first, last = trajs.offsets[:-1], trajs.offsets[1:] - 1
    # times strictly decrease along a row, so j - first counts those above t
    above = np.add.reduceat(times > ts, first, axis=1, dtype=np.intp)
    j = np.minimum(np.maximum(first + above, first + 1), last)
    i = j - 1
    w = ((ts - times[j]) / (times[i] - times[j]))[..., None]
    out = w * states[i] + (1.0 - w) * states[j]
    out = np.where((ts <= times[last])[..., None], states[last], out)
    return np.where((ts >= times[first])[..., None], states[first], out)


def velocity_fn(score_field, label=None):
    """Wrap a ScoreField into (zs (B, d), ts (B,)) -> velocities (B, d).

    label is None, one label for every row, or an array with one label per
    row of the full batch; `rows` then names the batch rows zs holds.
    """
    kind = score_field.prediction_kind

    def v(zs, ts, rows=slice(None)):
        labels = label if np.ndim(label) == 0 else np.asarray(label)[rows]
        return convert_value(score_field.evaluate_batch(zs, ts, labels), kind,
                             VELOCITY, zs, ts)

    return v


def _check_finite(z: np.ndarray, rows: np.ndarray, iterations: np.ndarray) -> None:
    """Raise NumericFailureError naming the first non-finite row (rows[i] for z[i])."""
    bad = np.flatnonzero(~np.all(np.isfinite(z), axis=1))
    if bad.size:
        i = int(bad[0])
        raise NumericFailureError(
            f"sample {rows[i]}: non-finite value during integration",
            iteration=int(iterations[i]), state=z[i])


def _error_ratio(err: np.ndarray, z: np.ndarray, z_new: np.ndarray,
                 atol: float, rtol: float) -> np.ndarray:
    scale = atol + rtol * np.maximum(np.abs(z), np.abs(z_new))
    return np.max(np.abs(err) / scale, axis=1)


def _initial_step(v, z0: np.ndarray, t0: np.ndarray, span: float,
                  atol: float, rtol: float) -> np.ndarray:
    # Hairer-style heuristic, adapted for decreasing t; one step per row. A
    # row whose derivative difference overflows gets h = 0, which the solver
    # reports as that row's failure.
    every = np.arange(z0.shape[0])
    sc = atol + rtol * np.abs(z0)
    f0 = v(z0, t0)
    _check_finite(f0, every, np.zeros_like(every))
    d0 = np.max(np.abs(z0) / sc, axis=1)
    d1 = np.max(np.abs(f0) / sc, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, 0.1 * span)
    z1 = z0 - h0[:, None] * f0
    f1 = v(z1, t0 - h0)
    _check_finite(f1, every, np.zeros_like(every))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d12 = np.maximum(d1, np.max(np.abs(f1 - f0) / sc, axis=1) / h0)
        h1 = np.where(d12 <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / d12) ** 0.2)
    return np.minimum(np.minimum(100 * h0, h1), span)


def integrate(score_field, z_init, cfg: SolverConfig = SolverConfig(),
              record: bool = False, label=None):
    """Integrate the probability-flow ODE for a batch of states z_init (B, d)
    down from t_start to t_min; label is None, shared, or one per row.

    Returns (z_final (B, d), a TrajectoryRecord of the B rows or None). A
    non-finite state raises NumericFailureError naming its row.
    """
    z = np.array(z_init, dtype=float)
    if z.ndim != 2:
        raise InvalidArgumentError("z_init must be a (B, d) batch of states")
    v = velocity_fn(score_field, label)
    t_start, t_end = cfg.resolve_span()
    n = z.shape[0]
    every = np.arange(n)
    t = np.full(n, t_start)
    # one (rows, t, z) chunk per accepted step, packed at the end
    chunks = [(every, t.copy(), z.copy())] if record else None

    if cfg.kind == ADAPTIVE_RK45:
        z, accepted, rejected = _integrate_dopri5(v, z, t, t_end, cfg, chunks)
    else:
        hs = (t_start - t_end) / cfg.fixed_steps
        for k in range(cfg.fixed_steps):
            f0 = v(z, t)
            if cfg.kind == FIXED_EULER:
                z = z - hs * f0
            else:  # Heun
                z_pred = z - hs * f0
                f1 = v(z_pred, t - hs)
                z = z - hs * 0.5 * (f0 + f1)
            t = np.full(n, t_end if k == cfg.fixed_steps - 1
                        else t_start - (k + 1) * hs)
            _check_finite(z, every, np.full(n, k))
            if chunks is not None:
                chunks.append((every, t, z))
        accepted, rejected = np.full(n, cfg.fixed_steps), np.zeros(n, dtype=int)
    return z, TrajectoryRecord(chunks, accepted, rejected) if record else None


def _integrate_dopri5(v, z, t, t_end, cfg, chunks):
    """Dormand-Prince 5(4) with t, h and the step counts kept per row. Each
    stage evaluates the field once, over the rows still short of t_end, so
    every row takes the step sequence it would take on its own. A row whose
    step falls below 10x the float spacing at its t fails, as in scipy's RK45.
    Returns (z, accepted, rejected) with the counts per row."""
    n = z.shape[0]
    h = _initial_step(v, z, t, t[0] - t_end, cfg.atol, cfg.rtol)
    steps = np.zeros(n, dtype=np.int64)
    accepted = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    while rows.size:
        over = rows[steps[rows] >= cfg.max_steps]
        if over.size:
            r = int(over[0])
            raise DivergenceError(
                f"sample {r}: max steps ({cfg.max_steps}) exceeded at t={t[r]}",
                iteration=int(steps[r]), state=z[r])
        min_step = 10 * np.abs(np.nextafter(t[rows], -np.inf) - t[rows])
        tiny = rows[~(h[rows] >= min_step)]  # a nan step fails too
        if tiny.size:
            r = int(tiny[0])
            raise NumericFailureError(
                f"sample {r}: step size {h[r]} below 10x the float spacing "
                f"at t={t[r]}", iteration=int(steps[r]), state=z[r])
        steps[rows] += 1
        tr, zr = t[rows], z[rows]
        hr = np.minimum(h[rows], tr - t_end)
        last = hr == tr - t_end
        ks = []
        for i in range(7):
            zi = zr
            for j, a in enumerate(_DP_A[i]):
                zi = zi - (hr * a)[:, None] * ks[j]
            ks.append(v(zi, tr - _DP_C[i] * hr, rows))
        # elementwise stage sums, so each row's bits are its own
        z5 = zr - hr[:, None] * sum(b * k for b, k in zip(_DP_B5, ks))
        z4 = zr - hr[:, None] * sum(b * k for b, k in zip(_DP_B4, ks))
        _check_finite(z5, rows, steps[rows])
        ratio = _error_ratio(z5 - z4, zr, z5, cfg.atol, cfg.rtol)
        ok = ratio <= 1.0
        done = rows[ok]
        t[done] = np.where(last[ok], t_end, tr[ok] - hr[ok])
        z[done] = z5[ok]
        accepted[done] += 1
        if chunks is not None:
            chunks.append((done, t[done], z[done]))
        with np.errstate(divide="ignore"):
            factor = np.where(ratio > 0, _SAFETY * (1.0 / ratio) ** 0.2, _GROW)
        h[rows] = hr * np.minimum(_GROW, np.maximum(_SHRINK, factor))
        rows = rows[t[rows] > t_end]
    return z, accepted, steps - accepted


def sample(score_field, n: int, cfg: SolverConfig = SolverConfig(), seed: int = 0,
           record: bool = False, label=None):
    """Draw n probability-flow samples: z_init ~ N(0, I), integrated
    t_start -> t_min as one batch.

    Each sample's initial state comes from its own RNG stream (seed, sample
    index), so any prefix of samples starts from the same states whatever n
    is. It also ends on the same bits when the field computes each row on its
    own (the oracle and the Gaussian field); a network's batched matrix
    products round a row differently at different n, so there a prefix
    agrees only to within the solver tolerance.
    """
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    z0 = np.stack([RngStream(seed, stream=i).normal(score_field.dim)
                   for i in range(n)])
    return integrate(score_field, z0, cfg, record=record, label=label)


def denoise_from(score_field, z_t, t_from: float,
                 cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """Partial denoising: integrate states z_t (B, d) from t_from down to t_min."""
    if t_from <= cfg.t_min:
        return np.array(z_t, dtype=float)
    sub = replace(cfg, t_start=min(t_from, 1.0 - cfg.t_min))
    return integrate(score_field, z_t, sub)[0]
