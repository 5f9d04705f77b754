"""Fixed-shape layer probes: the reference figures of bench/README.md.

    python3 bench/probes.py

Each probe times one layer operation at a fixed shape, REPS times after one
warm-up call, with BLAS pinned to one thread. It prints the median and 90th
percentile in microseconds, then the machine facts and the same table as
JSON.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import erf  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

from child import machine_facts  # noqa: E402
from sulab.data import make_gaussian_dataset  # noqa: E402
from sulab.empirical import EmpiricalScoreOracle  # noqa: E402
from sulab.models import MlpScoreNetwork  # noqa: E402
from sulab.numerics import RngStream  # noqa: E402
from sulab.training import AdamState, TrainConfig, dsm_step  # noqa: E402
from tracing import Tracer  # noqa: E402

REPS = 200
# name -> (dim, width, hidden layers, prediction kind), as cli.DEFAULTS builds them
NETS = {"gaussian": (20, 256, 4, "velocity"), "toy": (2, 64, 3, "velocity"),
        "foe": (16, 64, 3, "x-pred")}


def timed(fn) -> tuple[float, float]:
    fn()  # warm caches and lazy set-up
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    q = np.percentile(times, [50, 90]) * 1e6
    return float(q[0]), float(q[1])


def probes() -> dict:
    rng = np.random.default_rng(0)
    out = {}
    for name, (dim, width, layers, kind) in NETS.items():
        net = MlpScoreNetwork(dim, width=width, hidden_layers=layers,
                              prediction_kind=kind, time_freqs=8, seed=0)
        # give the zero-initialised head weights so the backward is generic
        net.params[-2] = 0.01 * rng.standard_normal(net.params[-2].shape)
        zs = rng.standard_normal((128, dim))
        ts = rng.uniform(1e-3, 1 - 1e-3, 128)
        targets = rng.standard_normal((128, dim))
        feats = net._features(zs, ts, None)
        out[f"{name} forward b128"] = timed(lambda: net._forward(feats))
        out[f"{name} forward+backward b128"] = timed(
            lambda: net.loss_and_grads(zs, ts, targets))
        out[f"{name} evaluate 1 row"] = timed(
            lambda: net.evaluate(zs[0], 0.5))
        if name in ("gaussian", "toy"):
            ds = make_gaussian_dataset(dim, 100, seed=0)
            cfg = TrainConfig(batch_size=128)
            step_rng, adam, ema = RngStream(0), AdamState(net.params), net.clone_params()
            out[f"{name} dsm step b128"] = timed(
                lambda: dsm_step(net, ds, cfg, step_rng, adam, ema))
    oracle = EmpiricalScoreOracle(make_gaussian_dataset(16, 32, seed=0))
    zs = rng.standard_normal((128, 16))
    ts = rng.uniform(1e-3, 1 - 1e-3, 128)
    out["oracle score_batch b128 N32 d16, shared t"] = timed(
        lambda: oracle.score_batch(zs, 0.5))
    out["oracle score_batch b128 N32 d16, per-row t"] = timed(
        lambda: oracle.score_batch(zs, ts))
    a = rng.standard_normal((128, 256))
    w = rng.standard_normal((256, 256)) / 16.0
    out["layer 128x256 matmul"] = timed(lambda: a @ w.T)
    out["layer 128x256 GELU erf"] = timed(
        lambda: a * (0.5 * (1.0 + erf(a / np.sqrt(2.0)))))

    def noop():
        pass

    traced = Tracer().wrap(noop, "probe.noop")
    plain_us = timed(lambda: [noop() for _ in range(1000)])
    traced_us = timed(lambda: [traced() for _ in range(1000)])
    out["tracer cost per span"] = tuple((t - p) / 1000.0
                                        for t, p in zip(traced_us, plain_us))
    return out


def main() -> int:
    table = probes()
    print(f"{'probe':48s} {'median us':>10s} {'p90 us':>10s}")
    for name, (med, p90) in table.items():
        print(f"{name:48s} {med:10.1f} {p90:10.1f}")
    print(json.dumps({"machine": machine_facts(), "reps": REPS,
                      "probes_us": table}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
