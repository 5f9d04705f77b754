"""The three workloads: their inputs, their entry points and their checks.

`INPUTS[workload](seed, smoke)` makes a workload's inputs from the seed (a
JSON-able dict the parent writes beside the round). In the child,
`prepare(workload, inputs, art, threads)` does the set-up (config
resolution, or building the training set and oracle) and returns the entry
point, a callable that runs the workload and writes its artifacts into
`art`. In the parent, `CHECKS[workload](inputs, art)` checks the artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

import checks

# Every input a workload's result depends on is pinned here, the values the
# program's defaults (cli.DEFAULTS) held when the benchmark was written, so a
# change of a default in src/ cannot change the work measured.
_SOLVER = {"kind": "adaptive-rk45", "atol": 1e-6, "rtol": 1e-3,
           "t_min": 1e-3, "fixed_steps": 100}
# rstar-profile's t grid
_T_GRID = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
_SMOKE_MODEL = {"width": 16, "hidden_layers": 2}
_SMOKE_TRAIN = {"iterations": 20, "eval_interval": 10}


def _gaussian(seed: int, smoke: bool) -> dict:
    # 1,000 iterations with hooks every 500 keep the three eval hooks at about
    # a third of the run, near their share at the default 6,000/500.
    cfg = {"experiment": "gaussian", "seed": seed,
           "dataset": {"kind": "gaussian", "dim": 20, "n_points": 100},
           "model": {"width": 256, "hidden_layers": 4,
                     "prediction_kind": "velocity", "input_map": "identity",
                     "time_freqs": 8, "class_emb_dim": 16},
           "train": {"iterations": 1000, "batch_size": 128, "lr": 4e-3,
                     "ema_decay": 0.999, "eval_interval": 500, "t_min": 1e-3},
           "diagnostics": {"n": 300, "timesteps": 30}}
    if smoke:
        cfg["model"].update(_SMOKE_MODEL)
        cfg["train"].update(_SMOKE_TRAIN)
        cfg["diagnostics"] = {"n": 20, "timesteps": 4}
    return cfg


def _foe(seed: int, smoke: bool) -> dict:
    # The default model and training length: memorization shows only late in
    # training. Two sweep members instead of four, 100 samples instead of 400.
    cfg = {"experiment": "foe", "seed": seed,
           "dataset": {"kind": "class-mixture", "dim": 16, "n_per_class": 128,
                       "separation": 8.0, "cluster_std": 1.0,
                       "num_classes": 2},
           "model": {"width": 64, "hidden_layers": 3,
                     "prediction_kind": "x-pred", "input_map": "identity",
                     "time_freqs": 8, "class_emb_dim": 16},
           "train": {"iterations": 3000, "batch_size": 128, "lr": 2e-3,
                     "ema_decay": 0.999, "eval_interval": 500, "t_min": 1e-3},
           "solver": dict(_SOLVER),
           "n_score": 32, "region_factors": [1, 8], "n_samples": 100,
           "calibration_n": 8, "thresholds": [1 / 3, 0.25, 0.5]}
    if smoke:
        cfg["dataset"]["n_per_class"] = 16
        cfg["n_score"] = 4
        cfg["n_samples"] = 4
        cfg["calibration_n"] = 2
        cfg["model"].update(_SMOKE_MODEL)
        cfg["train"].update(_SMOKE_TRAIN)
    return cfg


def _oracle(seed: int, smoke: bool) -> dict:
    # rstar-profile scaled from 32 to 1,024 training points at d=16.
    return {"seed": seed, "dim": 16, "n_points": 64 if smoke else 1024,
            "n_samples": 8 if smoke else 256, "solver": dict(_SOLVER),
            "t_grid": list(_T_GRID)}


INPUTS = {"gaussian-train": _gaussian, "foe-sweep": _foe,
          "oracle-memorize": _oracle}
CHECKS = {"gaussian-train": checks.check_gaussian,
          "foe-sweep": checks.check_foe,
          "oracle-memorize": checks.check_oracle}
# --threads for the `sulab run` workloads; None means the cores we may use
THREADS = {"gaussian-train": 1, "foe-sweep": None}


def prepare(workload: str, inputs_path: Path, art: Path, threads: int):
    """Set up in the child; returns the workload's entry point."""
    inp = json.loads(inputs_path.read_text())
    if workload in THREADS:
        from sulab import cli
        cli.load_config(str(inputs_path))
        argv = ["run", "--config", str(inputs_path), "--out", str(art),
                "--seed", str(inp["seed"]), "--threads", str(threads)]

        def run_cli():
            if cli.main(argv) != 0:
                raise RuntimeError(f"sulab {' '.join(argv)} failed")
        return run_cli
    return _prepare_oracle(inp, art)


def _prepare_oracle(inp: dict, art: Path):
    import numpy as np
    from sulab import data, empirical, geometry, models, sampling
    ds = data.make_gaussian_dataset(inp["dim"], inp["n_points"], seed=inp["seed"])
    field = models.OracleField(empirical.EmpiricalScoreOracle(ds))
    solver = sampling.SolverConfig(**inp["solver"])
    t_grid = [float(t) for t in inp["t_grid"]]

    def run_oracle():
        samples, trajs = sampling.sample(field, inp["n_samples"], solver,
                                         seed=inp["seed"], record=True)
        rstar = np.array([[geometry.r_star(ds, tr.state_at(t), t).r_star
                           for t in t_grid] for tr in trajs])
        art.mkdir(parents=True, exist_ok=True)
        np.save(art / "samples.npy", samples)
        lengths = [len(tr) for tr in trajs]
        np.savez(art / "trajectories.npz",
                 times=np.concatenate([tr.times for tr in trajs]),
                 states=np.concatenate([np.array(tr.states) for tr in trajs]),
                 offsets=np.concatenate([[0], np.cumsum(lengths)]))
        np.save(art / "rstar.npy", rstar)
    return run_oracle
