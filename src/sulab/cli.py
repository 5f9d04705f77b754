"""Command-line entry point: deterministic experiment runs and diagnostics.

Subcommands: run, diagnose, sample, train, print-defaults. Configs are JSON
with per-experiment defaults (see `print-defaults`); unknown keys are
rejected with their field path, as are values whose type does not fit the
default's. Exit codes: 0 success, 3 numeric failure during a run, 2 any
other library error (configuration, validation, malformed files).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import load_points
from .diagnostics import SUPERVISION, calibrated_l2_values, memorization_ratio, \
    supervision_loss
from .empirical import EmpiricalScoreOracle
from .errors import SulabError, NumericFailureError
from .experiments import RUNNERS, ExperimentResult, RunContext, \
    build_dataset, loss_curve_table, samples_table
from .geometry import bhattacharyya_overlap, rstar_by_t
from .models import MlpScoreNetwork, OracleField
from .sampling import SolverConfig, sample
from .training import TrainConfig, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(SulabError):
    """Configuration rejected; message carries the offending field path."""


# ---------------------------------------------------------------------------
# defaults and validation

# A `solver` section holds the keywords of SolverConfig, a `model` section
# those of MlpScoreNetwork and a `train` section those of TrainConfig.
# class_emb_dim is read only by cfg-gap's conditional net and eval_interval
# only by gaussian's eval hooks; foe keeps both, and gaussian class_emb_dim,
# because the benchmark's configs set them.
_SOLVER = {"kind": "adaptive-rk45", "atol": 1e-6, "rtol": 1e-3,
           "t_min": 1e-3, "fixed_steps": 100}
_TOY_MODEL = {"width": 64, "hidden_layers": 3, "prediction_kind": "velocity",
              "input_map": "identity", "time_freqs": 8}
_TOY_TRAIN = {"iterations": 3000, "batch_size": 128, "lr": 2e-3,
              "ema_decay": 0.999, "t_min": 1e-3}
_GAUSS_MODEL = dict(_TOY_MODEL, width=256, hidden_layers=4, class_emb_dim=16)
_GAUSS_TRAIN = dict(_TOY_TRAIN, iterations=6000, lr=4e-3, eval_interval=500)
# foe regresses onto a single score point per input; under velocity prediction
# that target, (z - y)/t, grows like 1/t for region inputs far from the score
# subset and drags samples between the classes. The x-prediction target is y.
_FOE_MODEL = dict(_TOY_MODEL, prediction_kind="x-pred", class_emb_dim=16)
# pat's variants set input_map, scaling-line's widths set width
_PAT_MODEL = {"width": 128, "hidden_layers": 2, "prediction_kind": "velocity",
              "time_freqs": 8}

DEFAULTS: dict[str, dict] = {
    "gaussian": {
        "experiment": "gaussian", "seed": 0, "out": "runs/gaussian",
        "dataset": {"kind": "gaussian", "dim": 20, "n_points": 100},
        "model": _GAUSS_MODEL, "train": _GAUSS_TRAIN,
        "diagnostics": {"n": 300, "timesteps": 30},
    },
    "foe": {
        "experiment": "foe", "seed": 0, "out": "runs/foe",
        # 16-D: at low dimension calibrated_l2_values puts most novel draws
        # below the 1/3 threshold (see its docstring), hiding any
        # memorization gap.
        "dataset": {"kind": "class-mixture", "dim": 16, "n_per_class": 128,
                    "separation": 8.0, "cluster_std": 1.0, "num_classes": 2},
        "model": _FOE_MODEL, "train": dict(_TOY_TRAIN, eval_interval=500),
        "solver": dict(_SOLVER), "n_score": 32, "region_factors": [1, 2, 4, 8],
        "n_samples": 400, "calibration_n": 8, "thresholds": [1 / 3, 0.25, 0.5],
    },
    "pat": {
        "experiment": "pat", "seed": 0, "out": "runs/pat",
        "model": _PAT_MODEL, "train": dict(_TOY_TRAIN, iterations=8000),
        "solver": {"kind": "fixed-heun", "atol": 1e-6, "rtol": 1e-3,
                   "t_min": 0.01, "fixed_steps": 96},
        "variants": ["baseline", "polar", "krr", "equivariant"],
        "n_samples": 1000,
        "krr": {"n_draws": 1024, "gamma": 4.0, "ridge": 1e-4,
                "time_scale": 1.0},
    },
    "cfg-gap": {
        "experiment": "cfg-gap", "seed": 0, "out": "runs/cfg-gap",
        "dataset": {"kind": "class-mixture", "dim": 8, "n_per_class": 32,
                    "separation": 8.0, "cluster_std": 1.0, "num_classes": 2},
        "model": dict(_TOY_MODEL, class_emb_dim=16), "train": _TOY_TRAIN,
        "solver": dict(_SOLVER), "class_dropout": 0.2,
        "t_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        "diagnostics": {"n": 200},
    },
    "memorize-from-t": {
        "experiment": "memorize-from-t", "seed": 0, "out": "runs/memorize",
        "dataset": {"kind": "class-mixture", "dim": 2, "n_per_class": 8,
                    "separation": 14.0, "cluster_std": 3.0, "num_classes": 2},
        "model": _TOY_MODEL, "train": _TOY_TRAIN, "solver": dict(_SOLVER),
        "t_from_grid": [0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9],
        "noise_draws": 8, "calibration_n": 4,
    },
    "rstar-profile": {
        "experiment": "rstar-profile", "seed": 0, "out": "runs/rstar",
        "dataset": {"kind": "gaussian", "dim": 16, "n_points": 32},
        "solver": dict(_SOLVER), "n_samples": 64,
        "t_grid": [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
    },
    "overlap-curve": {
        "experiment": "overlap-curve", "seed": 0, "out": "runs/overlap",
        "dataset": {"kind": "class-mixture", "dim": 8, "n_per_class": 32,
                    "separation": 8.0, "cluster_std": 1.0, "num_classes": 2},
        "t_grid": [round(0.05 * k, 2) for k in range(1, 20)],
    },
    "scaling-line": {
        "experiment": "scaling-line", "seed": 0, "out": "runs/scaling",
        "dataset": {"kind": "class-mixture", "dim": 2, "n_per_class": 32,
                    "separation": 8.0, "cluster_std": 1.0, "num_classes": 2},
        "model": {k: v for k, v in _TOY_MODEL.items() if k != "width"},
        "train": _TOY_TRAIN, "solver": dict(_SOLVER),
        "widths": [8, 16, 32, 64], "n_samples": 128,
        "diagnostics": {"n": 300, "timesteps": 30},
    },
}


def _same_type(default, value) -> bool:
    """value may stand where default stands: an int for a float, never a bool
    for a number, a list whose elements fit the default list's first one."""
    if isinstance(default, list):
        return isinstance(value, list) and all(
            _same_type(default[0], v) for v in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return type(default) is type(value)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return type(default) is type(value)


def merge_config(defaults: dict, override: dict, path: str = "") -> dict:
    """Deep-merge override into defaults, rejecting unknown keys and leaves
    whose type does not fit the default's, by path."""
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected an object")
            out[key] = merge_config(defaults[key], value, where)
        elif not _same_type(defaults[key], value):
            raise ConfigError(f"{where}: expected {type(defaults[key]).__name__}"
                              f", got {json.dumps(value)}")
        else:
            out[key] = value
    return out


def resolve_config(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    experiment = raw.get("experiment")
    if not isinstance(experiment, str) or experiment not in DEFAULTS:
        raise ConfigError(
            f"experiment: must be one of {', '.join(sorted(DEFAULTS))}")
    cfg = merge_config(DEFAULTS[experiment], raw)
    kind = DEFAULTS[experiment].get("dataset", {}).get("kind")
    if kind is not None and cfg["dataset"]["kind"] != kind:
        raise ConfigError(f"dataset.kind: {experiment} takes only {kind!r}")
    return cfg


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return resolve_config(raw)


# ---------------------------------------------------------------------------
# artifact emission

def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def csv_bytes(table: list) -> bytes:
    lines = [",".join(format_cell(c) for c in row) for row in table]
    return ("\n".join(lines) + "\n").encode()


def write_line_svg(path: Path, table: list, title: str) -> None:
    """Minimal line plot: later numeric columns against the first numeric one.

    Non-numeric columns (e.g. group labels) are dropped."""
    header, rows = table[0], table[1:]
    if len(rows) < 2 or len(header) < 2:
        return
    num_t = (int, float, np.integer, np.floating)
    keep = [j for j in range(len(header))
            if all(isinstance(r[j], num_t) and not isinstance(r[j], bool)
                   for r in rows)]
    if len(keep) < 2:
        return
    header = [header[j] for j in keep]
    data = np.array([[float(r[j]) for j in keep] for r in rows])
    w, h, pad = 640, 400, 50
    x = data[:, 0]
    ys = data[:, 1:]
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0 or y1 == y0:
        return
    def sx(v): return pad + (v - x0) / (x1 - x0) * (w - 2 * pad)
    def sy(v): return h - pad - (v - y0) / (y1 - y0) * (h - 2 * pad)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
              "#e377c2", "#7f7f7f", "#bcbd22"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<text x="{w // 2}" y="20" text-anchor="middle" '
             f'font-family="monospace">{title}</text>']
    for j in range(ys.shape[1]):
        pts = " ".join(f"{sx(xv):.1f},{sy(yv):.1f}" for xv, yv in zip(x, ys[:, j]))
        color = colors[j % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{w - pad + 4}" y="{pad + 14 * j}" '
                     f'font-family="monospace" font-size="11" '
                     f'fill="{color}">{header[j + 1]}</text>')
    parts.append(f'<text x="{w // 2}" y="{h - 12}" text-anchor="middle" '
                 f'font-family="monospace" font-size="11">{header[0]}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts))


def _usage(who: int) -> dict:
    """CPU seconds, minor page faults and peak RSS so far of this process or,
    for RUSAGE_CHILDREN, of its ended workers (the peak is the largest's)."""
    ru = resource.getrusage(who)
    return {"user_s": round(ru.ru_utime, 3), "system_s": round(ru.ru_stime, 3),
            "minor_faults": ru.ru_minflt, "peak_rss_mb": round(ru.ru_maxrss / 1024, 1)}


def emit_result(result: ExperimentResult, out_dir: Path, cfg: dict,
                ctx: RunContext, fmt: str, started: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []

    def register(path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        artifacts.append({"name": path.name, "sha256": digest})

    for name in sorted(result.tables):
        path = out_dir / f"{name}.csv"
        path.write_bytes(csv_bytes(result.tables[name]))
        register(path)
        if fmt == "csv+svg":
            svg = out_dir / f"{name}.svg"
            write_line_svg(svg, result.tables[name], name)
            if svg.exists():
                register(svg)
    for name in sorted(result.checkpoints):
        net, ema = result.checkpoints[name]
        path = out_dir / f"{name}.ckpt"
        net.save(path, ema_params=ema)
        register(path)
    config_blob = json.dumps(cfg, sort_keys=True).encode()
    manifest = {
        "tool_version": __version__,
        "config_sha256": hashlib.sha256(config_blob).hexdigest(),
        "config": cfg,
        "threads": ctx.threads,
        "wall_clock_seconds": round(time.time() - started, 3),
        "artifacts": artifacts,
        "telemetry": {"process": {"self": _usage(resource.RUSAGE_SELF),
                                  "children": _usage(resource.RUSAGE_CHILDREN)}},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _run_context(args) -> RunContext:
    """The run context of --threads, else of SUL_THREADS, else of 1."""
    where, value = ("threads", str(args.threads)) if args.threads is not None \
        else ("SUL_THREADS", os.environ.get("SUL_THREADS") or "1")
    if not value.isdecimal() or int(value) < 1:
        raise ConfigError(f"{where}: must be an integer >= 1, got {value!r}")
    return RunContext(threads=int(value))


def _out_dir(path) -> Path:
    """--out as a Path, refused unless its nearest existing ancestor (or
    itself) is a directory, so that no run starts whose output cannot land."""
    out = Path(path)
    near = next(p for p in (out, *out.parents) if p.exists())
    if not near.is_dir():
        raise ConfigError(f"--out: {near} is not a directory")
    return out


def _run_config(args):
    """(run context, config with the --seed override, output directory)."""
    ctx = _run_context(args)
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return ctx, cfg, _out_dir(args.out if args.out is not None else cfg["out"])


def cmd_run(args) -> int:
    started = time.time()
    ctx, cfg, out_dir = _run_config(args)
    result = RUNNERS[cfg["experiment"]](cfg, ctx)
    emit_result(result, out_dir, cfg, ctx, args.format, started)
    print(f"{cfg['experiment']}: wrote {len(result.tables)} tables to {out_dir}")
    return EXIT_OK


# experiments whose config describes one net and the dataset it learns
TRAINABLE = ("gaussian", "foe", "cfg-gap", "memorize-from-t")


def cmd_train(args) -> int:
    started = time.time()
    ctx, cfg, out_dir = _run_config(args)
    if cfg["experiment"] not in TRAINABLE:
        raise ConfigError(f"experiment: {cfg['experiment']} has no single net"
                          f" to train; train takes {', '.join(TRAINABLE)}")
    ds = build_dataset(cfg["dataset"], cfg["seed"])
    net = MlpScoreNetwork(ds.dim, **cfg["model"], seed=cfg["seed"])
    report = train(net, TrainConfig(**cfg["train"], seed=cfg["seed"]),
                   dataset=ds)
    result = ExperimentResult(
        tables={"loss_curve": loss_curve_table(report)},
        checkpoints={"model": (net, report.ema_params)})
    emit_result(result, out_dir, cfg, ctx, args.format, started)
    print(f"trained {cfg['train']['iterations']} iterations; "
          f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_sample(args) -> int:
    started = time.time()
    ctx, out_dir = _run_context(args), _out_dir(args.out)
    net, ema = MlpScoreNetwork.load(args.checkpoint)
    if args.label is not None and net.num_classes == 0:
        raise ConfigError("--label: the checkpoint's net is unconditional")
    if ema is not None and not args.raw_params:
        net.set_params(ema)
    solver = SolverConfig(t_min=args.t_min)
    samples, _ = sample(net, args.n, solver, seed=args.seed, label=args.label)
    result = ExperimentResult(tables={"samples": samples_table(samples)})
    cfg = {"checkpoint": str(args.checkpoint), "n": args.n, "seed": args.seed}
    emit_result(result, out_dir, cfg, ctx, args.format, started)
    print(f"wrote {args.n} samples to {out_dir}")
    return EXIT_OK


DIAGNOSE_METRICS = ("rstar", "supervision-loss", "overlap", "memorization")


def cmd_diagnose(args) -> int:
    if args.metric not in DIAGNOSE_METRICS:
        raise ConfigError(
            f"metric: unknown {args.metric!r}; valid: "
            + ", ".join(DIAGNOSE_METRICS))
    if args.grid < 1:
        raise ConfigError(f"--grid: must be >= 1, got {args.grid}")
    ds = load_points(args.dataset, fmt=args.dataset_format)
    net, ema = MlpScoreNetwork.load(args.checkpoint)
    if args.metric != "overlap" and net.dim != ds.dim:  # overlap reads no net
        raise ConfigError(f"checkpoint {args.checkpoint} is {net.dim}-D but "
                          f"dataset {args.dataset} is {ds.dim}-D")
    if ema is not None:
        net.set_params(ema)
    ts = np.linspace(0.05, 0.95, args.grid)
    table = [["metric", "region", "t", "value", "n", "seed"]]
    if args.metric == "supervision-loss":
        oracle = OracleField(EmpiricalScoreOracle(ds))
        value = supervision_loss(net, oracle, ds, n=args.n,
                                 timesteps=args.grid, seed=args.seed)
        table.append(["supervision-loss", SUPERVISION, "all", value, args.n,
                      args.seed])
    elif args.metric == "overlap":
        for t in ts:
            value = bhattacharyya_overlap(ds, float(t),
                                          class_filter=args.class_id)
            table.append(["overlap", "all", float(t), value, ds.size,
                          args.seed])
    elif args.metric == "rstar":
        _, trajectories = sample(net, args.n, seed=args.seed, record=True)
        for t, vals in rstar_by_t(ds, trajectories, ts):
            table.append(["rstar", "extrapolation", t, float(np.mean(vals)),
                          args.n, args.seed])
    else:  # memorization
        samples, _ = sample(net, args.n, seed=args.seed)
        cal = calibrated_l2_values(samples, ds.points,
                                   n=min(args.calibration_n, ds.size))
        ratio = memorization_ratio(cal, threshold=args.threshold)
        table += [["memorization-ratio", "all", "all", ratio, args.n, args.seed],
                  ["mean-calibrated-l2", "all", "all", float(np.mean(cal)),
                   args.n, args.seed]]
    payload = csv_bytes(table).decode()
    if args.out:
        try:
            Path(args.out).write_text(payload)
        except OSError as exc:
            raise ConfigError(f"--out: cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_print_defaults(args) -> int:
    cfg = resolve_config({"experiment": args.experiment}) \
        if args.experiment else DEFAULTS
    print(json.dumps(cfg, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sulab",
        description="Desk-scale diffusion-score laboratory: deterministic "
                    "experiment runs, sampling, and diagnostics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--threads", type=int,
                       help="worker processes for sweep members (foe, pat, "
                            "scaling-line), not for one training run; output "
                            "is byte-identical at any value; default "
                            "SUL_THREADS, else 1")
        p.add_argument("--format", choices=["csv", "csv+svg"], default="csv")

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True)
    common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_sample = sub.add_parser("sample", help="draw samples from a checkpoint")
    p_sample.add_argument("--checkpoint", required=True)
    p_sample.add_argument("--n", type=int, default=100)
    p_sample.add_argument("--label", type=int)
    p_sample.add_argument("--t-min", type=float, default=1e-3)
    p_sample.add_argument("--raw-params", action="store_true",
                          help="use raw instead of EMA parameters")
    common(p_sample)
    p_sample.set_defaults(fn=cmd_sample, out="runs/samples", seed=0)

    p_diag = sub.add_parser("diagnose", help="run one diagnostic metric")
    p_diag.add_argument("checkpoint")
    p_diag.add_argument("dataset")
    p_diag.add_argument("metric")
    p_diag.add_argument("--dataset-format", choices=["csv", "raw-f64"],
                        default="csv")
    p_diag.add_argument("--n", type=int, default=100)
    p_diag.add_argument("--grid", type=int, default=20)
    p_diag.add_argument("--class-id", type=int)
    p_diag.add_argument("--threshold", type=float, default=1 / 3)
    p_diag.add_argument("--calibration-n", type=int, default=8)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--out")
    p_diag.set_defaults(fn=cmd_diagnose)

    p_defaults = sub.add_parser("print-defaults",
                                help="print resolved default configs")
    p_defaults.add_argument("experiment", nargs="?")
    p_defaults.set_defaults(fn=cmd_print_defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericFailureError as exc:  # DivergenceError too
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SulabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
