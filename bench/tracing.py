"""Span tracing of sulab's layers from outside the package.

`Tracer.install()` wraps the public functions and methods of every module of
`src/sulab/` (plus the few private hooks a layer metric needs) and rebinds
each wrapper under every name the original is bound to: module globals, the
module-level dicts that hold functions (`RUNNERS`, `WEIGHTINGS`) and class
attributes. A span is named `<module>.<qualname>`; spans are aggregated in
memory per (parent span, span) edge, so nesting survives without keeping one
record per call. `layer_metrics()` turns the edges into the per-layer
metrics listed in `BENCHMARK.json`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("numerics", "schedule", "data", "empirical", "geometry", "models",
           "training", "sampling", "diagnostics", "experiments", "cli")

# Private names a layer metric needs: the MLP forward (the training forward
# runs inside loss_and_grads without going through evaluate_batch) and the
# RNG stream constructor.
PRIVATE = {"models": {"MlpScoreNetwork": ("_forward",)},
           "numerics": {"RngStream": ("__init__",)}}

FIELD = "sampling.field"          # the velocity closure built by velocity_fn
EVAL_HOOK = "training.eval_hook"  # each hook passed to train(eval_hooks=...)


def _rows_2d(arg) -> int:
    shape = getattr(arg, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


# span name -> rows of work in one call, from the call's arguments
ROWS = {
    "models.MlpScoreNetwork._forward": lambda a, k: _rows_2d(a[1]),
    "empirical.EmpiricalScoreOracle.score_batch": lambda a, k: _rows_2d(a[1]),
    "empirical.EmpiricalScoreOracle.score": lambda a, k: 1,
}


class Tracer:
    def __init__(self):
        # (parent span or "", span) -> [calls, rows, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []  # [span name, time spent in child spans]

    # -- recording ------------------------------------------------------------

    def wrap(self, fn, name: str, before=None, after=None):
        """fn wrapped in a span; before(args, kwargs) may replace the call's
        arguments and after(result) its result."""
        edges, stack, clock = self.edges, self._stack, time.perf_counter
        rows_of = ROWS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rows = rows_of(args, kwargs) if rows_of is not None else 0
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                key = (parent[0] if parent else "", name)
                rec = edges.get(key)
                if rec is None:
                    rec = edges[key] = [0, 0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += rows
                rec[2] += dur
                rec[3] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
            return result if after is None else after(result)

        return traced

    def _hooks_traced(self, args, kwargs):
        hooks = kwargs.get("eval_hooks")
        if hooks:
            kwargs = dict(kwargs, eval_hooks=[self.wrap(h, EVAL_HOOK)
                                              for h in hooks])
        return args, kwargs

    def _special(self, name: str) -> dict:
        if name == "training.train":
            return {"before": self._hooks_traced}
        if name == "sampling.velocity_fn":
            return {"after": lambda v: self.wrap(v, FIELD)}
        return {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of sulab's modules."""
        mods = [importlib.import_module(f"sulab.{m}") for m in MODULES]
        replaced: dict[int, object] = {}  # id(original) -> wrapper
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self.wrap(obj, name,
                                                  **self._special(name))
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    extra = PRIVATE.get(layer, {}).get(attr, ())
                    self._wrap_class(obj, f"{layer}.{attr}", extra)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]

    def _wrap_class(self, cls, prefix: str, extra) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(raw.__func__, name)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, name))

    def spans(self) -> list[dict]:
        return [{"parent": p, "span": s, "calls": c, "rows": r,
                 "total_s": t, "self_s": st}
                for (p, s), (c, r, t, st) in sorted(self.edges.items())]


# ---------------------------------------------------------------------------
# per-layer metrics from aggregated spans

STEPS = {"training.dsm_step", "training.oracle_dsm_step", "training.foe_step"}
FORWARD = "models.MlpScoreNetwork._forward"
BACKWARD = "models.MlpScoreNetwork.loss_and_grads"
EMPIRICAL = {"empirical.EmpiricalScoreOracle.score_batch",
             "empirical.EmpiricalScoreOracle.score",
             "empirical.EmpiricalScoreOracle.softmax_weights",
             "empirical.EmpiricalScoreOracle.collapsed_score",
             "empirical.naive_empirical_score", "empirical.cfg_scores"}
CALIBRATED = {"diagnostics.calibrated_l2", "diagnostics.calibrated_l2_values",
              "diagnostics.memorization_ratio"}
CONVERT = {"schedule.convert_value", "schedule.convert"}
DATA_BUILD = {"data.make_gaussian_dataset", "data.make_class_mixture",
              "data.make_pat_toy_dataset", "data.split_score_region",
              "data.load_points"}

# name -> unit; the order and units BENCHMARK.json lists
LAYER_UNITS = {
    "cli.emit_s": "s",
    "training.steps": "steps",
    "training.step_s": "s",
    "training.step_us": "us",
    "training.adam_ema_s": "s",
    "training.foe_targets_s": "s",
    "training.eval_hooks_s": "s",
    "models.forward_calls": "calls",
    "models.forward_rows": "rows",
    "models.rows_per_forward": "rows/call",
    "models.forward_s": "s",
    "models.backward_calls": "calls",
    "models.backward_s": "s",
    "sampling.trajectories": "calls",
    "sampling.integrate_s": "s",
    "sampling.field_evals": "calls",
    "sampling.nfe_per_trajectory": "calls/traj",
    "sampling.field_s": "s",
    "sampling.solver_overhead_s": "s",
    "empirical.calls": "calls",
    "empirical.rows": "rows",
    "empirical.rows_per_call": "rows/call",
    "empirical.score_s": "s",
    "diagnostics.estimate_region_calls": "calls",
    "diagnostics.estimate_region_s": "s",
    "diagnostics.calibrated_l2_s": "s",
    "geometry.r_star_calls": "calls",
    "geometry.r_star_s": "s",
    "schedule.convert_calls": "calls",
    "schedule.convert_s": "s",
    "numerics.rng_streams": "calls",
    "data.build_s": "s",
    "trace.spans": "calls",
}


def _outer(spans: list[dict], group) -> tuple[int, int, float]:
    """(calls, rows, seconds) of entries into `group` from outside it, so a
    group member called by another member is not counted twice."""
    group = {group} if isinstance(group, str) else group
    calls = rows = 0
    secs = 0.0
    for s in spans:
        if s["span"] in group and s["parent"] not in group:
            calls += s["calls"]
            rows += s["rows"]
            secs += s["total_s"]
    return calls, rows, secs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every LAYER_UNITS metric from one traced round's spans (0 where the
    workload never enters the layer)."""
    m = {}
    m["cli.emit_s"] = _outer(spans, "cli.emit_result")[2]
    steps, _, step_s = _outer(spans, STEPS)
    m["training.steps"] = steps
    m["training.step_s"] = step_s
    m["training.step_us"] = 1e6 * _ratio(step_s, steps)
    m["training.adam_ema_s"] = _outer(
        spans, {"training.adam_step", "training.ema_update"})[2]
    m["training.foe_targets_s"] = _outer(
        spans, "training.sample_softmax_points")[2]
    m["training.eval_hooks_s"] = _outer(spans, EVAL_HOOK)[2]
    f_calls, f_rows, f_s = _outer(spans, FORWARD)
    m["models.forward_calls"] = f_calls
    m["models.forward_rows"] = f_rows
    m["models.rows_per_forward"] = _ratio(f_rows, f_calls)
    m["models.forward_s"] = f_s
    b_calls, _, b_s = _outer(spans, BACKWARD)
    inner_fwd = sum(s["total_s"] for s in spans
                    if s["parent"] == BACKWARD and s["span"] == FORWARD)
    m["models.backward_calls"] = b_calls
    m["models.backward_s"] = b_s - inner_fwd
    trajs, _, integ_s = _outer(spans, "sampling.integrate")
    evals, _, field_s = _outer(spans, FIELD)
    m["sampling.trajectories"] = trajs
    m["sampling.integrate_s"] = integ_s
    m["sampling.field_evals"] = evals
    m["sampling.nfe_per_trajectory"] = _ratio(evals, trajs)
    m["sampling.field_s"] = field_s
    m["sampling.solver_overhead_s"] = integ_s - field_s
    e_calls, e_rows, e_s = _outer(spans, EMPIRICAL)
    m["empirical.calls"] = e_calls
    m["empirical.rows"] = e_rows
    m["empirical.rows_per_call"] = _ratio(e_rows, e_calls)
    m["empirical.score_s"] = e_s
    r_calls, _, r_s = _outer(spans, "diagnostics.estimate_region")
    m["diagnostics.estimate_region_calls"] = r_calls
    m["diagnostics.estimate_region_s"] = r_s
    m["diagnostics.calibrated_l2_s"] = _outer(spans, CALIBRATED)[2]
    g_calls, _, g_s = _outer(spans, "geometry.r_star")
    m["geometry.r_star_calls"] = g_calls
    m["geometry.r_star_s"] = g_s
    c_calls, _, c_s = _outer(spans, CONVERT)
    m["schedule.convert_calls"] = c_calls
    m["schedule.convert_s"] = c_s
    m["numerics.rng_streams"] = _outer(spans,
                                       "numerics.RngStream.__init__")[0]
    m["data.build_s"] = _outer(spans, DATA_BUILD)[2]
    m["trace.spans"] = sum(s["calls"] for s in spans)
    return m
