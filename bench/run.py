"""sulab benchmark: three experiment workloads, end to end and layer by layer.

    python3 bench/run.py --workload gaussian-train|foe-sweep|oracle-memorize \
        --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]

A run makes the workload's inputs from --seed, repeats whole rounds until
--seconds have passed and, with --trace 0, times SETUP_PROBES set-ups, half
before the rounds and half after them. Each round is a fresh child process
(bench/child.py) with BLAS pinned to one thread; its outputs are checked
(bench/checks.py) after it exits. With --trace 0 the rounds are
untraced and the result holds the end-to-end metrics (medians over rounds).
With --trace 1 untraced and traced rounds alternate and the result holds the
per-layer metrics of the traced rounds plus the tracing overhead.

The last line of stdout is the JSON result; details per round, the machine
facts and the traced spans go to <out>/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 10
CHILD_TIMEOUT_S = 150.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_child(workload: str, inputs_path: Path, rdir: Path, *, trace=False,
              setup_only=False) -> dict:
    """One child process; returns its result dict, with "error" on failure."""
    if rdir.exists():
        shutil.rmtree(rdir)
    rdir.mkdir(parents=True)
    threads = workloads.THREADS.get(workload) or len(os.sched_getaffinity(0))
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(inputs_path),
           str(rdir / "artifacts"), str(rdir / "child.json"),
           "--threads", str(threads)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, **PINNED)
    started = time.monotonic_ns()
    proc = subprocess.Popen(cmd + ["--started", str(started)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
    return json.loads((rdir / "child.json").read_text())


def fail(msg: str):
    """End the run with exit code 1 and no result line."""
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(1)


def setup_probes(workload: str, inputs_path: Path, wdir: Path, n: int) -> list:
    """setup_s of n set-up-only children."""
    times = []
    for _ in range(n):
        res = run_child(workload, inputs_path, wdir / "setup", setup_only=True)
        if "error" in res:
            fail(f"set-up failed: {res['error']}")
        times.append(res["setup_s"])
    return times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.INPUTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, to test the harness itself")
    p.add_argument("--out", type=Path, default=BENCH / "out")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sulab" / "__init__.py").is_file():
        print(f"error: no sulab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    wdir = args.out / args.workload
    if wdir.exists():
        shutil.rmtree(wdir)
    wdir.mkdir(parents=True)
    inputs = workloads.INPUTS[args.workload](args.seed, args.smoke)
    inputs_path = wdir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs, indent=1))

    probes = 0 if args.trace else SETUP_PROBES
    setups = setup_probes(args.workload, inputs_path, wdir, probes // 2)

    rounds, failures = [], []
    begin = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rdir = wdir / f"round{len(rounds)}"
        res = run_child(args.workload, inputs_path, rdir, trace=traced)
        res["traced"] = traced
        if "error" not in res:
            try:
                found = workloads.CHECKS[args.workload](inputs, rdir / "artifacts")
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found = [checks.Failure("artifacts_readable", repr(exc))]
            res["checks_failed"] = [f"{f.check}: {f.detail}" for f in found]
            failures += res["checks_failed"]
        if rounds:  # keep the last round's outputs only
            shutil.rmtree(wdir / f"round{len(rounds) - 1}")
        rounds.append(res)
        done = time.monotonic() - begin >= args.seconds
        if done and (not args.trace or len(rounds) >= 2):
            break

    setups += setup_probes(args.workload, inputs_path, wdir, probes - len(setups))
    ok = [r for r in rounds if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain or (args.trace and not traced):
        # no metric may stand on zero samples: a run with no successful
        # round of each kind it needs has nothing to report
        for r in rounds:
            print(f"round: {r.get('error', 'ok')}", file=sys.stderr)
        fail("no successful round to measure")
    median = statistics.median
    if args.trace:
        per_round = [tracing.layer_metrics(r["spans"]) for r in traced]
        values = {name: median([m[name] for m in per_round])
                  for name in tracing.LAYER_UNITS}
        units = dict(tracing.LAYER_UNITS)
        values["trace.overhead_pct"] = 100.0 * (
            median([r["wall_s"] for r in traced])
            / median([r["wall_s"] for r in plain]) - 1.0)
        units["trace.overhead_pct"] = "%"
    else:
        values = {"wall_s": median([r["wall_s"] for r in plain]),
                  "setup_s": median(setups + [r["setup_s"] for r in plain]),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in plain])}
        units = END_TO_END
    result = {"correct": not failures, "attempted": len(rounds),
              "failed": len(rounds) - len(ok),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}

    machine = ok[0]["machine"]
    (wdir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
         "inputs": inputs, "machine": machine, "setup_probes_s": setups,
         "rounds": rounds, "result": result}, indent=1))
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    for r in rounds:
        print(f"round {'traced' if r.get('traced') else 'plain'}: "
              + (r["error"] if "error" in r else
                 f"wall {r['wall_s']:.3f} s, set-up {r['setup_s']:.3f} s, "
                 f"checks {'ok' if not r['checks_failed'] else r['checks_failed']}"))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
