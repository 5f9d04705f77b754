"""Tests of the benchmark itself: every correctness check rejects a corrupted
output, and a smoke run takes each workload through the harness.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(out: Path, workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke",
         "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """workload -> (stdout JSON result, artifact dir) of an untraced smoke run."""
    out = tmp_path_factory.mktemp("smoke")
    runs = {}
    for w in WORKLOADS:
        proc = bench(out, w, trace=0)
        assert proc.returncode == 0, proc.stderr
        art = next((out / w).glob("round*")) / "artifacts"
        runs[w] = (json.loads(proc.stdout.strip().splitlines()[-1]), art)
    return runs


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_end_to_end_metrics(smoke, workload):
    result, _ = smoke[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_reports_every_layer_metric(tmp_path, workload):
    proc = bench(tmp_path, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] == 2 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("per_layer")


INSTALL_CHECK = """
import inspect, sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracing
tracing.Tracer().install()
import sulab.cli, sulab.diagnostics, sulab.experiments, sulab.sampling
from sulab import schedule, training, sampling
mods = [sys.modules['sulab.' + m] for m in tracing.MODULES]
for mod in mods:
    for name, obj in vars(mod).items():
        if (inspect.isfunction(obj) and not name.startswith('_')
                and obj.__module__.startswith('sulab.')):
            assert hasattr(obj, '__wrapped__'), (mod.__name__, name)
assert all(hasattr(f, '__wrapped__') for f in sulab.cli.RUNNERS.values())
assert sulab.experiments.train is training.train
assert sulab.experiments.sample is sampling.sample
assert sulab.diagnostics.integrate is sampling.integrate
assert sampling.convert_value is schedule.convert_value
assert hasattr(sulab.models.MlpScoreNetwork.evaluate_batch, '__wrapped__')
assert hasattr(sulab.models.MlpScoreNetwork._forward, '__wrapped__')
"""


def test_tracer_wraps_every_binding():
    code = INSTALL_CHECK.format(bench=str(BENCH), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path / "out", WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


CRASHING_CHILD = """
import json, sys
if "--setup-only" in sys.argv:  # set-up works, every round exits non-zero
    open(sys.argv[4], "w").write(json.dumps({"setup_s": 0.5}))
    raise SystemExit(0)
raise SystemExit(3)
"""


@pytest.mark.parametrize("trace", [0, 1])
def test_no_result_when_every_round_crashes(tmp_path, monkeypatch, capsys, trace):
    import run
    (tmp_path / "child.py").write_text(CRASHING_CHILD)
    monkeypatch.setattr(run, "BENCH", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "oracle-memorize", "--seed", "0", "--seconds",
                  "0", "--trace", str(trace), "--smoke", "--out",
                  str(tmp_path / "out")])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "exit 3" in err and "no successful round" in err


# -- gaussian-train ----------------------------------------------------------

def test_manifest_rejects_tampered_digest(smoke, tmp_path):
    art = shutil.copytree(smoke["gaussian-train"][1], tmp_path / "art")
    assert checks.check_manifest(art) == []
    with open(art / "loss_curve.csv", "a") as fh:
        fh.write("0,0.0\n")
    assert {f.check for f in checks.check_manifest(art)} == {"manifest_digests"}


def test_error_falls_rejects_flat_curve(smoke, tmp_path):
    art = shutil.copytree(smoke["gaussian-train"][1], tmp_path / "art")
    path = art / "error_curves.csv"
    lines = path.read_text().splitlines()
    first = lines[1].split(",")
    halved = [first[0]] + [repr(float(v) * 0.4) for v in first[1:]]
    path.write_text("\n".join([lines[0], lines[1], ",".join(halved)]) + "\n")
    assert checks.check_error_falls(art) == []
    path.write_text("\n".join([lines[0], lines[1], lines[1]]) + "\n")
    assert [f.check for f in checks.check_error_falls(art)] == ["sup_error_halves"]


def test_fits_empirical_score_rejects_gaussian_fit():
    points = np.random.default_rng(0).standard_normal((50, 8))

    def emp(zs, t):
        return checks.empirical_score(points, zs, t)

    assert checks.check_sup_error_ordering(emp, points, seed=1) == []
    found = checks.check_sup_error_ordering(checks.gaussian_score, points, seed=1)
    assert [f.check for f in found] == ["fits_empirical_score"]


def test_checkpoint_reader_matches_the_network(smoke):
    from sulab.models import MlpScoreNetwork
    from sulab.schedule import SCORE, convert_value
    path = smoke["gaussian-train"][1] / "model.ckpt"
    desc, params, ema = checks.read_checkpoint(path)
    net, ema_ref = MlpScoreNetwork.load(path)
    assert all(np.array_equal(a, b) for a, b in zip(ema, ema_ref))
    zs = np.random.default_rng(1).standard_normal((7, desc["dim"]))
    for t in (0.05, 0.5, 0.9):
        ref = convert_value(net.evaluate_batch(zs, t), net.prediction_kind,
                            SCORE, zs, t)
        np.testing.assert_allclose(checks.mlp_score(desc, params, zs, t), ref,
                                   rtol=1e-10, atol=1e-10)


# -- foe-sweep ---------------------------------------------------------------

def _foe_case():
    rng = np.random.default_rng(2)
    subsets = {1: rng.standard_normal((16, 16)), 8: rng.standard_normal((16, 16))}
    samples = {1: rng.standard_normal((40, 16)),  # novel draws
               8: subsets[8][rng.integers(0, 16, 40)]
               + 1e-3 * rng.standard_normal((40, 16))}  # copies
    sweep = [[str(f), str(16 * f), repr(thr),
              repr(float(np.mean(checks.calibrated_l2(samples[f], subsets[f], 4)
                                 < thr)))]
             for f in (1, 8) for thr in (1 / 3, 0.5)]
    return sweep, samples, subsets


def test_foe_ratios_accepts_consistent_sweep():
    sweep, samples, subsets = _foe_case()
    assert checks.check_foe_ratios(sweep, samples, subsets, 4) == []


def test_foe_ratios_rejects_swapped_factors():
    sweep, samples, subsets = _foe_case()
    swapped = [row[:3] + [other[3]] for row, other in zip(sweep, sweep[2:] + sweep[:2])]
    found = {f.check for f in checks.check_foe_ratios(swapped, samples, subsets, 4)}
    assert "ratios_reproduced" in found


def test_foe_rejects_factor8_not_memorizing_more():
    sweep, samples, subsets = _foe_case()
    samples = {1: samples[8], 8: samples[1]}
    subsets = {1: subsets[8], 8: subsets[1]}
    sweep = [[row[0], row[1], row[2], other[3]]
             for row, other in zip(sweep, sweep[2:] + sweep[:2])]
    found = [f.check for f in checks.check_foe_ratios(sweep, samples, subsets, 4)]
    assert found == ["larger_region_memorizes_more"]


# -- oracle-memorize ---------------------------------------------------------

def _oracle_outputs(smoke):
    from sulab.data import make_gaussian_dataset
    art = smoke["oracle-memorize"][1]
    inp = workloads.INPUTS["oracle-memorize"](3, smoke=True)
    points = make_gaussian_dataset(inp["dim"], inp["n_points"], seed=3).points
    return inp, art, points, np.load(art / "samples.npy")


def test_oracle_outputs_pass(smoke):
    inp, art, _, _ = _oracle_outputs(smoke)
    assert checks.check_oracle(inp, art) == []


def test_memorized_rejects_shifted_samples(smoke):
    _, _, points, samples = _oracle_outputs(smoke)
    found = [f.check for f in checks.check_memorized(samples + 0.1, points)]
    assert found == ["samples_on_training_points"]


def test_memorized_rejects_one_point_taking_all(smoke):
    _, _, points, samples = _oracle_outputs(smoke)
    collapsed = np.repeat(points[:1], len(samples), axis=0)
    assert [f.check for f in checks.check_memorized(collapsed, points)] == [
        "no_point_dominates"]


def test_rstar_rejects_tampered_value(smoke):
    inp, art, points, _ = _oracle_outputs(smoke)
    traj = np.load(art / "trajectories.npz")
    emitted = np.load(art / "rstar.npy")
    emitted[0, 3] *= 1.001
    found = checks.check_rstar(points, traj["times"], traj["states"],
                               traj["offsets"], inp["t_grid"], emitted)
    assert [f.check for f in found] == ["rstar_reproduced"]
