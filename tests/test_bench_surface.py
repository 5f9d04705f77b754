"""The part of sulab's surface that bench/ reaches, so that renaming or
deleting a name the benchmark uses fails here and not only in a bench run.

bench/workloads.py is imported as it stands, and each workload's smoke
inputs run through its entry point. bench/probes.py is not imported (its
import pins the BLAS thread count); its calls are repeated at tiny shapes.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sulab.data import make_gaussian_dataset
from sulab.empirical import EmpiricalScoreOracle
from sulab.models import MlpScoreNetwork
from sulab.numerics import RngStream
from sulab.training import AdamState, TrainConfig, dsm_step

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

# workload -> artifact names or globs its bench check reads
_ARTIFACTS = {"gaussian-train": ["error_curves.csv", "model.ckpt"],
              "foe-sweep": ["foe_sweep.csv", "samples_factor*.csv"],
              "oracle-memorize": ["samples.npy", "trajectories.npz", "rstar.npy"]}


@pytest.mark.parametrize("workload", sorted(_ARTIFACTS))
def test_smoke_workload_writes_what_its_check_reads(workload, tmp_path):
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(workloads.INPUTS[workload](0, True)))
    art = tmp_path / "art"
    workloads.prepare(workload, inputs, art, 1)()
    for name in _ARTIFACTS[workload]:
        assert list(art.glob(name)), f"{workload} wrote no {name}"


def test_probe_calls():
    rng = np.random.default_rng(0)
    net = MlpScoreNetwork(2, width=8, hidden_layers=2, time_freqs=2, seed=0)
    zs = rng.standard_normal((5, 2))
    ts = rng.uniform(1e-3, 1 - 1e-3, 5)
    feats = net._features(zs, ts, None)
    assert net._forward(feats).shape == (5, 2)
    assert net.evaluate(zs[0], 0.5).shape == (2,)
    loss, grads = net.loss_and_grads(zs, ts, rng.standard_normal((5, 2)))
    assert np.isfinite(loss) and grads.shape == net.flat.shape
    ds = make_gaussian_dataset(2, 10, seed=0)
    ema = net.clone_params()
    loss = dsm_step(net, ds, TrainConfig(batch_size=5), RngStream(0),
                    AdamState(net.params), ema)
    assert np.isfinite(loss)
    oracle = EmpiricalScoreOracle(make_gaussian_dataset(2, 4, seed=0))
    assert oracle.score_batch(zs, 0.5).shape == oracle.score_batch(zs, ts).shape
