import pickle

import numpy as np
import pytest

from sulab.data import make_gaussian_dataset, make_pat_toy_dataset
from sulab.errors import FormatError, InvalidArgumentError, RankDeficiencyError
from sulab.models import (GaussianGroundTruthField, IDENTITY, KrrScoreField,
                          MlpScoreNetwork, OracleField, POLAR,
                          RADIAL_EQUIVARIANT, _polar_features_batch,
                          fit_krr_denoiser_field)
from sulab.empirical import EmpiricalScoreOracle
from sulab.numerics import RngStream
from sulab.schedule import SCORE, VELOCITY, XPRED
from sulab.training import ema_network


def _grad_check(net, seed=0, n=5, tol=1e-4):
    """Central-difference check of every parameter; returns worst relative error."""
    rng = np.random.default_rng(seed)
    # randomize the zero-initialized head so gradients are informative
    for p in net.params:
        p += 0.2 * rng.normal(size=p.shape)
    zs = rng.normal(size=(n, net.dim))
    ts = rng.uniform(0.1, 0.9, n)
    targets = rng.normal(size=(n, net.dim))
    labels = (rng.integers(0, net.num_classes, n)
              if net.num_classes > 0 else None)
    _, grads = net.loss_and_grads(zs, ts, targets, labels)
    assert grads.shape == net.flat.shape
    worst = 0.0
    h = 1e-5
    p = net.flat  # every parameter tensor is a view into it
    for idx in range(p.size):
        orig = p[idx]
        p[idx] = orig + h
        lp = net.loss_and_grads(zs, ts, targets, labels)[0]
        p[idx] = orig - h
        lm = net.loss_and_grads(zs, ts, targets, labels)[0]
        p[idx] = orig
        fd = (lp - lm) / (2 * h)
        g = grads[idx]
        if abs(fd) > 1e-7 or abs(g) > 1e-7:
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g)))
    return worst


class TestPolarFeatures:
    def test_unit_x_axis(self):
        np.testing.assert_allclose(_polar_features_batch(np.array([[1.0, 0.0]])),
                                   [[1.0, 1.0, 0.0]])

    def test_diagonal(self):
        r = np.sqrt(2.0)
        np.testing.assert_allclose(_polar_features_batch(np.array([[1.0, 1.0]])),
                                   [[r, 1 / r, 1 / r]])

    def test_origin_convention(self):
        np.testing.assert_array_equal(
            _polar_features_batch(np.array([[0.0, 0.0], [0.0, 2.0]])),
            [[0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])

    def test_requires_2d(self):
        with pytest.raises(InvalidArgumentError):
            MlpScoreNetwork(3, input_map=POLAR)


class TestMlpBasics:
    def test_zero_initialized_head_outputs_zero(self):
        net = MlpScoreNetwork(3, width=8, hidden_layers=2, seed=0)
        zs = RngStream(0, 0).normal((4, 3))
        np.testing.assert_array_equal(net.evaluate_batch(zs, 0.5),
                                      np.zeros((4, 3)))

    def test_single_vs_batch(self):
        net = MlpScoreNetwork(3, width=8, hidden_layers=2, seed=1)
        rng = np.random.default_rng(0)
        for p in net.params:
            p += 0.1 * rng.normal(size=p.shape)
        z = rng.normal(size=3)
        np.testing.assert_allclose(net.evaluate(z, 0.3),
                                   net.evaluate_batch(z[None, :], 0.3)[0])

    def test_seed_reproducibility(self):
        a = MlpScoreNetwork(2, width=8, seed=7)
        b = MlpScoreNetwork(2, width=8, seed=7)
        for p, q in zip(a.params, b.params):
            np.testing.assert_array_equal(p, q)

    def test_polar_map_requires_dim2(self):
        with pytest.raises(InvalidArgumentError):
            MlpScoreNetwork(3, input_map=POLAR)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MlpScoreNetwork(2, prediction_kind="bogus")

    @pytest.mark.parametrize("kw", [{"width": 0}, {"hidden_layers": -1}])
    def test_empty_layers_rejected(self, kw):
        with pytest.raises(InvalidArgumentError):
            MlpScoreNetwork(2, **kw)

    @pytest.mark.parametrize("kw", [
        {}, {"hidden_layers": 0}, {"hidden_layers": 1, "width": 3},
        {"input_map": POLAR, "time_freqs": 0},
        {"input_map": RADIAL_EQUIVARIANT, "num_classes": 3},
        {"num_classes": 2, "class_emb_dim": 5}, {"num_classes": 1},
        {"class_emb_dim": 7}])
    def test_closed_form_count_tiles_the_tensors(self, kw):
        # the flat vector is sized by the closed-form count that load checks
        # a header against; the per-tensor views must cover it exactly
        net = MlpScoreNetwork(2, **{"width": 6, **kw})
        assert net.flat.size == sum(p.size for p in net.params)
        assert np.shares_memory(net.params[-1], net.flat[-1:])

    def test_pickle_keeps_params_views_of_flat(self):
        net = MlpScoreNetwork(3, width=8, hidden_layers=2, num_classes=2,
                              input_map=IDENTITY, seed=4)
        net.flat += 0.1 * RngStream(5, 0).normal(net.flat.shape)
        clone = pickle.loads(pickle.dumps(net))
        assert clone.descriptor() == net.descriptor()
        np.testing.assert_array_equal(clone.flat, net.flat)
        assert all(np.shares_memory(p, clone.flat) for p in clone.params)
        zs = RngStream(6, 0).normal((4, 3))
        labels = [0, 1, 2, 0]
        np.testing.assert_array_equal(clone.evaluate_batch(zs, 0.4, labels),
                                      net.evaluate_batch(zs, 0.4, labels))

    def test_label_out_of_range_rejected(self):
        net = MlpScoreNetwork(2, width=4, num_classes=3, seed=0)
        with pytest.raises(InvalidArgumentError):
            net.evaluate_batch(np.zeros((1, 2)), 0.5, labels=[5])

    def test_null_label_is_default(self):
        net = MlpScoreNetwork(2, width=4, num_classes=2, seed=0)
        rng = np.random.default_rng(1)
        for p in net.params:
            p += 0.1 * rng.normal(size=p.shape)
        zs = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(
            net.evaluate_batch(zs, 0.4),
            net.evaluate_batch(zs, 0.4, labels=[2, 2, 2]))


def _work_net():
    """A class-conditional net with a non-zero head, so every layer matters."""
    net = MlpScoreNetwork(3, width=16, hidden_layers=2, num_classes=2, seed=2)
    net.flat += 0.1 * RngStream(3, 0).normal(net.flat.shape)
    return net


def _work_batch(n, seed=0):
    rng = RngStream(seed, 0)
    return (rng.normal((n, 3)), rng.uniform(0.01, 0.99, n),
            rng.normal((n, 3)), np.arange(n) % 3)


class TestWorkArrays:
    """The forward and backward reuse per-net work arrays that grow to the
    largest batch seen; results must not depend on what ran before."""

    def test_bits_match_a_fresh_net_at_every_batch_size(self):
        net = _work_net()
        for n in (300, 128, 7, 300):
            zs, ts, _, labels = _work_batch(n, seed=n)
            np.testing.assert_array_equal(
                net.evaluate_batch(zs, ts, labels),
                _work_net().evaluate_batch(zs, ts, labels))
        zs, ts, targets, labels = _work_batch(128, seed=1)
        loss, grads = net.loss_and_grads(zs, ts, targets, labels)
        fresh_loss, fresh_grads = _work_net().loss_and_grads(zs, ts, targets,
                                                             labels)
        assert loss == fresh_loss
        np.testing.assert_array_equal(grads, fresh_grads)

    def test_results_survive_later_calls(self):
        net = _work_net()
        zs, ts, targets, labels = _work_batch(50)
        out = net.evaluate_batch(zs, ts, labels)
        kept_out = out.copy()
        _, grads = net.loss_and_grads(zs, ts, targets, labels)
        kept_grads = grads.copy()
        for n in (50, 80):  # new inputs at the same size, then a larger one
            zs2, ts2, targets2, labels2 = _work_batch(n, seed=n + 1)
            net.evaluate_batch(zs2, ts2, labels2)
            _, grads2 = net.loss_and_grads(zs2, ts2, targets2, labels2)
            np.testing.assert_array_equal(out, kept_out)
            np.testing.assert_array_equal(grads, kept_grads)
            assert not np.shares_memory(grads, grads2)

    def test_pickle_and_ema_network_carry_no_work_arrays(self):
        net = _work_net()
        size = len(pickle.dumps(net))
        zs, ts, targets, labels = _work_batch(300)
        net.loss_and_grads(zs, ts, targets, labels)
        assert len(pickle.dumps(net)) == size
        clone = pickle.loads(pickle.dumps(net))
        ema = ema_network(net, net.clone_params())
        for other in (clone, ema):
            assert all(buf.size == 0 for buf in other._bufs)
            np.testing.assert_array_equal(other.evaluate_batch(zs, ts, labels),
                                          net.evaluate_batch(zs, ts, labels))


class TestGradients:
    def test_identity_map(self):
        net = MlpScoreNetwork(4, width=8, hidden_layers=2, seed=3)
        assert _grad_check(net) < 1e-4

    def test_polar_map(self):
        net = MlpScoreNetwork(2, width=8, hidden_layers=2, input_map=POLAR,
                              seed=3)
        assert _grad_check(net) < 1e-4

    def test_radial_equivariant_map(self):
        net = MlpScoreNetwork(2, width=8, hidden_layers=2,
                              input_map=RADIAL_EQUIVARIANT, seed=3)
        assert _grad_check(net) < 1e-4

    def test_class_conditional(self):
        net = MlpScoreNetwork(3, width=8, hidden_layers=2, num_classes=2,
                              class_emb_dim=4, seed=3)
        assert _grad_check(net) < 1e-4


class TestRadialEquivariance:
    def test_rotating_input_rotates_output(self):
        net = MlpScoreNetwork(2, width=16, hidden_layers=2,
                              input_map=RADIAL_EQUIVARIANT, seed=2)
        rng = np.random.default_rng(4)
        for p in net.params:
            p += 0.2 * rng.normal(size=p.shape)
        z = np.array([0.8, -0.4])
        theta = 1.1
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        out_rotated_input = net.evaluate(rot @ z, 0.4)
        rotated_output = rot @ net.evaluate(z, 0.4)
        np.testing.assert_allclose(out_rotated_input, rotated_output,
                                   rtol=1e-10, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        net = MlpScoreNetwork(3, width=8, hidden_layers=2, num_classes=2,
                              class_emb_dim=4, seed=5)
        rng = np.random.default_rng(0)
        for p in net.params:
            p += rng.normal(size=p.shape)
        ema = net.clone_params() + 0.5
        path = tmp_path / "model.ckpt"
        net.save(path, ema_params=ema)
        loaded, loaded_ema = MlpScoreNetwork.load(path)
        assert loaded.descriptor() == net.descriptor()
        for p, q in zip(loaded.params, net.params):
            np.testing.assert_array_equal(p, q)
        for p, q in zip(loaded_ema, net.params):
            np.testing.assert_array_equal(p, q + 0.5)
        # save -> load -> save reproduces the file byte for byte
        again = tmp_path / "again.ckpt"
        loaded.save(again, ema_params=loaded_ema)
        assert again.read_bytes() == path.read_bytes()

    def test_layout_is_the_flat_vector(self, tmp_path):
        # header, then the parameters in params order, then the EMA
        net = MlpScoreNetwork(2, width=4, seed=1)
        path = tmp_path / "model.ckpt"
        net.save(path, ema_params=net.clone_params() * 2.0)
        blob = path.read_bytes()
        tail = np.frombuffer(blob[len(blob) - 16 * net.flat.size:], "<f8")
        np.testing.assert_array_equal(
            tail[:net.flat.size], np.concatenate([p.ravel() for p in net.params]))
        np.testing.assert_array_equal(tail[net.flat.size:], 2.0 * net.flat)

    def test_no_ema(self, tmp_path):
        net = MlpScoreNetwork(2, width=4, seed=0)
        path = tmp_path / "model.ckpt"
        net.save(path)
        _, ema = MlpScoreNetwork.load(path)
        assert ema is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError):
            MlpScoreNetwork.load(path)

    def test_set_params_length_checked(self):
        net = MlpScoreNetwork(2, width=4, seed=0)
        with pytest.raises(InvalidArgumentError):
            net.set_params(net.params[:-1])
        with pytest.raises(InvalidArgumentError):
            net.set_params(net.clone_params()[:-1])

    @pytest.mark.parametrize("damage", ["truncated", "extended", "header",
                                        "unknown-key", "bool-for-int",
                                        "missing"])
    def test_malformed_files_raise_format_error(self, tmp_path, damage):
        net = MlpScoreNetwork(2, width=4, num_classes=2, seed=0)
        path = tmp_path / "model.ckpt"
        net.save(path, ema_params=net.clone_params())
        blob = path.read_bytes()
        edits = {
            "truncated": blob[:-9],
            "extended": blob + b"\0" * 8,
            "header": blob.replace(b'"class_emb_dim"', b'"!lass_emb_dim"'),
            "unknown-key": blob.replace(b'"class_emb_dim"', b'"class_emb_dix"'),
            "bool-for-int": blob.replace(b'"width": 4', b'"width": true'),
        }
        if damage == "missing":
            path = tmp_path / "absent.ckpt"
        else:
            assert edits[damage] != blob
            path.write_bytes(edits[damage])
        with pytest.raises(FormatError, match=path.name):
            MlpScoreNetwork.load(path)


class TestKrr:
    def test_interpolates_with_tiny_ridge(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=(20, 2))
        # t = 0 appends a zero feature, so the kernel is the one over x alone
        field = KrrScoreField(x, 0.0, y, gamma=1.0, ridge=1e-12)
        np.testing.assert_allclose(field.evaluate_batch(x, 0.0), y, atol=1e-6)

    def test_residual_small_on_fit(self):
        # the coefficients solve (K + ridge I) C = Y
        rng = np.random.default_rng(1)
        x = rng.normal(size=(15, 3))
        y = rng.normal(size=(15, 1))
        field = KrrScoreField(x, 0.0, y, gamma=0.5, ridge=1e-10)
        sq = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
        k = np.exp(-0.5 * sq) + 1e-10 * np.eye(15)
        assert np.linalg.norm(k @ field.coeffs - y) / np.linalg.norm(y) < 1e-6

    def test_duplicate_inputs_need_ridge(self):
        x = np.zeros((3, 2))
        y = np.ones((3, 1))
        with pytest.raises(RankDeficiencyError):
            KrrScoreField(x, 0.0, y, gamma=1.0, ridge=0.0)
        field = KrrScoreField(x, 0.0, y, gamma=1.0, ridge=1e-6)
        assert np.all(np.isfinite(field.coeffs))

    def test_field_wraps_denoiser_as_xpred(self):
        ds = make_pat_toy_dataset()
        field = fit_krr_denoiser_field(ds, n_draws=128, gamma=2.0, ridge=1e-4,
                                       seed=0, input_map=POLAR)
        assert isinstance(field, KrrScoreField)
        assert field.prediction_kind == XPRED
        out = field.evaluate_batch(np.array([[0.5, 0.5]]), 0.3)
        assert out.shape == (1, 2) and np.all(np.isfinite(out))


class TestScoreFields:
    def test_oracle_field_matches_oracle(self):
        ds = make_gaussian_dataset(3, 8, seed=0)
        oracle = EmpiricalScoreOracle(ds)
        field = OracleField(oracle)
        assert field.prediction_kind == SCORE
        zs = np.array([[0.1, -0.3, 0.2], [1.0, 0.5, -2.0]])
        ts = np.array([0.4, 0.7])
        np.testing.assert_array_equal(field.evaluate_batch(zs, ts),
                                      oracle.score_batch(zs, ts))

    def test_gaussian_field_formula(self):
        field = GaussianGroundTruthField(2)
        z = np.array([[1.0, -2.0]])
        var = 0.5**2 + 0.5**2
        np.testing.assert_allclose(field.evaluate_batch(z, 0.5), -z / var)

    def test_fields_expose_dim(self):
        assert GaussianGroundTruthField(7).dim == 7
        ds = make_gaussian_dataset(3, 4, seed=0)
        assert OracleField(EmpiricalScoreOracle(ds)).dim == 3
