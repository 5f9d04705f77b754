import numpy as np
import pytest

from sulab import training
from sulab.data import (Dataset, make_class_mixture, make_gaussian_dataset,
                        split_score_region)
from sulab.empirical import EmpiricalScoreOracle
from sulab.errors import InvalidArgumentError, NumericFailureError
from sulab.models import MlpScoreNetwork
from sulab.numerics import RngStream
from sulab.schedule import (SCORE, VELOCITY, XPRED, PREDICTION_KINDS,
                            convert_value, forward_process)
from sulab.training import (AdamState, TrainConfig, adam_step, dsm_step,
                            ema_network, train)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            TrainConfig(lr=0.0)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(ema_decay=1.0)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(class_dropout=1.5)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(t_min=0.5)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(batch_size=0)
        with pytest.raises(InvalidArgumentError, match="eval_interval"):
            TrainConfig(eval_interval=-1)
        TrainConfig(eval_interval=0)  # 0 means no periodic evaluation


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # After one step the bias-corrected update is lr * g / (|g| + eps'),
        # i.e. approximately lr * sign(g).
        cfg = TrainConfig(lr=0.1)
        p = np.array([1.0, -2.0, 3.0])
        g = np.array([0.5, -0.25, 1.0])
        st = AdamState([p])
        adam_step(st, p, g, cfg)
        np.testing.assert_allclose(p, [0.9, -1.9, 2.9], atol=1e-6)

    def test_matches_reference_implementation(self):
        cfg = TrainConfig(lr=1e-2)
        rng = np.random.default_rng(0)
        p = rng.normal(size=10)
        p_ref = p.copy()
        st = AdamState([p])
        m = np.zeros_like(p_ref)
        v = np.zeros_like(p_ref)
        for step in range(1, 6):
            g = rng.normal(size=p.shape)
            adam_step(st, p, g.copy(), cfg)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9**step)
            vh = v / (1 - 0.999**step)
            p_ref = p_ref - cfg.lr * mh / (np.sqrt(vh) + 1e-8)
        np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=1e-12)

    def test_state_spans_the_flat_parameters(self):
        net = MlpScoreNetwork(3, width=8, hidden_layers=2, num_classes=2,
                              seed=0)
        st = AdamState(net.params)
        assert st.m.shape == st.v.shape == net.flat.shape
        assert sum(p.size for p in net.params) == net.flat.size
        # the per-tensor list is a set of views: Adam on the vector moves them
        adam_step(st, net.flat, np.ones_like(net.flat), TrainConfig(lr=0.1))
        assert all(np.shares_memory(p, net.flat) for p in net.params)
        np.testing.assert_allclose(net.params[1], -0.1, atol=1e-6)

    def test_blocks_keep_full_vector_arithmetic_bitwise(self):
        # three blocks, the last one short; the reference is the one-pass
        # full-vector form, with each element's operations in the same order,
        # the EMA following the finished Adam update
        cfg = TrainConfig(lr=1e-2, ema_decay=0.9)
        rng = np.random.default_rng(2)
        size = 2 * training._BLOCK + 5
        p = rng.normal(size=size)
        e = p + 1.0
        st = AdamState([p])
        p_ref, e_ref = p.copy(), e.copy()
        m, v = np.zeros(size), np.zeros(size)
        for step in range(1, 4):
            g = rng.normal(size=size)
            adam_step(st, p, g, cfg, e)
            m = m * 0.9 + (1.0 - 0.9) * g
            v = v * 0.999 + (1.0 - 0.999) * (g * g)
            denom = np.sqrt(v * (1.0 / (1.0 - 0.999 ** step))) + 1e-8
            p_ref -= m / denom * (cfg.lr / (1.0 - 0.9 ** step))
            e_ref = e_ref * 0.9 + (1.0 - 0.9) * p_ref
        np.testing.assert_array_equal(p, p_ref)
        np.testing.assert_array_equal(e, e_ref)

    def test_non_finite_gradient_raises(self):
        cfg = TrainConfig()
        p = np.zeros(2)
        st = AdamState([p])
        with pytest.raises(NumericFailureError):
            adam_step(st, p, np.array([np.nan, 0.0]), cfg)

    def test_length_mismatch(self):
        cfg = TrainConfig()
        p = np.zeros(2)
        with pytest.raises(InvalidArgumentError):
            adam_step(AdamState([p]), p, np.zeros(1), cfg)


class TestEma:
    def test_update_formula(self):
        # a zero gradient leaves m at 0 and so the parameters where they are;
        # the EMA moves to decay * ema + (1 - decay) * params
        e = np.array([1.0, 1.0])
        p = np.array([3.0, -1.0])
        adam_step(AdamState([p]), p, np.zeros(2), TrainConfig(ema_decay=0.9), e)
        np.testing.assert_array_equal(p, [3.0, -1.0])
        np.testing.assert_allclose(e, [1.2, 0.8])

    def test_ema_network_carries_snapshot(self):
        net = MlpScoreNetwork(2, width=4, seed=0)
        snap = net.clone_params() + 1.0
        clone = ema_network(net, snap)
        np.testing.assert_array_equal(clone.flat, snap)
        # original network untouched
        assert not np.allclose(net.params[-1], clone.params[-1])


class TestTargets:
    def test_dsm_target_kinds(self):
        # The dsm target is x converted from x-prediction at z_t: the closed
        # forms -eps/t, eps - x and x, at both clamp ends and in between,
        # to a relative error of the whole target (at t = 1 - 1e-3 the
        # conversion cancels at the scale of z / (1 - t), so a component
        # much smaller than its row may lose more digits than its row)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        eps = rng.normal(size=(4, 3))
        for t in (1e-3, 0.5, 1 - 1e-3):
            ts = np.full(4, t)
            zs = forward_process(x, eps, ts)
            for kind, closed in ((SCORE, -eps / t), (VELOCITY, eps - x),
                                 (XPRED, x)):
                err = convert_value(x, XPRED, kind, zs, ts) - closed
                assert np.linalg.norm(err) <= 1e-12 * np.linalg.norm(closed)

    def test_point_targets_consistent_kinds(self):
        # The foe target is a single point y, an x-prediction; converted, it
        # gives the closed forms (alpha y - z)/sigma^2 and (z - y)/t.
        rng = np.random.default_rng(1)
        y = rng.normal(size=(5, 2))
        zs = rng.normal(size=(5, 2))
        ts = rng.uniform(0.2, 0.8, 5)
        np.testing.assert_allclose(
            convert_value(y, XPRED, SCORE, zs, ts),
            ((1 - ts)[:, None] * y - zs) / (ts * ts)[:, None], rtol=1e-10)
        np.testing.assert_allclose(convert_value(y, XPRED, VELOCITY, zs, ts),
                                   (zs - y) / ts[:, None], rtol=1e-10)

    def test_score_to_kind_identity(self):
        s = np.ones((2, 3))
        zs = np.zeros((2, 3))
        ts = np.array([0.3, 0.6])
        assert convert_value(s, SCORE, SCORE, zs, ts) is s


class TestDsmStep:
    def test_draw_order_and_target_inputs(self):
        # index, noise, time, class dropout, then whatever the clean hook draws
        ds = make_class_mixture(2, 8, seed=0)
        cfg = TrainConfig(batch_size=6, class_dropout=0.5, t_min=0.01)
        net = MlpScoreNetwork(2, width=4, num_classes=2, seed=0)
        seen = {}

        def clean(zs, ts, rng):
            seen.update(zs=zs, ts=ts, u=rng.uniform(size=1))
            return zs

        dsm_step(net, ds, cfg, RngStream(3), AdamState(net.params),
                 clean=clean)
        ref = RngStream(3)
        x = ds.points[ref.integers(0, ds.size, 6)]
        eps = ref.normal((6, 2))
        np.testing.assert_array_equal(seen["ts"], ref.uniform(0.01, 0.99, 6))
        ref.uniform(size=6)  # class dropout
        np.testing.assert_array_equal(seen["u"], ref.uniform(size=1))
        np.testing.assert_array_equal(
            seen["zs"], forward_process(x, eps, seen["ts"]))

    @pytest.mark.parametrize("kind", PREDICTION_KINDS)
    def test_targets_are_the_clean_point_converted(self, kind, monkeypatch):
        # both losses form their targets by the one conversion; for dsm the
        # clean point is the x that made z_t
        ds = make_gaussian_dataset(3, 16, seed=0)
        net = MlpScoreNetwork(3, width=8, prediction_kind=kind, seed=0)
        seen = {}
        loss_and_grads = net.loss_and_grads

        def spy(zs, ts, targets, labels=None, dtype=np.float64):
            seen.update(zs=zs, ts=ts, targets=targets, dtype=dtype)
            return loss_and_grads(zs, ts, targets, labels, dtype)

        monkeypatch.setattr(net, "loss_and_grads", spy)
        dsm_step(net, ds, TrainConfig(batch_size=32), RngStream(4),
                 AdamState(net.params))
        x = ds.points[RngStream(4).integers(0, ds.size, 32)]
        np.testing.assert_array_equal(
            seen["targets"],
            convert_value(x, XPRED, kind, seen["zs"], seen["ts"]))
        assert seen["dtype"] == np.float32  # training's arithmetic


class TestSoftmaxSampling:
    def test_dominant_point_always_picked(self):
        # At small t one point dominates the responsibilities completely.
        pts = np.array([[0.0, 0.0], [100.0, 0.0]])
        ts = np.full(8, 0.05)
        zs = np.tile((1 - 0.05) * pts[1], (8, 1))
        drawn = EmpiricalScoreOracle(Dataset(pts)).draw(zs, ts, RngStream(0, 0))
        np.testing.assert_array_equal(drawn, np.tile(pts[1], (8, 1)))

    def test_uniform_when_symmetric(self):
        # z equidistant from both points at large t: picks split roughly evenly.
        pts = np.array([[-1.0, 0.0], [1.0, 0.0]])
        n = 4000
        zs = np.zeros((n, 2))
        ts = np.full(n, 0.9)
        drawn = EmpiricalScoreOracle(Dataset(pts)).draw(zs, ts, RngStream(1, 0))
        assert set(drawn[:, 0]) <= {-1.0, 1.0} and not drawn[:, 1].any()
        frac = (drawn[:, 0] > 0).mean()
        assert 0.45 < frac < 0.55


class TestTrainLoop:
    def test_missing_inputs_rejected(self):
        net = MlpScoreNetwork(2, width=4, seed=0)
        with pytest.raises(TypeError):
            train(net, TrainConfig(iterations=1))

    def test_deterministic_given_seed(self):
        ds = make_gaussian_dataset(3, 16, seed=0)
        cfg = TrainConfig(iterations=20, batch_size=8, seed=5)
        reports, nets = [], []
        for _ in range(2):
            nets.append(MlpScoreNetwork(3, width=8, hidden_layers=2, seed=1))
            reports.append(train(nets[-1], cfg, dataset=ds))
        assert reports[0].loss_curve == reports[1].loss_curve
        np.testing.assert_array_equal(nets[0].flat, nets[1].flat)
        np.testing.assert_array_equal(reports[0].ema_params,
                                      reports[1].ema_params)

    def test_dsm_loss_decreases(self):
        # Point mass at the origin: z = t * eps, so the velocity target z/t is
        # a deterministic function of the input and the loss can shrink freely.
        ds = Dataset(points=np.zeros((1, 2)))
        net = MlpScoreNetwork(2, width=32, hidden_layers=2, seed=0)
        report = train(net, TrainConfig(iterations=400, batch_size=64,
                                        lr=2e-3, seed=0, t_min=0.05),
                       dataset=ds)
        losses = [l for _, l in report.loss_curve]
        assert np.mean(losses[-50:]) < 0.2 * np.mean(losses[:50])

    def test_foe_regresses_to_score_subset_field(self):
        # The expectation of the single-point target over the softmax draw is
        # the empirical velocity of the score subset, so training should pull
        # the network toward that field on region-subset forward draws.
        ds = make_class_mixture(2, 8, seed=0, separation=6.0)
        pair = split_score_region(ds, n_score=4, n_region=16, seed=0)
        net = MlpScoreNetwork(2, width=32, hidden_layers=2, seed=0)
        train(net, TrainConfig(iterations=800, batch_size=64, lr=2e-3,
                               seed=0, t_min=0.05),
              dataset=ds, subset_pair=pair)
        oracle = EmpiricalScoreOracle(ds.subset(pair.score_idx))
        rng = np.random.default_rng(0)
        region_pts = ds.points[pair.region_idx]
        idx = rng.integers(0, region_pts.shape[0], 200)
        ts = rng.uniform(0.3, 0.7, 200)
        x = region_pts[idx]
        zs = (1 - ts)[:, None] * x + ts[:, None] * rng.normal(size=x.shape)
        scores = oracle.score_batch(zs, ts)
        target_v = convert_value(scores, SCORE, VELOCITY, zs, ts)
        pred_v = net.evaluate_batch(zs, ts)
        err = np.mean(np.sum((pred_v - target_v) ** 2, axis=1))
        scale = np.mean(np.sum(target_v**2, axis=1))
        assert err < 0.3 * scale

    def test_eval_hooks_schedule_and_records(self):
        ds = make_gaussian_dataset(2, 8, seed=0)
        net = MlpScoreNetwork(2, width=4, seed=0)
        records = []

        def hook(it, raw, ema):  # a hook keeps its own rows
            records.append((it, raw is net, ema is not net, ema.width))

        train(net, TrainConfig(iterations=10, batch_size=4, eval_interval=5,
                               seed=0), dataset=ds, eval_hooks=(hook,))
        assert records == [(it, True, True, 4) for it in (0, 5, 10)]

    def test_class_dropout_uses_null_token(self):
        # With dropout 1.0 every label becomes the null token, which must
        # match training an unconditional pass (same losses as dropout with
        # labels all-null is hard to cross-check directly, so just verify the
        # run is finite and deterministic).
        ds = make_class_mixture(2, 8, seed=0)
        cfg = TrainConfig(iterations=10, batch_size=8, class_dropout=1.0,
                          seed=0)
        runs = []
        for _ in range(2):
            net = MlpScoreNetwork(2, width=8, num_classes=2, class_emb_dim=4,
                                  seed=0)
            runs.append(train(net, cfg, dataset=ds).loss_curve)
        assert runs[0] == runs[1]
        assert np.isfinite([l for _, l in runs[0]]).all()

    def test_ema_tracks_params(self):
        ds = make_gaussian_dataset(2, 8, seed=0)
        net = MlpScoreNetwork(2, width=8, seed=0)
        init = net.clone_params()
        report = train(net, TrainConfig(iterations=50, batch_size=8,
                                        ema_decay=0.0, seed=0), dataset=ds)
        # decay 0 means EMA equals the latest parameters exactly
        np.testing.assert_array_equal(report.ema_params, net.flat)
        assert not np.allclose(init, net.flat)
