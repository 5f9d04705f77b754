import copy
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sulab import cli, experiments
from sulab.cli import (ConfigError, DEFAULTS, csv_bytes, format_cell, main,
                       merge_config, resolve_config)
from sulab.data import Dataset, save_points
from sulab.errors import (DivergenceError, EmptyClassError, FormatError,
                          InvalidArgumentError, NumericFailureError,
                          RankDeficiencyError, SingularTimeError)
from sulab.experiments import RunContext
from sulab.models import MlpScoreNetwork


def run_cli(args):
    return main(list(args))


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def _refuse(*args, **kwargs):
    raise AssertionError("work started that the input should have stopped")


class TestConfigMerging:
    def test_unknown_key_reports_path(self):
        with pytest.raises(ConfigError, match="dataset.bogus"):
            merge_config(DEFAULTS["gaussian"],
                         {"dataset": {"bogus": 1}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key: typo"):
            merge_config(DEFAULTS["gaussian"], {"typo": 1})

    def test_scalar_for_object_rejected(self):
        with pytest.raises(ConfigError, match="expected an object"):
            merge_config(DEFAULTS["gaussian"], {"dataset": 3})

    def test_override_applies_deeply(self):
        cfg = merge_config(DEFAULTS["gaussian"],
                           {"dataset": {"dim": 5}, "seed": 9})
        assert cfg["dataset"]["dim"] == 5
        assert cfg["seed"] == 9
        assert cfg["dataset"]["n_points"] == \
            DEFAULTS["gaussian"]["dataset"]["n_points"]

    def test_defaults_not_mutated(self):
        before = json.dumps(DEFAULTS["gaussian"], sort_keys=True)
        merge_config(DEFAULTS["gaussian"], {"dataset": {"dim": 99}})
        assert json.dumps(DEFAULTS["gaussian"], sort_keys=True) == before

    def test_resolve_requires_known_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            resolve_config({"experiment": "nope"})
        with pytest.raises(ConfigError):
            resolve_config([1, 2])

    def test_seed_must_be_int(self):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config({"experiment": "overlap-curve", "seed": 1.5})

    def test_int_accepted_where_float_expected(self):
        cfg = resolve_config({"experiment": "overlap-curve",
                              "dataset": {"separation": 8},
                              "t_grid": [0.5, 1]})
        assert cfg["dataset"]["separation"] == 8 and cfg["t_grid"] == [0.5, 1]

    @pytest.mark.parametrize("experiment, kind", [
        ("gaussian", "class-mixture"), ("overlap-curve", "gaussian"),
        ("rstar-profile", "pat-toy")])
    def test_dataset_kind_is_fixed_per_experiment(self, tmp_path, capsys,
                                                  experiment, kind):
        cfg_path = write_config(tmp_path / "c.json", {
            "experiment": experiment, "dataset": {"kind": kind}})
        out = tmp_path / "out"
        assert run_cli(["run", "--config", cfg_path, "--out", str(out)]) == 2
        assert f"error: dataset.kind: {experiment} takes only" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, override, field", [
        ("overlap-curve", {"t_grid": "abc"}, "t_grid"),
        ("overlap-curve", {"t_grid": [0.5, "x"]}, "t_grid"),
        ("overlap-curve", {"t_grid": [0.5, True]}, "t_grid"),
        ("overlap-curve", {"seed": True}, "seed"),
        ("overlap-curve", {"dataset": {"dim": 2.5}}, "dataset.dim"),
        ("overlap-curve", {"dataset": {"separation": "8"}},
         "dataset.separation"),
        ("overlap-curve", {"out": 3}, "out"),
        ("scaling-line", {"n_samples": "5"}, "n_samples"),
        ("scaling-line", {"widths": [8, 16.0]}, "widths"),
        ("foe", {"model": {"prediction_kind": None}}, "model.prediction_kind"),
    ])
    def test_leaf_type_mismatch_exits_2(self, tmp_path, capsys, experiment,
                                        override, field):
        cfg_path = write_config(tmp_path / "c.json",
                                {"experiment": experiment, **override})
        out = tmp_path / "out"
        assert run_cli(["run", "--config", cfg_path, "--out", str(out)]) == 2
        assert f"error: {field}: expected" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (ConfigError("x"), 2), (InvalidArgumentError("x"), 2),
        (FormatError("x"), 2), (RankDeficiencyError("x"), 2),
        (SingularTimeError("x"), 2), (EmptyClassError("x"), 2),
        (NumericFailureError("x"), 3), (DivergenceError("x"), 3)])
    def test_library_errors_map_to_exit_codes(self, monkeypatch, capsys,
                                              error, code):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "cmd_print_defaults", fail)
        assert run_cli(["print-defaults"]) == code
        assert "x" in capsys.readouterr().err

    def test_degenerate_scaling_line_exits_2(self, tmp_path, capsys,
                                             monkeypatch):
        # equal widths would give equal losses, a line fit with no abscissa
        # spread, and one checkpoint name for two nets: refused up front
        self._scaling_line_refused(tmp_path, capsys, monkeypatch, [4, 4])

    @pytest.mark.parametrize("widths", [[8], [], [8, 16, 8]])
    def test_scaling_line_needs_two_distinct_widths(self, tmp_path, capsys,
                                                    monkeypatch, widths):
        self._scaling_line_refused(tmp_path, capsys, monkeypatch, widths)

    @staticmethod
    def _scaling_line_refused(tmp_path, capsys, monkeypatch, widths):
        monkeypatch.setattr(experiments, "train", _refuse)
        monkeypatch.setattr(RunContext, "map", _refuse)
        cfg_path = write_config(tmp_path / "c.json", {
            "experiment": "scaling-line", "dataset": {"n_per_class": 8},
            "widths": widths, "n_samples": 4,
            "model": {"hidden_layers": 1, "time_freqs": 2},
            "train": {"iterations": 5},
            "solver": {"kind": "fixed-euler", "fixed_steps": 4},
            "diagnostics": {"n": 4, "timesteps": 2}})
        assert run_cli(["run", "--config", cfg_path, "--threads", "2",
                        "--out", str(tmp_path / "out")]) == 2
        assert (f"error: widths: need at least two, all distinct; got "
                f"{widths}") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, override, field", [
        ("foe", {"thresholds": [1 / 3, 1.5]}, "thresholds"),
        ("foe", {"thresholds": [0.0]}, "thresholds"),
        ("foe", {"calibration_n": 40}, "calibration_n"),  # n_score is 32
        ("foe", {"calibration_n": 0}, "calibration_n"),
        ("memorize-from-t", {"noise_draws": 0}, "noise_draws"),
        ("memorize-from-t", {"calibration_n": 99}, "calibration_n")])
    def test_settings_checked_before_any_net_trains(
            self, tmp_path, capsys, monkeypatch, experiment, override, field):
        monkeypatch.setattr(experiments, "train", _refuse)
        monkeypatch.setattr(RunContext, "map", _refuse)
        cfg_path = write_config(tmp_path / "c.json",
                                {"experiment": experiment, **override})
        assert run_cli(["run", "--config", cfg_path,
                        "--out", str(tmp_path / "out")]) == 2
        assert f"error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCsvFormatting:
    def test_float_repr_round_trips(self):
        for v in (0.1, 1 / 3, 1e-300, -2.5, 3.0):
            assert float(format_cell(v)) == v

    def test_int_and_bool_and_str(self):
        assert format_cell(7) == "7"
        assert format_cell(np.int64(7)) == "7"
        assert format_cell(True) == "True"
        assert format_cell("abc") == "abc"

    def test_lf_only_with_trailing_newline(self):
        blob = csv_bytes([["a", "b"], [1, 0.5]])
        assert blob == b"a,b\n1,0.5\n"
        assert b"\r" not in blob


class TestPrintDefaults:
    def test_all_experiments_listed(self, capsys):
        assert run_cli(["print-defaults"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert set(parsed) == {"gaussian", "foe", "pat", "cfg-gap",
                               "memorize-from-t", "rstar-profile",
                               "overlap-curve", "scaling-line"}

    def test_single_experiment(self, capsys):
        assert run_cli(["print-defaults", "gaussian"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["experiment"] == "gaussian"

    def test_unknown_experiment_exits_2(self, capsys):
        assert run_cli(["print-defaults", "nope"]) == 2


class TestRunCommand:
    def _overlap_cfg(self, tmp_path, **extra):
        cfg = {"experiment": "overlap-curve",
               "dataset": {"dim": 2, "n_per_class": 8},
               "t_grid": [0.2, 0.5, 0.8],
               "out": str(tmp_path / "out")}
        cfg.update(extra)
        return write_config(tmp_path / "cfg.json", cfg)

    def test_run_writes_tables_and_manifest(self, tmp_path, capsys):
        cfg_path = self._overlap_cfg(tmp_path)
        assert run_cli(["run", "--config", cfg_path]) == 0
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 1
        assert manifest["artifacts"]
        import hashlib
        for art in manifest["artifacts"]:
            blob = (out / art["name"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == art["sha256"]
        blob = json.dumps(manifest["config"], sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == manifest["config_sha256"]

    def test_rerun_is_bit_identical(self, tmp_path):
        csvs = []
        for tag in ("a", "b"):
            cfg_path = write_config(
                tmp_path / f"cfg_{tag}.json",
                {"experiment": "overlap-curve",
                 "dataset": {"dim": 2, "n_per_class": 8},
                 "t_grid": [0.2, 0.5, 0.8],
                 "out": str(tmp_path / tag)})
            assert run_cli(["run", "--config", cfg_path,
                            "--threads", "1"]) == 0
            files = sorted((tmp_path / tag).glob("*.csv"))
            csvs.append({f.name: f.read_bytes() for f in files})
        assert csvs[0] and csvs[0] == csvs[1]

    def test_manifest_reports_process_counters(self, tmp_path):
        tables = []
        for tag in ("a", "b"):
            cfg_path = write_config(tmp_path / f"cfg_{tag}.json", {
                "experiment": "gaussian", "dataset": {"dim": 2, "n_points": 8},
                "model": _TINY["model"], "train": {"iterations": 5},
                "diagnostics": {"n": 4, "timesteps": 2},
                "out": str(tmp_path / tag)})
            assert run_cli(["run", "--config", cfg_path]) == 0
            manifest = json.loads((tmp_path / tag / "manifest.json").read_text())
            process = manifest["telemetry"]["process"]
            assert set(process) == {"self", "children"}
            for usage in process.values():
                assert set(usage) == {"user_s", "system_s", "minor_faults",
                                      "peak_rss_mb"}
                assert all(v >= 0 for v in usage.values())
            assert process["self"]["minor_faults"] > 0
            assert process["self"]["peak_rss_mb"] > 0
            tables.append({f.name: f.read_bytes()
                           for f in sorted((tmp_path / tag).glob("*.csv"))})
        assert tables[0] and tables[0] == tables[1]

    def test_svg_format(self, tmp_path):
        cfg_path = self._overlap_cfg(tmp_path)
        assert run_cli(["run", "--config", cfg_path,
                        "--format", "csv+svg"]) == 0
        svgs = list((tmp_path / "out").glob("*.svg"))
        assert svgs
        assert svgs[0].read_text().startswith("<svg")

    def test_malformed_json_exits_2_without_artifacts(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert run_cli(["run", "--config", str(bad),
                        "--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg_path = self._overlap_cfg(tmp_path, extra_knob=1)
        assert run_cli(["run", "--config", cfg_path]) == 2
        assert "extra_knob" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert run_cli(["run", "--config", str(tmp_path / "none.json")]) == 2

    def test_seed_and_out_overrides(self, tmp_path, capsys):
        cfg_path = self._overlap_cfg(tmp_path)
        alt = tmp_path / "alt"
        assert run_cli(["run", "--config", cfg_path, "--seed", "3",
                        "--out", str(alt)]) == 0
        manifest = json.loads((alt / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        cfg_path = self._overlap_cfg(tmp_path)
        monkeypatch.setenv("SUL_THREADS", "2")
        assert run_cli(["run", "--config", cfg_path]) == 0
        manifest = json.loads(
            (tmp_path / "out" / "manifest.json").read_text())
        assert manifest["threads"] == 2

    def test_threads_env_not_an_integer_exits_2(self, tmp_path, monkeypatch,
                                                capsys):
        cfg_path = self._overlap_cfg(tmp_path)
        for value in ("abc", "1.5", "0"):
            monkeypatch.setenv("SUL_THREADS", value)
            assert run_cli(["run", "--config", cfg_path]) == 2
            assert "SUL_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "train"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_that_cannot_be_a_directory_exits_2_before_running(
            self, tmp_path, capsys, monkeypatch, command, under):
        monkeypatch.setitem(cli.RUNNERS, "gaussian", _refuse)
        monkeypatch.setattr(cli, "train", _refuse)
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n")
        out = blocker / "sub" if under else blocker
        cfg_path = write_config(tmp_path / "c.json", {"experiment": "gaussian"})
        assert run_cli([command, "--config", cfg_path, "--out", str(out)]) == 2
        assert f"error: --out: {blocker} is not a directory" in \
            capsys.readouterr().err
        assert blocker.read_text() == "a file\n"

    def test_bad_threads_exits_2(self, tmp_path, capsys):
        cfg_path = self._overlap_cfg(tmp_path)
        assert run_cli(["run", "--config", cfg_path, "--threads", "0"]) == 2


_TINY = {"model": {"width": 8, "hidden_layers": 1, "time_freqs": 2},
         "train": {"iterations": 20},
         "solver": {"kind": "fixed-heun", "fixed_steps": 8, "t_min": 0.01}}


class TestSweepMembers:
    def test_map_keeps_member_order_and_pins_worker_blas(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        env = dict(os.environ)
        ctx = RunContext(threads=2)
        assert ctx.map(abs, [-3, 1, -2]) == [3, 1, 2]
        assert ctx.map(os.getenv, ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS"]) == ["1", "1", "1"]
        assert dict(os.environ) == env

    def test_unknown_pat_variant_exits_2_before_training(self, tmp_path,
                                                         monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a member started")

        monkeypatch.setattr(experiments, "train", refuse)
        monkeypatch.setattr(RunContext, "map", refuse)
        cfg_path = write_config(tmp_path / "c.json", {
            "experiment": "pat", "variants": ["baseline", "nope"],
            "n_samples": 5, **_TINY})
        assert run_cli(["run", "--config", cfg_path, "--threads", "2",
                        "--out", str(tmp_path / "out")]) == 2
        assert "'nope'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, code, message", [
        # a net the member cannot build: 16-D data under a 2-D input map
        ({"model": {**_TINY["model"], "input_map": "polar"}}, 2,
         "error: polar input map requires dim=2\n"),
        ({"train": {**_TINY["train"], "lr": 1e200}}, 3,
         "numeric failure: non-finite training loss (iteration 2)\n"),
    ], ids=["exit-2", "exit-3"])
    def test_member_error_keeps_exit_code_and_message(
            self, tmp_path, capsys, override, code, message):
        cfg_path = write_config(tmp_path / "c.json", {
            "experiment": "foe", "dataset": {"n_per_class": 8}, "n_score": 4,
            "region_factors": [1, 2], "n_samples": 5, "calibration_n": 2,
            **_TINY, **override})
        errs = []
        for threads in ("1", "2"):
            # keep an in-process member's overflow warnings out of stderr
            with np.errstate(all="ignore"):
                assert run_cli(["run", "--config", cfg_path, "--threads",
                                threads, "--out", str(tmp_path / "o")]) == code
            errs.append(capsys.readouterr().err)
        assert message in errs[0]
        assert errs[0] == errs[1]


class TestTrainSampleDiagnose:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg_path = write_config(tmp_path / "train.json", {
            "experiment": "gaussian",
            "dataset": {"dim": 3, "n_points": 16},
            "model": {"width": 16, "hidden_layers": 2, "time_freqs": 2},
            "train": {"iterations": 40, "batch_size": 16,
                      "eval_interval": 20},
            "out": str(tmp_path / "train_out"),
        })
        assert run_cli(["train", "--config", cfg_path]) == 0
        ckpt = tmp_path / "train_out" / "model.ckpt"
        assert ckpt.exists()
        ds_path = tmp_path / "points.csv"
        rng = np.random.default_rng(0)
        save_points(Dataset(points=rng.normal(size=(16, 3))), ds_path,
                    fmt="csv")
        return ckpt, ds_path, tmp_path

    def test_train_emits_loss_curve(self, trained, capsys):
        ckpt, _, tmp_path = trained
        loss_csv = tmp_path / "train_out" / "loss_curve.csv"
        lines = loss_csv.read_text().splitlines()
        assert lines[0].split(",")[0] == "iteration"
        assert len(lines) == 41

    def test_sample_from_checkpoint(self, trained, capsys):
        ckpt, _, tmp_path = trained
        out = tmp_path / "samples"
        assert run_cli(["sample", "--checkpoint", str(ckpt), "--n", "5",
                        "--out", str(out)]) == 0
        rows = (out / "samples.csv").read_text().splitlines()
        assert len(rows) == 6  # header + 5 samples

    def test_sample_label_needs_conditional_checkpoint(self, trained, capsys):
        ckpt, _, tmp_path = trained
        out = tmp_path / "samples"
        assert run_cli(["sample", "--checkpoint", str(ckpt), "--label", "1",
                        "--out", str(out)]) == 2
        assert "error: --label:" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_only_on_run(self, trained, capsys, monkeypatch):
        # train trains one net and sample integrates one batch: neither has
        # sweep members for --threads to spread.
        monkeypatch.setattr(cli, "train", _refuse)
        monkeypatch.setattr(MlpScoreNetwork, "load", _refuse)
        ckpt, _, tmp_path = trained
        cfg_path = write_config(tmp_path / "c.json", {"experiment": "gaussian"})
        for argv in (["train", "--config", cfg_path],
                     ["sample", "--checkpoint", str(ckpt)]):
            with pytest.raises(SystemExit) as exc:
                run_cli([*argv, "--threads", "1",
                         "--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            assert "unrecognized arguments: --threads 1" in \
                capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["pat", "rstar-profile",
                                            "overlap-curve", "scaling-line"])
    def test_train_without_one_net_exits_2(self, tmp_path, capsys,
                                           experiment):
        cfg_path = write_config(tmp_path / "c.json",
                                {"experiment": experiment})
        out = tmp_path / "out"
        assert run_cli(["train", "--config", cfg_path, "--out", str(out)]) == 2
        assert f"error: experiment: {experiment} has no single net" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_sample_seed_changes_output(self, trained, capsys):
        ckpt, _, tmp_path = trained
        blobs = []
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}"
            assert run_cli(["sample", "--checkpoint", str(ckpt),
                            "--n", "3", "--seed", seed,
                            "--out", str(out)]) == 0
            blobs.append((out / "samples.csv").read_bytes())
        assert blobs[0] != blobs[1]

    @pytest.mark.parametrize("metric", ["supervision-loss", "overlap",
                                        "memorization", "rstar"])
    def test_diagnose_metrics(self, trained, capsys, metric):
        ckpt, ds_path, _ = trained
        assert run_cli(["diagnose", str(ckpt), str(ds_path), metric,
                        "--n", "5", "--grid", "4",
                        "--calibration-n", "4"]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0] == "metric,region,t,value,n,seed"
        assert len(out_lines) >= 2
        for line in out_lines[1:]:
            val = line.split(",")[3]
            assert np.isfinite(float(val))

    def test_memorization_computes_distances_once(self, trained, capsys,
                                                  monkeypatch):
        from sulab import diagnostics
        ckpt, ds_path, _ = trained
        calls = []
        real = diagnostics.calibrated_l2_values

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "calibrated_l2_values", counted)
        monkeypatch.setattr(diagnostics, "calibrated_l2_values", counted)
        assert run_cli(["diagnose", str(ckpt), str(ds_path), "memorization",
                        "--n", "5", "--calibration-n", "4"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("threshold", ["0", "1", "1.5", "-0.2"])
    def test_memorization_threshold_outside_unit_interval_exits_2(
            self, trained, capsys, threshold):
        ckpt, ds_path, _ = trained
        assert run_cli(["diagnose", str(ckpt), str(ds_path), "memorization",
                        "--n", "5", "--threshold", threshold]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_diagnose_to_file(self, trained, capsys):
        ckpt, ds_path, tmp_path = trained
        out = tmp_path / "diag.csv"
        assert run_cli(["diagnose", str(ckpt), str(ds_path),
                        "supervision-loss", "--n", "5", "--grid", "4",
                        "--out", str(out)]) == 0
        assert out.read_text().startswith("metric,region,t,value,n,seed")

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_sample_out_that_cannot_be_a_directory_exits_2(
            self, trained, capsys, monkeypatch, under):
        ckpt, _, tmp_path = trained
        monkeypatch.setattr(MlpScoreNetwork, "load", _refuse)
        out = ckpt / "sub" if under else ckpt
        assert run_cli(["sample", "--checkpoint", str(ckpt),
                        "--out", str(out)]) == 2
        assert f"error: --out: {ckpt} is not a directory" in \
            capsys.readouterr().err

    def test_diagnose_out_creates_missing_parent(self, trained, capsys):
        ckpt, ds_path, tmp_path = trained
        out = tmp_path / "missing" / "deeper" / "x.csv"
        assert run_cli(["diagnose", str(ckpt), str(ds_path), "overlap",
                        "--grid", "2", "--out", str(out)]) == 0
        assert out.read_text().startswith("metric,region,t,value,n,seed")

    @pytest.mark.parametrize("out", ["taken/x.csv", "."])
    def test_diagnose_unwritable_out_exits_2(self, trained, capsys, out):
        ckpt, ds_path, tmp_path = trained
        (tmp_path / "taken").write_text("a file\n")
        assert run_cli(["diagnose", str(ckpt), str(ds_path), "overlap",
                        "--grid", "2", "--out", str(tmp_path / out)]) == 2
        assert "error: --out: cannot write" in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == "a file\n"

    @pytest.mark.parametrize("metric, code", [
        ("supervision-loss", 2), ("rstar", 2), ("memorization", 2),
        ("overlap", 0)])  # overlap reads the dataset alone
    def test_diagnose_dimension_mismatch_exits_2_before_sampling(
            self, trained, capsys, monkeypatch, metric, code):
        monkeypatch.setattr(cli, "sample", _refuse)
        monkeypatch.setattr(cli, "supervision_loss", _refuse)
        ckpt, _, tmp_path = trained
        flat = tmp_path / "flat.csv"
        save_points(Dataset(points=np.eye(8, 2)), flat)
        assert run_cli(["diagnose", str(ckpt), str(flat), metric, "--n", "4",
                        "--calibration-n", "2"]) == code
        if code:
            assert (f"error: checkpoint {ckpt} is 3-D but dataset {flat} is "
                    f"2-D") in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_diagnose_grid_below_1_exits_2(self, trained, capsys, grid):
        ckpt, ds_path, _ = trained
        assert run_cli(["diagnose", str(ckpt), str(ds_path), "overlap",
                        "--grid", grid]) == 2
        assert "error: --grid:" in capsys.readouterr().err

    def test_diagnose_unknown_metric_exits_2(self, trained, capsys):
        ckpt, ds_path, _ = trained
        assert run_cli(["diagnose", str(ckpt), str(ds_path), "bogus"]) == 2

    @pytest.mark.parametrize("damage", ["truncated", "extended", "header"])
    def test_sample_corrupt_checkpoint_exits_2(self, trained, capsys, damage):
        ckpt, _, tmp_path = trained
        blob = ckpt.read_bytes()
        ckpt.write_bytes({
            "truncated": blob[:-9],
            "extended": blob + b"\0" * 8,
            "header": blob.replace(b'"class_emb_dim"', b'"!lass_emb_dim"'),
        }[damage])
        out = tmp_path / "samples"
        assert run_cli(["sample", "--checkpoint", str(ckpt),
                        "--out", str(out)]) == 2
        assert ckpt.name in capsys.readouterr().err
        assert not out.exists()

    def test_diagnose_bad_checkpoint_exits_2(self, trained, tmp_path, capsys):
        _, ds_path, _ = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert run_cli(["diagnose", str(bad), str(ds_path),
                        "supervision-loss"]) == 2


# One tiny config per experiment, and gaussian's for `train`.
_FUZZ_SOLVER = {"kind": "fixed-euler", "fixed_steps": 4, "t_min": 0.01}
_FUZZ_MODEL = {"width": 4, "hidden_layers": 1, "time_freqs": 1}
_FUZZ_TRAIN = {"iterations": 2, "batch_size": 4}
_FUZZ_DATASET = {"dim": 2, "n_per_class": 4}
_FUZZ_GAUSSIAN = {"experiment": "gaussian",
                  "dataset": {"dim": 2, "n_points": 4}, "model": _FUZZ_MODEL,
                  "train": {**_FUZZ_TRAIN, "eval_interval": 1},
                  "diagnostics": {"n": 2, "timesteps": 2}}
_FUZZ_CONFIGS = [
    ("train", _FUZZ_GAUSSIAN),
    ("run", _FUZZ_GAUSSIAN),
    ("run", {"experiment": "foe", "dataset": _FUZZ_DATASET, "n_score": 2,
             "region_factors": [1, 2], "n_samples": 2, "calibration_n": 1,
             "model": _FUZZ_MODEL, "train": _FUZZ_TRAIN,
             "solver": _FUZZ_SOLVER}),
    ("run", {"experiment": "pat", "variants": ["baseline", "krr"],
             "n_samples": 2, "model": _FUZZ_MODEL, "train": _FUZZ_TRAIN,
             "solver": _FUZZ_SOLVER, "krr": {"n_draws": 8}}),
    ("run", {"experiment": "cfg-gap", "dataset": _FUZZ_DATASET,
             "model": _FUZZ_MODEL, "train": _FUZZ_TRAIN,
             "solver": _FUZZ_SOLVER, "t_grid": [0.5],
             "diagnostics": {"n": 2}}),
    ("run", {"experiment": "memorize-from-t", "dataset": _FUZZ_DATASET,
             "t_from_grid": [0.5], "noise_draws": 1, "calibration_n": 1,
             "model": _FUZZ_MODEL, "train": _FUZZ_TRAIN,
             "solver": _FUZZ_SOLVER}),
    ("run", {"experiment": "rstar-profile",
             "dataset": {"dim": 2, "n_points": 4}, "n_samples": 2,
             "t_grid": [0.5], "solver": _FUZZ_SOLVER}),
    ("run", {"experiment": "overlap-curve", "dataset": _FUZZ_DATASET,
             "t_grid": [0.5]}),
    ("run", {"experiment": "scaling-line", "dataset": _FUZZ_DATASET,
             "widths": [2, 4], "n_samples": 2,
             "model": {"hidden_layers": 1, "time_freqs": 1},
             "train": _FUZZ_TRAIN, "solver": _FUZZ_SOLVER,
             "diagnostics": {"n": 2, "timesteps": 2}}),
]


def _leaves(node, path=()):
    """The path of every leaf of a config, list elements included."""
    for key, value in (node.items() if isinstance(node, dict)
                       else enumerate(node)):
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)
            if isinstance(value, list):
                yield from _leaves(value, path + (key,))


def _mutated(case: int, path: tuple, value):
    """(command, resolved tiny config `case` with the leaf at path set)."""
    command, tiny = _FUZZ_CONFIGS[case]
    cfg = resolve_config(copy.deepcopy(tiny))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return command, cfg


@st.composite
def _mutated_configs(draw):
    case = draw(st.integers(0, len(_FUZZ_CONFIGS) - 1))
    cfg = resolve_config(copy.deepcopy(_FUZZ_CONFIGS[case][1]))
    path = draw(st.sampled_from(list(_leaves(cfg))))
    value = draw(st.one_of(
        st.sampled_from([None, True, 2.5, "7", [], {}, [1.5]]),  # other types
        st.sampled_from(["gaussian", "class-mixture", "pat-toy", "polar",
                         "x-pred", "fixed-heun"]) | st.text(max_size=6),
        st.integers(-3, 0)))  # out of range for every count
    return _mutated(case, path, value)


class TestMutatedConfigs:
    @settings(max_examples=200, deadline=None)
    @example(_mutated(7, ("dataset", "kind"), "gaussian"))
    @given(_mutated_configs())
    def test_exits_0_2_or_3(self, tmp_path_factory, case):
        command, cfg = case
        tmp = tmp_path_factory.mktemp("mutated")
        cfg_path = write_config(tmp / "c.json", cfg)
        with np.errstate(all="ignore"):
            threads = ["--threads", "1"] if command == "run" else []
            code = run_cli([command, "--config", cfg_path, *threads,
                            "--out", str(tmp / "out")])
        assert code in (0, 2, 3)


def _tiny_checkpoint(path):
    net = MlpScoreNetwork(2, width=4, hidden_layers=1, time_freqs=1,
                          num_classes=2, seed=0)
    net.save(path, ema_params=net.clone_params())
    return path.read_bytes()


def _with_header(blob, **changes):
    """A checkpoint blob with header keys changed and its length re-packed."""
    (n,) = struct.unpack("<I", blob[8:12])
    desc = {**json.loads(blob[12:12 + n]), **changes}
    head = json.dumps(desc, sort_keys=True).encode()
    return blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + n:]


class TestMutatedCheckpoints:
    # Patches may hold ASCII digits, so a header can declare a net far too
    # large to build: its size is checked before any array is made.
    @settings(max_examples=200, deadline=None)
    @example("truncate", 11, b"")
    @example("overwrite", 4, b"\x02")  # version 2
    @given(st.sampled_from(["truncate", "overwrite"]), st.integers(0, 1 << 16),
           st.binary(min_size=1, max_size=4))
    def test_load_raises_only_format_error(self, tmp_path_factory, how, at,
                                           patch):
        tmp = tmp_path_factory.mktemp("ckpt")
        blob = _tiny_checkpoint(tmp / "base.ckpt")
        at %= len(blob) + 1
        blob = (blob[:at] if how == "truncate"
                else blob[:at] + patch + blob[at + len(patch):])
        path = tmp / "model.ckpt"
        path.write_bytes(blob)
        try:
            MlpScoreNetwork.load(path)
        except FormatError:
            assert run_cli(["sample", "--checkpoint", str(path), "--n", "1",
                            "--out", str(tmp / "out")]) == 2
            assert not (tmp / "out").exists()


    @pytest.mark.parametrize("changes", [
        {"width": 100_000_000}, {"hidden_layers": 10 ** 12},
        {"time_freqs": 10 ** 9}, {"num_classes": 10 ** 10},
        {"input_map": "bogus"}])
    def test_header_declaring_a_huge_or_unknown_net_is_refused(self, tmp_path,
                                                               changes):
        path = tmp_path / "model.ckpt"
        blob = _tiny_checkpoint(tmp_path / "base.ckpt")
        path.write_bytes(_with_header(blob))
        assert MlpScoreNetwork.load(path)[0].width == 4  # re-packed, unchanged
        path.write_bytes(_with_header(blob, **changes))
        with pytest.raises(FormatError, match="model.ckpt"):
            MlpScoreNetwork.load(path)
        assert run_cli(["sample", "--checkpoint", str(path), "--n", "1",
                        "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


def _scipy_after(code: str) -> list:
    """The scipy modules a fresh interpreter holds after running code."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps("
         "[m for m in sys.modules if m.split('.')[0] == 'scipy']))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestScipyLoadedOnFirstUse:
    # scipy is imported where it is called, so a process loads only the
    # scipy its run uses.
    def test_cli_import_loads_no_scipy(self):
        assert _scipy_after("import sulab.cli") == []

    def test_mlp_forward_loads_special_not_linalg(self):
        loaded = _scipy_after(
            "import numpy as np\n"
            "from sulab.models import MlpScoreNetwork\n"
            "net = MlpScoreNetwork(2, width=4, hidden_layers=1, time_freqs=1)\n"
            "net.evaluate_batch(np.zeros((3, 2)), 0.5)")
        assert "scipy.special" in loaded
        assert "scipy.linalg" not in loaded

    def test_cholesky_solve_loads_linalg_and_still_reports_pivot(self):
        loaded = _scipy_after(
            "import numpy as np\n"
            "from sulab.errors import RankDeficiencyError\n"
            "from sulab.numerics import cholesky_solve\n"
            "bad = np.zeros((3, 3))\n"
            "bad[0, 0] = 1.0\n"
            "try:\n"
            "    cholesky_solve(bad, np.ones(3))\n"
            "    raise SystemExit('no RankDeficiencyError')\n"
            "except RankDeficiencyError as exc:\n"
            "    assert exc.pivot == 2, exc.pivot\n"
            "assert np.allclose(cholesky_solve(2 * np.eye(2), np.ones(2)), 0.5)")
        assert "scipy.linalg" in loaded


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sulab.cli", "print-defaults",
             "overlap-curve"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["experiment"] == "overlap-curve"

    @pytest.mark.skipif(shutil.which("sulab") is None,
                        reason="the sulab console script is not installed")
    def test_installed_script(self):
        proc = subprocess.run(["sulab", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip()
