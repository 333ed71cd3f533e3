import json

import pytest

from cvdistill import (
    CalibrationError,
    calibrate,
    calibrate_envelope,
    envelope_exponential,
    parse_config,
    preset_config,
    run_scenario,
)
from cvdistill.calibrate import semicontinuous_premix_ln
from cvdistill.cli import main
from cvdistill.config import ConfigError
from cvdistill.scenario import RunReport


class TestCalibrate:
    def test_squeezed_variance_closed_form(self, calibration):
        assert calibration.v_squeezed == pytest.approx(2.0 ** (-0.76), rel=1e-15)

    def test_residuals(self, calibration):
        assert calibration.ln_initial == pytest.approx(0.76, abs=1e-6)
        assert calibration.ln_discrete_premix == pytest.approx(-1.63, abs=1e-6)

    def test_antisqueezed_in_low_hundreds(self, calibration):
        assert 50.0 < calibration.v_antisqueezed < 500.0

    def test_idempotent(self, calibration):
        again = calibrate()
        assert abs(again.v_antisqueezed - calibration.v_antisqueezed) < 1e-6

    def test_pure_state_limit(self):
        vs = 2.0 ** (-0.76)
        target = 0.0  # pooled LN of the discrete mixture at the bracket edge
        from cvdistill.calibrate import discrete_premix_ln

        target = discrete_premix_ln(vs, 1.0 / vs)
        cal = calibrate(ln_initial=0.76, ln_discrete_premix=target)
        assert cal.v_antisqueezed == pytest.approx(1.0 / vs, rel=1e-2)

    def test_unbracketed_target_raises(self):
        with pytest.raises(CalibrationError):
            calibrate(ln_initial=0.76, ln_discrete_premix=5.0)

    def test_unphysical_target_raises(self):
        with pytest.raises(CalibrationError):
            calibrate(ln_initial=-0.1)


class TestCalibrateEnvelope:
    def test_fading_family_hits_target(self, calibration):
        frac, chan = calibrate_envelope(calibration.v_squeezed, calibration.v_antisqueezed)
        assert chan.probabilities[-1] == pytest.approx(0.2, abs=1e-12)
        ln = semicontinuous_premix_ln(calibration.v_squeezed, calibration.v_antisqueezed, chan)
        assert ln == pytest.approx(-0.11, abs=1e-3)
        assert 0.0 < frac < 1.0

    def test_exponential_family_hits_target(self, calibration):
        beta, chan = calibrate_envelope(
            calibration.v_squeezed, calibration.v_antisqueezed, family="exponential"
        )
        ln = semicontinuous_premix_ln(calibration.v_squeezed, calibration.v_antisqueezed, chan)
        assert ln == pytest.approx(-0.11, abs=1e-3)
        assert chan.probabilities[-1] == pytest.approx(0.2, abs=1e-12)

    def test_root_at_trial_point(self, calibration):
        flat = envelope_exponential(0.0)
        target = semicontinuous_premix_ln(calibration.v_squeezed, calibration.v_antisqueezed, flat)
        beta, _ = calibrate_envelope(
            calibration.v_squeezed, calibration.v_antisqueezed,
            ln_premix=target, family="exponential",
        )
        assert beta == pytest.approx(0.0, abs=1e-12)

    def test_unknown_family(self, calibration):
        with pytest.raises(CalibrationError):
            calibrate_envelope(calibration.v_squeezed, calibration.v_antisqueezed, family="nope")


class TestConfig:
    def test_round_trip_hash_stable(self):
        cfg = preset_config("discrete")
        emitted = cfg.to_dict()
        cfg2 = parse_config(emitted)
        assert cfg2.to_dict() == emitted
        assert cfg2.config_hash() == cfg.config_hash()

    def test_unknown_top_level_key_rejected(self):
        raw = preset_config("discrete").to_dict()
        raw["shots"] = 10
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_unknown_nested_key_rejected(self):
        raw = preset_config("discrete").to_dict()
        raw["tap"]["window"] = [0, 1]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_negative_seed_rejected(self):
        raw = preset_config("discrete").to_dict()
        raw["mc"]["seed"] = -1
        with pytest.raises(ConfigError, match="seed"):
            parse_config(raw)

    def test_source_exclusivity(self):
        raw = preset_config("discrete").to_dict()
        raw["source"] = {
            "v_squeezed": 0.6,
            "v_antisqueezed": 100.0,
            "calibrate_to": {"ln_initial": 0.76, "ln_discrete_premix": -1.63},
        }
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_explicit_levels_channel(self):
        raw = preset_config("discrete").to_dict()
        raw["channel"] = {"levels": [{"t": 0.5, "p": 0.25}, {"t": 1.0, "p": 0.75}]}
        cfg = parse_config(raw)
        chan = cfg.channel.explicit_channel()
        assert len(chan) == 2

    def test_invalid_levels_rejected(self):
        raw = preset_config("discrete").to_dict()
        raw["channel"] = {"levels": [{"t": 0.5, "p": 0.5}, {"t": 0.4, "p": 0.5}]}
        with pytest.raises(ConfigError):
            parse_config(raw).channel.explicit_channel()

    def test_empty_thresholds_rejected(self):
        raw = preset_config("discrete").to_dict()
        raw["tap"]["thresholds"] = []
        with pytest.raises(ConfigError):
            parse_config(raw)

    @pytest.mark.parametrize("bad", [float("-inf"), float("inf"), float("nan")])
    def test_non_finite_numbers_rejected(self, bad):
        raw = preset_config("discrete").to_dict()
        raw["tap"]["thresholds"] = [2.0, bad]
        with pytest.raises(ConfigError, match="finite"):
            parse_config(raw)
        raw = preset_config("discrete").to_dict()
        raw["mc"]["histogram_range"] = bad
        with pytest.raises(ConfigError, match="finite"):
            parse_config(raw)

    def test_engine_validated(self):
        raw = preset_config("discrete").to_dict()
        raw["engine"] = "quantum"
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("continuous")


class TestRunScenario:
    def test_perfect_scenario(self):
        report = run_scenario(preset_config("perfect"))
        assert report.ln_before == pytest.approx(0.76, abs=0.01)
        rows = report.ln_after
        assert len(rows) == 1
        _, ln_after, success = rows[0]
        assert ln_after == pytest.approx(report.ln_before, abs=1e-12)
        assert success == 1.0

    def test_discrete_scenario_threshold_nine(self):
        cfg = preset_config("discrete")
        cfg.tap.thresholds = [9.0]
        report = run_scenario(cfg)
        assert report.ln_before == pytest.approx(-1.63, abs=1e-3)
        assert report.upper_bound == pytest.approx(0.49, abs=0.08)
        row = report.thresholds[0]["analytic"]
        assert 0.58 <= row["gaussian_ln"] <= 0.76
        assert 0.5 * 1.69e-5 <= row["success_probability"] <= 2.0 * 1.69e-5

    def test_degenerate_threshold_recorded_not_fatal(self):
        cfg = preset_config("discrete")
        cfg.tap.thresholds = [2.0, 1e4]
        report = run_scenario(cfg)
        assert report.thresholds[0]["error"] is None
        assert report.thresholds[1]["error"] is not None
        assert not report.flags["all_degenerate"]

    def test_singular_kept_covariance_recorded_not_fatal(self):
        # Seed 1 keeps 2-4 shots at 9.5 SNU: too few for a positive-definite 4x4 covariance.
        cfg = preset_config("discrete")
        cfg.engine = "mc"
        cfg.tap.thresholds = [8.5, 9.0, 9.5]
        cfg.mc.n_shots = 300_000
        cfg.mc.seed = 1
        report = run_scenario(cfg)
        assert report.thresholds[0]["mc"]["kept_count"] > 4
        assert report.thresholds[2]["mc"] is None
        assert report.thresholds[2]["error"] == "mc: covariance matrix is not positive definite"
        assert not report.flags["all_degenerate"]

    def test_all_degenerate_flagged(self):
        cfg = preset_config("discrete")
        cfg.tap.thresholds = [1e4]
        report = run_scenario(cfg)
        assert report.flags["all_degenerate"]

    def test_engine_both_agreement(self):
        cfg = preset_config("discrete")
        cfg.engine = "both"
        cfg.tap.thresholds = [1.0]
        cfg.mc.n_shots = 200_000
        cfg.mc.seed = 8
        report = run_scenario(cfg)
        row = report.thresholds[0]
        assert row["agreement"]["checked"]
        assert row["agreement"]["ok"]
        assert not report.flags["agreement_failed"]

    def test_engine_mc_only(self):
        cfg = preset_config("discrete")
        cfg.engine = "mc"
        cfg.tap.thresholds = [0.5]
        cfg.mc.n_shots = 100_000
        report = run_scenario(cfg)
        row = report.thresholds[0]
        assert row["analytic"] is None
        assert row["mc"]["kept_count"] > 0

    def test_explicit_source_skips_calibration(self):
        raw = preset_config("discrete").to_dict()
        raw["source"] = {"v_squeezed": 0.6, "v_antisqueezed": 50.0}
        raw["tap"]["thresholds"] = [3.0]
        report = run_scenario(parse_config(raw))
        assert report.calibration["v_squeezed"] == 0.6

    def test_semicontinuous_scenario_calibrates_envelope(self):
        cfg = preset_config("semicontinuous")
        cfg.tap.thresholds = [10.0]
        report = run_scenario(cfg)
        assert report.ln_before == pytest.approx(-0.11, abs=1e-3)
        assert report.calibration["envelope_family"] == "fading"
        assert 0.0 < report.calibration["envelope_param"] < 1.0

    def test_semicontinuous_explicit_beta_skips_envelope_fit(self):
        raw = preset_config("semicontinuous").to_dict()
        raw["channel"]["beta"] = 0.18
        raw["tap"]["thresholds"] = [5.0]
        report = run_scenario(parse_config(raw))
        assert report.calibration["envelope_param"] == 0.18
        assert len(report.channel["transmittances"]) == 45


class TestArtifacts:
    def test_emitted_files_and_round_trip(self, tmp_path):
        cfg = preset_config("discrete")
        cfg.engine = "both"
        cfg.tap.thresholds = [2.0]
        cfg.mc.n_shots = 100_000
        cfg.output.dir = str(tmp_path / "out")
        report = run_scenario(cfg)

        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "config.json").exists()
        sweep = (out / "sweep.csv").read_text().strip().splitlines()
        assert sweep[0] == "threshold_snu,success_probability,gaussian_ln,weight_entropy"
        assert len(sweep) == 2
        hist_lines = (out / "histograms_th2.csv").read_text().strip().splitlines()
        assert hist_lines[0] == "bin_left,bin_right,count,series,selection"
        assert len(hist_lines) == 1 + 5 * 2 * cfg.mc.histogram_bins
        post = (out / "posterior_weights_th2.csv").read_text().strip().splitlines()
        assert len(post) == 3  # header + two levels

        stored = json.loads((out / "report.json").read_text())
        again = RunReport.from_dict(stored)
        assert again.to_dict() == report.to_dict()

        cfg2 = parse_config(json.loads((out / "config.json").read_text()))
        assert cfg2.config_hash() == cfg.config_hash()

    def test_header_only_sweep_when_everything_degenerate(self, tmp_path):
        cfg = preset_config("discrete")
        cfg.tap.thresholds = [1e4]
        cfg.output.dir = str(tmp_path / "deg")
        run_scenario(cfg)
        sweep = (tmp_path / "deg" / "sweep.csv").read_text().strip().splitlines()
        assert sweep == ["threshold_snu,success_probability,gaussian_ln,weight_entropy"]

    def test_config_write_failure_names_artifact(self, tmp_path):
        cfg = preset_config("discrete")
        cfg.tap.thresholds = [3.0]
        cfg.output.dir = str(tmp_path / "out")
        (tmp_path / "out" / "config.json").mkdir(parents=True)
        with pytest.raises(OSError, match="failed writing artifact .*config.json"):
            run_scenario(cfg)

    def test_full_precision_serialization(self, tmp_path):
        cfg = preset_config("discrete")
        cfg.tap.thresholds = [3.0]
        cfg.output.dir = str(tmp_path / "prec")
        report = run_scenario(cfg)
        sweep = (tmp_path / "prec" / "sweep.csv").read_text().strip().splitlines()
        succ_text = sweep[1].split(",")[1]
        assert float(succ_text) == report.thresholds[0]["analytic"]["success_probability"]


class TestCliCommands:
    def test_calibrate_command(self, capsys, tmp_path):
        out_file = tmp_path / "cal.json"
        code = main(["calibrate", "--out", str(out_file)])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["v_squeezed"] == pytest.approx(2.0 ** (-0.76), rel=1e-12)
        assert blob["envelope"]["p_full"] == 0.2
        assert json.loads(out_file.read_text()) == blob

    def test_run_command(self, capsys, tmp_path):
        cfg = preset_config("discrete")
        cfg.tap.thresholds = [2.0, 9.0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "art")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["scenario"] == "discrete"
        assert (tmp_path / "art" / "sweep.csv").exists()

    def test_run_flag_overrides(self, capsys, tmp_path):
        cfg = preset_config("discrete")
        cfg.tap.thresholds = [1.0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        code = main([
            "run", "--config", str(cfg_path), "--engine", "mc",
            "--shots", "50000", "--seed", "77",
        ])
        assert code == 0

    def test_run_missing_config_is_config_error(self, capsys):
        assert main(["run", "--config", "/nonexistent.json"]) == 2

    def test_run_negative_seed_is_config_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(preset_config("discrete").to_dict()))
        assert main(["run", "--config", str(cfg_path), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_run_invalid_config_is_config_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"source": {"v_squeezed": 0.6}, "bogus": 1}))
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_run_unphysical_source_is_config_error(self, capsys, tmp_path):
        raw = preset_config("discrete").to_dict()
        raw["source"] = {"v_squeezed": 1.5, "v_antisqueezed": 2.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_run_bad_envelope_param_is_config_error(self, capsys, tmp_path):
        raw = preset_config("semicontinuous").to_dict()
        raw["channel"]["beta"] = 2.0  # fading floor fraction must lie in [0, 1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("bad", [float("-inf"), float("nan")])
    def test_run_non_finite_threshold_is_config_error(self, capsys, tmp_path, bad):
        raw = preset_config("discrete").to_dict()
        raw["tap"]["thresholds"] = [bad]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))  # written as -Infinity / NaN
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_run_all_degenerate_exit_code(self, capsys, tmp_path):
        cfg = preset_config("discrete")
        cfg.tap.thresholds = [1e4]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["run", "--config", str(cfg_path)]) == 3

    def test_disagreement_exit_code(self, capsys, tmp_path, monkeypatch):
        import cvdistill.cli as cli_mod

        cfg = preset_config("discrete")
        cfg.tap.thresholds = [1.0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))

        real = cli_mod.run_scenario

        def rigged(config):
            report = real(config)
            report.flags["agreement_failed"] = True
            return report

        monkeypatch.setattr(cli_mod, "run_scenario", rigged)
        assert main(["run", "--config", str(cfg_path)]) == 4

    def test_report_command_rerenders(self, capsys, tmp_path):
        cfg = preset_config("discrete")
        cfg.tap.thresholds = [2.0]
        cfg.output.dir = str(tmp_path / "first")
        run_scenario(cfg)
        code = main([
            "report", "--report", str(tmp_path / "first" / "report.json"),
            "--out", str(tmp_path / "second"),
        ])
        assert code == 0
        assert (tmp_path / "second" / "sweep.csv").exists()
        first = (tmp_path / "first" / "sweep.csv").read_text()
        second = (tmp_path / "second" / "sweep.csv").read_text()
        assert first == second

    def test_report_command_bad_path(self, capsys):
        assert main(["report", "--report", "/nonexistent.json", "--out", "/tmp/x"]) == 2
