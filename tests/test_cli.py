import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import cvdistill
from cvdistill import (
    CalibrationError,
    attach_tap,
    calibrate,
    calibrate_envelope,
    discrete_channel,
    envelope_exponential,
    envelope_fading,
    gaussian_log_negativity,
    make_kerr_entangled,
    parse_config,
    pooled_cm,
    preset_config,
    propagate,
    run_scenario,
)
import cvdistill.scenario as scenario
from cvdistill.calibrate import semicontinuous_premix_ln
from cvdistill.cli import main
from cvdistill.config import ConfigError, McConfig, TapConfig
from cvdistill.mc import SERIES
from cvdistill.scenario import AGREEMENT_MIN_SUCCESS, RunReport, ln_agreement

# Both engines over four thresholds; at 12 SNU the 20,000 shots keep none,
# so that row has no Monte Carlo section and no histogram file.
BOTH_THRESHOLDS = [0.0, 2.0, 4.0, 12.0]

# What `cvdistill report` says about a malformed stored threshold or histogram.
THRESHOLD_REASON = "threshold row 'threshold', if not null, must be a finite number"
HISTOGRAM_REASON = "mc histogram counts must be 201 integers, one per bin"


@pytest.fixture(scope="module")
def both_run(tmp_path_factory):
    """(output dir, stored report dict) of ``cvdistill run`` with both engines."""
    base = tmp_path_factory.mktemp("both")
    cfg = preset_config("discrete")
    cfg.engine = "both"
    cfg.tap.thresholds = list(BOTH_THRESHOLDS)
    cfg.mc.n_shots = 20_000
    cfg.mc.seed = 5
    cfg_path = base / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert main(["run", "--config", str(cfg_path), "--out", str(base / "first")]) == 0
    return base / "first", json.loads((base / "first" / "report.json").read_text())


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
        # 2**ln_initial is the least antisqueezed variance: it must lie below the bracket's top.
        for ln_initial in (-0.1, 0.0, float("nan"), 14.0, 2000.0):
            with pytest.raises(CalibrationError):
                calibrate(ln_initial=ln_initial)


def pooled_premix_ln(source, channel):
    """Log-negativity of the pooled channel output, through the mixture state."""
    return gaussian_log_negativity(pooled_cm(propagate(source, channel))[1])


class TestCalibrateEnvelope:
    def test_fading_family_hits_target(self, calibration, calibrated_source):
        frac, chan = calibrate_envelope(calibration.v_squeezed, calibration.v_antisqueezed)
        assert chan.probabilities[-1] == pytest.approx(0.2, abs=1e-12)
        assert pooled_premix_ln(calibrated_source, chan) == pytest.approx(-0.11, abs=1e-3)
        assert 0.0 < frac < 1.0

    def test_exponential_family_hits_target(self, calibration, calibrated_source):
        beta, chan = calibrate_envelope(
            calibration.v_squeezed, calibration.v_antisqueezed, family="exponential"
        )
        assert pooled_premix_ln(calibrated_source, chan) == pytest.approx(-0.11, abs=1e-3)
        assert chan.probabilities[-1] == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("build, params", [
        (envelope_fading, (0.0, 0.3, 1.0)),
        (envelope_exponential, (-20.0, 0.0, 7.5)),
    ], ids=["fading", "exponential"])
    def test_reweighted_levels_equal_pooled_mixture(
        self, calibration, calibrated_source, build, params
    ):
        # The bisection propagates the source once and re-weights those levels.
        levels = propagate(calibrated_source, build(params[0]))
        for param in params:
            chan = build(param)
            expected = pooled_premix_ln(calibrated_source, chan)
            assert semicontinuous_premix_ln(levels, chan.probabilities) == expected

    def test_envelope_bisection_propagates_once(self, calibration, monkeypatch):
        calls = []
        monkeypatch.setattr(sys.modules["cvdistill.calibrate"], "propagate",
                            lambda *args: calls.append(args) or propagate(*args))
        for family in ("fading", "exponential"):
            calls.clear()
            calibrate_envelope(calibration.v_squeezed, calibration.v_antisqueezed, family=family)
            assert len(calls) == 1

    def test_root_at_trial_point(self, calibration, calibrated_source):
        flat = envelope_exponential(0.0)
        target = pooled_premix_ln(calibrated_source, flat)
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

    @pytest.mark.parametrize("name, digest", [
        ("perfect", "2abc5be1fa87dd643ae2e6d8508b0512e83b45637572e224206b2eaee2a3b3a4"),
        ("discrete", "7845db3c14ce75f73781f7e678eb5f512d468453bcee50eb4e309cd20f6f7cbc"),
        ("semicontinuous", "2a5bac42393f0a50fbd574607c70b53831b3b2d0ef3f7009dc256de1c59c9872"),
    ])
    def test_preset_config_hash_pinned(self, name, digest):
        # Stored reports carry this hash; a settings refactor must not move it.
        assert preset_config(name).config_hash() == digest

    def test_settings_constructors_validate(self):
        with pytest.raises(ConfigError, match="mc.n_shots must be >= 1"):
            McConfig(n_shots=0)
        with pytest.raises(ConfigError, match=r"tap.reflectivity must lie in \(0, 1\)"):
            TapConfig(reflectivity=1.0)
        assert issubclass(ConfigError, ValueError)


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

    def test_settings_objects_reach_the_engines_unchanged(self, monkeypatch):
        import cvdistill.scenario as scenario_mod

        seen = {}
        real_tap, real_sweep = scenario_mod.attach_tap, scenario_mod.run_mc_sweep

        def attach_tap(mixture, tap):
            seen["tap"] = tap
            return real_tap(mixture, tap)

        def run_mc_sweep(mixture3, config, thresholds):
            seen["mc"] = config
            return real_sweep(mixture3, config, thresholds)

        monkeypatch.setattr(scenario_mod, "attach_tap", attach_tap)
        monkeypatch.setattr(scenario_mod, "run_mc_sweep", run_mc_sweep)
        cfg = preset_config("discrete")
        cfg.engine = "mc"
        cfg.tap.thresholds = [1.0]
        cfg.mc.n_shots = 1000
        run_scenario(cfg)
        assert seen["mc"] is cfg.mc
        assert seen["tap"] is cfg.tap

    def test_degenerate_threshold_recorded_not_fatal(self):
        cfg = preset_config("discrete")
        cfg.tap.thresholds = [2.0, 1e4, 3.0]
        report = run_scenario(cfg)
        assert [row["error"] for row in report.thresholds] == [
            None, "analytic: success probability underflowed (0.0) at threshold 10000.0", None]
        assert report.thresholds[1]["analytic"] is None
        cfg.tap.thresholds = [3.0]
        assert report.thresholds[2] == run_scenario(cfg).thresholds[0]
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

    def test_three_kept_shots_recorded_not_nan(self, tmp_path):
        # One lossless level, 20,000 shots, seed 12345: 3 shots pass 3.5 SNU. Their
        # sample covariance has rank 2, yet its rounded eigenvalues can all come out
        # positive, so the kept-shot count alone must make the row an error.
        cfg = preset_config("discrete").to_dict()
        cfg["channel"] = {"levels": [{"t": 0.0, "p": 1.0}]}
        cfg["engine"] = "mc"
        cfg["mc"].update(n_shots=20_000, seed=12345)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "art")]) == 0
        text = (tmp_path / "art" / "report.json").read_text()
        rows = {row["threshold"]: row for row in json.loads(text, parse_constant=pytest.fail)["thresholds"]}
        assert rows[3.0]["mc"]["kept_count"] > 4
        assert rows[3.5]["mc"] is None
        assert rows[3.5]["error"] == "mc: covariance matrix is not positive definite"
        assert "nan" not in (tmp_path / "art" / "sweep.csv").read_text()

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


def rigged_agreement(monkeypatch, success, analytic_ln, mc_ln, mc_se):
    """The agreement block and ``agreement_failed`` of a run with the engines' results forced.

    Both engines run at 1 SNU; their success probability, LNs and Monte
    Carlo LN error are then replaced by the given values.
    """
    real_herald = scenario.herald

    def herald(mixture3, thresholds):
        ensemble = real_herald(mixture3, thresholds)
        ensemble.success_probability = np.full_like(ensemble.success_probability, success)
        return ensemble

    def column(stack, value, dtype=float):
        return np.full(len(stack.pooled_cov), value, dtype=dtype)

    monkeypatch.setattr(scenario, "herald", herald)
    monkeypatch.setattr(scenario, "distilled_gln", lambda ens: column(ens, analytic_ln))
    monkeypatch.setattr(scenario, "ln_with_se",
                        lambda sweep: (column(sweep, mc_ln), column(sweep, mc_se, object)))
    cfg = preset_config("discrete")
    cfg.engine = "both"
    cfg.tap.thresholds = [1.0]
    cfg.mc.n_shots = 20_000
    report = run_scenario(cfg)
    return report.thresholds[0]["agreement"], report.flags["agreement_failed"]


JUST_BELOW_FLOOR = float(np.nextafter(AGREEMENT_MIN_SUCCESS, 0.0))
ABOVE_FOUR = float(np.nextafter(1.5, 2.0))  # |ABOVE_FOUR - 0.5| / 0.25 > 4


class TestAgreement:
    @pytest.mark.parametrize("success, analytic_ln, mc_ln, mc_se, expected", [
        (0.5, 0.5, 0.6, None, (None, False, True)),
        (0.5, 0.5, 0.5, 0.0, (0.0, True, True)),
        (0.5, 0.5, 0.6, 0.0, (float("inf"), True, False)),
        (JUST_BELOW_FLOOR, 0.5, 1.5, 0.25, (4.0, False, True)),
        (JUST_BELOW_FLOOR, 0.5, 9.5, 0.25, (36.0, False, True)),
        (AGREEMENT_MIN_SUCCESS, 0.5, 1.5, 0.25, (4.0, True, True)),
        (0.5, 0.5, ABOVE_FOUR, 0.25, ((ABOVE_FOUR - 0.5) / 0.25, True, False)),
    ])
    def test_each_branch(self, monkeypatch, success, analytic_ln, mc_ln, mc_se, expected):
        agreement, failed = rigged_agreement(monkeypatch, success, analytic_ln, mc_ln, mc_se)
        distance, checked, ok = expected
        assert agreement == {"ln_sigma_distance": distance, "checked": checked, "ok": ok}
        assert failed is not ok

    def test_rows_are_matched_by_threshold(self, monkeypatch):
        # Thresholds 0-3: both engines, analytic only, Monte Carlo only, neither.
        analytic = SimpleNamespace(errors=(None, None, ValueError(), ValueError()),
                                   success_probability=np.array([0.5, 0.5]))
        mc = SimpleNamespace(errors=(None, ValueError(), None, ValueError()))
        monkeypatch.setattr(scenario, "distilled_gln", lambda ens: np.array([0.5, 9.0]))
        monkeypatch.setattr(scenario, "ln_with_se",
                            lambda sweep: (np.array([1.0, 9.0]), np.array([0.25, None], dtype=object)))
        distance, checked, ok = (a.tolist() for a in ln_agreement(analytic, mc))
        assert distance == [2.0, None, None, None]
        assert checked == [True, False, False, False]
        assert ok == [True, True, True, True]


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

    def test_csv_content_matches_report(self, both_run):
        out, report = both_run
        rows = {row["threshold"]: row for row in report["thresholds"]}
        assert rows[12.0]["mc"] is None and rows[4.0]["mc"]["kept_count"] > 0
        edges = report["histogram_edges"]
        levels = list(zip(report["channel"]["transmittances"], report["channel"]["probabilities"]))
        pre_rows = []
        for th in BOTH_THRESHOLDS:
            post = (out / f"posterior_weights_th{th:g}.csv").read_text().splitlines()
            assert post[0] == ("level_index,transmittance,prior_probability,"
                               "posterior_weight,mc_posterior_weight")
            assert post[1].startswith("0,0.25,0.5,")
            assert len(post) == 1 + len(levels)
            analytic, mc = rows[th]["analytic"], rows[th]["mc"]
            for i, line in enumerate(post[1:]):
                index, t, p, weight, mc_weight = line.split(",")
                assert (int(index), float(t), float(p)) == (i, *levels[i])
                assert float(weight) == analytic["posterior_weights"][i]
                if mc is None:
                    assert mc_weight == ""
                else:
                    assert float(mc_weight) == mc["posterior_weights"][i]

            hist = out / f"histograms_th{th:g}.csv"
            if mc is None:
                assert not hist.exists()
                continue
            lines = hist.read_text().splitlines()
            assert lines[0] == "bin_left,bin_right,count,series,selection"
            assert lines[1].startswith("-25,-24.751243781094526,")
            assert lines[1].endswith(",X_tap,pre")
            cells = [line.split(",") for line in lines[1:]]
            n_bins = len(edges) - 1
            assert len(cells) == 2 * n_bins * len(SERIES)
            for b, (left, right, count, series, selection) in enumerate(cells):
                block, k = divmod(b, n_bins)
                assert (series, selection) == (SERIES[block // 2], ("pre", "post")[block % 2])
                assert (float(left), float(right)) == (edges[k], edges[k + 1])
                assert int(count) == mc["histograms"][series][selection][k]
            for block in range(1, 2 * len(SERIES), 2):
                post_counts = [int(c[2]) for c in cells[block * n_bins:(block + 1) * n_bins]]
                assert sum(post_counts) == mc["kept_count"]
            pre_rows.append([line for line in lines if line.endswith(",pre")])
        assert len(pre_rows) == 3
        assert pre_rows[0] == pre_rows[1] == pre_rows[2]

    def test_edited_pre_histograms_render_as_stored(self, capsys, tmp_path, both_run):
        # Pre-selection blocks are shared by every threshold of a run; a
        # stored report whose blocks differ must still render each as stored.
        first, _ = both_run
        report = json.loads((first / "report.json").read_text())
        pre2 = report["thresholds"][1]["mc"]["histograms"]["X_tap"]["pre"]
        pre4 = report["thresholds"][2]["mc"]["histograms"]["X_tap"]["pre"]
        pre2[100] += 1
        pre4[100] += 2
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(report))
        assert main(["report", "--report", str(edited), "--out", str(tmp_path / "out")]) == 0
        counts = {}
        for th in (0, 2, 4):
            lines = (tmp_path / "out" / f"histograms_th{th}.csv").read_text().splitlines()
            counts[th] = lines[1 + 100].split(",")[2]
        stored = report["thresholds"][0]["mc"]["histograms"]["X_tap"]["pre"][100]
        assert counts == {0: str(stored), 2: str(stored + 1), 4: str(stored + 2)}

    def test_report_json_is_one_compact_line(self, tmp_path):
        cfg = preset_config("discrete")
        cfg.engine = "both"
        cfg.tap.thresholds = [0.0, 2.0]
        cfg.mc.n_shots = 20_000
        cfg.output.dir = str(tmp_path / "out")
        report = run_scenario(cfg)
        text = (tmp_path / "out" / "report.json").read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        stored = json.loads(text, parse_constant=pytest.fail)
        assert stored == json.loads(json.dumps(report.to_dict()))
        config_text = (tmp_path / "out" / "config.json").read_text()
        assert config_text == json.dumps(report.provenance["config"], indent=2) + "\n"

    def test_indented_report_renders_as_compact(self, capsys, tmp_path, both_run):
        # report.json written with indent=2, as earlier versions did, must
        # re-render byte for byte as the compact file does.
        first, report = both_run
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(report, indent=2) + "\n")
        for source, out in ((first / "report.json", "compact"), (indented, "indented")):
            assert main(["report", "--report", str(source), "--out", str(tmp_path / out)]) == 0
        names = sorted(p.name for p in (tmp_path / "compact").iterdir())
        assert "report.json" in names
        assert names == sorted(p.name for p in (tmp_path / "indented").iterdir())
        for name in names:
            assert ((tmp_path / "compact" / name).read_bytes()
                    == (tmp_path / "indented" / name).read_bytes()), name


def package_env(**extra):
    """The environment of a fresh interpreter that imports this package, plus ``extra``."""
    src = os.path.dirname(os.path.dirname(cvdistill.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


class TestDeterminism:
    # Four blocks of shots, so that three workers split them unevenly and
    # the moments merge across processes.
    CODE = (
        "import json, sys, cvdistill\n"
        "c = cvdistill.preset_config(sys.argv[1])\n"
        "c.engine, c.mc.n_shots, c.mc.n_workers = 'both', 200_000, int(sys.argv[2])\n"
        "c.tap.thresholds = [0.0, 3.0, 6.0, 9.0]\n"
        "report = cvdistill.run_scenario(c).to_dict()\n"
        "del report['provenance']\n"
        "print(json.dumps(report))\n"
    )

    @pytest.mark.parametrize("preset", ["discrete", "semicontinuous"])
    def test_report_independent_of_blas_threads_and_workers(self, preset):
        outs = [
            subprocess.run([sys.executable, "-c", self.CODE, preset, workers],
                           env=package_env(OPENBLAS_NUM_THREADS=threads), capture_output=True,
                           text=True, timeout=300, check=True).stdout
            for threads, workers in (("1", "1"), ("2", "3"))
        ]
        assert outs[0] == outs[1]  # every float by its repr, the flags included
        report = json.loads(outs[0])
        assert [row["mc"] is not None for row in report["thresholds"]][:3] == [True] * 3


class TestCliCommands:
    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; importing scipy would roughly
        # double every invocation's start-up.
        # A process pool is started, and its module imported, only for n_workers > 1.
        code = ("import sys, cvdistill, cvdistill.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
                "or m.startswith('concurrent.futures')))")
        out = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"

    def test_calibrate_out_of_range_names_the_bound(self, capsys):
        assert main(["calibrate", "--ln-initial", "14"]) == 2
        err = capsys.readouterr().err
        assert "ln_initial must lie in (0, log2(BRACKET_HI) = 13.29), got 14.0" in err

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
        assert "mc.seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--shots", "0", "mc.n_shots"), ("--workers", "0", "mc.n_workers"),
        ("--seed", "-1", "mc.seed"),
    ])
    def test_run_flag_override_names_config_field(self, capsys, tmp_path, flag, value, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(preset_config("discrete").to_dict()))
        assert main(["run", "--config", str(cfg_path), flag, value]) == 2
        assert f"error: {field} must be >= " in capsys.readouterr().err

    def test_run_bool_shot_count_is_config_error(self, capsys, tmp_path):
        raw = preset_config("discrete").to_dict()
        raw["mc"]["n_shots"] = True
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "mc.n_shots must be an integer, got True" in capsys.readouterr().err

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

    @pytest.mark.parametrize("thresholds, code", [([1.0000001, 1.0000004], 2), ([2.0, 2.0], 0)],
                             ids=["distinct-same-tag", "exact-duplicates"])
    def test_run_threshold_tags_must_differ(self, capsys, tmp_path, thresholds, code):
        # Artifact names keep 6 significant digits: distinct thresholds that
        # share one would overwrite each other's tables.
        raw = preset_config("discrete").to_dict()
        raw["tap"]["thresholds"] = thresholds
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "art")]) == code
        if code == 2:
            assert "tag 'th1'" in capsys.readouterr().err
        else:
            assert len((tmp_path / "art" / "sweep.csv").read_text().splitlines()) == 3

    def test_run_few_kept_shots_reports_no_standard_error(self, capsys, tmp_path):
        # At 7.5 SNU (success 2.7e-4, so the agreement check would apply)
        # this seed keeps 10 of 40,000 shots: fewer than the 14 features
        # whose sample covariance the delta method needs.
        cfg = preset_config("discrete")
        cfg.engine = "both"
        cfg.tap.thresholds = [2.0, 7.5]
        cfg.mc.n_shots = 40_000
        cfg.mc.seed = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "art")]) == 0
        rows = json.loads((tmp_path / "art" / "report.json").read_text())["thresholds"]
        assert rows[0]["mc"]["kept_count"] > 14 and rows[0]["mc"]["ln_se"] > 0
        assert rows[0]["agreement"]["checked"]
        assert 2 <= rows[1]["mc"]["kept_count"] <= 14
        assert rows[1]["analytic"]["success_probability"] >= 1e-4
        assert rows[1]["mc"]["ln_se"] is None
        assert rows[1]["agreement"] == {"ln_sigma_distance": None, "checked": False, "ok": True}

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

    def test_engines_that_disagree_fail_the_run(self, capsys, tmp_path, monkeypatch):
        # The analytic engine heralds the mixture tapped at reflectivity
        # 0.15 while the Monte Carlo samples it tapped at the preset's 0.07.
        cal = calibrate()
        mixture = propagate(make_kerr_entangled(cal.v_squeezed, cal.v_antisqueezed),
                            discrete_channel())
        expected = attach_tap(mixture, TapConfig(reflectivity=0.07))
        wrong = attach_tap(mixture, TapConfig(reflectivity=0.15))
        real_herald = scenario.herald

        def herald(tapped, thresholds):
            assert np.array_equal(tapped.states.cov, expected.states.cov)
            return real_herald(wrong, thresholds)

        monkeypatch.setattr(scenario, "herald", herald)
        cfg = preset_config("discrete")
        cfg.engine = "both"
        cfg.tap.thresholds = [0.0, 1.0, 2.0, 3.0, 4.0]
        cfg.mc.n_shots = 200_000
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "art")]) == 4
        report = json.loads((tmp_path / "art" / "report.json").read_text())
        assert report["flags"]["agreement_failed"]

    def test_report_command_rerenders(self, capsys, tmp_path, both_run):
        first, _ = both_run
        code = main([
            "report", "--report", str(first / "report.json"),
            "--out", str(tmp_path / "second"),
        ])
        assert code == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "second").iterdir())
        assert "histograms_th4.csv" in names and "histograms_th12.csv" not in names
        for name in names:
            assert (first / name).read_bytes() == (tmp_path / "second" / name).read_bytes(), name

    def test_report_command_bad_path(self, capsys):
        assert main(["report", "--report", "/nonexistent.json", "--out", "/tmp/x"]) == 2

    def test_report_command_unknown_format(self, capsys, tmp_path, both_run):
        first, _ = both_run
        code = main(["report", "--report", str(first / "report.json"),
                     "--out", str(tmp_path / "second"), "--formats", "json,xml"])
        assert code == 2
        assert "output.formats entries must be in ('json', 'csv'), got 'xml'" in capsys.readouterr().err
        assert not (tmp_path / "second").exists()

    @pytest.mark.parametrize("corrupt, reason", [
        (lambda d: d["thresholds"][0].pop("threshold"), "threshold row needs 'threshold'"),
        (lambda d: d["channel"].pop("probabilities"), "channel needs 'probabilities'"),
        (lambda d: d.update(thresholds=5), "report needs 'thresholds'"),
        (lambda d: d["thresholds"][0]["analytic"]["posterior_weights"].pop(),
         "lacks posterior weights"),
        (lambda d: d["thresholds"].append(dict(d["thresholds"][0], threshold=2.0000001)),
         "share the artifact file tag"),
        (lambda d: d["thresholds"][1].update(threshold=True), THRESHOLD_REASON),
        (lambda d: d["thresholds"][1].update(threshold=float("inf")), THRESHOLD_REASON),
        (lambda d: d["thresholds"][1].update(threshold=float("nan")), THRESHOLD_REASON),
        (lambda d: d["thresholds"][0]["mc"]["histograms"]["X_tap"].update(post=[1, 2, 3]),
         HISTOGRAM_REASON),
        (lambda d: d["thresholds"][0]["mc"]["histograms"]["X_B"]["pre"].__setitem__(7, 0.5),
         HISTOGRAM_REASON),
        (lambda d: d["thresholds"][0]["mc"]["histograms"]["P_B"]["pre"].__setitem__(7, True),
         HISTOGRAM_REASON),
        (lambda d: d.update(histogram_edges=[0.0]), "'histogram_edges' must be null or a list"),
        (lambda d: d["histogram_edges"].__setitem__(0, float("-inf")),
         "histogram_edges[0] must be a finite number"),
        (lambda d: d["histogram_edges"].reverse(), "'histogram_edges' must increase strictly"),
        (lambda d: d["thresholds"][0]["analytic"].update(success_probability="abc"),
         "threshold row 'success_probability' must be a finite number"),
        (lambda d: d["thresholds"][0]["mc"].update(gaussian_ln=None),
         "threshold row 'gaussian_ln' must be a finite number"),
        (lambda d: d["thresholds"][0]["analytic"]["posterior_weights"].__setitem__(0, "x"),
         "threshold row 'posterior_weights'[0] must be a finite number"),
    ], ids=["row-without-threshold", "channel-without-probabilities", "thresholds-not-a-list",
            "posterior-weights-short", "threshold-tags-collide", "threshold-is-bool",
            "threshold-is-infinite", "threshold-is-nan", "histogram-counts-short",
            "histogram-count-fractional", "histogram-count-bool", "histogram-edges-too-few",
            "histogram-edge-infinite", "histogram-edges-reversed", "success-not-a-number",
            "ln-not-a-number", "posterior-weight-not-a-number"])
    def test_report_command_malformed_report(self, capsys, tmp_path, both_run, corrupt, reason):
        first, _ = both_run
        data = json.loads((first / "report.json").read_text())
        corrupt(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["report", "--report", str(bad), "--out", str(tmp_path / "second")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load report")
        assert reason in err

    def test_calibrate_out_is_directory(self, capsys, tmp_path):
        assert main(["calibrate", "--skip-envelope", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_run_out_below_a_file(self, capsys, tmp_path):
        cfg = preset_config("discrete")
        cfg.tap.thresholds = [2.0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        code = main(["run", "--config", str(cfg_path), "--out", str(cfg_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv, edit", [
        (["calibrate", "--p-full", "1.5"], None),
        (["calibrate", "--p-full", "nan"], None),
        (["calibrate", "--ln-initial", "nan"], None),
        (["run"], lambda raw: raw["channel"].update(p_full=1.5)),
        (["run"], lambda raw: raw["channel"].update(p_full=0)),
        (["run"], lambda raw: raw["channel"].update(p_full=-0.2)),
        (["run"], lambda raw: raw["source"]["calibrate_to"].update(ln_initial=2000)),
    ], ids=["p-full-1.5", "p-full-nan", "ln-initial-nan", "config-p-full-1.5",
            "config-p-full-0", "config-p-full-negative", "config-ln-initial-2000"])
    def test_calibration_inputs_are_config_errors(self, capsys, tmp_path, argv, edit):
        if edit is not None:
            raw = preset_config("semicontinuous").to_dict()  # calibrated envelope, no beta
            edit(raw)
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(raw))
            argv = argv + ["--config", str(cfg_path), "--out", str(tmp_path / "art")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_run_overflowing_histogram_range_is_config_error(self, capsys, tmp_path):
        # The bin edges span 2 * histogram_range, which overflows to inf here.
        raw = preset_config("discrete").to_dict()
        raw["engine"], raw["mc"]["n_shots"], raw["mc"]["histogram_range"] = "mc", 1000, 1e308
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "art")]) == 2
        assert "error: mc.histogram_range must leave the histogram width" in capsys.readouterr().err
        assert not (tmp_path / "art").exists()
        with pytest.raises(ConfigError, match="histogram_range"):
            McConfig(histogram_range=1e308)
        assert McConfig(histogram_range=8e307).histogram_range == 8e307

    @pytest.mark.parametrize("histogram_range, code", [(1e-322, 2), (1e-300, 0), (25.0, 0)])
    def test_run_histogram_range_edges_distinct(self, capsys, tmp_path, histogram_range, code):
        # At 1e-322 the 202 bin edges collapse onto a few subnormals and the
        # kernel's scale bins / (2 * range) is infinite: a config error, not
        # a report that `cvdistill report` then refuses.
        raw = preset_config("discrete").to_dict()
        raw["engine"], raw["tap"]["thresholds"] = "mc", [1.0]
        raw["mc"]["n_shots"], raw["mc"]["histogram_range"] = 1000, histogram_range
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "art")]) == code
        if code:
            assert "error: mc.histogram_range must leave 201 bins" in capsys.readouterr().err
            assert not (tmp_path / "art").exists()
        else:
            report = str(tmp_path / "art" / "report.json")
            assert main(["report", "--report", report, "--out", str(tmp_path / "again")]) == 0
