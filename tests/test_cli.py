import copy
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import cvdistill
from cvdistill import (
    CalibrationError,
    FluctuatingChannel,
    attach_tap,
    calibrate,
    calibrate_envelope,
    discrete_channel,
    distilled_gln,
    envelope_exponential,
    envelope_fading,
    gaussian_log_negativity,
    herald,
    parse_config,
    preset_config,
    run_mc_sweep,
    run_scenario,
)
import cvdistill.channel as channel_mod
import cvdistill.scenario as scenario
from cvdistill.calibrate import (BRACKET_HI, DEFAULT_LN_DISCRETE_PREMIX, ENVELOPE_FAMILIES,
                                 ENVELOPE_LN_TOL, ENVELOPES, SOURCE_LN_TOL, _bisect, premix_ln)
from cvdistill.cli import main
from cvdistill.config import (DEFAULT_THRESHOLDS, ChannelSettings, ConfigError, McConfig,
                              SourceSettings, TapConfig)
from cvdistill.distill import row_mask
from cvdistill.gaussian import PHYS_TOL, kerr_variances
from cvdistill.mc import SERIES, ln_with_se
from conftest import kerr_source, loss, pooled
from cvdistill.scenario import AGREEMENT_MIN_SUCCESS, RunReport, ln_agreement

# Both engines over four thresholds; at 12 SNU the 20,000 shots keep none,
# so that row has no Monte Carlo section and no histogram file.
BOTH_THRESHOLDS = [0.0, 2.0, 4.0, 12.0]

# What `cvdistill report` says about a malformed stored threshold or histogram.
THRESHOLD_REASON = "threshold row 'threshold', if not null, must be a finite number"
HISTOGRAM_REASON = "mc histogram counts must be 201 integers, one per bin"

# The default source fit's antisqueezed variance, bit for bit.
PINNED_V_ANTISQUEEZED = 122.83446271865805


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
        # The pooled LN of the discrete mixture at the bracket edge.
        target = premix_ln(vs, 1.0 / vs, discrete_channel())
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


@pytest.fixture
def construction_counts(monkeypatch):
    """Counts, from here on, of covariances built and of source physicality checks.

    ``states`` counts ``two_mode_cov`` calls that build a stack of level
    covariances, ``pooled`` those that build one 4x4 matrix, and ``physical``
    the ``kerr_variances`` checks.
    """
    counts = {"states": 0, "pooled": 0, "physical": 0}
    real_cov, real_check = channel_mod.two_mode_cov, kerr_variances

    def two_mode_cov(s, b, c):
        cov = real_cov(s, b, c)
        counts["pooled" if cov.ndim == 2 else "states"] += 1
        return cov

    def check(*args):
        counts["physical"] += 1
        return real_check(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("cvdistill"):
            for attr, func, fake in (("two_mode_cov", real_cov, two_mode_cov),
                                     ("kerr_variances", real_check, check)):
                if getattr(module, attr, None) is func:
                    monkeypatch.setattr(module, attr, fake)
    return counts


def premix_ln_mp(v_squeezed, v_antisqueezed, channel):
    """``premix_ln``'s pooled covariance and log-negativity in 50-digit arithmetic."""
    with mpmath.workdps(50):
        vs, va = mpmath.mpf(v_squeezed), mpmath.mpf(v_antisqueezed)
        s, c = (vs + va) / 2, (vs - va) / 2
        levels = [(mpmath.mpf(t), mpmath.mpf(p))
                  for t, p in zip(channel.transmittances.tolist(), channel.probabilities.tolist())]
        b = sum(p * (t * s + 1 - t) for t, p in levels)
        cb = sum(p * mpmath.sqrt(t) * c for t, p in levels)
        # 2 nu_-^2 = D - sqrt(D^2 - 4 det), D = det A + det B - 2 det C, det C = -cb^2.
        d, det = s * s + b * b + 2 * cb * cb, (s * b - cb * cb) ** 2
        return float(-mpmath.log((d - mpmath.sqrt(d * d - 4 * det)) / 2, 2) / 2)


def pooled_premix_ln(source, channel):
    """Log-negativity of the pooled channel output, by the reference's loss on beam B."""
    return gaussian_log_negativity(
        pooled(channel.probabilities, loss(source, 1, channel.transmittances))[1])


def state_path_premix_ln(v_squeezed, v_antisqueezed):
    """``premix_ln`` of the two-level channel, through the reference source and its levels."""
    return pooled_premix_ln(kerr_source(v_squeezed, v_antisqueezed), discrete_channel())


class TestClosedFormSourceFit:
    """The source fit's closed-form pooled covariance against the reference's state path."""

    @pytest.mark.parametrize("ln_initial", [0.05, 0.76, 2.0, 6.0])
    def test_closed_form_matches_state_path(self, ln_initial):
        vs = 2.0 ** -ln_initial
        for va in [1.0 / vs, 1.0001 / vs, 2.0 / vs, 122.83446271865805, 1e3, BRACKET_HI]:
            assert premix_ln(vs, va, discrete_channel()) == pytest.approx(
                state_path_premix_ln(vs, va), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("vs, va", [(1.2, 2.0), (0.0, 2.0), (0.5, 0.9), (0.5, 1.5)])
    def test_source_guards_match_make_kerr_entangled(self, vs, va):
        with pytest.raises(ValueError) as built:
            kerr_source(vs, va)
        with pytest.raises(ValueError) as closed:
            premix_ln(vs, va, discrete_channel())
        assert str(closed.value) == str(built.value)

    def test_default_fit_pinned(self):
        assert calibrate().v_antisqueezed == PINNED_V_ANTISQUEEZED

    def test_fit_matches_state_path_bisection(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            ln_initial = rng.uniform(0.05, 4.0)
            vs = 2.0 ** -ln_initial
            lo, hi = 1.0 / vs, BRACKET_HI
            target = rng.uniform(state_path_premix_ln(vs, hi), state_path_premix_ln(vs, lo))
            va, achieved = _bisect(lambda v: state_path_premix_ln(vs, v), lo, hi, target,
                                   SOURCE_LN_TOL)
            cal = calibrate(ln_initial=ln_initial, ln_discrete_premix=target)
            assert cal.v_antisqueezed == va
            assert cal.ln_discrete_premix == pytest.approx(achieved, rel=1e-13, abs=0.0)

    def test_fit_cost_does_not_grow_with_steps(self, monkeypatch, construction_counts):
        # Each LN evaluation builds one pooled 4x4 covariance and checks the
        # two variances once, and no step builds the levels' covariances.
        steps = []
        monkeypatch.setattr(sys.modules["cvdistill.calibrate"], "premix_ln",
                            lambda *args: steps.append(args) or premix_ln(*args))
        vs = 2.0 ** -0.76
        # A target met at the bracket's first midpoint ends the fit after three evaluations.
        mid_target = premix_ln(vs, 0.5 * (1.0 / vs + BRACKET_HI), discrete_channel())
        seen = []
        for target in (mid_target, DEFAULT_LN_DISCRETE_PREMIX):
            steps.clear()
            construction_counts.update(states=0, pooled=0, physical=0)
            calibrate(ln_initial=0.76, ln_discrete_premix=target)
            seen.append(dict(construction_counts, steps=len(steps)))
        # Three bisection evaluations, then the fitted source's own LN.
        assert seen[0]["steps"] == 4 and seen[1]["steps"] > 20
        for c in seen:
            assert c["states"] == 0 and c["pooled"] == c["physical"] == c["steps"]


# The envelope fits of the two families at the default targets.
PRESET_ENVELOPE_PARAMS = {"fading": 0.17767333984375, "exponential": 4.62493896484375}


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

    @pytest.mark.parametrize("channel", [
        discrete_channel(),
        FluctuatingChannel([0.1, 0.6, 1.0], [0.3, 0.5, 0.2]),
        *(envelope_fading(f) for f in (0.0, 0.3, PRESET_ENVELOPE_PARAMS["fading"], 1.0)),
        envelope_fading(0.6, p_full=0.5),
        *(envelope_exponential(b) for b in (-50.0, -7.5, 0.0, PRESET_ENVELOPE_PARAMS["exponential"],
                                            50.0)),
        envelope_exponential(2.0, p_full=0.05),
    ], ids=["discrete", "three-level", "fading-0", "fading-0.3", "fading-preset", "fading-1",
            "fading-p0.5", "exponential--50", "exponential--7.5", "exponential-0",
            "exponential-preset", "exponential-50", "exponential-p0.05"])
    def test_premix_ln_matches_state_path(self, calibration, channel):
        sources = [(calibration.v_squeezed, calibration.v_antisqueezed),
                   (calibration.v_squeezed, 1.0 / calibration.v_squeezed), (0.05, 1e3)]
        for vs, va in sources:
            expected = pooled_premix_ln(kerr_source(vs, va), channel)
            assert premix_ln(vs, va, channel) == pytest.approx(expected, rel=1e-13, abs=0.0)
        # Where the LN nears 0 both paths lose ~1e-13 of it to rounding (here LN ~ 0.02 for
        # the flat envelopes), so this source is held to a 50-digit evaluation instead.
        for vs, va in sources + [(0.3, 40.0)]:
            assert premix_ln(vs, va, channel) == pytest.approx(premix_ln_mp(vs, va, channel),
                                                               rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("family", ENVELOPE_FAMILIES)
    def test_fit_matches_state_path_bisection(self, family):
        # The closed-form fit takes the steps of the same bisection over the mixture state.
        build, (lo, hi) = ENVELOPES[family]
        rng = np.random.default_rng(2025)
        for _ in range(50):
            vs = 2.0 ** -rng.uniform(0.2, 3.0)
            va = 10.0 ** rng.uniform(0.0, 2.5) / vs
            p_full = rng.uniform(0.05, 0.6)
            source = kerr_source(vs, va)
            state_path = lambda param: pooled_premix_ln(source, build(param, p_full=p_full))
            target = rng.uniform(*sorted((state_path(lo), state_path(hi))))
            expected, _ = _bisect(state_path, lo, hi, target, ENVELOPE_LN_TOL)
            param, chan = calibrate_envelope(vs, va, p_full=p_full, ln_premix=target, family=family)
            assert param == expected
            assert np.array_equal(chan.probabilities, build(expected, p_full=p_full).probabilities)

    @pytest.mark.parametrize("family", ENVELOPE_FAMILIES)
    def test_preset_fit_pinned(self, calibration, family):
        param, _ = calibrate_envelope(calibration.v_squeezed, calibration.v_antisqueezed,
                                      family=family)
        assert param == PRESET_ENVELOPE_PARAMS[family]

    @pytest.mark.parametrize("family", ENVELOPE_FAMILIES)
    def test_fit_builds_no_state(self, calibration, construction_counts, family):
        calibrate_envelope(calibration.v_squeezed, calibration.v_antisqueezed, family=family)
        assert construction_counts["states"] == 0
        assert construction_counts["pooled"] == construction_counts["physical"] - 1 > 10

    @pytest.mark.parametrize("family", ENVELOPE_FAMILIES)
    @pytest.mark.parametrize("vs, va, p_full, reason", [
        (1.2, 2.0, 0.2, "v_squeezed must lie in (0, 1], got 1.2"),
        (0.5, 0.9, 0.2, "v_antisqueezed must be finite and >= 1, got 0.9"),
        (0.5, 1.5, 0.2, "v_squeezed * v_antisqueezed = 0.75 violates the uncertainty relation"),
        (0.6, 50.0, 1.5, "p_full must lie in (0, 1), got 1.5"),
    ], ids=["squeezed", "antisqueezed", "uncertainty", "p_full"])
    def test_bad_inputs_raise_before_the_bisection(self, monkeypatch, family, vs, va, p_full,
                                                   reason):
        steps = []
        monkeypatch.setattr(sys.modules["cvdistill.calibrate"], "premix_ln",
                            lambda *args: steps.append(args))
        with pytest.raises(CalibrationError) as raised:
            calibrate_envelope(vs, va, p_full=p_full, family=family)
        assert str(raised.value) == f"cannot build the {family} envelope: {reason}"
        assert steps == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", ["squeezed", "antisqueezed"])
    def test_non_finite_variances_raise_before_the_bisection(self, monkeypatch, which, value):
        # Bad variances are a CalibrationError before any step, never an
        # InvalidCovarianceError from inside the bisection.
        steps = []
        monkeypatch.setattr(sys.modules["cvdistill.calibrate"], "premix_ln",
                            lambda *args: steps.append(args))
        args = (value, 2.0) if which == "squeezed" else (0.5, value)
        with pytest.raises(CalibrationError, match="cannot build the fading envelope: v_"):
            calibrate_envelope(*args)
        assert steps == []

    @pytest.mark.parametrize("family", ENVELOPE_FAMILIES)
    @pytest.mark.parametrize("source, p_full", [
        ({"v_squeezed": 0.5, "v_antisqueezed": 1.5}, 0.2),
        ({"v_squeezed": 0.6, "v_antisqueezed": 50.0}, 1.5),
    ], ids=["variances", "p_full"])
    def test_bad_inputs_exit_2_through_run(self, tmp_path, capsys, family, source, p_full):
        raw = preset_config("semicontinuous").to_dict()
        raw["source"] = source
        raw["channel"].update(envelope=family, p_full=p_full)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

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
        chan, param = parse_config(raw).channel.build(0.6, 50.0)
        assert chan.transmittances.tolist() == [0.5, 1.0]
        assert chan.probabilities.tolist() == [0.25, 0.75]
        assert param is None

    def test_invalid_levels_rejected(self):
        # The levels are checked when the config is parsed, not when a run builds the channel.
        raw = preset_config("discrete").to_dict()
        raw["channel"] = {"levels": [{"t": 0.5, "p": 0.5}, {"t": 0.4, "p": 0.5}]}
        with pytest.raises(ConfigError,
                           match="^invalid channel levels: transmittances must be strictly increasing$"):
            parse_config(raw)

    @pytest.mark.parametrize("family, builder, beta", [
        ("fading", envelope_fading, 0.3), ("exponential", envelope_exponential, 2.5),
    ])
    def test_channel_settings_build_the_family_envelope(self, calibration, family, builder, beta):
        variances = calibration.v_squeezed, calibration.v_antisqueezed
        explicit = ChannelSettings(preset="semicontinuous", envelope=family, beta=beta)
        chan, param = explicit.build(*variances)
        assert param == beta
        assert np.array_equal(chan.transmittances, builder(beta).transmittances)
        assert np.array_equal(chan.probabilities, builder(beta).probabilities)
        # Without beta the envelope is fitted, as calibrate_envelope fits it.
        chan, param = replace(explicit, beta=None).build(*variances)
        fitted, ref = calibrate_envelope(*variances, family=family)
        assert param == fitted
        assert np.array_equal(chan.probabilities, ref.probabilities)

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

    def test_shot_count_bounded_by_int64_counts(self):
        assert McConfig(n_shots=2**63 - 1).n_shots == 2**63 - 1
        raw = preset_config("discrete").to_dict()
        raw["mc"]["n_shots"] = 10**20
        for build in (lambda: McConfig(n_shots=2**63), lambda: parse_config(raw)):
            with pytest.raises(ConfigError, match=r"^mc.n_shots must be <= 9223372036854775807 "):
                build()

    def test_settings_constructors_validate(self):
        with pytest.raises(ConfigError, match="mc.n_shots must be >= 1"):
            McConfig(n_shots=0)
        with pytest.raises(ConfigError, match=r"tap.reflectivity must lie in \(0, 1\)"):
            TapConfig(reflectivity=1.0)
        assert issubclass(ConfigError, ValueError)
        semicontinuous = ChannelSettings(preset="semicontinuous", beta=0.1)
        for build, message in [
            (lambda: replace(semicontinuous, envelope="fadnig"),
             "channel.envelope must be 'fading' or 'exponential', got 'fadnig'"),
            (lambda: SourceSettings(v_squeezed=0.5), "missing key(s) ['v_antisqueezed'] in source"),
            (lambda: SourceSettings(ln_initial=0.76),
             "missing key(s) ['ln_discrete_premix'] in source.calibrate_to"),
            (lambda: ChannelSettings(preset="discrete", beta=3.0),
             "unknown key(s) ['beta'] in channel (discrete preset)"),
            (SourceSettings,
             "source must give exactly one of (v_squeezed, v_antisqueezed) or calibrate_to"),
            (lambda: ChannelSettings(levels=[(0.5, 0.5), (0.4, 0.5)]),
             "invalid channel levels: transmittances must be strictly increasing"),
        ]:
            with pytest.raises(ConfigError) as raised:
                build()
            assert str(raised.value) == message

    @pytest.mark.parametrize("change, message", [
        ({"engine": "Monte Carlo"},
         "engine must be one of ('analytic', 'mc', 'both'), got 'Monte Carlo'"),
        ({"name": 7}, "name must be a string"),
    ], ids=["engine", "name"])
    def test_experiment_config_validates_name_and_engine(self, change, message):
        # dataclasses.replace meets the checks, and the messages, of parse_config.
        with pytest.raises(ConfigError) as replaced:
            replace(preset_config("discrete"), **change)
        with pytest.raises(ConfigError) as parsed:
            parse_config({**preset_config("discrete").to_dict(), **change})
        assert str(replaced.value) == str(parsed.value) == message


# Config dicts for the fuzz test: the presets, and variants with an explicit
# source and with explicit channel levels, run again by the Monte Carlo
# (engine "mc") and by both engines.
FUZZ_BASES = [preset_config(name).to_dict() for name in ("perfect", "discrete", "semicontinuous")]
FUZZ_BASES += [
    {**FUZZ_BASES[1], "source": {"v_squeezed": 0.6, "v_antisqueezed": 50.0}},
    {**FUZZ_BASES[1], "channel": {"levels": [{"t": 0.5, "p": 0.25}, {"t": 1.0, "p": 0.75}]}},
]
FUZZ_BASES += [{**FUZZ_BASES[3], "engine": "mc"}, {**FUZZ_BASES[4], "engine": "both"}]
DELETE = object()
FUZZ_VALUES = [DELETE, None, True, False, 0, -1, 2, 7, 0.5, 1e300, math.nan, math.inf, "x",
               [], [0.5, 2], {}, {"t": 0.5}]


def _paths(node, path=()):
    """The key path of every entry below ``node``, depth first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """A fuzz base with one or two entries deleted or replaced by a ``FUZZ_VALUES`` value."""
    raw = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        *parents, key = draw(st.sampled_from(list(_paths(raw))))
        node = raw
        for parent in parents:
            node = node[parent]
        value = draw(st.sampled_from(FUZZ_VALUES))
        if value is DELETE:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    return raw


class TestConfigFuzz:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(raw=mutated_configs())
    @example(raw={**FUZZ_BASES[1], "source": None})
    @example(raw={**FUZZ_BASES[1], "source": 0.5})
    @example(raw={**FUZZ_BASES[1], "source": True})
    @example(raw={**FUZZ_BASES[1], "source": {"v_squeezed": 0.5, "v_antisqueezed": 1e300}})
    def test_mutated_configs_fail_as_config_errors_or_round_trip(self, raw):
        try:
            cfg = parse_config(raw)
        except ConfigError:
            return
        assert parse_config(cfg.to_dict()).to_dict() == cfg.to_dict()

    @settings(derandomize=True, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=mutated_configs())
    # An unreachable envelope target and an out-of-range p_full (exit 2), every threshold
    # degenerate (exit 3), and both engines.
    @example(raw={**FUZZ_BASES[2], "channel": {**FUZZ_BASES[2]["channel"], "ln_premix": 2}})
    @example(raw={**FUZZ_BASES[2], "channel": {**FUZZ_BASES[2]["channel"], "p_full": 2}})
    @example(raw={**FUZZ_BASES[1], "tap": {"thresholds": [1e4]}})
    @example(raw={**FUZZ_BASES[2], "engine": "both"})
    def test_accepted_configs_run(self, tmp_path, raw):
        # Each accepted config runs to an exit code, never a traceback, on at most
        # 2e4 shots and one worker, and its report holds no NaN or infinity.
        try:
            cfg = parse_config(raw)
        except ConfigError:
            return
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        (work / "cfg.json").write_text(json.dumps(raw))
        shots = str(min(cfg.mc.n_shots, 20_000))
        code = main(["run", "--config", str(work / "cfg.json"), "--shots", shots, "--workers", "1",
                     "--out", str(work / "out")])
        assert code in (0, 2, 3, 4)
        if code != 2 and "json" in cfg.output.formats:
            json.loads((work / "out" / "report.json").read_text(),
                       parse_constant=lambda name: pytest.fail(f"report.json holds {name}"))


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

        def attach_tap(v_squeezed, v_antisqueezed, channel, tap):
            seen["tap"] = tap
            return real_tap(v_squeezed, v_antisqueezed, channel, tap)

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
        # Seed 3 keeps 3 shots at 9.5 SNU: too few for a positive-definite 4x4 covariance.
        cfg = preset_config("discrete")
        cfg.engine = "mc"
        cfg.tap.thresholds = [8.5, 9.0, 9.5]
        cfg.mc.n_shots = 300_000
        cfg.mc.seed = 3
        report = run_scenario(cfg)
        assert report.thresholds[0]["mc"]["kept_count"] > 4
        assert report.thresholds[2]["mc"] is None
        assert report.thresholds[2]["error"] == (
            "mc: only 3 of 300000 shots passed threshold 9.5, fewer than MIN_KEPT = 5")
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
        assert rows[3.5]["error"] == (
            "mc: only 3 of 20000 shots passed threshold 3.5, fewer than MIN_KEPT = 5")
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
    Carlo LN error are then replaced by the given values, one per grid
    threshold. An ``mc_se`` of None stands for ``ln_with_se``'s NaN.
    """
    real_herald = scenario.herald

    def herald(mixture3, thresholds):
        ensemble = real_herald(mixture3, thresholds)
        ensemble.success_probability = np.full_like(ensemble.success_probability, success)
        return ensemble

    def column(stack, value):
        return np.full(len(stack.errors), np.nan if value is None else value)

    monkeypatch.setattr(scenario, "herald", herald)
    monkeypatch.setattr(scenario, "distilled_gln", lambda ens: column(ens, analytic_ln))
    monkeypatch.setattr(scenario, "ln_with_se",
                        lambda sweep: (column(sweep, mc_ln), column(sweep, mc_se)))
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
        # Thresholds 0-3: both engines, analytic only, Monte Carlo only,
        # neither. Each stack has a row per threshold, NaN where an engine
        # has an error; the success keeps its value there.
        analytic = SimpleNamespace(errors=(None, None, ValueError(), ValueError()),
                                   success_probability=np.array([0.5, 0.5, 0.0, 0.0]))
        mc = SimpleNamespace(errors=(None, ValueError(), None, ValueError()))
        monkeypatch.setattr(scenario, "distilled_gln",
                            lambda ens: np.array([0.5, 9.0, np.nan, np.nan]))
        monkeypatch.setattr(scenario, "ln_with_se", lambda sweep: (
            np.array([1.0, np.nan, 9.0, np.nan]), np.array([0.25, np.nan, 0.25, np.nan])))
        distance, checked, ok = (a.tolist() for a in ln_agreement(analytic, mc))
        assert distance == [2.0, None, None, None]
        assert checked == [True, False, False, False]
        assert ok == [True, True, True, True]


def strict_json(text: str):
    """``text`` parsed as JSON; ValueError on ``NaN``, ``Infinity`` or ``-Infinity``."""
    def reject(name):
        raise ValueError(f"report holds {name}")

    return json.loads(text, parse_constant=reject)


class TestOneRowPerThreshold:
    def test_both_engines_stack_every_field_per_grid_threshold(self, tmp_path):
        # Unsorted, 3 repeated, and degenerate rows in the middle: at 2e5
        # shots 12 SNU keeps no shot, and at 1e4 SNU the success underflows.
        grid = [3.0, 12.0, 0.0, 1e4, 3.0, 6.0, 9.0]
        cfg = preset_config("discrete")
        cfg.engine, cfg.tap.thresholds, cfg.mc.n_shots = "both", grid, 200_000
        cfg.output.dir = str(tmp_path)
        variances = cfg.source.variances()
        tapped = attach_tap(*variances, cfg.channel.build(*variances)[0], cfg.tap)
        ens, sweep = herald(tapped, grid), run_mc_sweep(tapped, cfg.mc, grid)
        assert row_mask(ens.errors).tolist() == [True] * 3 + [False] + [True] * 3
        assert row_mask(sweep.errors).tolist() == [True, False, True, False, True, True, True]

        # Every field has T rows, NaN exactly in the moments of the rows with an error.
        moments = {"analytic": ("posterior_weights", "pooled_mean", "pooled_cov", "weight_entropy",
                                "max_component_cov_distance"),
                   "mc": ("pooled_mean", "pooled_cov", "cov_sampling")}
        for name, stack, lns in (("analytic", ens, [distilled_gln(ens)]),
                                 ("mc", sweep, list(ln_with_se(sweep)))):
            real = row_mask(stack.errors)
            held_once = ("errors", "edges", "hist_pre", "total_count")
            stacked = {f.name: getattr(stack, f.name) for f in fields(stack)
                       if f.name not in held_once}
            stacked.update(success_probability=stack.success_probability, ln=lns[0])
            for key, value in stacked.items():
                assert len(value) == len(grid), (name, key)
                nan = np.isnan(value).reshape(len(grid), -1)
                missing = ~real if key in moments[name] + ("ln",) else np.zeros(len(grid), bool)
                assert np.array_equal(nan.all(axis=1), missing), (name, key)
                assert np.array_equal(nan.any(axis=1), missing), (name, key)
            # The LN error is NaN on the rows with an error and where 9 SNU kept <= 14 shots.
            if name == "mc":
                assert 5 <= sweep.kept_count[6] <= 14
                assert np.array_equal(np.isnan(lns[1]), ~real | (np.arange(len(grid)) == 6))

        # The other rows are the stacks of the grid without the degenerate
        # thresholds: herald's bit for bit, the sweep's (same lowest
        # threshold) to its moments' float reassociation.
        real = row_mask(ens.errors)
        alone = herald(tapped, np.array(grid)[real])
        for f in fields(ens):
            if f.name != "errors":
                assert np.array_equal(getattr(ens, f.name)[real], getattr(alone, f.name)), f.name
        assert np.array_equal(distilled_gln(ens)[real], distilled_gln(alone))
        real = row_mask(sweep.errors)
        alone = run_mc_sweep(tapped, cfg.mc, np.array(grid)[real])
        for key in ("kept_count", "per_level_kept", "hist_post"):
            assert np.array_equal(getattr(sweep, key)[real], getattr(alone, key)), key
        for key in ("pooled_mean", "pooled_cov", "cov_sampling"):
            a, b = getattr(sweep, key)[real], getattr(alone, key)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), key
        for a, b in zip(ln_with_se(sweep), ln_with_se(alone)):
            assert np.array_equal(np.isnan(a[real]), np.isnan(b))
            assert a[real] == pytest.approx(b, rel=1e-9, nan_ok=True)

        # The report holds no NaN: a row with an error has no section, and
        # 9 SNU's LN error is null.
        report = run_scenario(cfg)
        stored = strict_json((tmp_path / "report.json").read_text())
        assert stored == json.loads(json.dumps(report.to_dict()))
        rows = stored["thresholds"]
        assert [row["mc"] is None for row in rows] == (~row_mask(sweep.errors)).tolist()
        assert [row["analytic"] is None for row in rows] == (~row_mask(ens.errors)).tolist()
        assert rows[6]["mc"]["ln_se"] is None and rows[6]["agreement"]["ln_sigma_distance"] is None
        assert rows[3]["error"] and rows[1]["engine_errors"]


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

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0, 0.0)
    def test_file_tag_parses_back_to_its_threshold(self, a, b):
        tag = scenario._file_tag(a)
        assert float(tag) == a
        if float(f"{a:g}") == a:
            assert tag == f"{a + 0.0:g}"  # -0.0 is 0.0's threshold, tagged 0
        assert scenario._file_tag(np.float64(a)) == tag
        if a != b:
            assert scenario._file_tag(b) != tag
        else:
            assert scenario._file_tag(b) == tag

    @pytest.mark.parametrize("grid", [
        DEFAULT_THRESHOLDS, [12.0 * k / 240 for k in range(241)], [12.0 * k / 24 for k in range(25)],
    ], ids=["default", "benchmark-0.05-snu", "benchmark-quick-0.5-snu"])
    def test_file_tag_renames_no_grid_file(self, grid):
        assert [scenario._file_tag(t) for t in grid] == [f"{t:g}" for t in grid]

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

    def test_artifacts_independent_of_the_output_directory(self, both_run, capsys):
        first, report = both_run
        cfg_path = first.parent / "cfg.json"
        second = first.parent / "a-directory-with-a-longer-name"
        assert main(["run", "--config", str(cfg_path), "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
        # The hash is the config's without a directory, as config.json records it.
        assert report["provenance"]["config"]["output"]["dir"] is None
        assert report["provenance"]["config_hash"] == parse_config(
            json.loads(cfg_path.read_text())).config_hash()


def test_every_public_name_resolves():
    """Every name in the ``__all__`` of every cvdistill module exists: no stale export is left."""
    modules = [cvdistill] + [importlib.import_module(info.name) for info in
                             pkgutil.walk_packages(cvdistill.__path__, "cvdistill.")]
    assert len(modules) > 8
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_readme_library_use_runs(capsys):
    """README's "Library use" block runs as written, so an API change cannot leave it stale."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "[0.25 1.  ] [0.5 0.5]" in out and "underflowed" in out


class TestConsoleScriptTwins:
    """The console script's answers, checked in process on the checkout.

    CI no longer runs these checks on the installed script; it only runs
    ``cvdistill --version`` and one small run there.
    """

    def test_project_scripts_entry_point(self, capsys):
        # Read without tomllib, which Python 3.10 lacks.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        entries = re.findall(r'^\s*([\w-]+)\s*=\s*"([\w.]+):(\w+)"\s*$', section, re.M)
        assert entries == [("cvdistill", "cvdistill.cli", "main")]
        _, module, attr = entries[0]
        assert getattr(importlib.import_module(module), attr) is main
        # The package version has one source, which the build reads.
        project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        assert re.findall(r'^dynamic\s*=\s*\["version"\]\s*$', project, re.M)
        assert not re.findall(r'^version\s*=', project, re.M)
        dynamic = text.split("\n[tool.setuptools.dynamic]\n", 1)[1].split("\n[", 1)[0]
        (source,) = re.findall(r'^version\s*=\s*\{\s*attr\s*=\s*"([\w.]+)"\s*\}\s*$', dynamic, re.M)
        module, attr = source.rsplit(".", 1)
        assert getattr(importlib.import_module(module), attr) == cvdistill.__version__
        with pytest.raises(SystemExit) as exit_:
            main(["--version"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == f"cvdistill {cvdistill.__version__}\n"

    @pytest.mark.parametrize("family", ENVELOPE_FAMILIES)
    def test_calibrated_levels_run_as_an_explicit_channel(self, capsys, tmp_path, family):
        assert main(["calibrate", "--family", family]) == 0
        fit = json.loads(capsys.readouterr().out)
        envelope = fit["envelope"]
        assert envelope["param"] == PRESET_ENVELOPE_PARAMS[family]
        assert len(envelope["levels"]) == 45
        assert abs(sum(level["p"] for level in envelope["levels"]) - 1.0) < 1e-12
        config = {"source": {"v_squeezed": fit["v_squeezed"], "v_antisqueezed": fit["v_antisqueezed"]},
                  "channel": {"levels": envelope["levels"]}, "tap": {"thresholds": [9.0]}}
        path = tmp_path / f"levels-{family}.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["scenario"] == "experiment"


# Pure sources above this squeezing (dB, 10 log10 V_a) have no float64 model:
# V_s falls below the rounding of the source covariance's entries of order V_a.
FLOAT64_PURE_LIMIT_DB = 75.0


def squeezing_scan():
    """(dB, V_s, V_a, pure): V_a = 10^e, e from 0 to 15 in quarters, with V_s at 1/V_a,
    one ulp either side of it, 0.5 and 1."""
    for e in np.arange(0.0, 15.01, 0.25):
        va = 10.0 ** e
        pure = 1.0 / va
        for vs in (pure, np.nextafter(pure, 0.0), np.nextafter(pure, 2.0)):
            yield 10.0 * e, float(vs), va, True
        for vs in (0.5, 1.0):
            yield 10.0 * e, vs, va, False


class TestSqueezingScan:
    """Physical sources from 0 to 150 dB: one exact acceptance rule, and no traceback."""

    @staticmethod
    def accepted(vs, va):
        return vs <= 1.0 and vs * va >= 1.0 - PHYS_TOL

    def test_accepted_exactly_by_the_product_rule(self):
        # The rule is one exact product: no eigenvalue solver's rounding
        # (~1e-8 relative for a general one here) decides a strongly squeezed source.
        for _, vs, va, _ in squeezing_scan():
            try:
                SourceSettings(v_squeezed=vs, v_antisqueezed=va)
            except ConfigError:
                assert not self.accepted(vs, va), (vs, va)
            else:
                assert self.accepted(vs, va), (vs, va)

    def test_every_pair_runs_or_exits_2(self, tmp_path, capsys):
        # The installed smoke test's run: the discrete channel, both engines,
        # 2e4 shots. An exception escaping main fails the test.
        raw = preset_config("discrete").to_dict()
        raw["tap"]["thresholds"] = [0.0, 3.0, 6.0]
        raw["mc"]["n_shots"] = 20_000
        path = tmp_path / "cfg.json"
        for db, vs, va, pure in squeezing_scan():
            raw["source"] = {"v_squeezed": vs, "v_antisqueezed": va}
            path.write_text(json.dumps(raw))
            code = main(["run", "--config", str(path), "--engine", "both"])
            err = capsys.readouterr().err
            if code == 2 or not self.accepted(vs, va):
                assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (vs, va)
            if pure and self.accepted(vs, va):
                # Up to the float64 limit both engines run, and exit 4 is their
                # agreement gate's verdict: at 20-22.5 dB the 6 SNU row keeps a
                # near-pure state whose sample LN the delta-method error
                # underrates. Beyond the limit the model build fails.
                assert code in ((2,) if db > FLOAT64_PURE_LIMIT_DB else (0, 4)), (vs, va, code)
            assert code in (0, 2, 4), (vs, va, code)


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
        assert blob["v_antisqueezed"] == PINNED_V_ANTISQUEEZED
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

    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_run_shot_count_beyond_int64_is_config_error(self, capsys, tmp_path, via):
        # A 30 SNU threshold keeps both levels on the count-first path, whose
        # one block would hold every shot.
        raw = preset_config("discrete").to_dict()
        raw["engine"], raw["tap"]["thresholds"] = "mc", [30.0]
        if via == "config":
            raw["mc"]["n_shots"] = 10**20
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        flags = ["--shots", str(10**20)] if via == "flag" else []
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "art"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mc.n_shots must be <= ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("source", [
        None, 7, True, {"v_squeezed": 0.5, "v_antisqueezed": 1e300},
        # V_s V_a = 0.99: 1e-7 with 1e7 is a physical pure source, which a run accepts.
        {"v_squeezed": 0.5, "v_antisqueezed": 1e15}, {"v_squeezed": 1e-7, "v_antisqueezed": 9.9e6},
    ], ids=["null", "number", "bool", "v_antisqueezed-1e300", "v_antisqueezed-1e15", "unphysical"])
    def test_run_malformed_source_is_config_error(self, capsys, tmp_path, source):
        raw = preset_config("discrete").to_dict()
        raw["source"] = source
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("thresholds, tags", [
        ([1.0000001, 1.0000004], ["1.0000001", "1.0000004"]), ([2.0, 2.0], ["2"]),
    ], ids=["distinct-close", "exact-duplicates"])
    def test_run_writes_each_threshold_its_own_files(self, capsys, tmp_path, thresholds, tags):
        # 1.0000001 and 1.0000004 agree to 6 significant digits, which is all
        # that {:g} keeps; their file names keep every digit instead.
        cfg = preset_config("discrete")
        cfg.engine = "both"
        cfg.tap.thresholds = thresholds
        cfg.mc.n_shots = 20_000
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        first = tmp_path / "art"
        assert main(["run", "--config", str(cfg_path), "--out", str(first)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(["config.json", "report.json", "sweep.csv"]
                               + [f"{kind}_th{tag}.csv" for kind in ("histograms", "posterior_weights")
                                  for tag in tags])
        rows = json.loads((first / "report.json").read_text())["thresholds"]
        assert len((first / "sweep.csv").read_text().splitlines()) == 1 + len(rows)
        for row in rows:
            tag = tags[sorted(set(thresholds)).index(row["threshold"])]
            post = (first / f"posterior_weights_th{tag}.csv").read_text().splitlines()[1:]
            assert [float(line.split(",")[3]) for line in post] == row["analytic"]["posterior_weights"]
            assert [float(line.split(",")[4]) for line in post] == row["mc"]["posterior_weights"]
            hist = (first / f"histograms_th{tag}.csv").read_text().splitlines()[1:]
            post_x_tap = [int(line.split(",")[2]) for line in hist if line.endswith(",X_tap,post")]
            assert post_x_tap == row["mc"]["histograms"]["X_tap"]["post"]
        second = tmp_path / "second"
        capsys.readouterr()
        assert main(["report", "--report", str(first / "report.json"), "--out", str(second)]) == 0
        # Each file is written, and listed, once however often its threshold repeats.
        written = json.loads(capsys.readouterr().out)["written"]
        assert sorted(os.path.basename(path) for path in written) == names
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_run_signed_zeros_write_one_threshold_files(self, capsys, tmp_path):
        # np.unique folds 0.0 and -0.0 into one grid threshold; its files are
        # named and written once, as for the grid without -0.0.
        def per_threshold_files(thresholds, name):
            cfg = preset_config("discrete")
            cfg.engine = "both"
            cfg.tap.thresholds = thresholds
            cfg.mc.n_shots = 20_000
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg.to_dict()))
            out = tmp_path / name
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir() if "_th" in p.name}

        signed = per_threshold_files([0.0, -0.0, 3.0], "signed")
        assert sorted(signed) == sorted(f"{kind}_th{tag}.csv" for kind in
                                        ("histograms", "posterior_weights") for tag in ("0", "3"))
        assert signed == per_threshold_files([0.0, 3.0], "plain")

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
        variances = cal.v_squeezed, cal.v_antisqueezed
        expected = attach_tap(*variances, discrete_channel(), TapConfig(reflectivity=0.07))
        wrong = attach_tap(*variances, discrete_channel(), TapConfig(reflectivity=0.15))
        real_herald = scenario.herald

        def herald(tapped, thresholds):
            assert np.array_equal(tapped.cov, expected.cov)
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
         "one posterior weight per channel level"),
        (lambda d: d["thresholds"][0]["mc"]["posterior_weights"].append(0.0),
         "one posterior weight per channel level"),
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
        (lambda d: d["channel"]["probabilities"].pop(),
         "channel 'transmittances' and 'probabilities' differ in length"),
        (lambda d: d["channel"]["transmittances"].__setitem__(0, "x"),
         "channel 'transmittances'[0] must be a finite number"),
        (lambda d: d["thresholds"][0]["analytic"].update(weight_entropy=float("nan")),
         "threshold row 'weight_entropy', if not null, must be a finite number"),
    ], ids=["row-without-threshold", "channel-without-probabilities", "thresholds-not-a-list",
            "posterior-weights-short", "posterior-weights-long", "threshold-is-bool",
            "threshold-is-infinite", "threshold-is-nan", "histogram-counts-short",
            "histogram-count-fractional", "histogram-count-bool", "histogram-edges-too-few",
            "histogram-edge-infinite", "histogram-edges-reversed", "success-not-a-number",
            "ln-not-a-number", "posterior-weight-not-a-number", "channel-lists-differ",
            "transmittance-not-a-number", "weight-entropy-nan"])
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
        (["run"], lambda raw: raw["channel"].update(envelope="fadnig")),
    ], ids=["p-full-1.5", "p-full-nan", "ln-initial-nan", "config-p-full-1.5",
            "config-p-full-0", "config-p-full-negative", "config-ln-initial-2000",
            "config-envelope-fadnig"])
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

    @pytest.mark.parametrize("bins", [10**12, 10**30])
    def test_run_implausible_histogram_bins_is_config_error(self, capsys, tmp_path, bins):
        # Past MAX_HISTOGRAM_BINS the bin edges alone would need terabytes.
        raw = preset_config("discrete").to_dict()
        raw["engine"], raw["mc"]["n_shots"], raw["mc"]["histogram_bins"] = "mc", 1000, bins
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "art")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: mc.histogram_bins must be <= 1000000, got {bins}\n"
        assert not (tmp_path / "art").exists()
        assert McConfig(histogram_bins=1_000_000).histogram_bins == 1_000_000

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
