"""Tests of the benchmark itself: quick runs, the checks, the tracer.

    PYTHONPATH=src python -m pytest -q cvbench
"""

from __future__ import annotations

import copy
import json
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "cvbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_quick_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        record = json.loads((BENCH_DIR / "out" / f"result-{workload}-seed7-trace0.json").read_text())
        # One reference time at the start, then one after each probe and operation;
        # the operation ran after both probes, between the last two reference times.
        ref = record["reference_s"]
        assert len(ref) == 1 + len(record["setup_s"]) + result["attempted"]
        (op,) = record["operations"]
        assert op["factor"] == pytest.approx(run.REF_S / statistics.mean(ref[-2:]))
        assert result["metrics"]["op_s"]["value"] == pytest.approx(op["wall_s"] * op["factor"])
        assert record["setup_factor"] == pytest.approx(run.REF_S / statistics.mean(ref))
        assert result["metrics"]["setup_s"]["value"] == pytest.approx(
            statistics.median(record["setup_s"]) * record["setup_factor"])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [w["why"] for w in SPEC["workloads"]] == list(workloads.WHY.values())


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "cvbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sweep_mc", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _run_case(case, out_dir: Path):
    from cvdistill.cli import main

    cfg = out_dir.parent / f"{case.label}.json"
    cfg.write_text(json.dumps(case.config))
    return main(["run", "--config", str(cfg), "--out", str(out_dir)])


@pytest.fixture(scope="module")
def headcount(tmp_path_factory):
    """A real quick headcount_t9 output: both engines at 9 SNU."""
    (case,) = workloads.build("headcount_t9", 3, quick=True)
    out = tmp_path_factory.mktemp("headcount") / "out"
    rc = _run_case(case, out)
    report = json.loads((out / "report.json").read_text())
    return case, rc, out, report


@pytest.fixture(scope="module")
def fine(tmp_path_factory):
    """A real quick analytic_fine output of the discrete channel."""
    case = workloads.build("analytic_fine", 3, quick=True)[0]
    out = tmp_path_factory.mktemp("fine") / "out"
    _run_case(case, out)
    return case, json.loads((out / "report.json").read_text())


def test_real_outputs_pass(headcount, fine):
    case, rc, out, report = headcount
    checks.check_output(rc, str(out), case)
    checks.check_report(fine[1], fine[0])


def _row9(report):
    return next(r for r in report["thresholds"] if r["threshold"] == 9.0)


def _mutations():
    def kept_doubled(r):
        mc = _row9(r)["mc"]
        mc["kept_count"] *= 2

    def ln_out_of_band(r):
        _row9(r)["analytic"]["gaussian_ln"] = 0.80

    def success_off(r):
        _row9(r)["analytic"]["success_probability"] *= 1 + 1e-9

    def success_far(r):
        _row9(r)["analytic"]["success_probability"] *= 2.5

    def weights_off(r):
        _row9(r)["mc"]["posterior_weights"][0] += 1e-6

    def pre_counts_off(r):
        _row9(r)["mc"]["histograms"]["X_B"]["pre"][100] += 1

    def post_counts_off(r):
        _row9(r)["mc"]["histograms"]["X_tap"]["post"][150] -= 1

    def total_off(r):
        _row9(r)["mc"]["total_count"] -= 1

    def degenerate_where_many_kept(r):
        _row9(r)["mc"] = None

    def source_off(r):
        r["calibration"]["v_squeezed"] *= 1 + 1e-12

    def channel_off(r):
        r["channel"]["probabilities"] = [0.4, 0.6]

    return [kept_doubled, ln_out_of_band, success_off, success_far, weights_off,
            pre_counts_off, post_counts_off, total_off, degenerate_where_many_kept,
            source_off, channel_off]


@pytest.mark.parametrize("mutate", _mutations(), ids=lambda f: f.__name__)
def test_check_rejects_wrong_report(headcount, mutate):
    case, _, _, report = headcount
    bad = copy.deepcopy(report)
    mutate(bad)
    with pytest.raises(CheckFailed):
        checks.check_report(bad, case)


def test_kept_band_of_full_scale_rejects_quick_count(headcount):
    case, _, _, report = headcount
    full = workloads.Case(case.label, case.config, case.n_levels, anchors=True,
                          kept_band=workloads.HEADCOUNT_KEPT)
    with pytest.raises(CheckFailed, match="outside \\[300, 3000\\]"):
        checks.check_report(report, full)


def test_binomial_band_rejects_doubled_count_at_full_scale(headcount):
    _, _, _, report = headcount
    cal, chan = report["calibration"], report["channel"]
    levels = list(zip(chan["transmittances"], chan["probabilities"]))
    n = workloads.SIZES[False]["headcount_shots"]
    expected = n * checks.tap_success(9.0, levels, cal["v_squeezed"], cal["v_antisqueezed"], 0.07)
    lo, hi = checks.binomial_band(n, expected / n)
    assert lo <= expected <= hi
    assert not lo <= 2 * expected <= hi and not lo <= expected / 2 <= hi


def test_check_rejects_non_monotone_success(fine):
    case, report = fine
    bad = copy.deepcopy(report)
    rows = bad["thresholds"]
    rows[3]["analytic"], rows[4]["analytic"] = rows[4]["analytic"], rows[3]["analytic"]
    with pytest.raises(CheckFailed):
        checks.check_report(bad, case)


def test_check_rejects_bad_exit_code_config_and_artifacts(headcount, tmp_path):
    case, rc, out, _ = headcount
    with pytest.raises(CheckFailed, match="exit code"):
        checks.check_output(4, str(out), case)
    copied = tmp_path / "out"
    shutil.copytree(out, copied)
    (copied / "stray.csv").write_text("x\n")
    with pytest.raises(CheckFailed, match="artifacts"):
        checks.check_output(rc, str(copied), case)
    (copied / "stray.csv").unlink()
    config = json.loads((copied / "config.json").read_text())
    config["mc"]["seed"] += 1
    (copied / "config.json").write_text(json.dumps(config))
    with pytest.raises(CheckFailed, match="hash"):
        checks.check_output(rc, str(copied), case)


def test_closed_form_matches_herald(headcount):
    """The reference agrees with the analytic engine far below the check's tolerance."""
    _, _, _, report = headcount
    cal, chan = report["calibration"], report["channel"]
    levels = list(zip(chan["transmittances"], chan["probabilities"]))
    p = checks.tap_success(9.0, levels, cal["v_squeezed"], cal["v_antisqueezed"], 0.07)
    assert p == pytest.approx(_row9(report)["analytic"]["success_probability"], rel=1e-14)


def test_tracer_reports_missing_names_and_restores_originals(monkeypatch):
    import cvdistill.mc as mc
    import cvdistill.scenario as scenario

    monkeypatch.delattr(scenario, "upper_bound_ln")
    monkeypatch.delattr(mc, "kernel_backend")
    tracer = tracing.Tracer()
    original = scenario.herald
    tracer.install()
    assert tracer.missing == ["cvdistill.scenario.upper_bound_ln", "active kernel.accumulate_chunk"]
    assert scenario.herald is not original
    tracer.remove()
    assert scenario.herald is original
