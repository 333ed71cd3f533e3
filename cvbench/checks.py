"""Checks of one `cvdistill run` output against quantities computed apart from it.

The reference is closed form: after a channel level of transmittance t and
the tap of reflectivity R, the tap X quadrature of the calibrated source
(V_s, V_a) has variance 1 + R t ((V_s + V_a)/2 - 1), so the success
probability at threshold th is p(th) = sum_i w_i Q(th / sigma_i), with
Q(a) = erfc(a / sqrt 2) / 2. It is evaluated with ``math`` alone. Besides
it, the checks use properties the method must have and the paper's
anchors, never stored copies of earlier output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from workloads import ANCHOR_LN, ANCHOR_SUCCESS, ANCHOR_THRESHOLD

# Analytic success must match the closed form to this relative error.
ANALYTIC_REL_TOL = 1e-12
# Posterior weights must sum to 1 to this absolute error.
WEIGHT_SUM_TOL = 1e-9
# Kept counts must lie within Z binomial standard deviations (plus Z counts,
# for the Poisson regime) of N p: a false alarm has probability < 1e-8.
BINOMIAL_Z = 6.0
# A Monte Carlo row may be degenerate (fewer than 2 kept) only where the
# closed form expects fewer kept shots than this.
DEGENERATE_MAX_EXPECTED = 20.0
DISCRETE_LEVELS = [(0.25, 0.5), (1.0, 0.5)]


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def tap_success(threshold: float, levels, v_s: float, v_a: float, reflectivity: float) -> float:
    """Closed-form success probability p(th) = sum_i w_i Q(th / sigma_i)."""
    excess = 0.5 * (v_s + v_a) - 1.0
    return math.fsum(
        w * 0.5 * math.erfc(threshold / math.sqrt(2.0 * (1.0 + reflectivity * t * excess)))
        for t, w in levels
    )


def binomial_band(n: int, p: float) -> tuple:
    half = BINOMIAL_Z * math.sqrt(n * p * (1.0 - p)) + BINOMIAL_Z
    return n * p - half, n * p + half


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_report(report: dict, case) -> None:
    """Check one report dict against the closed form and the method's properties."""
    cfg = report["provenance"]["config"]
    engine = cfg["engine"]
    cal = report["calibration"]
    v_s, v_a = cal["v_squeezed"], cal["v_antisqueezed"]
    ln_initial = cfg["source"]["calibrate_to"]["ln_initial"]
    _require(abs(v_s - 2.0 ** -ln_initial) <= 1e-15 * v_s,
             f"v_squeezed {v_s!r} is not 2**-{ln_initial}")
    _require(v_a * v_s >= 1.0, f"V_s V_a = {v_s * v_a!r} violates the uncertainty relation")

    levels = list(zip(report["channel"]["transmittances"], report["channel"]["probabilities"]))
    _require(len(levels) == case.n_levels, f"{len(levels)} channel levels, expected {case.n_levels}")
    if case.n_levels == 2:
        _require(levels == DISCRETE_LEVELS, f"discrete channel levels {levels}")
    _require(abs(math.fsum(w for _, w in levels) - 1.0) <= 1e-12, "level weights do not sum to 1")
    _require(all(0.0 <= t <= 1.0 for t, _ in levels), "transmittance outside [0, 1]")

    tap = cfg["tap"]
    rows = report["thresholds"]
    _require([r["threshold"] for r in rows] == tap["thresholds"], "rows do not follow the grid")
    n_shots = cfg["mc"]["n_shots"]
    prev_success = math.inf
    prev_kept = math.inf
    for row in rows:
        th = row["threshold"]
        p_ref = tap_success(th, levels, v_s, v_a, tap["reflectivity"])
        an, mc = row["analytic"], row["mc"]
        if engine in ("analytic", "both"):
            _require(an is not None, f"no analytic result at {th}: {row.get('error')}")
            p = an["success_probability"]
            _require(abs(p - p_ref) <= ANALYTIC_REL_TOL * p_ref,
                     f"analytic success {p!r} at {th} != closed form {p_ref!r}")
            _require(p < prev_success, f"analytic success not strictly decreasing at {th}")
            prev_success = p
            _require(abs(math.fsum(an["posterior_weights"]) - 1.0) <= WEIGHT_SUM_TOL,
                     f"analytic posterior weights at {th} do not sum to 1")
        if engine in ("mc", "both"):
            if mc is None:
                _require(n_shots * p_ref < DEGENERATE_MAX_EXPECTED,
                         f"Monte Carlo degenerate at {th} where {n_shots * p_ref:.1f} kept are expected")
                continue
            kept = mc["kept_count"]
            _require(mc["total_count"] == n_shots, f"total count {mc['total_count']} != {n_shots}")
            lo, hi = binomial_band(n_shots, p_ref)
            _require(lo <= kept <= hi,
                     f"kept {kept} at {th} outside the binomial band [{lo:.1f}, {hi:.1f}]")
            # Every threshold reuses the seed, so the kept sets are nested.
            _require(kept <= prev_kept, f"kept count grows at {th}")
            prev_kept = kept
            _require(abs(math.fsum(mc["posterior_weights"]) - 1.0) <= WEIGHT_SUM_TOL,
                     f"Monte Carlo posterior weights at {th} do not sum to 1")
            for series, counts in mc["histograms"].items():
                _require(sum(counts["pre"]) == n_shots, f"{series} pre-selection counts at {th}")
                _require(sum(counts["post"]) == kept, f"{series} post-selection counts at {th}")
        if case.anchors and th == ANCHOR_THRESHOLD:
            _check_anchor(an, mc, case)


def _check_anchor(an, mc, case) -> None:
    lo, hi = ANCHOR_LN
    for name, section in (("analytic", an), ("Monte Carlo", mc)):
        if section is None:
            continue
        p = section["success_probability"]
        _require(ANCHOR_SUCCESS / 2 <= p <= 2 * ANCHOR_SUCCESS,
                 f"{name} success {p!r} at 9 SNU not within 2x of {ANCHOR_SUCCESS}")
    if an is not None:
        _require(lo <= an["gaussian_ln"] <= hi,
                 f"analytic LN {an['gaussian_ln']!r} at 9 SNU outside [{lo}, {hi}]")
    if mc is not None and case.kept_band is not None:
        k_lo, k_hi = case.kept_band
        _require(k_lo <= mc["kept_count"] <= k_hi,
                 f"kept {mc['kept_count']} at 9 SNU outside [{k_lo}, {k_hi}]")


def expected_files(report: dict) -> int:
    """report.json, config.json, sweep.csv, and per-threshold CSVs."""
    rows = [r for r in report["thresholds"] if r["analytic"] is not None or r["mc"] is not None]
    return 3 + len(rows) + sum(r["mc"] is not None for r in rows)


def check_output(rc, out_dir: str, case) -> None:
    """Check one `cvdistill run` call: exit code, artifacts and their content."""
    from cvdistill.scenario import RunReport

    _require(rc == 0, f"exit code {rc}")
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(out_dir, "config.json")) as fh:
            config = json.load(fh)
        RunReport.from_dict(report)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"unreadable report: {exc}") from exc
    _require(config_hash(config) == report["provenance"]["config_hash"],
             "config.json does not hash to provenance.config_hash")
    _require(config == report["provenance"]["config"], "config.json differs from the report's")
    n_files = len(os.listdir(out_dir))
    _require(n_files == expected_files(report), f"{n_files} artifacts, expected {expected_files(report)}")
    check_report(report, case)
