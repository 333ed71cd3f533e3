"""Experiment orchestration: build, distill, verify, report.

``run_scenario`` executes one configured experiment end to end: build
the source and the channel from their config sections (calibrating where
a section gives targets), take the levels' closed-form covariances
(:func:`~cvdistill.channel.kerr_blocks`; no channel is the one level
t = 1), attach the tap, herald the whole
threshold list with the analytic engine (one ``herald`` call on the grid)
and/or the Monte Carlo engine (one ``run_mc_sweep`` pass over the shots),
and collect everything into a JSON-serializable RunReport. Both engines'
stacked results have one row per grid threshold, NaN where ``errors``
names a degenerate selection; each becomes one row section or one error
per threshold, ``ln_agreement`` compares the two at once, and the loop
over thresholds only copies cells into rows.
``emit_artifacts`` renders a report to flat files (JSON report, sweep
curve CSV, histogram CSVs, posterior-weight tables).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from ._version import __version__
from .calibrate import premix_ln
from .channel import FluctuatingChannel, kerr_blocks, two_mode_cov, upper_bound_ln
from .config import ConfigError, ExperimentConfig, _finite
from .distill import (
    attach_tap,
    distilled_gln,
    herald,
    joint_quadrature_variances,
    row_mask,
)
from .gaussian import InvalidCovarianceError, gaussian_log_negativity
from .mc import SERIES, ln_with_se, run_mc_sweep

__all__ = ["RunReport", "run_scenario", "emit_artifacts", "ln_agreement", "AGREEMENT_SIGMA",
           "AGREEMENT_MIN_SUCCESS"]

# MC/analytic agreement policy: flag the run as failed if the engines
# disagree on the log-negativity by more than this many standard errors at
# any threshold whose analytic success probability is at least the floor.
AGREEMENT_SIGMA = 4.0
AGREEMENT_MIN_SUCCESS = 1e-4


@dataclass
class RunReport:
    """Everything one scenario run produced, in JSON-ready form."""

    scenario: str
    engine: str
    calibration: dict
    ln_source: float
    ln_before: float
    upper_bound: float
    channel: dict | None
    thresholds: list
    histogram_edges: list | None
    provenance: dict
    flags: dict

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        """Rebuild a stored report; ValueError if it lacks what ``emit_artifacts`` reads."""
        names = [f.name for f in fields(cls)]
        _require(d, names, "report")
        _require(d, ["thresholds"], "report", list)
        _require(d["provenance"], ["config"], "provenance")
        n_levels = 0
        if d["channel"] is not None:
            _require(d["channel"], ["transmittances", "probabilities"], "channel", list)
            n_levels = len(d["channel"]["transmittances"])
            if len(d["channel"]["probabilities"]) != n_levels:
                raise ValueError("channel 'transmittances' and 'probabilities' differ in length")
            for key in ("transmittances", "probabilities"):
                for i, value in enumerate(d["channel"][key]):
                    _finite(value, f"channel {key!r}[{i}]")
        edges = d["histogram_edges"]
        if edges is not None and (not isinstance(edges, list) or len(edges) < 2):
            raise ValueError("report 'histogram_edges' must be null or a list of "
                             "at least 2 finite numbers")
        for i, edge in enumerate(edges or ()):
            _finite(edge, f"report histogram_edges[{i}]")
        if edges is not None and any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("report 'histogram_edges' must increase strictly")
        for row in d["thresholds"]:
            _require(row, ["threshold"], "threshold row")
            if row["threshold"] is not None:
                _finite(row["threshold"], "threshold row 'threshold', if not null,")
            for section in filter(None, (row.get("analytic"), row.get("mc"))):
                _require(section, ["success_probability", "gaussian_ln"], "threshold row")
                _require(section, ["posterior_weights"], "threshold row", list)
                if d["channel"] is not None and len(section["posterior_weights"]) != n_levels:
                    raise ValueError("threshold row needs one posterior weight per channel level")
                for key in ("success_probability", "gaussian_ln"):
                    _finite(section[key], f"threshold row {key!r}")
                if section.get("weight_entropy") is not None:
                    _finite(section["weight_entropy"], "threshold row 'weight_entropy', if not null,")
                for i, weight in enumerate(section["posterior_weights"]):
                    _finite(weight, f"threshold row 'posterior_weights'[{i}]")
            if row.get("mc") and edges is not None:
                _require(row["mc"], ["histograms"], "mc section", dict)
                for by_selection in row["mc"]["histograms"].values():
                    _require(by_selection, ["pre", "post"], "mc histogram", list)
                    for counts in (by_selection["pre"], by_selection["post"]):
                        if len(counts) != len(edges) - 1 or any(type(c) is not int for c in counts):
                            raise ValueError(f"mc histogram counts must be {len(edges) - 1} "
                                             "integers, one per bin")
        return cls(**{k: d[k] for k in names})

    @property
    def ln_after(self) -> list:
        """(threshold, gaussian_ln, success_probability) per usable threshold."""
        rows = []
        for row in self.thresholds:
            section = row.get("analytic") or row.get("mc")
            if section is not None:
                rows.append((row["threshold"], section["gaussian_ln"], section["success_probability"]))
        return rows


def _require(obj, keys, where: str, types=object) -> None:
    """Raise ValueError unless ``obj`` is a dict with every key in ``keys`` holding a ``types``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    for k in keys:
        if k not in obj or not isinstance(obj[k], types):
            raise ValueError(f"{where} needs {k!r}" + ("" if types is object else f" as {types}"))


def _sections(errors, columns: dict) -> list:
    """Per threshold, the error that stands for it, or its row section: one cell of each column.

    ``columns`` maps each section key, in the section's key order, to a
    stacked column (array or list) with one row per grid threshold.
    """
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    return [dict(zip(columns, row)) if exc is None else exc for exc, row in zip(errors, zip(*cells))]


def ln_agreement(ensemble, sweep):
    """The LN check per grid threshold of ``herald``'s ``ensemble`` and ``run_mc_sweep``'s ``sweep``.

    Returns (T,) arrays ``ln_sigma_distance``, |LN_mc - LN_analytic| over
    the Monte Carlo standard error (0 or inf where it is 0, None where it
    is NaN or an engine's ``errors`` entry is not None); ``checked``, where
    a distance exists and the analytic success is at least
    ``AGREEMENT_MIN_SUCCESS``; and ``ok``, False only where a checked
    distance exceeds ``AGREEMENT_SIGMA``.
    """
    mc_ln, mc_se = ln_with_se(sweep)
    diff = np.abs(mc_ln - distilled_gln(ensemble))
    sigma = np.divide(diff, mc_se, out=np.where(diff == 0.0, 0.0, np.inf), where=mc_se > 0)
    known = row_mask(ensemble.errors) & row_mask(sweep.errors) & ~np.isnan(mc_se)
    checked = known & (ensemble.success_probability >= AGREEMENT_MIN_SUCCESS)
    return np.where(known, sigma, None), checked, ~checked | (sigma <= AGREEMENT_SIGMA)


def run_scenario(config: ExperimentConfig) -> RunReport:
    """Execute one configured scenario and return its report.

    Each engine runs once for all thresholds (``herald`` on the grid,
    ``run_mc_sweep``); the loop over thresholds only assembles rows.
    Per-threshold engine failures (a degenerate selection: the success
    underflowed, or too few shots were kept) are recorded in the
    corresponding row and the run continues; the report's ``flags`` say
    whether every threshold failed or the engines disagreed.
    """
    v_squeezed, v_antisqueezed = config.source.variances()
    calibration = {"v_squeezed": v_squeezed, "v_antisqueezed": v_antisqueezed,
                   "envelope_family": None, "envelope_param": None}
    no_loss = FluctuatingChannel([1.0], [1.0])
    if config.channel is None:
        channel, channel_dict = no_loss, None
    else:
        channel, calibration["envelope_param"] = config.channel.build(v_squeezed, v_antisqueezed)
        if config.channel.envelope is not None:
            calibration["envelope_family"] = config.channel.envelope
            calibration["envelope_note"] = (
                "envelope shape is a calibrated stand-in; only its fitted scalar "
                "constraints are measurement-backed"
            )
        channel_dict = {
            "transmittances": channel.transmittances.tolist(),
            "probabilities": channel.probabilities.tolist(),
        }
    # A source that float64 cannot resolve (pure squeezing above about 75 dB)
    # fails a covariance check here, before any engine runs.
    try:
        weights = channel.probabilities
        s, b, c = kerr_blocks(v_squeezed, v_antisqueezed, channel)
        ln_source = premix_ln(v_squeezed, v_antisqueezed, no_loss)
        pooled_cov = two_mode_cov(s, float(weights @ b), float(weights @ c))
        ln_before = gaussian_log_negativity(pooled_cov)
        upper_bound = upper_bound_ln(weights, two_mode_cov(s, b, c))
        if config.tap is not None:
            tapped = attach_tap(v_squeezed, v_antisqueezed, channel, config.tap)
    except InvalidCovarianceError as exc:
        raise ConfigError(f"the source (v_squeezed {v_squeezed!r}, v_antisqueezed "
                          f"{v_antisqueezed!r}) has no float64 model: {exc}") from exc

    rows = []
    agreement_failed = False
    histogram_edges = None

    if config.tap is None:
        var_x, var_p = joint_quadrature_variances(pooled_cov)
        untapped = {"success_probability": 1.0, "gaussian_ln": ln_before, "weight_entropy": None,
                    "max_component_cov_distance": None,
                    "posterior_weights": weights.tolist(), "joint_var_x_sum": var_x,
                    "joint_var_p_diff": var_p, "pooled_cov": pooled_cov.tolist()}
        rows.append({"threshold": None, "analytic": untapped, "mc": None, "agreement": None,
                     "error": None})
    else:
        thresholds = config.tap.thresholds
        sections = {}
        if config.engine != "mc":
            ensemble = herald(tapped, thresholds)
            var_x, var_p = joint_quadrature_variances(ensemble.pooled_cov)
            sections["analytic"] = _sections(ensemble.errors, {
                "success_probability": ensemble.success_probability,
                "gaussian_ln": distilled_gln(ensemble),
                "weight_entropy": ensemble.weight_entropy,
                "max_component_cov_distance": ensemble.max_component_cov_distance,
                "posterior_weights": ensemble.posterior_weights, "joint_var_x_sum": var_x,
                "joint_var_p_diff": var_p, "pooled_cov": ensemble.pooled_cov,
            })
        if config.engine != "analytic":
            sweep = run_mc_sweep(tapped, config.mc, thresholds)
            kept = sweep.kept_count[:, None]
            ln, ln_se = ln_with_se(sweep)
            pre = sweep.hist_pre.tolist()
            sections["mc"] = _sections(sweep.errors, {
                "kept_count": sweep.kept_count, "total_count": [sweep.total_count] * len(thresholds),
                "success_probability": sweep.success_probability,
                "success_se": sweep.success_se, "gaussian_ln": ln,
                # JSON has no NaN: a row's missing LN error is written as null.
                "ln_se": np.where(np.isnan(ln_se), None, ln_se),
                "posterior_weights": np.divide(sweep.per_level_kept, kept, where=kept > 0,
                                               out=np.full(sweep.per_level_kept.shape, np.nan)),
                "pooled_cov": sweep.pooled_cov,
                "histograms": [{name: {"pre": p, "post": q} for name, p, q in zip(SERIES, pre, post)}
                               for post in sweep.hist_post.tolist()],
            })
            if None in sweep.errors:
                histogram_edges = sweep.edges.tolist()
        if len(sections) == 2:
            distance, checked, ok = (a.tolist() for a in ln_agreement(ensemble, sweep))
            agreement_failed = not all(ok)
        for i, threshold in enumerate(thresholds):
            row = {"threshold": threshold, "analytic": None, "mc": None,
                   "agreement": None, "error": None}
            errors = []
            for name, column in sections.items():
                if isinstance(column[i], Exception):
                    errors.append(f"{name}: {column[i]}")
                else:
                    row[name] = column[i]
            if row["analytic"] is not None and row["mc"] is not None:
                row["agreement"] = {"ln_sigma_distance": distance[i], "checked": checked[i],
                                    "ok": ok[i]}
            if errors and row["analytic"] is None and row["mc"] is None:
                row["error"] = "; ".join(errors)
            elif errors:
                row["engine_errors"] = errors
            rows.append(row)

    all_degenerate = config.tap is not None and all(r["error"] is not None for r in rows)
    report = RunReport(
        scenario=config.name,
        engine=config.engine,
        calibration=calibration,
        ln_source=ln_source,
        ln_before=ln_before,
        upper_bound=upper_bound,
        channel=channel_dict,
        thresholds=rows,
        histogram_edges=histogram_edges,
        provenance={
            "config": config.recorded_dict(),
            "config_hash": config.config_hash(),
            "seed": config.mc.seed,
            "n_workers": config.mc.n_workers,
            "package_version": __version__,
            "numpy_version": np.__version__,
        },
        flags={"all_degenerate": all_degenerate, "agreement_failed": agreement_failed},
    )
    if config.output.dir:
        emit_artifacts(report, config.output.dir, config.output.formats)
    return report


SWEEP_HEADER = "threshold_snu,success_probability,gaussian_ln,weight_entropy\n"
POSTERIOR_HEADER = "level_index,transmittance,prior_probability,posterior_weight,mc_posterior_weight\n"
HISTOGRAM_HEADER = "bin_left,bin_right,count,series,selection\n"


def _fmt(value) -> str:
    """CSV cell with full double precision (17 significant digits)."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed writing artifact {path}: {exc}") from exc


def _file_tag(threshold) -> str:
    """The part of a per-threshold file name that names ``threshold``; parses back to it exactly.

    ``{:g}`` where it round-trips, which every grid of a few significant
    digits does, else the shortest round-tripping ``repr``, so distinct
    thresholds never share a file. ``float`` first: numpy scalars ``repr``
    as ``np.float64(...)``. Adding 0.0 maps -0.0 to 0.0: a grid holds
    the two as one threshold, so they share the tag ``0``.
    """
    threshold = float(threshold) + 0.0
    tag = f"{threshold:g}"
    return tag if float(tag) == threshold else repr(threshold)


def emit_artifacts(report: RunReport, out_dir: str, formats=("json", "csv")) -> list:
    """Write report artifacts to ``out_dir``; returns the paths written, each once."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    # The report is one compact line: json encodes it in C only without an
    # indent. The small, hand-edited config keeps its indented layout.
    if "json" in formats:
        for name, text in (
            ("report.json", json.dumps(report.to_dict(), separators=(",", ":"))),
            ("config.json", json.dumps(report.provenance["config"], indent=2)),
        ):
            path = os.path.join(out_dir, name)
            _write_text(path, text + "\n")
            written.append(path)

    if "csv" not in formats:
        return written

    # Distillation curve: one row per threshold with usable results.
    lines = [SWEEP_HEADER]
    for row in report.thresholds:
        section = row.get("analytic") or row.get("mc")
        if section is None or row["threshold"] is None:
            continue
        cells = (row["threshold"], section["success_probability"], section["gaussian_ln"],
                 section.get("weight_entropy"))
        lines.append(",".join(map(_fmt, cells)) + "\n")
    path = os.path.join(out_dir, "sweep.csv")
    _write_text(path, "".join(lines))
    written.append(path)

    # Per-threshold files: a repeated threshold has one, from its first row.
    first_rows = {}
    for row in report.thresholds:
        if row["threshold"] is not None:
            first_rows.setdefault(_file_tag(row["threshold"]), row)

    # Posterior weight tables (mixture composition after heralding). The
    # level columns are the same in every table, so they are rendered once.
    if report.channel is not None:
        levels = [
            f"{i},{_fmt(t)},{_fmt(p)},"
            for i, (t, p) in enumerate(zip(report.channel["transmittances"],
                                           report.channel["probabilities"]))
        ]
        no_weights = [None] * len(levels)
        for tag, row in first_rows.items():
            analytic = row.get("analytic")
            mc = row.get("mc")
            if analytic is None and mc is None:
                continue
            weights = analytic["posterior_weights"] if analytic else no_weights
            mc_weights = mc["posterior_weights"] if mc else no_weights
            text = "".join(
                [POSTERIOR_HEADER]
                + [f"{prefix}{_fmt(weights[i])},{_fmt(mc_weights[i])}\n"
                   for i, prefix in enumerate(levels)]
            )
            path = os.path.join(out_dir, f"posterior_weights_th{tag}.csv")
            _write_text(path, text)
            written.append(path)

    # Histograms (only present when the Monte Carlo engine ran). The bin
    # columns are rendered once; so is each distinct pre-selection block,
    # which every threshold of one run shares. The key is the block's
    # content, so a stored report whose blocks differ renders each as written.
    if report.histogram_edges is not None:
        edges = report.histogram_edges
        bins = [f"{_fmt(left)},{_fmt(right)}," for left, right in zip(edges[:-1], edges[1:])]
        pre_blocks = {}
        for tag, row in first_rows.items():
            mc = row.get("mc")
            if mc is None:
                continue
            parts = [HISTOGRAM_HEADER]
            for series, by_sel in mc["histograms"].items():
                key = (series, tuple(by_sel["pre"]))
                if key not in pre_blocks:
                    pre_blocks[key] = _histogram_block(bins, by_sel["pre"], series, "pre")
                parts.append(pre_blocks[key])
                parts.append(_histogram_block(bins, by_sel["post"], series, "post"))
            path = os.path.join(out_dir, f"histograms_th{tag}.csv")
            _write_text(path, "".join(parts))
            written.append(path)

    return written


def _histogram_block(bins, counts, series, selection: str) -> str:
    """CSV rows of one histogram: pre-rendered bin columns, then count, series, selection.

    Counts are ints, whose f-string is their ``_fmt`` cell.
    """
    tail = f",{series},{selection}\n"
    return "".join([f"{b}{c}{tail}" for b, c in zip(bins, counts)])
