"""Experiment orchestration: build, propagate, distill, verify, report.

``run_scenario`` executes one configured experiment end to end: resolve
the source (explicit variances or calibration), apply the channel, attach
the tap, herald the whole threshold list with the analytic engine (one
``herald`` call on the grid) and/or the Monte Carlo engine (one
``run_mc_sweep`` pass over the shots), and collect everything into a
JSON-serializable RunReport. Each engine's stacked result becomes one row
section or one error per threshold, ``ln_agreement`` compares the two at
once, and the loop over thresholds only copies cells into rows.
``emit_artifacts`` renders a report to flat files (JSON report, sweep
curve CSV, histogram CSVs, posterior-weight tables).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from ._version import __version__
from .calibrate import calibrate, calibrate_envelope
from .channel import (
    MixtureState,
    discrete_channel,
    envelope_exponential,
    envelope_fading,
    pooled_cm,
    propagate,
    upper_bound_ln,
)
from .config import ConfigError, ExperimentConfig, _finite, check_threshold_tags, threshold_tag
from .distill import (
    attach_tap,
    distilled_gln,
    gaussification_metrics,
    herald,
    joint_quadrature_variances,
)
from .gaussian import GaussianState, gaussian_log_negativity, make_kerr_entangled
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
        if d["channel"] is not None:
            _require(d["channel"], ["transmittances", "probabilities"], "channel", list)
        n_levels = len(d["channel"]["transmittances"]) if d["channel"] is not None else 0
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
                if len(section["posterior_weights"]) < n_levels:
                    raise ValueError("threshold row lacks posterior weights for some channel levels")
                for key in ("success_probability", "gaussian_ln"):
                    _finite(section[key], f"threshold row {key!r}")
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
        check_threshold_tags([row["threshold"] for row in d["thresholds"]
                              if row["threshold"] is not None], "report thresholds")
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


def _resolve_source(config: ExperimentConfig):
    src = config.source
    if src.is_calibrated:
        cal = calibrate(ln_initial=src.ln_initial, ln_discrete_premix=src.ln_discrete_premix)
        return cal.v_squeezed, cal.v_antisqueezed
    try:
        make_kerr_entangled(src.v_squeezed, src.v_antisqueezed)
    except ValueError as exc:
        raise ConfigError(f"invalid source variances: {exc}") from exc
    return src.v_squeezed, src.v_antisqueezed


def _resolve_channel(config: ExperimentConfig, v_squeezed: float, v_antisqueezed: float):
    """Returns (channel or None, calibration info dict)."""
    settings = config.channel
    info = {"envelope_family": None, "envelope_param": None}
    if settings is None:
        return None, info
    if settings.levels is not None:
        return settings.explicit_channel(), info
    if settings.preset == "discrete":
        return discrete_channel(), info
    family = settings.envelope
    info["envelope_family"] = family
    info["envelope_note"] = (
        "envelope shape is a calibrated stand-in; only its fitted scalar "
        "constraints are measurement-backed"
    )
    if settings.beta is not None:
        info["envelope_param"] = settings.beta
        builder = envelope_fading if family == "fading" else envelope_exponential
        try:
            return builder(settings.beta, p_full=settings.p_full), info
        except ValueError as exc:
            raise ConfigError(f"invalid envelope parameters: {exc}") from exc
    param, chan = calibrate_envelope(
        v_squeezed,
        v_antisqueezed,
        p_full=settings.p_full,
        ln_premix=settings.ln_premix,
        family=family,
    )
    info["envelope_param"] = param
    return chan, info


def _sections(errors, columns: dict) -> list:
    """Per threshold, its row section or the error that stands for it.

    ``columns`` maps each section key, in the section's key order, to a
    stacked column (array or list) with one row per threshold whose
    ``errors`` entry is None, in grid order.
    """
    cells = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values())
    sections = iter([dict(zip(columns, row)) for row in zip(*cells)])
    return [next(sections) if exc is None else exc for exc in errors]


def _has_row(errors) -> np.ndarray:
    """Whether each grid threshold has a stack row: its ``errors`` entry is None."""
    return np.array([exc is None for exc in errors], dtype=bool)


def ln_agreement(ensemble, sweep):
    """The LN check per grid threshold of ``herald``'s ``ensemble`` and ``run_mc_sweep``'s ``sweep``.

    Returns (T,) arrays ``ln_sigma_distance``, |LN_mc - LN_analytic| over
    the Monte Carlo standard error (0 or inf where it is 0, None where it
    is None or an engine has no row); ``checked``, where a distance exists
    and the analytic success is at least ``AGREEMENT_MIN_SUCCESS``; and
    ``ok``, False only where a checked distance exceeds ``AGREEMENT_SIGMA``.
    """
    in_analytic, in_mc = _has_row(ensemble.errors), _has_row(sweep.errors)
    both = in_analytic & in_mc
    mc_ln, mc_se = (column[both[in_mc]] for column in ln_with_se(sweep))
    diff = np.abs(mc_ln - distilled_gln(ensemble)[both[in_analytic]])
    se = np.array([np.nan if x is None else x for x in mc_se], dtype=float)
    sigma = np.divide(diff, se, out=np.where(diff == 0.0, 0.0, np.inf), where=se > 0)
    distance = np.full(both.size, None, dtype=object)
    checked, ok = np.zeros(both.size, dtype=bool), np.ones(both.size, dtype=bool)
    distance[both] = np.where(np.isnan(se), None, sigma)
    checked[both] = ~np.isnan(se) & (
        ensemble.success_probability[both[in_analytic]] >= AGREEMENT_MIN_SUCCESS)
    ok[both] = ~checked[both] | (sigma <= AGREEMENT_SIGMA)
    return distance, checked, ok


def run_scenario(config: ExperimentConfig) -> RunReport:
    """Execute one configured scenario and return its report.

    Each engine runs once for all thresholds (``herald`` on the grid,
    ``run_mc_sweep``); the loop over thresholds only assembles rows.
    Per-threshold engine failures (degenerate selection, or too few kept
    shots for a positive-definite covariance) are recorded in the
    corresponding row and the run continues; the report's ``flags`` say
    whether every threshold failed or the engines disagreed.
    """
    v_squeezed, v_antisqueezed = _resolve_source(config)
    source = make_kerr_entangled(v_squeezed, v_antisqueezed)
    ln_source = gaussian_log_negativity(source.cov)

    channel, channel_info = _resolve_channel(config, v_squeezed, v_antisqueezed)
    if channel is None:
        mixture = MixtureState([1.0], GaussianState(source.mean[None], source.cov[None]))
        channel_dict = None
    else:
        mixture = propagate(source, channel, mode=1)
        channel_dict = {
            "transmittances": channel.transmittances.tolist(),
            "probabilities": channel.probabilities.tolist(),
        }
    _, pooled_cov = pooled_cm(mixture)
    ln_before = gaussian_log_negativity(pooled_cov)
    upper_bound = upper_bound_ln(mixture)

    rows = []
    agreement_failed = False
    histogram_edges = None

    if config.tap is None:
        var_x, var_p = joint_quadrature_variances(pooled_cov)
        untapped = {"success_probability": 1.0, "gaussian_ln": ln_before, "weight_entropy": None,
                    "max_component_cov_distance": None,
                    "posterior_weights": mixture.weights.tolist(), "joint_var_x_sum": var_x,
                    "joint_var_p_diff": var_p, "pooled_cov": pooled_cov.tolist()}
        rows.append({"threshold": None, "analytic": untapped, "mc": None, "agreement": None,
                     "error": None})
    else:
        tapped = attach_tap(mixture, config.tap)
        thresholds = config.tap.thresholds
        sections = {}
        if config.engine != "mc":
            ensemble = herald(tapped, thresholds)
            entropy, max_dist = gaussification_metrics(ensemble)
            var_x, var_p = joint_quadrature_variances(ensemble.pooled_cov)
            sections["analytic"] = _sections(ensemble.errors, {
                "success_probability": ensemble.success_probability,
                "gaussian_ln": distilled_gln(ensemble), "weight_entropy": entropy,
                "max_component_cov_distance": max_dist,
                "posterior_weights": ensemble.posterior_weights, "joint_var_x_sum": var_x,
                "joint_var_p_diff": var_p, "pooled_cov": ensemble.pooled_cov,
            })
        if config.engine != "analytic":
            sweep = run_mc_sweep(tapped, config.mc, thresholds)
            has_row = _has_row(sweep.errors)
            kept = sweep.kept_count[has_row]
            ln, ln_se = ln_with_se(sweep)
            pre = sweep.hist_pre.tolist()
            sections["mc"] = _sections(sweep.errors, {
                "kept_count": kept, "total_count": [sweep.total_count] * kept.size,
                "success_probability": sweep.success_probability[has_row],
                "success_se": sweep.success_se[has_row], "gaussian_ln": ln, "ln_se": ln_se,
                "posterior_weights": sweep.per_level_kept[has_row] / kept[:, None],
                "pooled_cov": sweep.pooled_cov,
                "histograms": [{name: {"pre": p, "post": q} for name, p, q in zip(SERIES, pre, post)}
                               for post in sweep.hist_post[has_row].tolist()],
            })
            if has_row.any():
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
        calibration={
            "v_squeezed": v_squeezed,
            "v_antisqueezed": v_antisqueezed,
            **channel_info,
        },
        ln_source=ln_source,
        ln_before=ln_before,
        upper_bound=upper_bound,
        channel=channel_dict,
        thresholds=rows,
        histogram_edges=histogram_edges,
        provenance={
            "config": config.to_dict(),
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


def emit_artifacts(report: RunReport, out_dir: str, formats=("json", "csv")) -> list:
    """Write report artifacts to ``out_dir``; returns the paths written."""
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

    # Posterior weight tables (mixture composition after heralding). The
    # level columns are the same in every table, so they are rendered once.
    if report.channel is not None:
        levels = [
            f"{i},{_fmt(t)},{_fmt(p)},"
            for i, (t, p) in enumerate(zip(report.channel["transmittances"],
                                           report.channel["probabilities"]))
        ]
        no_weights = [None] * len(levels)
        for row in report.thresholds:
            if row["threshold"] is None:
                continue
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
            path = os.path.join(out_dir, f"posterior_weights_th{threshold_tag(row['threshold'])}.csv")
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
        for row in report.thresholds:
            mc = row.get("mc")
            if mc is None or row["threshold"] is None:
                continue
            parts = [HISTOGRAM_HEADER]
            for series, by_sel in mc["histograms"].items():
                key = (series, tuple(by_sel["pre"]))
                if key not in pre_blocks:
                    pre_blocks[key] = _histogram_block(bins, by_sel["pre"], series, "pre")
                parts.append(pre_blocks[key])
                parts.append(_histogram_block(bins, by_sel["post"], series, "post"))
            path = os.path.join(out_dir, f"histograms_th{threshold_tag(row['threshold'])}.csv")
            _write_text(path, "".join(parts))
            written.append(path)

    return written


def _histogram_block(bins, counts, series, selection: str) -> str:
    """CSV rows of one histogram: pre-rendered bin columns, then count, series, selection.

    Counts are ints, whose f-string is their ``_fmt`` cell.
    """
    tail = f",{series},{selection}\n"
    return "".join([f"{b}{c}{tail}" for b, c in zip(bins, counts)])
