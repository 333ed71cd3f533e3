"""Command-line front end.

Subcommands:

* ``calibrate`` - fit the source variances (and optionally the
  semi-continuous envelope) to measured log-negativities and print them.
* ``run`` - execute a scenario described by a JSON config file, with flag
  overrides for engine, shot count, seed, worker count and output
  directory. An override meets the checks of the config field it replaces.
* ``report`` - re-render flat-file artifacts from a stored report.json.

Exit codes: 0 success, 2 configuration error or unwritable output, 3 selection
degenerate at every threshold, 4 Monte Carlo / analytic disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from ._version import __version__
from .calibrate import (
    DEFAULT_LN_DISCRETE_PREMIX,
    DEFAULT_LN_INITIAL,
    DEFAULT_LN_SEMI_PREMIX,
    DEFAULT_P_FULL,
    ENVELOPE_FAMILIES,
    CalibrationError,
    calibrate,
    calibrate_envelope,
)
from .config import ENGINES, ConfigError, OutputSettings, load_config
from .scenario import RunReport, emit_artifacts, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_DISAGREEMENT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvdistill",
        description="Simulate entanglement distillation over fluctuating-loss channels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="fit model parameters to measured log-negativities")
    cal.add_argument("--ln-initial", type=float, default=DEFAULT_LN_INITIAL,
                     help="measured initial Gaussian LN (bits)")
    cal.add_argument("--ln-discrete-premix", type=float, default=DEFAULT_LN_DISCRETE_PREMIX,
                     help="measured pooled Gaussian LN after the two-level channel")
    cal.add_argument("--ln-premix", type=float, default=DEFAULT_LN_SEMI_PREMIX,
                     help="measured pooled Gaussian LN after the semi-continuous channel")
    cal.add_argument("--p-full", type=float, default=DEFAULT_P_FULL,
                     help="probability of the full-transmission level")
    cal.add_argument("--family", choices=ENVELOPE_FAMILIES, default=ENVELOPE_FAMILIES[0],
                     help="semi-continuous envelope family to fit")
    cal.add_argument("--skip-envelope", action="store_true",
                     help="fit only the source variances")
    cal.add_argument("--out", metavar="FILE", help="also write the result as JSON to FILE")

    run = sub.add_parser("run", help="run a scenario from a JSON config")
    run.add_argument("--config", required=True, metavar="PATH", help="experiment config (JSON)")
    run.add_argument("--engine", choices=ENGINES, help="override the config's engine")
    # Each Monte Carlo override's dest is its McConfig field.
    run.add_argument("--shots", dest="n_shots", type=int, metavar="N", help="override mc.n_shots")
    run.add_argument("--seed", type=int, metavar="S", help="override mc.seed")
    run.add_argument("--workers", dest="n_workers", type=int, metavar="W",
                     help="override mc.n_workers")
    run.add_argument("--out", metavar="DIR", help="override the output directory")

    rep = sub.add_parser("report", help="re-render artifacts from a stored report")
    rep.add_argument("--report", required=True, metavar="PATH", help="stored report.json")
    rep.add_argument("--out", required=True, metavar="DIR", help="output directory")
    rep.add_argument("--formats", default="json,csv",
                     help="comma-separated subset of: json,csv")
    return parser


def _cmd_calibrate(args) -> int:
    cal = calibrate(ln_initial=args.ln_initial, ln_discrete_premix=args.ln_discrete_premix)
    result = {
        "v_squeezed": cal.v_squeezed,
        "v_antisqueezed": cal.v_antisqueezed,
        "ln_initial_achieved": cal.ln_initial,
        "ln_discrete_premix_achieved": cal.ln_discrete_premix,
    }
    if not args.skip_envelope:
        param, channel = calibrate_envelope(
            cal.v_squeezed, cal.v_antisqueezed,
            p_full=args.p_full, ln_premix=args.ln_premix, family=args.family,
        )
        result["envelope"] = {
            "family": args.family,
            "param": param,
            "p_full": args.p_full,
            "levels": [{"t": t, "p": p} for t, p in zip(channel.transmittances.tolist(),
                                                        channel.probabilities.tolist())],
        }
    blob = json.dumps(result, indent=2)
    print(blob)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(blob + "\n")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.engine:
        config.engine = args.engine
    overrides = {k: getattr(args, k) for k in ("n_shots", "seed", "n_workers")
                 if getattr(args, k) is not None}
    config.mc = replace(config.mc, **overrides)
    if args.out:
        config.output.dir = args.out

    report = run_scenario(config)

    summary = {
        "scenario": report.scenario,
        "ln_before": report.ln_before,
        "upper_bound": report.upper_bound,
        "ln_after": report.ln_after,
        "config_hash": report.provenance["config_hash"],
        "output_dir": config.output.dir,
    }
    print(json.dumps(summary, indent=2))
    if report.flags["all_degenerate"]:
        print("error: selection degenerate at every threshold", file=sys.stderr)
        return EXIT_DEGENERATE
    if report.flags["agreement_failed"]:
        print("error: Monte Carlo and analytic engines disagree beyond "
              "the acceptance band", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _cmd_report(args) -> int:
    output = OutputSettings(args.out, [f.strip() for f in args.formats.split(",") if f.strip()])
    try:
        with open(args.report) as fh:
            data = json.load(fh)
        report = RunReport.from_dict(data)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"cannot load report {args.report}: {exc}") from exc
    written = emit_artifacts(report, output.dir, output.formats)
    print(json.dumps({"written": written}, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except (ConfigError, CalibrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
