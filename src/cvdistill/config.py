"""Experiment configuration: JSON schema, validation, presets and hashing.

Configs are strict: unknown keys are rejected everywhere so a typo cannot
silently fall back to a default. ``to_dict`` materializes all defaults,
which makes emitted configs hash-stable under a parse/emit round trip.

Every section checks every rule on its fields in ``__post_init__``, so a
value set by a config file, a constructor call or ``dataclasses.replace``
(as the CLI overrides are) meets the same checks and messages; ``from_dict``
only maps the JSON shape. ``TapConfig`` and ``McConfig`` are what
``attach_tap`` and ``run_mc_sweep`` take. ``SourceSettings.variances()`` and
``ChannelSettings.build()`` make the source variances and the channel, and
calibrate where a section gives targets instead of values: only the
targets wait for that calibration to be checked.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .calibrate import (
    DEFAULT_LN_DISCRETE_PREMIX,
    DEFAULT_LN_INITIAL,
    DEFAULT_LN_SEMI_PREMIX,
    DEFAULT_P_FULL,
    ENVELOPE_FAMILIES,
    ENVELOPES,
    calibrate,
    calibrate_envelope,
)
from .channel import FluctuatingChannel, discrete_channel
from .gaussian import kerr_variances

__all__ = [
    "ConfigError",
    "SourceSettings",
    "ChannelSettings",
    "TapConfig",
    "McConfig",
    "OutputSettings",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "preset_config",
    "PRESET_NAMES",
]

PRESET_NAMES = ("perfect", "discrete", "semicontinuous")
ENGINES = ("analytic", "mc", "both")
FORMATS = ("json", "csv")

DEFAULT_TAP_REFLECTIVITY = 0.07
DEFAULT_THRESHOLDS = [0.5 * k for k in range(25)]  # 0 .. 12 SNU
# Most histogram bins a Monte Carlo run may ask for: each worker holds
# (strata, 5, bins) int64 counts, and the report one row per bin and series.
MAX_HISTOGRAM_BINS = 1_000_000
# Most shots a Monte Carlo run may ask for: shot and level counts are int64.
MAX_SHOTS = 2**63 - 1


class ConfigError(ValueError):
    """Configuration file or dictionary is invalid."""


def _require_keys(d: dict, allowed, context: str, required=()):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {context}")


def _finite(val, what: str) -> float:
    """``val`` as a float; rejects non-numbers, NaN and +-Infinity (which json accepts)."""
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        try:
            out = float(val)
        except OverflowError:
            out = math.inf
        if math.isfinite(out):
            return out
    raise ConfigError(f"{what} must be a finite number, got {val!r}")


def _integer(val, what: str) -> None:
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"{what} must be an integer, got {val!r}")


def _from_object(cls, d, where: str, kind: str = "an object"):
    """``cls(**d)``: a missing key takes its field's default, an unknown key is an error."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be {kind}")
    _require_keys(d, [f.name for f in fields(cls)], where)
    return cls(**d)


@dataclass
class SourceSettings:
    """Exactly one full pair: physical squeezing variances, or the ``calibrate_to`` targets."""

    v_squeezed: float | None = None
    v_antisqueezed: float | None = None
    ln_initial: float | None = None
    ln_discrete_premix: float | None = None

    def __post_init__(self) -> None:
        explicit = self.v_squeezed is not None or self.v_antisqueezed is not None
        if explicit == (self.ln_initial is not None or self.ln_discrete_premix is not None):
            raise ConfigError(
                "source must give exactly one of (v_squeezed, v_antisqueezed) or calibrate_to"
            )
        where, names = (("source", ("v_squeezed", "v_antisqueezed")) if explicit
                        else ("source.calibrate_to", ("ln_initial", "ln_discrete_premix")))
        _require_keys([n for n in names if getattr(self, n) is not None], names, where,
                      required=names)
        for name in names:
            setattr(self, name, _finite(getattr(self, name), f"{where}.{name}"))
        if explicit:
            try:
                kerr_variances(self.v_squeezed, self.v_antisqueezed)
            except ValueError as exc:
                raise ConfigError(f"invalid source variances: {exc}") from exc

    @classmethod
    def from_dict(cls, d) -> "SourceSettings":
        if not isinstance(d, dict):
            raise ConfigError("source must be an object")
        _require_keys(d, ("v_squeezed", "v_antisqueezed", "calibrate_to"), "source")
        targets = d.get("calibrate_to", {})
        if not isinstance(targets, dict):
            raise ConfigError("source.calibrate_to must be an object")
        _require_keys(targets, ("ln_initial", "ln_discrete_premix"), "source.calibrate_to")
        return cls(**{k: v for k, v in d.items() if k != "calibrate_to"}, **targets)

    def variances(self) -> tuple:
        """(v_squeezed, v_antisqueezed): the given pair, or the one calibrated to the targets."""
        if self.ln_initial is None:
            return self.v_squeezed, self.v_antisqueezed
        cal = calibrate(ln_initial=self.ln_initial, ln_discrete_premix=self.ln_discrete_premix)
        return cal.v_squeezed, cal.v_antisqueezed

    def to_dict(self) -> dict:
        if self.ln_initial is not None:
            return {
                "calibrate_to": {
                    "ln_initial": self.ln_initial,
                    "ln_discrete_premix": self.ln_discrete_premix,
                }
            }
        return {"v_squeezed": self.v_squeezed, "v_antisqueezed": self.v_antisqueezed}


@dataclass
class ChannelSettings:
    """Explicit (t, p) ``levels``, or a preset: 'discrete' or 'semicontinuous'.

    A None ``envelope``, ``p_full`` or ``ln_premix`` of the semicontinuous
    preset takes its default; a None ``beta`` fits the envelope to
    ``ln_premix``. A field of another kind must be None.
    """

    preset: str | None = None
    beta: float | None = None
    p_full: float | None = None
    envelope: str | None = None
    ln_premix: float | None = None
    levels: list | None = None

    def __post_init__(self) -> None:
        if self.levels is not None:
            own, where = ("levels",), "channel"
        elif self.preset == "discrete":
            own, where = ("preset",), "channel (discrete preset)"
        else:
            own, where = ("preset", "beta", "p_full", "envelope", "ln_premix"), "channel"
        _require_keys([f.name for f in fields(self) if getattr(self, f.name) is not None], own,
                      where, required=() if self.levels is not None else ("preset",))
        if self.levels is not None:
            if not isinstance(self.levels, list) or not self.levels:
                raise ConfigError("channel.levels must be a non-empty list")
            pairs = []
            for i, level in enumerate(self.levels):
                if not isinstance(level, (tuple, list)) or len(level) != 2:
                    raise ConfigError(f"channel.levels[{i}] must be a (t, p) pair")
                pairs.append(tuple(_finite(x, f"channel.levels[{i}].{name}")
                                   for x, name in zip(level, "tp")))
            self.levels = pairs
        elif self.preset == "semicontinuous":
            if self.envelope is None:
                self.envelope = ENVELOPE_FAMILIES[0]
            if self.envelope not in ENVELOPE_FAMILIES:
                raise ConfigError(f"channel.envelope must be "
                                  f"{' or '.join(map(repr, ENVELOPE_FAMILIES))}, got {self.envelope!r}")
            if self.beta is not None:
                self.beta = _finite(self.beta, "channel.beta")
            self.p_full = _finite(DEFAULT_P_FULL if self.p_full is None else self.p_full,
                                  "channel.p_full")
            self.ln_premix = _finite(DEFAULT_LN_SEMI_PREMIX if self.ln_premix is None
                                     else self.ln_premix, "channel.ln_premix")
        elif self.preset != "discrete":
            raise ConfigError(f"channel.preset must be 'discrete' or 'semicontinuous', "
                              f"got {self.preset!r}")
        try:
            self._fixed_channel()
        except ValueError as exc:
            what = "channel levels" if self.levels is not None else "envelope parameters"
            raise ConfigError(f"invalid {what}: {exc}") from exc

    @classmethod
    def from_dict(cls, d) -> "ChannelSettings | None":
        if d is None:
            return None
        levels = d.get("levels") if isinstance(d, dict) else None
        if isinstance(levels, list):
            for i, lv in enumerate(levels):
                if not isinstance(lv, dict):
                    raise ConfigError(f"channel.levels[{i}] must be an object")
                _require_keys(lv, ("t", "p"), f"channel.levels[{i}]", required=("t", "p"))
            d = {**d, "levels": [(lv["t"], lv["p"]) for lv in levels]}
        return _from_object(cls, d, "channel", "an object or null")

    def to_dict(self):
        if self.levels is not None:
            return {"levels": [{"t": t, "p": p} for t, p in self.levels]}
        if self.preset == "discrete":
            return {"preset": "discrete"}
        return {
            "preset": "semicontinuous",
            "beta": self.beta,
            "p_full": self.p_full,
            "envelope": self.envelope,
            "ln_premix": self.ln_premix,
        }

    def _fixed_channel(self) -> FluctuatingChannel | None:
        """The channel, if these settings fix it without a calibration; else None."""
        if self.levels is not None:
            return FluctuatingChannel([t for t, _ in self.levels], [p for _, p in self.levels])
        if self.preset == "discrete":
            return discrete_channel()
        if self.beta is None:
            return None
        envelope, _ = ENVELOPES[self.envelope]
        return envelope(self.beta, p_full=self.p_full)

    def build(self, v_squeezed: float, v_antisqueezed: float):
        """(channel, envelope parameter or None); an envelope without ``beta`` is fitted to this source."""
        channel = self._fixed_channel()
        if channel is not None:
            return channel, self.beta
        param, channel = calibrate_envelope(v_squeezed, v_antisqueezed, p_full=self.p_full,
                                            ln_premix=self.ln_premix, family=self.envelope)
        return channel, param


@dataclass
class TapConfig:
    """Tap beam splitter reflectivity and the heralding thresholds (SNU) of the sweep."""

    reflectivity: float = DEFAULT_TAP_REFLECTIVITY
    thresholds: list = field(default_factory=lambda: list(DEFAULT_THRESHOLDS))

    def __post_init__(self) -> None:
        self.reflectivity = _finite(self.reflectivity, "tap.reflectivity")
        if not 0.0 < self.reflectivity < 1.0:
            raise ConfigError(f"tap.reflectivity must lie in (0, 1), got {self.reflectivity}")
        if not isinstance(self.thresholds, list) or not self.thresholds:
            raise ConfigError("tap.thresholds must be a non-empty list")
        self.thresholds = [_finite(th, f"tap.thresholds[{i}]") for i, th in enumerate(self.thresholds)]

    @classmethod
    def from_dict(cls, d) -> "TapConfig | None":
        return None if d is None else _from_object(cls, d, "tap", "an object or null")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class McConfig:
    """Monte Carlo run settings; the default shot count is desk scale."""

    n_shots: int = 10_000_000
    seed: int = 12345
    histogram_bins: int = 201
    histogram_range: float = 25.0
    n_workers: int = 1

    def __post_init__(self) -> None:
        _integer(self.n_shots, "mc.n_shots")
        _integer(self.seed, "mc.seed")
        _integer(self.histogram_bins, "mc.histogram_bins")
        self.histogram_range = _finite(self.histogram_range, "mc.histogram_range")
        _integer(self.n_workers, "mc.n_workers")
        for name, least in (("n_shots", 1), ("seed", 0), ("n_workers", 1), ("histogram_bins", 2)):
            if getattr(self, name) < least:
                raise ConfigError(f"mc.{name} must be >= {least}")
        if self.n_shots > MAX_SHOTS:
            raise ConfigError(f"mc.n_shots must be <= {MAX_SHOTS} (2**63 - 1, the limit of the "
                              f"int64 shot counts), got {self.n_shots}")
        if self.histogram_bins > MAX_HISTOGRAM_BINS:
            raise ConfigError(f"mc.histogram_bins must be <= {MAX_HISTOGRAM_BINS}, "
                              f"got {self.histogram_bins}")
        if self.histogram_range <= 0:
            raise ConfigError("mc.histogram_range must be positive")
        if not math.isfinite(2.0 * self.histogram_range):
            raise ConfigError("mc.histogram_range must leave the histogram width "
                              f"2 * histogram_range finite, got {self.histogram_range!r}")
        edges = np.linspace(-self.histogram_range, self.histogram_range, self.histogram_bins + 1)
        if (not math.isfinite(self.histogram_bins / (2.0 * self.histogram_range))
                or np.any(np.diff(edges) <= 0.0)):
            raise ConfigError(f"mc.histogram_range must leave {self.histogram_bins} bins of "
                              f"distinct edges and a finite scale, got {self.histogram_range!r}")

    @classmethod
    def from_dict(cls, d) -> "McConfig":
        return cls() if d is None else _from_object(cls, d, "mc")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class OutputSettings:
    dir: str | None = None
    formats: list = field(default_factory=lambda: list(FORMATS))

    def __post_init__(self) -> None:
        if self.dir is not None and not isinstance(self.dir, str):
            raise ConfigError("output.dir must be a string or null")
        if not isinstance(self.formats, list) or not self.formats:
            raise ConfigError("output.formats must be a non-empty list")
        for f in self.formats:
            if f not in FORMATS:
                raise ConfigError(f"output.formats entries must be in {FORMATS}, got {f!r}")
        self.formats = list(self.formats)

    @classmethod
    def from_dict(cls, d) -> "OutputSettings":
        return cls() if d is None else _from_object(cls, d, "output")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentConfig:
    name: str
    source: SourceSettings
    channel: ChannelSettings | None
    tap: TapConfig | None
    engine: str = "analytic"
    mc: McConfig = field(default_factory=McConfig)
    output: OutputSettings = field(default_factory=OutputSettings)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ConfigError("name must be a string")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "source": self.source.to_dict(),
            "channel": self.channel.to_dict() if self.channel else None,
            "tap": self.tap.to_dict() if self.tap else None,
            "engine": self.engine,
            "mc": self.mc.to_dict(),
            "output": self.output.to_dict(),
        }

    def recorded_dict(self) -> dict:
        """``to_dict`` with ``output.dir`` null, as a run records and hashes it."""
        d = self.to_dict()
        d["output"]["dir"] = None
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.recorded_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def parse_config(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(
        d, ("name", "source", "channel", "tap", "engine", "mc", "output"), "config",
        required=("source",),
    )
    return ExperimentConfig(
        name=d.get("name", "experiment"),
        source=SourceSettings.from_dict(d["source"]),
        channel=ChannelSettings.from_dict(d.get("channel")),
        tap=TapConfig.from_dict(d.get("tap")),
        engine=d.get("engine", "analytic"),
        mc=McConfig.from_dict(d.get("mc")),
        output=OutputSettings.from_dict(d.get("output")),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def preset_config(name: str) -> ExperimentConfig:
    """Built-in scenario configs: 'perfect', 'discrete', 'semicontinuous'.

    Each calibrates the source to the default measured values; the two
    lossy presets take the default tap and thresholds.
    """
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return parse_config({
        "name": name,
        "source": {"calibrate_to": {"ln_initial": DEFAULT_LN_INITIAL,
                                    "ln_discrete_premix": DEFAULT_LN_DISCRETE_PREMIX}},
        "channel": None if name == "perfect" else {"preset": name},
        "tap": None if name == "perfect" else {},
    })
