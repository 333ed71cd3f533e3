"""Experiment configuration: JSON schema, validation, presets and hashing.

Configs are strict: unknown keys are rejected everywhere so a typo cannot
silently fall back to a default. ``to_dict`` materializes all defaults,
which makes emitted configs hash-stable under a parse/emit round trip.

``McConfig`` (the Monte Carlo settings that ``run_mc_sweep`` takes) and
``TapConfig`` (the tap that ``attach_tap`` takes, and the thresholds of the
sweep) are the library's settings objects as well as config sections: each
checks every rule on its fields in ``__post_init__``, so a value set by a
config file, a constructor call or ``dataclasses.replace`` (as the CLI
overrides are) meets the same checks and the same messages. Their
``from_dict`` only checks the keys.
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
)
from .channel import ChannelLevel, FluctuatingChannel

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


class ConfigError(ValueError):
    """Configuration file or dictionary is invalid."""


def threshold_tag(threshold) -> str:
    """The part of a per-threshold artifact file name that names the threshold."""
    return f"{threshold:g}"


def check_threshold_tags(thresholds, where: str) -> None:
    """ConfigError if two distinct thresholds would write the same artifact files.

    Tags keep 6 significant digits, so 1.0000001 and 1.0000004 both tag
    as "1" and the second threshold's tables would overwrite the first's.
    Equal thresholds write equal tables and are allowed.
    """
    seen = {}
    for th in thresholds:
        first = seen.setdefault(threshold_tag(th), th)
        if first != th:
            raise ConfigError(
                f"{where} {first!r} and {th!r} share the artifact file tag "
                f"'th{threshold_tag(th)}'"
            )


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


def _number(d: dict, key: str, context: str, default=None):
    return _finite(d.get(key, default), f"{context}.{key}")


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
    """Either explicit squeezing variances or calibration targets."""

    v_squeezed: float | None = None
    v_antisqueezed: float | None = None
    ln_initial: float | None = None
    ln_discrete_premix: float | None = None

    @property
    def is_calibrated(self) -> bool:
        return self.ln_initial is not None

    @classmethod
    def from_dict(cls, d: dict) -> "SourceSettings":
        _require_keys(d, ("v_squeezed", "v_antisqueezed", "calibrate_to"), "source")
        explicit = "v_squeezed" in d or "v_antisqueezed" in d
        calibrated = "calibrate_to" in d
        if explicit == calibrated:
            raise ConfigError(
                "source must give exactly one of (v_squeezed, v_antisqueezed) or calibrate_to"
            )
        if explicit:
            _require_keys(d, ("v_squeezed", "v_antisqueezed"), "source",
                          required=("v_squeezed", "v_antisqueezed"))
            return cls(
                v_squeezed=_number(d, "v_squeezed", "source"),
                v_antisqueezed=_number(d, "v_antisqueezed", "source"),
            )
        targets = d["calibrate_to"]
        if not isinstance(targets, dict):
            raise ConfigError("source.calibrate_to must be an object")
        _require_keys(targets, ("ln_initial", "ln_discrete_premix"), "source.calibrate_to",
                      required=("ln_initial", "ln_discrete_premix"))
        return cls(
            ln_initial=_number(targets, "ln_initial", "source.calibrate_to"),
            ln_discrete_premix=_number(targets, "ln_discrete_premix", "source.calibrate_to"),
        )

    def to_dict(self) -> dict:
        if self.is_calibrated:
            return {
                "calibrate_to": {
                    "ln_initial": self.ln_initial,
                    "ln_discrete_premix": self.ln_discrete_premix,
                }
            }
        return {"v_squeezed": self.v_squeezed, "v_antisqueezed": self.v_antisqueezed}


@dataclass
class ChannelSettings:
    """A preset channel, an explicit level list, or None (lossless link)."""

    preset: str | None = None
    beta: float | None = None
    p_full: float | None = None
    envelope: str | None = None
    ln_premix: float | None = None
    levels: list | None = None

    @classmethod
    def from_dict(cls, d) -> "ChannelSettings | None":
        if d is None:
            return None
        if not isinstance(d, dict):
            raise ConfigError("channel must be an object or null")
        if "levels" in d:
            _require_keys(d, ("levels",), "channel")
            levels = d["levels"]
            if not isinstance(levels, list) or not levels:
                raise ConfigError("channel.levels must be a non-empty list")
            parsed = []
            for i, lv in enumerate(levels):
                if not isinstance(lv, dict):
                    raise ConfigError(f"channel.levels[{i}] must be an object")
                _require_keys(lv, ("t", "p"), f"channel.levels[{i}]", required=("t", "p"))
                parsed.append(
                    (_number(lv, "t", f"channel.levels[{i}]"), _number(lv, "p", f"channel.levels[{i}]"))
                )
            return cls(levels=parsed)
        _require_keys(d, ("preset", "beta", "p_full", "envelope", "ln_premix"), "channel",
                      required=("preset",))
        preset = d["preset"]
        if preset == "discrete":
            _require_keys(d, ("preset",), "channel (discrete preset)")
            return cls(preset="discrete")
        if preset != "semicontinuous":
            raise ConfigError(f"channel.preset must be 'discrete' or 'semicontinuous', got {preset!r}")
        envelope = d.get("envelope", ENVELOPE_FAMILIES[0])
        if envelope not in ENVELOPE_FAMILIES:
            raise ConfigError(f"channel.envelope must be {' or '.join(map(repr, ENVELOPE_FAMILIES))}, "
                              f"got {envelope!r}")
        beta = d.get("beta")
        if beta is not None:
            beta = _number(d, "beta", "channel")
        return cls(
            preset="semicontinuous",
            beta=beta,
            p_full=_number(d, "p_full", "channel", default=DEFAULT_P_FULL),
            envelope=envelope,
            ln_premix=_number(d, "ln_premix", "channel", default=DEFAULT_LN_SEMI_PREMIX),
        )

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

    def explicit_channel(self) -> FluctuatingChannel:
        """Channel for explicit-level configs (presets are built at run time)."""
        if self.levels is None:
            raise ConfigError("channel has no explicit levels")
        try:
            return FluctuatingChannel([ChannelLevel(t, p) for t, p in self.levels])
        except ValueError as exc:
            raise ConfigError(f"invalid channel levels: {exc}") from exc


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
        check_threshold_tags(self.thresholds, "tap.thresholds")

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

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def parse_config(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(
        d, ("name", "source", "channel", "tap", "engine", "mc", "output"), "config",
        required=("source",),
    )
    name = d.get("name", "experiment")
    if not isinstance(name, str):
        raise ConfigError("name must be a string")
    engine = d.get("engine", "analytic")
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    return ExperimentConfig(
        name=name,
        source=SourceSettings.from_dict(d["source"]),
        channel=ChannelSettings.from_dict(d.get("channel")),
        tap=TapConfig.from_dict(d.get("tap")),
        engine=engine,
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
