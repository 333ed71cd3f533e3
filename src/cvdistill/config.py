"""Experiment configuration: JSON schema, validation, presets and hashing.

Configs are strict: unknown keys are rejected everywhere so a typo cannot
silently fall back to a default. ``to_dict`` materializes all defaults,
which makes emitted configs hash-stable under a parse/emit round trip.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .channel import ChannelLevel, FluctuatingChannel

__all__ = [
    "ConfigError",
    "SourceSettings",
    "ChannelSettings",
    "TapSettings",
    "McSettings",
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


def _integer(d: dict, key: str, context: str, default=None):
    val = d.get(key, default)
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"{context}.{key} must be an integer, got {val!r}")
    return val


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
        envelope = d.get("envelope", "fading")
        if envelope not in ("fading", "exponential"):
            raise ConfigError(f"channel.envelope must be 'fading' or 'exponential', got {envelope!r}")
        beta = d.get("beta")
        if beta is not None:
            beta = _number(d, "beta", "channel")
        return cls(
            preset="semicontinuous",
            beta=beta,
            p_full=_number(d, "p_full", "channel", default=0.2),
            envelope=envelope,
            ln_premix=_number(d, "ln_premix", "channel", default=-0.11),
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
class TapSettings:
    reflectivity: float = 0.07
    thresholds: list = field(default_factory=lambda: list(DEFAULT_THRESHOLDS))

    @classmethod
    def from_dict(cls, d) -> "TapSettings | None":
        if d is None:
            return None
        if not isinstance(d, dict):
            raise ConfigError("tap must be an object or null")
        _require_keys(d, ("reflectivity", "thresholds"), "tap")
        reflectivity = _number(d, "reflectivity", "tap", default=0.07)
        if not 0.0 < reflectivity < 1.0:
            raise ConfigError(f"tap.reflectivity must lie in (0, 1), got {reflectivity}")
        thresholds = d.get("thresholds", list(DEFAULT_THRESHOLDS))
        if not isinstance(thresholds, list) or not thresholds:
            raise ConfigError("tap.thresholds must be a non-empty list")
        ths = [_finite(th, f"tap.thresholds[{i}]") for i, th in enumerate(thresholds)]
        check_threshold_tags(ths, "tap.thresholds")
        return cls(reflectivity=reflectivity, thresholds=ths)

    def to_dict(self) -> dict:
        return {"reflectivity": self.reflectivity, "thresholds": list(self.thresholds)}


@dataclass
class McSettings:
    n_shots: int = 10_000_000
    seed: int = 12345
    histogram_bins: int = 201
    histogram_range: float = 25.0
    n_workers: int = 1

    @classmethod
    def from_dict(cls, d) -> "McSettings":
        if d is None:
            return cls()
        if not isinstance(d, dict):
            raise ConfigError("mc must be an object")
        _require_keys(d, ("n_shots", "seed", "histogram_bins", "histogram_range", "n_workers"), "mc")
        out = cls(
            n_shots=_integer(d, "n_shots", "mc", default=cls.n_shots),
            seed=_integer(d, "seed", "mc", default=cls.seed),
            histogram_bins=_integer(d, "histogram_bins", "mc", default=cls.histogram_bins),
            histogram_range=_number(d, "histogram_range", "mc", default=cls.histogram_range),
            n_workers=_integer(d, "n_workers", "mc", default=cls.n_workers),
        )
        if out.n_shots < 1:
            raise ConfigError("mc.n_shots must be >= 1")
        if out.seed < 0:
            raise ConfigError("mc.seed must be >= 0")
        if out.n_workers < 1:
            raise ConfigError("mc.n_workers must be >= 1")
        if out.histogram_bins < 2:
            raise ConfigError("mc.histogram_bins must be >= 2")
        if out.histogram_range <= 0:
            raise ConfigError("mc.histogram_range must be positive")
        return out

    def to_dict(self) -> dict:
        return {
            "n_shots": self.n_shots,
            "seed": self.seed,
            "histogram_bins": self.histogram_bins,
            "histogram_range": self.histogram_range,
            "n_workers": self.n_workers,
        }


@dataclass
class OutputSettings:
    dir: str | None = None
    formats: list = field(default_factory=lambda: list(FORMATS))

    @classmethod
    def from_dict(cls, d) -> "OutputSettings":
        if d is None:
            return cls()
        if not isinstance(d, dict):
            raise ConfigError("output must be an object")
        _require_keys(d, ("dir", "formats"), "output")
        out_dir = d.get("dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError("output.dir must be a string or null")
        formats = d.get("formats", list(FORMATS))
        if not isinstance(formats, list) or not formats:
            raise ConfigError("output.formats must be a non-empty list")
        for f in formats:
            if f not in FORMATS:
                raise ConfigError(f"output.formats entries must be in {FORMATS}, got {f!r}")
        return cls(dir=out_dir, formats=list(formats))

    def to_dict(self) -> dict:
        return {"dir": self.dir, "formats": list(self.formats)}


@dataclass
class ExperimentConfig:
    name: str
    source: SourceSettings
    channel: ChannelSettings | None
    tap: TapSettings | None
    engine: str = "analytic"
    mc: McSettings = field(default_factory=McSettings)
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
        tap=TapSettings.from_dict(d.get("tap")),
        engine=engine,
        mc=McSettings.from_dict(d.get("mc")),
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
    """Built-in scenario configs: 'perfect', 'discrete', 'semicontinuous'."""
    calibrated = {"calibrate_to": {"ln_initial": 0.76, "ln_discrete_premix": -1.63}}
    if name == "perfect":
        raw = {"name": "perfect", "source": calibrated, "channel": None, "tap": None,
               "engine": "analytic"}
    elif name == "discrete":
        raw = {
            "name": "discrete",
            "source": calibrated,
            "channel": {"preset": "discrete"},
            "tap": {"reflectivity": 0.07, "thresholds": list(DEFAULT_THRESHOLDS)},
            "engine": "analytic",
        }
    elif name == "semicontinuous":
        raw = {
            "name": "semicontinuous",
            "source": calibrated,
            "channel": {"preset": "semicontinuous", "beta": None, "p_full": 0.2},
            "tap": {"reflectivity": 0.07, "thresholds": list(DEFAULT_THRESHOLDS)},
            "engine": "analytic",
        }
    else:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return parse_config(raw)
