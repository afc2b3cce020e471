"""Run configuration: a flat INI-style key-value file with one section
per concern.  Parsing is strict (unknown values fail loudly; every number
must be finite and every integer field integral) and the effective
configuration round-trips through its text form unchanged.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

import numpy as np

from .bell import DEFAULT_ANGLES, ExperimentParams
from .errors import ConfigError
from .gaussian import PARAMS, SWEEP_KEYS

OUTPUT_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration shared by all CLI subcommands."""

    squeezing: float
    transmittance: float
    apd_efficiency: float
    homodyne_efficiency: float
    theta1: float = DEFAULT_ANGLES[0]
    theta2: float = DEFAULT_ANGLES[1]
    phi1: float = DEFAULT_ANGLES[2]
    phi2: float = DEFAULT_ANGLES[3]
    output_path: str = ""
    output_format: str = "csv"
    seed: int = 12345
    n_target_events: int = 100_000
    rep_rate: float = 1e6
    n_trunc: int = 40
    sweep_axis: str = ""
    sweep_min: float = 0.0
    sweep_max: float = 0.0
    sweep_steps: int = 0

    def __post_init__(self):
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(
                f"output format must be one of {OUTPUT_FORMATS}, "
                f"got {self.output_format!r}")
        if self.sweep_axis:
            if self.sweep_axis not in SWEEP_KEYS:
                raise ConfigError(
                    f"sweep axis must be one of {tuple(SWEEP_KEYS)}, "
                    f"got {self.sweep_axis!r}")
            if not self.sweep_min < self.sweep_max:
                raise ConfigError("sweep requires min < max")
            if self.sweep_steps < 2:
                raise ConfigError("sweep requires steps >= 2")
        if self.n_trunc < 16:
            raise ConfigError("n_trunc must be >= 16")

    def params(self) -> ExperimentParams:
        return ExperimentParams(
            **{name: getattr(self, name) for name in PARAMS},
            angles=tuple(getattr(self, key) for key in _ANGLE_KEYS))

    def sweep_grid(self) -> np.ndarray:
        if not self.sweep_axis:
            raise ConfigError("missing required section [sweep]")
        return np.linspace(self.sweep_min, self.sweep_max, self.sweep_steps)


_ANGLE_KEYS = ("theta1", "theta2", "phi1", "phi2")


def _get_float(section, key: str, section_name: str) -> float:
    """section[key] as a finite float."""
    try:
        value = float(section[key])
    except KeyError:
        raise ConfigError(f"missing required field {key!r} in [{section_name}]")
    except ValueError:
        raise ConfigError(f"field {key!r} in [{section_name}] is not a "
                          f"number: {section[key]!r}")
    if not np.isfinite(value):
        raise ConfigError(f"field {key!r} in [{section_name}] is not "
                          f"finite: {section[key]!r}")
    return value


def _get_int(section, key: str, section_name: str) -> int:
    """section[key] as an int; the number must be integral."""
    value = _get_float(section, key, section_name)
    if not value.is_integer():
        raise ConfigError(f"field {key!r} in [{section_name}] is not an "
                          f"integer: {section[key]!r}")
    return int(value)


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into an effective RunConfig."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")
    if "params" not in parser:
        raise ConfigError("missing required section [params]")
    sec = parser["params"]
    values = {}
    for name, param in PARAMS.items():
        values[name] = _get_float(sec, param.key, "params")
    for key in _ANGLE_KEYS:
        if key in sec:
            values[key] = _get_float(sec, key, "params")
    if "output" in parser:
        out = parser["output"]
        if "path" in out:
            values["output_path"] = out["path"]
        if "format" in out:
            values["output_format"] = out["format"]
    if "mc" in parser:
        mc = parser["mc"]
        if "n_target_events" in mc:
            values["n_target_events"] = _get_int(mc, "n_target_events", "mc")
        if "seed" in mc:
            values["seed"] = _get_int(mc, "seed", "mc")
        if "rep_rate" in mc:
            values["rep_rate"] = _get_float(mc, "rep_rate", "mc")
    if "fock" in parser:
        if "n_trunc" in parser["fock"]:
            values["n_trunc"] = _get_int(parser["fock"], "n_trunc", "fock")
    if "sweep" in parser:
        sw = parser["sweep"]
        values["sweep_axis"] = sw.get("axis", "")
        if not values["sweep_axis"]:
            raise ConfigError("missing required field 'axis' in [sweep]")
        values["sweep_min"] = _get_float(sw, "min", "sweep")
        values["sweep_max"] = _get_float(sw, "max", "sweep")
        values["sweep_steps"] = _get_int(sw, "steps", "sweep")
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return parse_config(text)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    params = {param.key: repr(getattr(cfg, name))
              for name, param in PARAMS.items()}
    params.update((key, repr(getattr(cfg, key))) for key in _ANGLE_KEYS)
    parser["params"] = params
    parser["output"] = {"path": cfg.output_path, "format": cfg.output_format}
    parser["mc"] = {
        "n_target_events": str(cfg.n_target_events),
        "seed": str(cfg.seed),
        "rep_rate": repr(cfg.rep_rate),
    }
    parser["fock"] = {"n_trunc": str(cfg.n_trunc)}
    if cfg.sweep_axis:
        parser["sweep"] = {
            "axis": cfg.sweep_axis,
            "min": repr(cfg.sweep_min),
            "max": repr(cfg.sweep_max),
            "steps": str(cfg.sweep_steps),
        }
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()
