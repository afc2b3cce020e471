"""Run configuration: a flat INI-style key-value file with one section
per concern.  Parsing is strict (unknown sections, keys and values fail
loudly; every number must be finite and every integer field integral) and
the effective configuration round-trips through its text form unchanged.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

import numpy as np

from .bell import DEFAULT_ANGLES, ExperimentParams
from .errors import ConfigError
from .fock import DEFAULT_TRUNCATION, MIN_TRUNCATION
from .inputs import PARAMS, SWEEP_KEYS

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
    n_trunc: int = DEFAULT_TRUNCATION
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
        if self.n_trunc < MIN_TRUNCATION:
            raise ConfigError(f"n_trunc must be >= {MIN_TRUNCATION}")

    def params(self) -> ExperimentParams:
        return ExperimentParams(
            **{name: getattr(self, name) for name in PARAMS},
            angles=tuple(getattr(self, key) for key in _ANGLE_KEYS))

    def sweep_grid(self) -> np.ndarray:
        if not self.sweep_axis:
            raise ConfigError("missing required section [sweep]")
        return np.linspace(self.sweep_min, self.sweep_max, self.sweep_steps)


_ANGLE_KEYS = ("theta1", "theta2", "phi1", "phi2")

#: the RunConfig field of every key the parser reads, by section, in
#: reading and writing order
_FIELDS = {
    "params": {**{param.key: name for name, param in PARAMS.items()},
               **{key: key for key in _ANGLE_KEYS}},
    "output": {"path": "output_path", "format": "output_format"},
    "mc": {key: key for key in ("n_target_events", "seed", "rep_rate")},
    "fock": {"n_trunc": "n_trunc"},
    "sweep": {"axis": "sweep_axis", "min": "sweep_min", "max": "sweep_max",
              "steps": "sweep_steps"},
}


def _get_text(section, key: str, section_name: str) -> str:
    """section[key], which must be present."""
    try:
        return section[key]
    except KeyError:
        raise ConfigError(f"missing required field {key!r} in [{section_name}]")


def _get_float(section, key: str, section_name: str) -> float:
    """section[key] as a finite float."""
    text = _get_text(section, key, section_name)
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"field {key!r} in [{section_name}] is not a "
                          f"number: {text!r}")
    if not np.isfinite(value):
        raise ConfigError(f"field {key!r} in [{section_name}] is not "
                          f"finite: {text!r}")
    return value


def _get_int(section, key: str, section_name: str) -> int:
    """section[key] as an int: integer text exactly, else an integral number
    such as 7.0 or 1e3."""
    try:
        return int(_get_text(section, key, section_name))
    except ValueError:
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
    if parser.defaults():  # configparser would copy them into every section
        raise ConfigError(f"unknown section [{parser.default_section}]")
    for name in parser.sections():
        if name not in _FIELDS:
            raise ConfigError(f"unknown section [{name}]")
        for key in parser[name]:
            if key not in _FIELDS[name]:
                raise ConfigError(f"unknown field {key!r} in [{name}]")
    if "params" not in parser:
        raise ConfigError("missing required section [params]")
    readers = {"float": _get_float, "int": _get_int, "str": _get_text}
    values = {}
    for name, fields in _FIELDS.items():
        if name not in parser:
            continue
        section = parser[name]
        for key, field in fields.items():
            # every [sweep] key and every experiment parameter is required
            if key in section or name == "sweep" or field in PARAMS:
                read = readers[RunConfig.__annotations__[field]]
                values[field] = read(section, key, name)
        if name == "sweep" and not values["sweep_axis"]:
            raise ConfigError("missing required field 'axis' in [sweep]")
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return parse_config(text)


def _to_text(value) -> str:
    """Text that reads back to the same value: repr of numbers keeps every
    float digit."""
    return value if isinstance(value, str) else repr(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for name, fields in _FIELDS.items():
        if name != "sweep" or cfg.sweep_axis:
            parser[name] = {key: _to_text(getattr(cfg, field))
                            for key, field in fields.items()}
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()
