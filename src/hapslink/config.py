"""Scenario configuration: sectioned key=value files over built-in defaults.

A bare run needs no file at all; every parameter of the shipped case
study is the default. A file given via --config (or the HAPSLINK_CONFIG
environment variable) overrides individual keys. Unknown sections or
keys are rejected with the offending name, not ignored.
"""

import configparser
import math
import os
from typing import Annotated, Optional

from ._record import POSITIVE, Record, number
from .engine import CacheState, EngineContext
from .modes import ModeConfigs, RisConfig, RsConfig, SmbsConfig
from .offload import CloudConfig
from .propagation import RadioParams, ScenarioGeometry

ENV_CONFIG_VAR = "HAPSLINK_CONFIG"

SWEEP_VARIABLES = ("x", "S")

# Command defaults when no [sweep] section is given: the placement sweep
# walks the whole corridor, the task-size sweep spans 0..5 Mbit.
DEFAULT_X_SWEEP = (0.0, 60000.0, 500.0)
DEFAULT_S_SWEEP = (0.0, 5e6, 5e4)

# Largest grid a sweep may walk; a finer step is refused before any
# point is built.
MAX_GRID_POINTS = 1_000_000


class ConfigError(ValueError):
    """Bad configuration; message names the offending section/key."""


class SweepSpec(Record):
    _tag, _error = "[sweep] ", ConfigError
    variable: str
    start: float
    stop: float
    step: Annotated[float, POSITIVE]

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"[sweep] variable must be one of {SWEEP_VARIABLES}, "
                f"got {self.variable!r}"
            )
        if self.stop < self.start:
            raise ConfigError("[sweep] stop must not precede start")
        # counted, not built: a float, so a tiny step cannot overflow it
        points = (self.stop - self.start) / self.step + 1
        if points > MAX_GRID_POINTS:
            raise ConfigError(
                f"[sweep] step = {self.step:g} gives {points:.3g} grid points; "
                f"at most {MAX_GRID_POINTS} are allowed"
            )

    def grid(self):
        """start, start + step, ... through stop. A point past stop by at
        most 1e-9 * max(1, |stop|) (float drift) ends the grid, clamped to
        stop, when the point before it falls short of stop. The count is
        fixed before any point is built, within one of the count the
        constructor checked."""
        start, stop, step = self.start, self.stop, self.step
        bound = stop + 1e-9 * max(1.0, abs(stop))
        n = math.floor((stop - start) / step) + 1
        while n > 1 and start + (n - 1) * step > bound:  # the quotient rounded up
            n -= 1
        if start + (n - 1) * step < stop and start + n * step <= bound:
            n += 1  # the quotient rounded down, or the points drift short of stop
        values = [start + i * step for i in range(n)]
        values[0] = start  # as given, so a start of -0.0 keeps its sign
        if values[-1] > stop:
            values[-1] = stop
        return values


class ScenarioConfig(Record):
    _tag, _error = "[engine] ", ConfigError  # its float and int fields are [engine] keys
    geom: ScenarioGeometry = ScenarioGeometry(D=60000.0, H=20000.0, x=30000.0)
    radio: RadioParams = RadioParams()
    rs: RsConfig = RsConfig()
    ris: RisConfig = RisConfig()
    smbs: SmbsConfig = SmbsConfig()
    cloud: CloudConfig = CloudConfig()
    ris_N_list: tuple = (10000, 30000, 50000)
    smbs_F_H_list: tuple = (1e9, 2e9, 3e9)
    popularity_threshold: Annotated[int, CacheState._bounds["popularity_threshold"]] = (
        CacheState.popularity_threshold)
    cycles_per_bit: Annotated[float, EngineContext._bounds["cycles_per_bit"]] = (
        EngineContext.cycles_per_bit)
    sweep: Optional[SweepSpec] = None
    output_path: Optional[str] = None

    def __post_init__(self):
        if not self.ris_N_list:
            raise ConfigError("[ris] N_list must not be empty")
        if not self.smbs_F_H_list:
            raise ConfigError("[smbs] F_H_list must not be empty")
        # each entry is a surface's N or a base station's F_H, under its rules
        object.__setattr__(self, "ris_N_list", tuple(
            number("[ris] N_list", n, True, ConfigError, RisConfig._bounds["N"])
            for n in self.ris_N_list
        ))
        for fh in self.smbs_F_H_list:
            number("[smbs] F_H_list", fh, False, ConfigError, SmbsConfig._bounds["F_H"])
        if self.sweep is None:
            return
        # offsets stay inside the corridor; a task size is at least 0
        upper = self.geom.D if self.sweep.variable == "x" else math.inf
        for key in ("start", "stop"):
            number(f"[sweep] {key}", getattr(self.sweep, key), False, ConfigError, (0.0, upper))

    @property
    def configs(self) -> ModeConfigs:
        return ModeConfigs(rs=self.rs, ris=self.ris, smbs=self.smbs)

    def sweep_for(self, variable, step_override=None) -> SweepSpec:
        """Sweep spec for a command that needs to walk `variable`; a
        step_override replaces the step before the spec checks its grid."""
        if self.sweep is not None:
            if self.sweep.variable != variable:
                raise ConfigError(
                    f"[sweep] variable is {self.sweep.variable!r} but this "
                    f"command sweeps {variable!r}"
                )
            start, stop, step = self.sweep.start, self.sweep.stop, self.sweep.step
        elif variable == "x":
            start, _, step = DEFAULT_X_SWEEP
            stop = self.geom.D
        else:
            start, stop, step = DEFAULT_S_SWEEP
        if step_override is not None:
            step = step_override
        return SweepSpec(variable, start, stop, step)


# =====================================================================
# File parsing
# =====================================================================

def _get(parser, section, key, current):
    """[section] key's float, or tuple of comma-separated floats where
    current is a tuple; current when the file does not set it. This only
    parses: the record that takes the value applies the rules."""
    if not parser.has_option(section, key):
        return current
    raw = parser.get(section, key)
    try:
        if isinstance(current, tuple):
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as a finite number") from None


# INI section -> the ScenarioConfig field whose record it builds; read in
# this order, each key in its record's field order
_SECTIONS = {
    "geometry": "geom", "radio": "radio", "rs": "rs", "ris": "ris",
    "smbs": "smbs", "cloud": "cloud",
}

# (section, key) -> the field of ScenarioConfig itself that it sets;
# read in this order, after the records
_EXTRAS = {
    ("ris", "N_list"): "ris_N_list",
    ("smbs", "F_H_list"): "smbs_F_H_list",
    ("engine", "popularity_threshold"): "popularity_threshold",
    ("engine", "cycles_per_bit"): "cycles_per_bit",
}

_KNOWN_KEYS = {
    section: set(ScenarioConfig.__annotations__[field]._fields)
    for section, field in _SECTIONS.items()
}
for section, key in _EXTRAS:
    _KNOWN_KEYS.setdefault(section, set()).add(key)
_KNOWN_KEYS["sweep"] = set(SweepSpec._fields)
_KNOWN_KEYS["output"] = {"path"}


def _reject_unknown(parser):
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")


def load_config(path=None) -> ScenarioConfig:
    """Build a ScenarioConfig from defaults plus an optional override file.

    Resolution order: explicit path, then the HAPSLINK_CONFIG environment
    variable, then pure defaults. This only parses: each value rule lives
    in the record that holds the value, so code and files are refused
    alike.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG_VAR) or None
    base = ScenarioConfig()
    if path is None:
        return base
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")

    # a % is text, and no header spells the default section: [DEFAULT] is unknown
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str  # keys are case-sensitive (B vs b, N vs n)
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
        parser.read_file(lines, path)
    except configparser.Error as err:  # one line: its number and text, not configparser's words
        lineno = getattr(err, "lineno", None) or err.errors[0][0]
        raise ConfigError(f"cannot parse {path}: line {lineno}: "
                          f"{lines[lineno - 1].strip()!r}") from None
    _reject_unknown(parser)

    # each section's record, with every number the file sets parsed first;
    # a value the record refuses is reported under [section]
    records = {}
    for section, field in _SECTIONS.items():
        record = getattr(base, field)
        values = {key: _get(parser, section, key, getattr(record, key))
                  for key in record._fields}
        try:
            records[field] = type(record)(**values)
        except ValueError as err:
            raise ConfigError(f"[{section}] {err}") from None
    extras = {field: _get(parser, section, key, getattr(base, field))
              for (section, key), field in _EXTRAS.items()}

    sweep = None
    if parser.has_section("sweep"):
        for key in SweepSpec._fields:
            if not parser.has_option("sweep", key):
                raise ConfigError(f"[sweep] missing key {key!r}")
        sweep = SweepSpec(
            parser.get("sweep", "variable").strip(),
            *[_get(parser, "sweep", key, None) for key in ("start", "stop", "step")],
        )
    output_path = parser.get("output", "path", fallback="").strip() or None

    return ScenarioConfig(**records, **extras, sweep=sweep, output_path=output_path)
