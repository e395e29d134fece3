"""Flat key=value experiment-config format.

One `key = value` per line, `#` starts a comment.  Values may carry a
unit suffix (angle: rad/mrad/urad/deg; length: m/cm/mm/km/nm; area:
m2/cm2; power: W/mW/dBm; ratio: dB), converted to SI on parse.  A grid's
unit is read in the dimension of the `sweep` axis.  Errors carry the
offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkConfig
from .errors import ConfigError, MissingRequiredError, UnitMismatchError, UnknownKeyError
from .experiments import ExperimentSpec, apply_axis

__all__ = ["parse_config", "RawConfig"]

# dimension -> unit -> SI scale factor, or the conversion itself
_UNITS = {
    "angle": {"rad": 1.0, "mrad": 1e-3, "urad": 1e-6, "deg": math.pi / 180.0},
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "km": 1e3, "nm": 1e-9},
    "area": {"m2": 1.0, "cm2": 1e-4},
    "power": {"W": 1.0, "mW": 1e-3, "dBm": lambda v: 10.0 ** (v / 10.0) / 1000.0},
    "ratio": {"dB": lambda v: 10.0 ** (v / 10.0)},
    "none": {},
}

# config key -> (LinkConfig field, dimension)
LINK_KEYS = {
    "Z": ("Z", "length"),
    "Z_hg": ("Z_hg", "length"),
    "Z_hu": ("Z_hu", "length"),
    "lambda": ("wavelength", "length"),
    "theta_div": ("theta_div", "angle"),
    "r_g": ("r_g", "length"),
    "A_r": ("A_r", "area"),
    "sigma_theta_e": ("sigma_theta_e", "angle"),
    "sigma_theta_o": ("sigma_theta_o", "angle"),
    "zeta": ("zeta", "none"),
    "h_l": ("h_l", "none"),
    "Cn2": ("cn2_0", "none"),
    "wind_v": ("wind_v", "none"),
    "Pt": ("P_t", "power"),
    "R_pd": ("R_pd", "none"),
    "sigma_n2": ("sigma_n2", "power"),  # dBm accepted, reinterpreted as A^2 (see README)
    "gamma_th": ("gamma_th", "ratio"),
    "w_z": ("w_z", "length"),           # convenience: sets theta_div = w_z / Z
}

# config key -> (ExperimentSpec field, value kind); `out` is the default of `run --out`
EXPERIMENT_KEYS = {
    "sweep": ("sweep_axis", str),
    "grid": ("grid", "grid"),
    "metrics": ("metrics", "list"),
    "engines": ("engines", "list"),
    "out": ("out", str),
    "seed": ("seed", int),
    "samples": ("n_samples", int),
    "regime": ("regime", str),
    "bins": ("bins", int),
    "label": ("label", str),
}

@dataclass
class RawConfig:
    """Parsed config: LinkConfig and ExperimentSpec field values, in SI."""

    link: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)

    def build_link_config(self, base: LinkConfig | None = None) -> LinkConfig:
        """`base` with these link values set.  `zeta` and `h_l` exclude
        each other: giving one clears the other, giving both is an error.
        `w_z` sets theta_div = w_z / Z at the resulting Z."""
        base = base if base is not None else LinkConfig()
        values = dict(self.link)
        w_z = values.pop("w_z", None)
        if "zeta" in values and "h_l" in values:
            raise ValueError("give only one of zeta or h_l")
        if "zeta" in values:
            values["h_l"] = None
        elif "h_l" in values:
            values["zeta"] = None
        cfg = base.with_(**values)
        if w_z is not None:
            cfg = apply_axis(cfg, "w_z", w_z)
        return cfg


def _parse_number(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise UnitMismatchError(f"cannot parse number {token!r}", line_no) from None
    if not math.isfinite(value):
        raise UnitMismatchError(f"number {token!r} is not finite", line_no)
    return value


def _to_si(value: float, unit: str | None, dimension: str, what: str, line_no: int) -> float:
    if unit is None:
        return value
    to_si = _UNITS[dimension].get(unit)
    if to_si is None:
        takes = "a bare number" if dimension == "none" else f"{dimension} units"
        raise UnitMismatchError(f"{what} takes {takes}, got {unit!r}", line_no)
    try:
        si = to_si(value) if callable(to_si) else value * to_si
    except OverflowError:
        si = math.inf
    if not math.isfinite(si):
        raise UnitMismatchError(f"{what}: {value:g} {unit} overflows in SI units", line_no)
    return si


def _parse_grid(text: str, line_no: int) -> tuple[np.ndarray, str | None]:
    """`start:stop:count` or `v1, v2, ...`, then optional `lin`/`log` and unit words."""
    parts = text.split()
    spacing, unit = "lin", None
    while parts and parts[-1][0].isalpha():
        word = parts.pop()
        if word in ("lin", "log"):
            spacing = word
        elif unit is None:
            unit = word
        else:
            raise UnitMismatchError("grid takes at most one unit", line_no)
    body = "".join(parts)
    if ":" not in body:
        return np.array([_parse_number(v, line_no) for v in body.split(",") if v]), unit
    pieces = body.split(":")
    if len(pieces) != 3:
        raise UnitMismatchError("grid range must be start:stop:count", line_no)
    start, stop, count = (_parse_number(p, line_no) for p in pieces)
    if count < 1:
        raise UnitMismatchError("grid count must be >= 1", line_no)
    space = np.geomspace if spacing == "log" else np.linspace
    return space(start, stop, int(count)), unit


def config_entries(text: str):
    """(line number, key, value) of each `key = value` line of config text."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UnknownKeyError(f"expected 'key = value', got {body!r}", line_no)
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise MissingRequiredError(f"key {key!r} has no value", line_no)
        yield line_no, key, value


def _spec_value(target: str, value, line_no: int):
    """`value` for ExperimentSpec field `target`, unless a spec refuses it."""
    try:
        ExperimentSpec(LinkConfig(), **{"sweep_axis": "Pt", "grid": (1.0,), target: value})
    except ValueError as e:
        raise ConfigError(str(e), line_no) from None
    return value


def parse_config(text: str) -> RawConfig:
    """Parse config text (file contents or `--set` pairs) into a RawConfig."""
    raw = RawConfig()
    grid = None
    for line_no, key, value in config_entries(text):
        if key in LINK_KEYS:
            target, dimension = LINK_KEYS[key]
            number, *unit = value.split()
            if len(unit) > 1:
                raise UnitMismatchError(f"too many tokens in value for {key!r}", line_no)
            raw.link[target] = _to_si(_parse_number(number, line_no), unit[0] if unit else None,
                                      dimension, f"key {key!r}", line_no)
            continue
        if key not in EXPERIMENT_KEYS:
            raise UnknownKeyError(f"unknown key {key!r}", line_no)
        target, kind = EXPERIMENT_KEYS[key]
        if kind == "grid":
            grid = (*_parse_grid(value, line_no), line_no)
            continue
        if kind == "list":
            value = tuple(v.strip() for v in value.split(",") if v.strip())
        else:
            try:
                value = kind(value)
            except ValueError:
                raise UnitMismatchError(
                    f"key {key!r} expects {kind.__name__}, got {value!r}", line_no
                ) from None
        raw.experiment[target] = value if target == "out" else _spec_value(target, value, line_no)
    if grid is not None:
        values, unit, line_no = grid
        axis = raw.experiment.get("sweep_axis")
        if unit is not None and axis not in LINK_KEYS:
            raise UnitMismatchError(f"grid unit {unit!r} needs a link-parameter sweep axis, "
                                    f"got sweep = {axis}", line_no)
        dimension = LINK_KEYS[axis][1] if unit is not None else "none"
        raw.experiment["grid"] = _spec_value("grid", tuple(
            _to_si(float(v), unit, dimension, f"sweep axis {axis!r}", line_no) for v in values),
            line_no)
    return raw


def require_experiment_keys(raw: RawConfig) -> None:
    missing = [k for k in ("sweep", "grid", "metrics", "engines")
               if EXPERIMENT_KEYS[k][0] not in raw.experiment]
    if missing:
        raise MissingRequiredError(f"missing required keys: {', '.join(missing)}")
