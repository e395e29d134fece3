"""Flat key=value experiment-config format.

One `key = value` per line, `#` starts a comment.  Values may carry a
unit suffix (angle: rad/mrad/urad/deg; length: m/cm/mm/km/nm; area:
m2/cm2; power: W/mW/dBm; ratio: dB), converted to SI on parse.  Errors
carry the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkConfig
from .errors import MissingRequiredError, UnitMismatchError, UnknownKeyError

__all__ = ["parse_config", "parse_link_overrides", "RawConfig"]

_ANGLE = {"rad": 1.0, "mrad": 1e-3, "urad": 1e-6, "deg": math.pi / 180.0}
_LENGTH = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "km": 1e3, "nm": 1e-9}
_AREA = {"m2": 1.0, "cm2": 1e-4}

_DIMENSIONS = {
    "angle": _ANGLE,
    "length": _LENGTH,
    "area": _AREA,
    "power": {"W": 1.0, "mW": 1e-3},   # dBm handled separately
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
    "cn2_0": ("cn2_0", "none"),
    "Cn2": ("cn2_0", "none"),
    "wind_v": ("wind_v", "none"),
    "Pt": ("P_t", "power"),
    "R_pd": ("R_pd", "none"),
    "sigma_n2": ("sigma_n2", "power"),  # dBm accepted, reinterpreted as A^2 (see README)
    "gamma_th": ("gamma_th", "ratio"),
    "w_z": ("w_z", "length"),           # convenience: sets theta_div = w_z / Z
}

EXPERIMENT_KEYS = {
    "sweep": str,
    "grid": "grid",
    "metrics": "list",
    "engines": "list",
    "out": str,
    "seed": int,
    "samples": int,
    "regime": str,
    "bins": int,
    "label": str,
}

_REQUIRED = ("sweep", "grid", "metrics", "engines")


@dataclass
class RawConfig:
    """Parsed config: SI link values plus experiment directives."""

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
            cfg = cfg.with_(theta_div=w_z / cfg.Z)
        return cfg


def _parse_number(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise UnitMismatchError(f"cannot parse number {token!r}", line_no) from None


def _convert(key: str, dimension: str, parts: list[str], line_no: int) -> float:
    value = _parse_number(parts[0], line_no)
    unit = parts[1] if len(parts) > 1 else None
    if len(parts) > 2:
        raise UnitMismatchError(f"too many tokens in value for {key!r}", line_no)
    if dimension == "power":
        if unit == "dBm":
            return 10.0 ** (value / 10.0) / 1000.0
        if unit is None:
            return value
        if unit in _DIMENSIONS["power"]:
            return value * _DIMENSIONS["power"][unit]
        raise UnitMismatchError(f"unit {unit!r} is not a power unit (key {key!r})", line_no)
    if dimension == "ratio":
        if unit == "dB":
            return 10.0 ** (value / 10.0)
        if unit is None:
            return value
        raise UnitMismatchError(f"unit {unit!r} is not a ratio unit (key {key!r})", line_no)
    if dimension == "none":
        if unit is not None:
            raise UnitMismatchError(f"key {key!r} takes a bare number, got unit {unit!r}", line_no)
        return value
    table = _DIMENSIONS[dimension]
    if unit is None:
        return value
    if unit not in table:
        raise UnitMismatchError(f"unit {unit!r} is not a {dimension} unit (key {key!r})", line_no)
    return value * table[unit]


def _parse_grid(text: str, line_no: int) -> tuple:
    parts = text.split()
    scale = 1.0
    spacing = "lin"
    dbm = False
    while parts and (parts[-1] in ("log", "lin", "dBm")
                     or _unit_scale(parts[-1]) is not None):
        tok = parts.pop()
        if tok in ("log", "lin"):
            spacing = tok
        elif tok == "dBm":
            dbm = True
        else:
            scale = _unit_scale(tok)
    body = "".join(parts)
    if ":" in body:
        pieces = body.split(":")
        if len(pieces) != 3:
            raise UnitMismatchError("grid range must be start:stop:count", line_no)
        start = _parse_number(pieces[0], line_no)
        stop = _parse_number(pieces[1], line_no)
        count = int(_parse_number(pieces[2], line_no))
        if count < 1:
            raise UnitMismatchError("grid count must be >= 1", line_no)
        if spacing == "log":
            vals = np.geomspace(start, stop, count)
        else:
            vals = np.linspace(start, stop, count)
    else:
        vals = np.array([_parse_number(v, line_no) for v in body.split(",") if v])
    if dbm:
        return tuple(10.0 ** (float(v) / 10.0) / 1000.0 for v in vals)
    return tuple(float(v) * scale for v in vals)


def _unit_scale(token: str) -> float | None:
    for table in _DIMENSIONS.values():
        if token in table:
            return table[token]
    return None


def parse_config(source) -> RawConfig:
    """Parse a config file path or literal text into a RawConfig."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError):
            if isinstance(source, str) and "=" in source:
                text = source
            else:
                raise
    raw = RawConfig()
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
        if key in LINK_KEYS:
            target, dimension = LINK_KEYS[key]
            raw.link[target] = _convert(key, dimension, value.split(), line_no)
        elif key in EXPERIMENT_KEYS:
            kind = EXPERIMENT_KEYS[key]
            if kind == "grid":
                raw.experiment[key] = _parse_grid(value, line_no)
            elif kind == "list":
                raw.experiment[key] = tuple(v.strip() for v in value.split(",") if v.strip())
            elif kind is str:
                raw.experiment[key] = value
            else:
                try:
                    raw.experiment[key] = kind(value)
                except ValueError:
                    raise UnitMismatchError(
                        f"key {key!r} expects {kind.__name__}, got {value!r}", line_no
                    ) from None
        else:
            raise UnknownKeyError(f"unknown key {key!r}", line_no)
    return raw


def require_experiment_keys(raw: RawConfig) -> None:
    missing = [k for k in _REQUIRED if k not in raw.experiment]
    if missing:
        raise MissingRequiredError(f"missing required keys: {', '.join(missing)}")


def parse_link_overrides(pairs: list[str]) -> dict:
    """Parse CLI `key=value[ unit]` overrides into LinkConfig field values."""
    out = {}
    for i, pair in enumerate(pairs, start=1):
        key, _, value = pair.partition("=")
        key, value = key.strip(), value.strip()
        if key not in LINK_KEYS:
            raise UnknownKeyError(f"unknown key {key!r}", i)
        target, dimension = LINK_KEYS[key]
        out[target] = _convert(key, dimension, value.split(), i)
    return out
