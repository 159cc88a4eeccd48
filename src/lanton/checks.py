"""Typed value checks for JSON configs; a failure names the offending field."""

from __future__ import annotations

import math

__all__ = ["ConfigError", "CHECKS", "check_number", "check_integer", "check_boolean", "check_string"]


class ConfigError(ValueError):
    """Config validation failure carrying the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


def check_number(value, path: str, lo=None, hi=None, lo_open=False, hi_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if lo is not None and (v < lo or (lo_open and v == lo)):
        raise ConfigError(path, f"must be {'>' if lo_open else '>='} {lo}, got {v}")
    if hi is not None and (v > hi or (hi_open and v == hi)):
        raise ConfigError(path, f"must be {'<' if hi_open else '<='} {hi}, got {v}")
    return v


def check_integer(value, path: str, lo=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(path, f"must be >= {lo}, got {value}")
    return value


def check_boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {value!r}")
    return value


def check_string(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"must be one of {sorted(choices)}, got {value!r}")
    return value


# The check of each JSON type a typed config key may take; its keyword
# arguments are the key's bounds.
CHECKS = {float: check_number, int: check_integer, bool: check_boolean, str: check_string}
