"""Exception types shared across the package, and the one check of declared field domains."""

import functools
import math
import operator
from dataclasses import fields

# Domain keys of field metadata: the test a value must pass, and its text.
_DOMAIN = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="), "lt": (operator.lt, "<"),
           "le": (operator.le, "<="), "in": (lambda value, choices: value in choices, "one of")}


class HaselHandError(Exception):
    """Base class for all package errors."""


class DomainError(HaselHandError, ValueError):
    """An input lies outside the physical domain of an operation."""


class ConfigError(HaselHandError, ValueError):
    """A configuration value or reference is invalid."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key  # the JSON key of a field outside its declared domain


class TraceSchemaError(ConfigError):
    """A trace file does not match the expected column schema."""

    def __init__(self, message: str, column: str | None = None):
        super().__init__(message)
        self.column = column


class ModelConsistencyError(HaselHandError, RuntimeError):
    """The model contradicted one of its own assumptions (e.g. a
    residual that should be monotone was not)."""


class CalibrationError(HaselHandError, RuntimeError):
    """Threshold calibration failed because the signal classes overlap.

    Carries the two class extrema so callers can report the margin.
    """

    def __init__(self, min_free: float, max_grasp: float):
        super().__init__(
            f"no separating threshold: min free-motion current "
            f"{min_free:.4f} uA <= max grasp current {max_grasp:.4f} uA"
        )
        self.min_free = min_free
        self.max_grasp = max_grasp


class InsufficientDataError(HaselHandError, ValueError):
    """A signal is too short to evaluate over the configured window."""


class BaselineExhaustedError(HaselHandError, RuntimeError):
    """The controller ran past the end of its baseline while still ramping."""


def _finite(value, _bound=None) -> bool:
    """False if value, or a float in its tuples or dict values, is not finite."""
    if isinstance(value, (tuple, dict)):
        return all(map(_finite, value.values() if isinstance(value, dict) else value))
    return not isinstance(value, float) or math.isfinite(value)


@functools.cache
def _domains(cls) -> tuple:
    """(name, JSON key, test, bound, text) for each declared domain, then finiteness per field."""
    keyed = [(f.name, f.metadata.get("json", f.name), f.metadata) for f in fields(cls)]
    return (tuple((name, key, _DOMAIN[k][0], m[k], f"{_DOMAIN[k][1]} {m[k]!r}")
                  for name, key, m in keyed for k in _DOMAIN if k in m)
            + tuple((name, key, _finite, None, "finite") for name, key, _ in keyed))


def check_domains(obj) -> None:
    """Refuse dataclass obj if a field lies outside its declared domain (None never does)
    or holds a float that is not finite."""
    for name, key, test, bound, text in _domains(type(obj)):
        if (value := getattr(obj, name)) is not None and not test(value, bound):
            raise ConfigError(f"{key}: {value!r} must be {text}", key)
