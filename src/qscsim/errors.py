"""Exception types shared across the package.

A parameter object or config that gets an out-of-range or non-finite value,
or a non-integer one for an integer field, raises :class:`FieldError`, both
a ``ConfigError`` and a ``ValueError``, naming the field (by its dotted path
when it comes from a config); other out-of-range function arguments raise
plain ``ValueError``.  The other classes mark failure modes callers are
expected to branch on.
"""

from __future__ import annotations

import math
from typing import Any


def check_field(field: str, value: Any, ok: bool, rule: str) -> None:
    """Raise :class:`FieldError` unless ``value`` is finite and ``ok`` holds;
    ``rule`` states the range, as in ``"> 0"``."""
    if value != value or value in (math.inf, -math.inf):
        raise FieldError(field, f"must be finite, got {value!r}")
    if not ok:
        raise FieldError(field, f"must be {rule}, got {value!r}")


def check_integer(field: str, value: Any) -> None:
    """Raise :class:`FieldError` unless ``value`` is an ``int``; a ``bool`` is not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FieldError(field, f"must be an integer, got {value!r}")


class QscError(Exception):
    """Base class for package-specific failures."""


class ModelMisuseError(QscError):
    """An operation was called with a collapse model or event it does not support."""


class CalibrationError(QscError):
    """Diffusion-strength calibration could not meet its contract."""


class ConfigError(QscError):
    """Base class for experiment-configuration failures."""


class ConfigFileError(ConfigError):
    """Config file missing or unreadable."""


class ConfigParseError(ConfigError):
    """Config file is not valid JSON."""


class FieldError(ConfigError, ValueError):
    """A field is out of range, not finite or of the wrong type; ``field`` names it (dotted, from a config)."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message
