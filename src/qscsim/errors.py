"""Exception types shared across the package.

Three classes, each a subclass of the one before: ``QscError`` is any
package-specific failure, such as a CLI output path that cannot be written
or a calibration that misses its target.  ``ConfigError`` is a config that
cannot be used; the config reader raises it, naming the file, for a file
that cannot be read or does not hold a JSON object.  A parameter object or
config that gets an out-of-range or non-finite value (a time above
:data:`MAX_TIME` included), or a non-integer one for an integer field,
raises :class:`FieldError`, both a ``ConfigError`` and a ``ValueError``,
naming the field (by its dotted path when it comes from a config); other
out-of-range function arguments raise plain ``ValueError``.
"""

from __future__ import annotations

import math
from typing import Any


#: Largest value, in seconds, of a time that report times are built from
#: (``t_c_mean``, ``t_p``, ``jitter_sigma``): report-time sums over a run
#: stay finite far beyond it.  ``threshold_time`` is only compared.
MAX_TIME = 1e100


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


def check_time(field: str, value: Any, ok: bool, rule: str) -> None:
    """:func:`check_field` for a time in seconds, which must also be at most :data:`MAX_TIME`."""
    check_field(field, value, ok, rule)
    if value > MAX_TIME:
        raise FieldError(field, f"must be <= {MAX_TIME!r} s, got {value!r}")


class QscError(Exception):
    """Base class for package-specific failures."""


class ConfigError(QscError):
    """An experiment config that cannot be read or used."""


class FieldError(ConfigError, ValueError):
    """A field is out of range, not finite or of the wrong type; ``field`` names it (dotted, from a config)."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message
