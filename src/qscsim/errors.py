"""Exception types shared across the package.

Plain ``ValueError`` is used for out-of-range arguments ("domain errors");
the classes below mark failure modes callers are expected to branch on.
"""

from __future__ import annotations


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


class ConfigValidationError(ConfigError):
    """Config contents violate the schema; ``field_path`` names the offender."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path
