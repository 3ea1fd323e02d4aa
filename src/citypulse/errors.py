"""Exception hierarchy shared across the pipeline."""


class CityPulseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CityPulseError):
    """Invalid or inconsistent configuration (bad timezone, overlapping slots, ...)."""


class DataError(CityPulseError):
    """Unusable input data (unreadable file, bad schema, duplicate zone ids, ...)."""


class SingularityError(CityPulseError):
    """Design matrix is rank-deficient; carries the offending column names."""

    def __init__(self, columns, message: str | None = None):
        self.columns = list(columns)
        super().__init__(message or f"linearly dependent columns: {', '.join(self.columns)}")
