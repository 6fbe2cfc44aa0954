"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic ValueError/RuntimeError is reserved for genuine bugs.
"""


class MappingError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(MappingError, ValueError):
    """A covariance/model parameter violates its domain constraint."""


class EmptyInputError(MappingError, ValueError):
    """An operation that needs at least one element received none."""


class InputError(MappingError, ValueError):
    """Malformed caller input (missing ids, bad shapes, bad levels)."""


class SchemaError(InputError):
    """A text input file violates its documented schema.

    ``line_number`` is 1-based and refers to the offending physical line.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class InsufficientDataError(MappingError):
    """Too few observations to carry out a fit or estimate."""


class InsufficientVarianceError(MappingError):
    """Degenerate data (all values identical) cannot support a fit."""


class FactorizationError(MappingError):
    """A covariance factorization failed even after ridge escalation.

    ``year_index`` identifies the offending block when applicable.
    """

    def __init__(self, message: str, year_index: int | None = None):
        if year_index is not None:
            message = f"{message} (year {year_index})"
        super().__init__(message)
        self.year_index = year_index


class ModeFindingError(MappingError):
    """Newton mode search failed, or a Student fit ended where it fails.

    ``diagnostics`` carries the search's final gradient norm, objective
    value and iteration count, or the fit's count of failed searches.
    """

    def __init__(self, message: str, diagnostics: dict | None = None,
                 year_index: int | None = None):
        if year_index is not None:
            message = f"{message} (year {year_index})"
        super().__init__(message)
        self.diagnostics = diagnostics or {}
        self.year_index = year_index
