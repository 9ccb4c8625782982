"""Exception taxonomy shared across the package."""


class FqminorsError(Exception):
    """Base class for all package errors."""


class NotPrimePowerError(FqminorsError, ValueError):
    pass


class UnsupportedFieldError(FqminorsError, ValueError):
    pass


class DimensionMismatchError(FqminorsError, ValueError):
    pass


class GroundTooLargeError(FqminorsError, ValueError):
    pass


class UnknownNameError(FqminorsError, ValueError):
    pass


class BadParametersError(FqminorsError, ValueError):
    pass


class OverlappingSetsError(FqminorsError, ValueError):
    pass


class BadArgumentsError(FqminorsError, ValueError):
    pass


class BadToleranceError(FqminorsError, ValueError):
    pass


class UnknownEventError(FqminorsError, ValueError):
    pass


class TooLargeError(FqminorsError, ValueError):
    pass


class BudgetExceededError(FqminorsError):
    """A search ran out of budget; the outcome is *unknown*, not *absent*."""


class ParseError(FqminorsError, ValueError):
    """Text-format parse failure with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
