"""The package's error types, one per way a caller handles a failure.

- ``FqminorsError``: the base class; the CLI turns any of them into exit 1.
- ``BadArgumentsError``: an input the library rejects (field, shape, entry,
  target name or size, row rule, event, tolerance); the CLI's usage error.
- ``TooLargeError``: an exact answer past its size bound; sweeps print no
  bound for that row.
- ``BudgetExceededError``: a search ran out of budget, so its outcome is
  *unknown*.
- ``ParseError``: a text file that does not parse; the CLI exits 3.
"""


class FqminorsError(Exception):
    """Base class for all package errors."""


class BadArgumentsError(FqminorsError, ValueError):
    """An input outside what the library accepts."""


class TooLargeError(FqminorsError, ValueError):
    """An exact answer would exceed its size bound."""


class BudgetExceededError(FqminorsError):
    """A search ran out of budget; the outcome is *unknown*, not *absent*."""


class ParseError(FqminorsError, ValueError):
    """Text-format parse failure with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
