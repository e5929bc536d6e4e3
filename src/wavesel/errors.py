"""Exception types shared across the package."""


class WaveselError(Exception):
    """Base class for every error raised deliberately by this package."""


class NotPositiveDefinite(WaveselError):
    """A matrix required to be positive definite failed its Cholesky factorization."""


class EmptyInput(WaveselError):
    """An operation received an empty sequence where data is required."""


class IndexOutOfRange(WaveselError):
    """An index points outside the addressed collection."""


class InvalidInput(WaveselError):
    """An argument value is outside the operation's domain."""


class IoError(WaveselError):
    """Reading or writing a run artifact failed."""


class ParseError(WaveselError):
    """A config file line could not be parsed.

    Carries the 1-based line and column of the offending location.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ValidationError(WaveselError):
    """A config field has an invalid or inconsistent value.

    ``field`` names the offending key.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
