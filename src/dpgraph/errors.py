"""Exception hierarchy shared across the package."""


def brief(value) -> str:
    """repr(value) for an error line: cut to 60 characters, plus its length."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} chars)"


class DpGraphError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DpGraphError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EdgeListParseError(DpGraphError, ValueError):
    """Malformed or invalid edge-list input.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class SingularSystemError(DpGraphError, ArithmeticError):
    """A linear system or closed-form inverse hit a zero/singular pivot."""


class NumericalFailure(DpGraphError, ArithmeticError):
    """NaN or similar bug-level breakdown inside a numeric routine.

    Distinct from a statistically expected non-existent estimate, which is
    reported on the fit result rather than raised.
    """


class NonexistentFitError(DpGraphError, ValueError):
    """A fit with ``exists=False`` was used where an estimate is required."""
