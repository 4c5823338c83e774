"""Exception types shared across the package.

The CLI maps PrecisionError to exit code 2 and TheoremViolation to exit
code 3; everything else that is a user error exits 1.
"""


class TadicError(Exception):
    """Base class for all package errors."""


class PrecisionError(TadicError):
    """Requested output precision cannot be certified from the inputs."""


class IntegralityError(TadicError):
    """A quantity that must be p-integral failed an exact-division check."""


class TheoremViolation(TadicError):
    """An identity that holds by theorem failed at certified precision.

    This signals an implementation bug (or a genuinely violated claim),
    never bad user input.
    """


class DomainError(TadicError):
    """Input outside the supported domain (dimension, degeneracy, ...)."""


class ParseError(TadicError):
    """Syntax error in polynomial or config text, with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset
