"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2,
NumericalError -> 3, anything else -> 3.
"""


class LogicOodError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LogicOodError):
    """Bad input data: malformed files, schema violations, missing columns."""


class ParseError(ValidationError):
    """Syntax or lexical error in the constraint DSL.

    Carries the 0-based character offset into the source line.
    """

    def __init__(self, message, offset, source=None):
        self.message = message
        self.offset = offset
        self.source = source
        super().__init__(f"{message} (offset {offset})")


class CompileError(ValidationError):
    """A parsed constraint does not resolve against the schema."""


class SpaceCapError(ValidationError):
    """The semantic space is too large for exact enumeration."""


class NumericalError(LogicOodError):
    """Non-finite values or optimizer failure during fitting."""
