"""Exception hierarchy shared by all layers."""


class SingError(Exception):
    """Base class for all package errors."""


class RingContextError(SingError):
    """Operands belong to different rings or have inconsistent shapes."""


class ParseError(SingError):
    """Malformed input file or expression."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(SingError):
    """A documented precondition was violated by the caller."""


class InternalLimitError(SingError):
    """A hard internal cap was exceeded (saturation or reseed retries)."""


class InvariantError(SingError):
    """An internal invariant failed: a bug, never a property of the input."""
