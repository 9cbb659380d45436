"""Shared error types.

Argument abuse raises plain ``ValueError``; the classes below mark failure
modes callers may want to catch and handle individually (the CLI maps them
to exit codes).  An input a computation needs, such as the bound-state gap
of the inelastic analyses, is a required parameter, not a checked default.
"""


class ShapeError(ValueError):
    """Incompatible tensor, operator, or chain dimensions."""


class NumericError(ArithmeticError):
    """Non-finite data, or a matrix factorization that failed to converge."""


class ResourceError(RuntimeError):
    """A computation would exceed the configured size or memory budget."""


class ConvergenceError(RuntimeError):
    """An iterative procedure did not converge; carries its diagnostic trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class BandEdgeError(ValueError):
    """Scattering amplitudes are undefined where the group velocity vanishes."""


class DegenerateError(ValueError):
    """Formula inputs are degenerate and leave the result undefined."""


class ConfigError(ValueError):
    """Invalid, unknown, or inconsistent run-configuration content."""
