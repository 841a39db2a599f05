"""Exception taxonomy shared across the package.

A class exists only for a failure some caller branches on. Every bad
argument (a value outside its documented domain, mismatched grids, an
empty mask, a non-positive potential, out-of-range radii or modulus)
raises ValidationError, which is also a ValueError. A VortexLabError is
an expected failure; anything else is a programming error and propagates.
"""


class VortexLabError(Exception):
    """Base class for all package-specific errors."""


class NoConvergence(VortexLabError):
    """Conjugate gradients exhausted its iteration budget, or broke down
    on valid input (the operator lost positive definiteness in roundoff)."""


class OverflowGuard(VortexLabError):
    """An exponent in the nonlinearity exceeded the overflow threshold."""


class Unsolvable(VortexLabError):
    """Necessary solvability condition fails for the requested problem."""


class MaxIterExceeded(VortexLabError):
    """Newton iteration did not reach the residual tolerance in the budget."""


class NoRoot(VortexLabError):
    """Pointwise limit equation has no root at some sample."""


class BradlowViolation(Unsolvable):
    """Volume constraint for the classical vortex equation fails."""


class OverlappingBump(VortexLabError):
    """Mass window around one divisor point reaches another point, or is
    too narrow for the grid to resolve (inner radius below two cells)."""


class UnderResolved(VortexLabError):
    """A solution's spectral tail exceeds the resolution tolerance on the
    finest grid the run allows."""


class DegenerateFit(VortexLabError):
    """Least-squares order fit attempted on degenerate data."""


class ParseError(VortexLabError):
    """Config text could not be parsed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message)


class ValidationError(VortexLabError, ValueError):
    """A value outside its documented domain: a config key, a constructor
    argument or a function argument."""
