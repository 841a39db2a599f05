"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse (wrong grid, bad argument combinations) raises the
base class directly.
"""


class VortexLabError(Exception):
    """Base class for all package-specific errors."""


class GridMismatch(VortexLabError):
    """Fields or masks defined on different geometries or grids."""


class NonPositivePotential(VortexLabError):
    """Linearized solve called with a potential that is not strictly positive."""


class NoConvergence(VortexLabError):
    """Conjugate gradients exhausted its iteration budget."""


class EmptyMask(VortexLabError):
    """Norm or supremum requested over a mask of zero area."""


class BadRadii(VortexLabError):
    """Cutoff radii violate 0 < r_inner < r_outer < injectivity radius."""


class BadTau(VortexLabError):
    """Theta function evaluated at a modulus outside the upper half plane,
    so close to its real axis that the sine series cancels, or so far from
    it that the nome underflows."""


class OverflowGuard(VortexLabError):
    """An exponent in the nonlinearity exceeded the overflow threshold."""


class Unsolvable(VortexLabError):
    """Necessary solvability condition fails for the requested problem."""


class MaxIterExceeded(VortexLabError):
    """Newton iteration did not reach the residual tolerance in the budget."""


class NoRoot(VortexLabError):
    """Pointwise limit equation has no root at some sample."""


class NonPositiveInput(VortexLabError):
    """Scalar inequality helpers require strictly positive arguments."""


class BradlowViolation(Unsolvable):
    """Volume constraint for the classical vortex equation fails."""


class OverlappingBump(VortexLabError):
    """Mass window around one divisor point reaches another point, or is
    too narrow for the grid to resolve (inner radius below two cells)."""


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


class ValidationError(VortexLabError):
    """Config parsed but violates the schema or a model constraint."""
