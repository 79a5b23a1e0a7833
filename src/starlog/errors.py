"""Exception hierarchy for the starlog package.

The CLI maps these onto exit codes (see cli.EXIT_CODES): parse errors, domain
errors, failed existence conditions, lift/continuation failures and residual
rejections are kept distinguishable on purpose.
"""

from __future__ import annotations


class StarlogError(Exception):
    """Base class for all package errors."""


class RealInput(StarlogError):
    """A real quaternion was passed where a splitting x + Iy (y > 0) is required."""


class DomainError(StarlogError):
    """Problems with a domain description or a point outside it."""


class OutsideDomain(DomainError):
    """Evaluation requested outside the gridded region (no extrapolation)."""


class NotBasic(DomainError):
    """The leaf region is not connected and simply connected on its grid."""


class UnitFnOnRealAxis(DomainError):
    """The unit function I was evaluated at a real point, where it is undefined."""


class ExprError(StarlogError):
    """Malformed expression tree."""


class SlicePreservingRequired(ExprError):
    """A scalar branch function was applied to a non-slice-preserving child."""


class ExprSyntaxError(StarlogError):
    """Text could not be parsed into an expression tree."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class BranchDomainViolation(StarlogError):
    """A branch function received a value outside its slit domain."""


class NoConvergence(StarlogError):
    """An iteration (series, winding refinement) did not converge, or the
    zero finder could not read a cluster of zeros off its moment circles
    down to its finest lattice, or count the zeros in any search box."""


class BoundaryZero(StarlogError):
    """A zero sits within tolerance of the search-region boundary."""


class FactorResidual(StarlogError):
    """Dividing out a claimed factor left a residual above tolerance."""


class ClassificationError(StarlogError):
    """Inconsistent vectorial classification (e.g. null symmetrization on a slice domain)."""


class ConditionFailed(StarlogError):
    """A sufficient condition for a star-logarithm does not hold on the grid.

    ``condition`` names the failed test: "cond1", "realimage", "counterex",
    "parity", "periods", "representative".
    """

    def __init__(self, condition: str, message: str = ""):
        super().__init__(f"condition {condition} failed" + (f": {message}" if message else ""))
        self.condition = condition


class Vanishing(StarlogError):
    """The function vanishes on the grid; no logarithm exists."""


class LiftError(StarlogError):
    """Base class for continuation failures."""


class LiftStep(LiftError):
    """Adaptive subdivision hit its depth limit while continuing a lift."""


class BranchPointHit(LiftError):
    """The lifted value ran into a branch point (t = -1, or t = +1 away from the base zero)."""


class NoGlobalLogWitness(StarlogError):
    """No case construction applies; carries the failed condition."""

    def __init__(self, condition: str, message: str = ""):
        super().__init__(
            f"no star-logarithm construction applies (condition {condition})"
            + (f": {message}" if message else "")
        )
        self.condition = condition


class ResidualRejected(StarlogError):
    """A constructed result failed its own residual verification."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"verification residual {residual:.3e} exceeds {tol:.3e}")
        self.residual = residual
        self.tol = tol
