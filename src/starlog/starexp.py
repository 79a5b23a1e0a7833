"""Star-exponential in closed structure form, plus series fallbacks.

The closed form splits the exponent f = f0 + fv into its scalar part and
vector part and uses exp_*(f) = exp(f0) (mu(fv^s) + nu(fv^s) fv), which hides
no branch choices: mu and nu are entire.  The series route exists to verify
the closed form and to give cos/sin meaning for non-slice-preserving
arguments.  It shares only fv^s with the closed form: it sums the star powers
of f, each a + b fv because fv * fv = -fv^s, term by term and calls neither mu
nor nu.
"""

from __future__ import annotations

from .expr import (
    MAX_SERIES_TERMS,
    Add,
    Component,
    ScalarApply,
    SliceExpr,
    StarMul,
    StarSeries,
    Symm,
    VectPart,
    as_expr,
    const,
    evaluate,
)
from .quaternion import Quaternion


def exp_star(f) -> SliceExpr:
    """Closed-form star exponential exp(f0) (mu(fv^s) + nu(fv^s) fv); for a
    slice-preserving f, whose fv is exactly zero, the slicewise exp."""
    f = as_expr(f)
    if f.slice_preserving:
        return ScalarApply("exp", f)
    f0 = Component(f, 0)
    fv = VectPart(f)
    fvs = Symm(fv)
    structure = Add(ScalarApply("mu", fvs), StarMul(ScalarApply("nu", fvs), fv))
    return StarMul(ScalarApply("exp", f0), structure)


def exp_star_series(f, q, max_terms: int = MAX_SERIES_TERMS) -> Quaternion:
    """Star-power series of the exponential evaluated at one point."""
    return evaluate(StarSeries("exp", as_expr(f), max_terms), q)


def cos_star(f) -> SliceExpr:
    """Star cosine; slicewise cos for slice-preserving f, series otherwise."""
    f = as_expr(f)
    if f.slice_preserving:
        return ScalarApply("cos", f)
    return StarSeries("cos", f)


def sin_star(f) -> SliceExpr:
    """Star sine; slicewise sin for slice-preserving f, series otherwise."""
    f = as_expr(f)
    if f.slice_preserving:
        return ScalarApply("sin", f)
    return StarSeries("sin", f)


def real_power(g, s: float, log_of_g) -> SliceExpr:
    """g to the real power s through a chosen star-logarithm of g."""
    del g  # the power is determined by the supplied logarithm branch
    return exp_star(StarMul(const(float(s)), as_expr(log_of_g)))
