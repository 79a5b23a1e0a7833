"""Star-algebra operations: product, regular conjugate, splits, symmetrization.

All operations build expression nodes; nothing here evaluates.  The
symmetrization is the sum of squared split coefficients, which equals
f * f^c.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Component, RegConj, SliceExpr, StarMul, Symm, VectPart, as_expr


def star_mul(f, g) -> StarMul:
    """Star product; reduces to the pointwise product when f is slice preserving."""
    return StarMul(as_expr(f), as_expr(g))


def reg_conj(f) -> RegConj:
    """Regular conjugate f^c = f0 - fv (both stem components conjugated)."""
    return RegConj(as_expr(f))


def scalar_part(f) -> Component:
    return Component(as_expr(f), 0)


def vect_part(f) -> VectPart:
    return VectPart(as_expr(f))


@dataclass(frozen=True)
class SplitForm:
    """Slice-preserving coefficients of f = f0 + f1 i + f2 j + f3 k."""

    f0: SliceExpr
    f1: SliceExpr
    f2: SliceExpr
    f3: SliceExpr
    fv: SliceExpr

    @property
    def components(self) -> tuple[SliceExpr, SliceExpr, SliceExpr, SliceExpr]:
        return (self.f0, self.f1, self.f2, self.f3)


def split_form(f) -> SplitForm:
    f = as_expr(f)
    return SplitForm(
        f0=Component(f, 0),
        f1=Component(f, 1),
        f2=Component(f, 2),
        f3=Component(f, 3),
        fv=VectPart(f),
    )


def symmetrization(f) -> Symm:
    """f^s as the sum of squares of the split coefficients."""
    return Symm(as_expr(f))
