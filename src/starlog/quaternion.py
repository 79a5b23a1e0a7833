"""Quaternions, imaginary units and the splitting q = x + Iy.

Scalar arithmetic lives on the frozen :class:`Quaternion`; the evaluator works
on stacked ``(..., 4)`` arrays through the ``q*``-prefixed helpers, with
components ordered (1, i, j, k).  ``qmul``, ``qconj`` and ``qsym`` also serve
the complex stem arrays A + iB; ``qmul`` returns them column-major, one
contiguous block per component, and ``qconj`` keeps its input's layout.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import RealInput

REAL_EPS = 1e-13


@dataclass(frozen=True)
class Quaternion:
    """An element w + xi + yj + zk of the quaternion algebra."""

    w: float
    x: float
    y: float
    z: float

    @staticmethod
    def coerce(value: "Quaternion | float | int") -> "Quaternion":
        if isinstance(value, Quaternion):
            return value
        return Quaternion(float(value), 0.0, 0.0, 0.0)

    def __add__(self, other):
        o = Quaternion.coerce(other)
        return Quaternion(self.w + o.w, self.x + o.x, self.y + o.y, self.z + o.z)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Quaternion.coerce(other))

    def __rsub__(self, other):
        return Quaternion.coerce(other) + (-self)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        o = Quaternion.coerce(other)
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = o.w, o.x, o.y, o.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __rmul__(self, other):
        return Quaternion.coerce(other) * self

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        return self * Quaternion.coerce(other).inverse()

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.hypot(self.w, self.x, self.y, self.z)  # squares nothing, so no early overflow

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def vec(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def vec_norm(self) -> float:
        return math.hypot(self.x, self.y, self.z)

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a: np.ndarray) -> "Quaternion":
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def __repr__(self) -> str:
        return f"Quaternion({format_quaternion(self)})"


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I_UNIT = Quaternion(0.0, 1.0, 0.0, 0.0)
J_UNIT = Quaternion(0.0, 0.0, 1.0, 0.0)
K_UNIT = Quaternion(0.0, 0.0, 0.0, 1.0)


def is_imaginary_unit(q: Quaternion, tol: float = 1e-9) -> bool:
    """True when q lies on the sphere of imaginary units (q^2 = -1)."""
    return abs(q.w) <= tol and abs(q.vec_norm() - 1.0) <= tol


def split(q: Quaternion, tol: float = REAL_EPS) -> tuple[float, float, Quaternion]:
    """Write q = x + Iy with y > 0 and I an imaginary unit.

    Real quaternions have no distinguished unit and raise :class:`RealInput`.
    """
    y = q.vec_norm()
    if y <= tol * (1.0 + abs(q)):
        raise RealInput(f"{format_quaternion(q)} is real; the splitting is not unique")
    return q.w, y, Quaternion(0.0, q.x / y, q.y / y, q.z / y)


def exp_q(q: Quaternion) -> Quaternion:
    """Classical pointwise exponential exp(x)(cos y + I sin y)."""
    s = math.exp(q.w)
    t = q.vec_norm()
    if t < 1e-8:
        # sin(t)/t to second order; exact at t = 0
        sinc = 1.0 - t * t / 6.0
        return Quaternion(s * math.cos(t), s * sinc * q.x, s * sinc * q.y, s * sinc * q.z)
    f = s * math.sin(t) / t
    return Quaternion(s * math.cos(t), f * q.x, f * q.y, f * q.z)


# slice units sampled where values are wanted per slice (the CLI's --grid-out)
VERIFY_UNITS = (
    I_UNIT,
    Quaternion(0.0, 1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0),
    Quaternion(0.0, 0.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)),
)


# ---------------------------------------------------------------------------
# stacked (..., 4) array arithmetic for the stem evaluator

def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of stacked quaternion arrays (broadcasts).

    The result is column-major: each component ``out[..., l]`` is one
    contiguous block, so products of its columns read memory in order.
    """
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b), order="F")
    np.subtract(aw * bw - ax * bx - ay * by, az * bz, out=out[..., 0])
    np.subtract(aw * bx + ax * bw + ay * bz, az * by, out=out[..., 1])
    np.add(aw * by - ax * bz + ay * bw, az * bx, out=out[..., 2])
    np.add(aw * bz + ax * by - ay * bx, az * bw, out=out[..., 3])
    return out


def qconj(a: np.ndarray) -> np.ndarray:
    out = a.copy(order="K")
    out[..., 1:] = -out[..., 1:]
    return out


def qsym(a: np.ndarray) -> np.ndarray:
    """Symmetrization w^2 + x^2 + y^2 + z^2 of stacked quaternion arrays.

    Grouped as (w^2 + x^2) + (y^2 + z^2), the grouping that
    ``np.sum(a * a, axis=-1)`` uses on a C-ordered row of four complex
    values, so the result is the same for every memory layout.
    """
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    return (aw * aw + ax * ax) + (ay * ay + az * az)


# ---------------------------------------------------------------------------
# text form a+bi+cj+dk

_TERM = re.compile(
    r"^([+-]?)((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?([ijk])?$"
)
_SPLIT = re.compile(r"(?<![eE])(?=[+-])")

_AXES = {"": 0, "i": 1, "j": 2, "k": 3}


def parse_quaternion(text: str) -> Quaternion:
    """Parse 'a+bi+cj+dk' with any subset of terms, e.g. '1-2j' or 'k'."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty quaternion literal")
    comps = [0.0, 0.0, 0.0, 0.0]
    for part in _SPLIT.split(s):
        if not part:
            continue
        m = _TERM.match(part)
        if not m or (m.group(2) is None and not m.group(3)):
            raise ValueError(f"bad quaternion term {part!r} in {text!r}")
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)) if m.group(2) is not None else 1.0
        comps[_AXES[m.group(3) or ""]] += sign * coeff
    if not all(math.isfinite(c) for c in comps):
        raise ValueError(f"quaternion literal {text!r} is not finite")
    return Quaternion(*comps)


def format_quaternion(q: Quaternion, ndigits: int | None = None) -> str:
    """Render in the same a+bi+cj+dk form that parse_quaternion accepts."""
    parts = []
    for value, axis in zip((q.w, q.x, q.y, q.z), ("", "i", "j", "k")):
        if value == 0.0:
            continue
        mag = abs(value)
        coeff = repr(round(mag, ndigits)) if ndigits is not None else repr(mag)
        if axis and mag == 1.0:
            coeff = ""
        term = f"{coeff}{axis}" if axis else coeff
        parts.append(("-" if value < 0 else "+" if parts else "") + term)
    return "".join(parts) if parts else "0"
