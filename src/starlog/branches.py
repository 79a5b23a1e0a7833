"""Branches of scalar inverse functions: logarithms, mu, nu and arc cosines.

mu and nu are the entire functions with mu(z^2) = cos z and nu(z^2) = sin z / z,
evaluated in closed form as cos(r) and sin(r) / r at the principal root
r = sqrt z.  Branch indices follow the half-strip decomposition of the cosine:
branch k inverts cos on the strip with real part between k*pi and (k+1)*pi,
where it is the principal arc cosine moved by a reflection and a shift, so the
k-th inverse of mu is single valued on the plane slit along (-inf,-1] (and also
along [1,inf) for k outside {0,-1}).

The kernels on complex arrays are built from real ufuncs, several times faster
than numpy's complex log, sqrt, cos and sin: :func:`principal_log` is log|z| +
i atan2(y, x), and :func:`cos_sin` gives cos p, sin p, cosh q and sinh q of
r = p + iq, from which mu, nu and the angle check of the angle route form
cos r and sin r.  Each writes into arrays it allocates once.

The module also hosts the registry of scalar functions that expression nodes
may apply to slice-preserving children.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BranchDomainViolation, NoConvergence, RealInput
from .quaternion import Quaternion, split

# the least t that _root takes: t**2 (about 3e-301) is a normal float, and
# where |z| is below it, mu and nu are 1 to within |z| either way
_ROOT_FLOOR = 2.0**-500


def principal_log(z):
    """Principal logarithm log|z| + i atan2(y, x) of z = x + iy, from real ufuncs.

    The signed zeros of C99 hold on the cut: Log(-1 -+ 0i) = -+ i pi.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    np.abs(z, out=out.real)
    np.log(out.real, out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out if out.shape else complex(out)


def _root(z):
    """The principal square root p + iq of complex z = x + iy, in a new array.

    t = sqrt(|x|/2 + |z|/2) is p where x >= 0 and |q| where x < 0, and the
    other part is y / 2t.  |x| and |z| are halved before they are added,
    as their sum overflows from |z| near the largest float.  t is raised to
    ``_ROOT_FLOOR``, so that y / 2t is finite at z = 0, where the root is
    that floor.
    """
    x, y = z.real, z.imag
    r = np.empty_like(z)
    t, s = r.real, r.imag
    np.abs(z, out=t)
    t *= 0.5
    np.abs(x, out=s)
    s *= 0.5
    t += s
    np.sqrt(t, out=t)
    np.maximum(t, _ROOT_FLOOR, out=t)
    np.divide(y, t, out=s)
    s *= 0.5
    neg = x < 0.0
    q = np.copysign(t, s)  # the sign of y, signed zeros included
    np.abs(s, out=t, where=neg)
    np.copyto(s, q, where=neg)
    return r


def cos_sin(r, out=None):
    """cos p + i sin p and cosh q + i sinh q of r = p + iq, from real ufuncs.

    cos r = cos p cosh q - i sin p sinh q and sin r = sin p cosh q + i cos p
    sinh q.  The hyperbolic pair goes into ``out``, a new array by default;
    r itself may be passed, as each part of r is read before it is written.
    """
    r = np.asarray(r, dtype=complex)
    trig = np.empty_like(r)
    np.cos(r.real, out=trig.real)
    np.sin(r.real, out=trig.imag)
    hyp = np.empty_like(r) if out is None else out
    np.cosh(r.imag, out=hyp.real)
    np.sinh(r.imag, out=hyp.imag)
    return trig, hyp


def mu(z):
    """Entire function with mu(z^2) = cos z: cos r at the principal root r of z.

    cos is even, so either square root of z gives the same value.
    """
    r = _root(np.asarray(z, dtype=complex))
    trig, out = cos_sin(r, out=r)
    out.real *= trig.real
    out.imag *= trig.imag
    np.negative(out.imag, out=out.imag)
    return out if out.shape else complex(out)


def nu(z):
    """Entire function with nu(z^2) = sin z / z: sin r / r at the principal root r.

    sin(r)/r is even in r, so either square root works.  nu(0) = 1 exactly:
    at z = 0 the root is the floor t of :func:`_root`, and sin t = t.
    """
    r = _root(np.asarray(z, dtype=complex))
    trig, out = cos_sin(r)
    out.real *= trig.imag
    out.imag *= trig.real
    np.divide(out, r, out=out)
    return out if out.shape else complex(out)


def mu_prime(z):
    """d mu / dz = -nu(z) / 2."""
    return -0.5 * np.asarray(nu(z), dtype=complex)


def _strip_rep(alpha, k: int):
    """Map the principal arccos value alpha (real part in [0, pi]) to strip k."""
    if k % 2 == 0:
        return alpha + k * math.pi
    return -alpha + (k + 1) * math.pi


def _check_slit(w, k: int, both: bool, what: str):
    w = np.asarray(w, dtype=complex)
    on_left = (w.imag == 0) & (w.real <= -1.0)
    bad = on_left
    if both:
        bad = bad | ((w.imag == 0) & (w.real >= 1.0))
    if bad.any():
        v = w[bad].ravel()[0]
        raise BranchDomainViolation(f"{what} undefined at {v} (branch {k})")


def mu_inv(w, k: int = 0):
    """Branch-k inverse of mu: the square of the strip arc cosine.

    Branches 0 and -1 share their inverse (one strip squared); they admit all
    of the plane except (-inf,-1].  Other branches exclude [1,inf) as well.
    """
    _check_slit(w, k, k not in (0, -1), "mu_inv")
    w = np.asarray(w, dtype=complex)
    kk = k if k >= 0 else -k - 1  # strips k and -k-1 square to the same inverse
    g = _strip_rep(np.arccos(w), kk) ** 2
    resid = np.max(np.abs(mu(g) - w))
    if resid > 1e-9 * (1.0 + np.max(np.abs(w))):
        raise NoConvergence(f"mu_inv residual {resid:.2e} exceeds the tolerance")
    return g if g.shape else complex(g)


def arccos_k(w, k: int = 0):
    """Branch-k arc cosine: the principal arc cosine moved to strip k.

    Defined on the doubly slit plane for every k (the [1,inf) slit separates
    strips k and -k-1 even when their mu_inv coincide).
    """
    _check_slit(w, k, both=True, what="arccos_k")
    zeta = _strip_rep(np.arccos(np.asarray(w, dtype=complex)), k)
    return zeta if zeta.shape else complex(zeta)


def log_branch(w, k: int = 0):
    """Complex leaf form of the branch-k logarithm.

    Mirrors log_k under the identification a+Jb <-> a+ib: the upper
    representative gets imaginary part theta_hat + k pi (even k) or
    -theta_hat + (k+1) pi (odd k), and the sign of b carries over.  Branch 0
    is the principal logarithm and extends to (0,inf); other branches are
    undefined at real values because the splitting is.
    """
    w = np.asarray(w, dtype=complex)
    real_vals = w.imag == 0
    if k == 0:
        if ((real_vals & (w.real <= 0))).any():
            raise BranchDomainViolation("log undefined on (-inf,0] for branch 0")
    elif real_vals.any():
        raise BranchDomainViolation(f"log branch {k} undefined at real values")
    out = np.asarray(principal_log(w))
    if k:  # theta_hat = |Arg w| in (0, pi) moves by the shift, and sign(Im w) carries over
        shift = k * math.pi if k % 2 == 0 else -(k + 1) * math.pi
        out.imag += np.sign(w.imag) * shift
    return out if out.shape else complex(out)


def log_k(q: Quaternion, k: int = 0) -> Quaternion:
    """Branch-k quaternionic logarithm of a point.

    Splits q = x + I y (y > 0), writes q = |q| e^{I theta} with theta in (0,pi)
    and returns log|q| + I(theta + k pi) for even k, log|q| + I(theta - (k+1)pi)
    for odd k; both angles differ from theta by full turns, so exp inverts every
    branch.  Branch 0 extends to positive reals; branches k and -k-1 agree as
    point maps because the splitting normalizes the unit.
    """
    try:
        x, y, unit = split(q)
    except RealInput:
        if k == 0 and q.w > 0:
            return Quaternion(math.log(q.w), 0.0, 0.0, 0.0)
        raise BranchDomainViolation(
            f"log_{k} undefined at the real point {q.w}"
        ) from None
    theta = math.atan2(y, x)
    shifted = theta + k * math.pi if k % 2 == 0 else theta - (k + 1) * math.pi
    return Quaternion.coerce(math.log(abs(q))) + unit * shifted


def sqrt_principal(w):
    """Principal square root on the plane slit along (-inf,0]."""
    w = np.asarray(w, dtype=complex)
    if ((w.imag == 0) & (w.real <= 0)).any():
        raise BranchDomainViolation("sqrt undefined on (-inf,0]")
    out = np.sqrt(w)
    return out if out.shape else complex(out)


def _recip(w):
    w = np.asarray(w, dtype=complex)
    if (w == 0).any() or np.min(np.abs(w)) < 1e-300:
        raise BranchDomainViolation("reciprocal of a vanishing value")
    out = 1.0 / w
    return out if out.shape else complex(out)


# registry used by ScalarApply nodes: name -> one-argument callable on values
SCALAR_FUNCTIONS = {
    "exp": np.exp,
    "log": log_branch,
    "sqrt": sqrt_principal,
    "mu": mu,
    "nu": nu,
    "cos": np.cos,
    "sin": np.sin,
    "recip": _recip,
}
