"""Monotone alpha-stable laws and the mean-one free Poisson law.

The stable law with index alpha and parameter s (admissible in the same
sense as the deformation family) is specified through

    F(z) = z * (1 - s*(-1/z)**alpha)**(1/alpha)

where the inner power is the upper-cut branch and the outer one is the
principal branch applied to a point near 1.  This rewriting of
(z**alpha + (-1)**(alpha-1) s)**(1/alpha) fixes the branch unambiguously on
the upper half-plane; a naive (zw)**a = z**a * w**a split does not hold for
complex powers.
"""

from dataclasses import dataclass, field

import numpy as np

from .branches import _log_parts, _scalar, _unmasked
from .errors import DomainError
from .family import ANGLE_TOL, _admissible_s, _stage1, _upper


@dataclass(frozen=True)
class StableParams:
    alpha: float
    s: complex
    theta: float = field(init=False)   # arg s in [0, pi]
    R: float = field(init=False)       # |s|

    def __post_init__(self):
        s, theta = _admissible_s(self.alpha, self.s)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "R", abs(complex(self.s)))


def _stable_core(alpha, s, z):
    """(F values, ok mask); vectorized, never raises."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        w, ok = _stage1(alpha, s, z)
        lr, th, ok = _log_parts(w, ok, False, False)
        np.multiply(lr, 1.0 / alpha, out=w.real)  # lw / alpha, as numpy
        np.multiply(th, 1.0 / alpha, out=w.imag)
        f = np.multiply(z, np.exp(w, out=w), out=w)
    ok &= np.isfinite(f)
    f[~ok] = complex(np.nan, np.nan)
    return f, ok


def stable_F(params, z):
    """Reciprocal Cauchy transform of the stable law; z in C_+."""
    return _scalar(_unmasked(*_stable_core(params.alpha, params.s,
                                           _upper(z))))


def stable_G(params, z):
    """Cauchy transform 1/stable_F."""
    out = 1.0 / np.asarray(stable_F(params, z), dtype=complex)
    return _scalar(out)


def stable_density(params, x):
    """Density of the stable law at real x != 0.

    With s = R*e^(i*theta), the boundary value of the transform gives

        p(x) = sin(arg(zeta)/alpha) / (pi * |zeta|**(1/alpha)),

    zeta = |x|**alpha + R*e^(i*(alpha*pi - pi + theta)) for x > 0 and
    zeta = |x|**alpha + R*e^(i*(pi - theta)) for x < 0.  Admissibility keeps
    arg(zeta) in [0, pi] and the resulting sine nonnegative.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise DomainError("density formula is not defined at x = 0")
    alpha, R, theta = params.alpha, params.R, params.theta
    phase_pos = alpha * np.pi - np.pi + theta
    phase_neg = np.pi - theta
    zeta = np.abs(x) ** alpha + R * np.exp(
        1j * np.where(x > 0, phase_pos, phase_neg))
    arg = np.angle(zeta)
    arg = np.where(arg < 0.0, 0.0, arg)  # roundoff guard; true range is [0, pi]
    out = np.sin(arg / alpha) / (np.pi * np.abs(zeta) ** (1.0 / alpha))
    return _scalar(out)


def is_positive_supported(params):
    """Supported on [0, inf) iff alpha <= 1 and arg s = pi."""
    return params.alpha <= 1.0 + ANGLE_TOL and abs(
        params.theta - np.pi) <= ANGLE_TOL


def is_symmetric(params):
    """Symmetric iff arg s = (1 - alpha/2)*pi."""
    return abs(params.theta - (1.0 - params.alpha / 2.0) * np.pi) <= ANGLE_TOL


def stable_fid_predicate(params):
    """Freely infinitely divisible iff alpha = 1, or 1/2 <= alpha < 1 with
    arg s at an endpoint {(1-alpha)*pi, pi} of the admissible sector."""
    alpha, theta = params.alpha, params.theta
    if abs(alpha - 1.0) <= ANGLE_TOL:
        return True
    if 0.5 - ANGLE_TOL <= alpha < 1.0:
        return (abs(theta - (1.0 - alpha) * np.pi) <= ANGLE_TOL
                or abs(theta - np.pi) <= ANGLE_TOL)
    return False


def mp_cauchy(z):
    """Cauchy transform of the mean-one free Poisson law.

    G(z) = (1 - sqrt(1 - 4/z))/2 with the principal root; for z in C_+ the
    argument 1 - 4/z stays in C_+ so the root is cut-free.  It is taken as
    2 / (z (1 + sqrt(1 - 4/z))), which does not cancel at large |z|: the
    principal root has real part >= 0, so 1 + sqrt never vanishes.
    """
    z = _upper(z)
    lr, th, _ = _log_parts(1.0 - 4.0 / z, True, False, False)
    root = np.exp(0.5 * (lr + 1j * th))
    return _scalar(2.0 / (z * (1.0 + root)))


def mp_density(x):
    """Density sqrt((4-x)*x)/(2*pi*x) on (0, 4), zero elsewhere."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 4.0)
    safe = np.where(inside, x, 1.0)
    out = np.where(inside, np.sqrt((4.0 - safe) * safe) / (2.0 * np.pi * safe),
                   0.0)
    return _scalar(out)
