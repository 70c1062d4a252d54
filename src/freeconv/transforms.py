"""Multiplicative transform calculus: psi, chi, S, R.

S-transform evaluation is numeric inversion of psi along the curve where
chi actually lives: the negative reals for measures on [0, inf), the
positive imaginary axis for symmetric measures.  Closed forms for the
stable laws and the r = 2 family members are provided alongside, arranged
so that the branch matches the numeric convention.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import BracketingError, DomainError, HypothesisError
from .branches import _scalar
from .family import FamilyParams, _worst, cauchy_G, voiculescu_phi
from .stable_poisson import (StableParams, is_positive_supported,
                             is_symmetric, stable_G)


def psi_from_G(G, z):
    """psi(z) = (1/z) G(1/z) - 1, the moment generating series.

    For real z the value is taken as a boundary limit from above: two
    samples at a small imaginary offset and one Richardson step (the error
    expansion in the offset has only even powers, so this is O(delta**4)).
    """
    z = complex(z)
    if z == 0:
        raise DomainError("psi is not defined at 0")
    u = 1.0 / z
    if z.imag == 0.0:
        d = 1e-7 * (1.0 + abs(u))
        v1 = ((1.0 / z) * complex(G(u + 1j * d)) - 1.0).real
        v2 = ((1.0 / z) * complex(G(u + 0.5j * d)) - 1.0).real
        return (4.0 * v2 - v1) / 3.0
    if u.imag > 0:
        return (1.0 / z) * complex(G(u)) - 1.0
    # lower half-plane via the reflection G(conj w) = conj(G(w))
    return (1.0 / z) * complex(np.conj(complex(G(np.conj(u))))) - 1.0


def psi_symmetric_from_G(G, t):
    """psi(i*t) for t > 0 and a symmetric measure: real, decreasing from 0
    toward mu({0}) - 1 as t grows."""
    if not t > 0.0:
        raise DomainError("t must be positive")
    val = (-1j / t) * np.conj(complex(G(1j / t))) - 1.0
    return float(val.real)


def chi_numeric(psi, w, t_floor=-1e-12):
    """Inverse of psi on (-inf, 0) for a measure on [0, inf).

    psi is increasing there, from -1 + mu({0}) up to 0; the bracket is
    grown by doubling and handed to brentq.
    """
    if not -1.0 < w < 0.0:
        raise DomainError("w must lie in (-1, 0)")
    lo = -1.0
    for _ in range(80):
        if psi(lo) < w:
            break
        lo *= 2.0
    else:
        raise BracketingError("psi never drops below w on the negative "
                              "axis; w outside the range of psi?")
    try:
        return brentq(lambda t: psi(t) - w, lo, t_floor, xtol=1e-14)
    except ValueError as exc:  # psi(t_floor) is still below w
        raise BracketingError(f"no sign change of psi - w up to t = "
                              f"{t_floor:g}; w too close to 0?") from exc


def _chi_symmetric_t(G, w):
    """Solve psi(i*t) = w over t > 0 for a symmetric measure (psi is
    decreasing in t); returns t, so chi(w) = i*t."""
    if not -1.0 < w < 0.0:
        raise DomainError("w must lie in (-1, 0)")
    # psi(i*t) ~ -m2 t**2 near 0, so a modest t already sits above w; going
    # much smaller puts G at astronomically large arguments where the
    # kernel cancels catastrophically
    lo = 1e-6
    while psi_symmetric_from_G(G, lo) < w:
        lo *= 0.1
        if lo < 1e-13:
            raise BracketingError("psi(i*t) stays below w arbitrarily "
                                  "close to 0; w outside the range?")
    hi = 1.0
    for _ in range(80):
        if psi_symmetric_from_G(G, hi) < w:
            break
        hi *= 2.0
    else:
        raise BracketingError("psi(i*t) never drops below w; w outside "
                              "the range?")
    return brentq(lambda t: psi_symmetric_from_G(G, t) - w, lo, hi,
                  xtol=1e-14)


def s_transform_numeric(G, z, kind="positive"):
    """S(z) = ((1+z)/z) chi(z) for real z in (-1, 0).

    kind="positive": measure on [0, inf), chi found on the negative reals,
    S is real.  kind="symmetric": chi = i*t with t > 0, S lands on the
    negative imaginary axis.
    """
    z = float(z)
    if not -1.0 < z < 0.0:
        raise DomainError("z must lie in (-1, 0)")
    if kind == "positive":
        chi = chi_numeric(lambda t: psi_from_G(G, t), z)
        return complex((1.0 + z) / z * chi)
    if kind == "symmetric":
        t = _chi_symmetric_t(G, z)
        return (1.0 + z) / z * 1j * t
    raise DomainError("kind must be 'positive' or 'symmetric'")


def _closed_form_kind(alpha, s):
    """Which closed-form branch applies: 'positive' when arg s = pi with
    alpha <= 1, 'symmetric' when arg s = (1 - alpha/2) pi.  Anything else
    raises HypothesisError."""
    params = StableParams(alpha, s)
    if is_positive_supported(params):
        return "positive"
    if is_symmetric(params):
        return "symmetric"
    raise HypothesisError(
        "closed S-transform needs arg s = pi (with alpha <= 1) or "
        "arg s = (1 - alpha/2) pi")


def s_stable_closed(alpha, s, z):
    """Closed S-transform of the one-parameter stable law on (-1, 0).

    With rad = (1 - (1+z)**alpha)/|s| (real, in (0, 1/|s|)):
    positive case   S = -(1/z) rad**(1/alpha)       (positive real values),
    symmetric case  S = (i/z) rad**(1/alpha)        (on -i*(0, inf)).
    The phases are fixed by where the numeric chi lives, so the two
    evaluation routes agree without any reconciliation factor.
    """
    z = float(z)
    if not -1.0 < z < 0.0:
        raise DomainError("z must lie in (-1, 0)")
    kind = _closed_form_kind(alpha, s)
    rad = (1.0 - (1.0 + z) ** alpha) / abs(complex(s))
    root = rad ** (1.0 / alpha)
    if kind == "positive":
        return complex(-root / z)
    return 1j * root / z


def s_mu2_closed(alpha, s, z):
    """Closed S-transform of the r = 2 family member: the free Poisson
    factor 1/(1+z) times the stable S-transform at scale s/4."""
    return s_stable_closed(alpha, s / 4.0, z) / (1.0 + z)


def r_transform(params, z):
    """R(z) = z * phi(1/z); defined where 1/z lies in the upper half-plane."""
    z = complex(z)
    if z == 0 or (1.0 / z).imag <= 0:
        raise DomainError("1/z must lie in the open upper half-plane")
    return z * complex(voiculescu_phi(params, 1.0 / z))


def mp_s_transform(z):
    """S-transform 1/(1+z) of the free Poisson law of rate 1."""
    z = np.asarray(z, dtype=complex)
    out = 1.0 / (1.0 + z)
    return _scalar(out)


def mp_r_transform(z):
    """R-transform z/(1-z) of the free Poisson law of rate 1."""
    z = np.asarray(z, dtype=complex)
    out = z / (1.0 - z)
    return _scalar(out)


@dataclass
class ResidualReport:
    """Outcome of one identity check on a grid."""

    identity: str
    params: dict
    grid_spec: dict
    max_residual: float
    argmax_point: complex | None
    tolerance: float
    passed: bool

    def to_dict(self):
        pt = self.argmax_point
        return {
            "identity": self.identity,
            "params": self.params,
            "grid_spec": self.grid_spec,
            "max_residual": float(self.max_residual),
            "argmax_point": None if pt is None else {"re": pt.real,
                                                     "im": pt.imag},
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
        }


def verify_compound_poisson(alpha, s, grid, return_argmax=False):
    """Max of |phi_{s,2}(z) - z**2 G_a(z) + z| over the grid, where a is
    the stable law at scale s/4.  Zero (to roundoff) when the r = 2 member
    really is the free compound Poisson over that stable law."""
    params = FamilyParams(alpha, s, 2.0)
    ap = StableParams(alpha, s / 4.0)
    grid = np.asarray(grid, dtype=complex).ravel()
    phi = np.asarray(voiculescu_phi(params, grid))
    rhs = grid ** 2 * np.asarray(stable_G(ap, grid)) - grid
    return _worst(np.abs(phi - rhs), grid, return_argmax)


def verify_boxtimes(alpha, s, zs, return_argmax=False):
    """Max over real zs in (-1, 0) of |S_mu(z) - S_m(z) S_a(z)| with both
    sides computed by numeric inversion: mu the r = 2 family member, m the
    free Poisson law, a the stable law at scale s/4.

    Needs mu and a supported on [0, inf) or symmetric; other parameters
    raise HypothesisError (no curve on which the numeric chi is defined).
    """
    kind = _closed_form_kind(alpha, s)
    params = FamilyParams(alpha, s, 2.0)
    ap = StableParams(alpha, s / 4.0)

    def G_mu(w):
        return cauchy_G(params, w)

    def G_a(w):
        return stable_G(ap, w)

    zs = np.asarray(zs, dtype=float).ravel()
    res = [abs(s_transform_numeric(G_mu, z, kind) - mp_s_transform(z)
               * s_transform_numeric(G_a, z, kind)) for z in zs.tolist()]
    return _worst(np.asarray(res), zs, return_argmax)
