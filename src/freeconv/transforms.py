"""Multiplicative transform calculus: psi, chi, S, R.

S-transform evaluation is numeric inversion of psi along the curve where
chi actually lives: the negative reals for measures on [0, inf), the
positive imaginary axis for symmetric measures.  Closed forms for the
stable laws and the r = 2 family members are provided alongside, arranged
so that the branch matches the numeric convention.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (BracketingError, ConvergenceError, DomainError,
                     HypothesisError)
from .branches import _scalar
from .family import FamilyParams, _worst, cauchy_G, voiculescu_phi
from .stable_poisson import (StableParams, is_positive_supported,
                             is_symmetric, stable_G)

_EPS = np.finfo(float).eps


def psi_from_G(G, z):
    """psi(z) = (1/z) G(1/z) - 1, the moment generating series.

    For real z the value is taken as a boundary limit from above: two
    samples at the imaginary offsets delta and delta/2 of 1/z, with
    delta = 1e-7 |1/z| relative so that it stays small against 1/z at
    every scale, and one Richardson step (the error expansion in the
    offset has only even powers, so this is O(delta**4)).
    Off the axis the offset is 0.  Takes arrays, with G acting
    elementwise, and makes one G call; real z give real values.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise DomainError("psi is not defined at 0")
    u = 1.0 / z.ravel()
    real = u.imag == 0.0
    # lower half-plane via the reflection G(conj w) = conj(G(w))
    lower = u.imag < 0.0
    w = np.where(lower, u.conj(), u)
    d = np.where(real, 1e-7 * np.abs(u), 0.0)
    g = np.reshape(G(np.concatenate([w + 1j * d, w + 0.5j * d])), (2, -1))
    v1, v2 = u * np.where(lower, g.conj(), g) - 1.0
    psi = np.where(real, (4.0 * v2.real - v1.real) / 3.0, v1)
    return _scalar((psi.real if real.all() else psi).reshape(z.shape))


def psi_symmetric_from_G(G, t):
    """psi(i*t) for t > 0 and a symmetric measure: real, decreasing from 0
    toward mu({0}) - 1 as t grows.  Takes arrays, with G acting
    elementwise."""
    t = np.asarray(t, dtype=float)
    if not (t > 0.0).all():
        raise DomainError("t must be positive")
    u = 1j / t
    return _scalar((u * G(u)).real - 1.0)


def _psi_minus(psi, tau, w):
    """psi(tau) - w, elementwise; a NaN is a ConvergenceError."""
    f = psi(tau) - w
    nan = np.isnan(f)
    if nan.any():
        raise ConvergenceError(f"psi is NaN at |chi| = {tau[nan][0]:g}")
    return f


def _bracket(psi, w):
    """Brackets [a, b] of the roots of psi(tau) = w over tau > 0, for psi
    decreasing in tau: psi(a) >= w > psi(b), elementwise.

    a is the last rung of the ladder 2**-43 ~ 1e-13, ..., 2**79 where
    psi >= w, and b the next one.  Taking the last keeps the bracket clear
    of small tau, where G sits at huge arguments and psi is only good to
    its own size.  A G call costs about as much on many points as on one,
    so the rungs up to 2**15 go in one call and the rest in rounds of 16
    (each round retries the previous one's top rung), for the entries not
    yet bracketed only.
    """
    a, b, fa, fb = (np.empty(w.size) for _ in range(4))
    todo, lo = np.arange(w.size), -43
    for hi in (16, 32, 48, 64, 80):
        x = 2.0 ** np.arange(lo, hi)
        f = _psi_minus(psi, np.broadcast_to(x, (todo.size, x.size)),
                       w[todo, None])
        above = f >= 0.0
        if not above.any(axis=1).all():
            raise BracketingError("psi stays below w down to |chi| = 1e-13; "
                                  "w too close to 0?")
        hit = ~above[:, -1]
        j = x.size - above[hit, ::-1].argmax(axis=1)  # the rung after
        k = todo[hit]
        a[k], fa[k], b[k], fb[k] = x[j - 1], f[hit, j - 1], x[j], f[hit, j]
        todo, lo = todo[~hit], hi - 1
        if not todo.size:
            return a, b, fa, fb
    raise BracketingError("psi never drops below w; w outside its range?")


def _solve(psi, w, a, b, fa, fb, maxiter=100):
    """Roots of psi(tau) = w in the brackets [a, b], elementwise, by the
    Anderson-Bjorck regula falsi (BIT 13, 1973), its scaling factor kept at
    1/2 or more as in the Illinois method: a smaller one throws the next
    step to the far end, which never settles where psi saturates.

    As in Brent's method, with delta = (1e-14 + 4 eps tau)/2, each step
    lands at least delta inside the bracket and an entry settles when its
    bracket is narrower than 2 delta.  Only unsettled entries are evaluated
    and stepped, so an entry's iterates do not depend on its batch.  No
    convergence within maxiter steps raises ConvergenceError.
    """
    out = np.empty_like(w)
    idx = np.arange(w.size)
    for _ in range(maxiter):
        d = a - b
        q = (5e-15 + 2.0 * _EPS * b) / np.abs(d)  # delta / width; tau > 0
        # the false-position step from b, as a fraction of the way to a
        c = b + np.minimum(np.maximum(fb / (fb - fa), q), 1.0 - q) * d
        fc = _psi_minus(psi, c, w)
        # a sign change keeps b as the far end; otherwise the far end's
        # value is scaled by 1 - fc/fb, but by no less than 1/2
        r = fc / fb
        cross = r < 0.0
        fa = np.where(cross, fb, fa * np.maximum(1.0 - r, 0.5))
        a = np.where(cross, b, a)
        b, fb = c, fc
        done = (np.abs(b - a) < 1e-14 + 4.0 * _EPS * b) | (fb == 0.0)
        if done.any() or not done.size:  # an empty w settles at once
            # after a sign change fa is a true value; the end nearer the
            # root is returned, as in Brent's method
            near_a = cross & (np.abs(fa) < np.abs(fb))
            out[idx[done]] = np.where(near_a, a, b)[done]
            if done.all():
                return out
            keep = ~done
            idx, w, a, b, fa, fb = (x[keep] for x in (idx, w, a, b, fa, fb))
    raise ConvergenceError(f"chi did not converge in {maxiter} steps")


def _chi_abs(psi, w):
    """|chi(w)| for w in (-1, 0), elementwise, with psi a function of |chi|
    that is decreasing on the curve chi lives on."""
    w = np.asarray(w, dtype=float)
    if not ((-1.0 < w) & (w < 0.0)).all():
        raise DomainError("the argument of chi must lie in (-1, 0)")
    flat = w.ravel()
    return _solve(psi, flat, *_bracket(psi, flat)).reshape(w.shape)


def chi_numeric(psi, w):
    """Inverse of psi on (-inf, 0) for a measure on [0, inf).

    psi is increasing there, from -1 + mu({0}) up to 0.  Takes arrays;
    psi must act elementwise.
    """
    return _scalar(-_chi_abs(lambda tau: psi(-tau), w))


def s_transform_numeric(G, z, kind="positive"):
    """S(z) = ((1+z)/z) chi(z) for real z in (-1, 0).

    kind="positive": measure on [0, inf), chi found on the negative reals,
    S is real.  kind="symmetric": chi = i*t with t > 0, S lands on the
    negative imaginary axis.  Takes arrays of z, with G acting
    elementwise; a scalar z gives a complex.
    """
    z = np.asarray(z, dtype=float)
    if kind == "positive":
        chi = chi_numeric(lambda t: psi_from_G(G, t), z)
        return _scalar(np.asarray((1.0 + z) / z * chi, dtype=complex))
    if kind == "symmetric":
        t = _chi_abs(lambda t: psi_symmetric_from_G(G, t), z)
        return _scalar((1.0 + z) / z * 1j * t)
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
    """R(z) = z * voiculescu_phi(1/z), for 1/z in the upper half-plane."""
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
    really is the free compound Poisson over that stable law.  phi is the
    continuation voiculescu_phi, each grid point down its own path."""
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
    zs = np.asarray(zs, dtype=float).ravel()
    s_mu = s_transform_numeric(lambda w: cauchy_G(params, w), zs, kind)
    s_a = s_transform_numeric(lambda w: stable_G(ap, w), zs, kind)
    res = np.abs(s_mu - mp_s_transform(zs) * s_a)
    return _worst(res, zs, return_argmax)
