"""Branch-resolved logarithms, powers, and binomial series.

Two logarithm branches are used throughout:

* ``log_upper``     -- imaginary part in (0, 2*pi), cut along [0, +inf).
  This is the natural branch for arguments of the form -1/z with z in the
  upper half-plane.
* ``log_principal`` -- imaginary part in (-pi, pi], cut along (-inf, 0].

Points within CUT_TOL of a cut are an error, never silently nudged off.
Callers that need a one-sided boundary limit must pass an explicit offset.
"""

import numpy as np

from .errors import BranchCutError, ConvergenceError, DomainError

# Distance-to-cut below which a point counts as ON the cut.  Tiny on purpose:
# the maps here are used with offsets >= 1e-12, so only exact landings trip it.
CUT_TOL = 1e-300

# Truncated-series cap for binom_series.
SERIES_MAX_TERMS = 512


def on_upper_cut(z):
    """True where z sits on the cut [0, inf) of log_upper."""
    z = np.asarray(z, dtype=complex)
    return (np.abs(z.imag) <= CUT_TOL) & (z.real >= -CUT_TOL)


def on_principal_cut(z):
    """True where z sits on the cut (-inf, 0] of log_principal."""
    z = np.asarray(z, dtype=complex)
    return (np.abs(z.imag) <= CUT_TOL) & (z.real <= CUT_TOL)


def _scalar(out):
    """A 0-d result as a Python scalar; arrays pass through."""
    out = np.asarray(out)
    return out.item() if out.ndim == 0 else out


def _log_upper_raw(z):
    # arg in (0, 2*pi): lift the principal angle when it is <= 0.  For points
    # grazing the cut from below the lift can round to exactly 2*pi; clamp
    # one ulp inside so the documented open range holds in floats.
    z = np.asarray(z, dtype=complex)
    ang = np.angle(z)
    ang = np.where(ang <= 0.0, ang + 2.0 * np.pi, ang)
    ang = np.minimum(ang, np.nextafter(2.0 * np.pi, 0.0))
    return np.log(np.abs(z)) + 1j * ang


def _log_principal_raw(z):
    # np.angle can round to exactly -pi just below the cut; the true angle is
    # strictly above it, so clamp one ulp inside (-pi, pi].
    z = np.asarray(z, dtype=complex)
    ang = np.maximum(np.angle(z), np.nextafter(-np.pi, 0.0))
    return np.log(np.abs(z)) + 1j * ang


def _unwrap_rows(p):
    """np.unwrap(p, axis=0) of a float array, bit for bit, with the modular
    correction computed only where a step down axis 0 is not below pi in
    size.

    Continued arguments almost never jump, so the mod and the running sum
    of corrections are skipped when nothing does.  A NaN step counts as a
    jump, and its NaN correction spreads down the rest of its column.
    """
    dd = np.diff(p, axis=0)
    jump = np.nonzero(~(np.abs(dd) < np.pi))
    up = p.copy()
    # np.unwrap adds a correction of +0.0 to every row but the first,
    # which turns -0.0 into +0.0
    up[1:] += 0.0
    if jump[0].size:
        d = dd[jump]
        dmod = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
        dmod[(dmod == -np.pi) & (d > 0)] = np.pi
        ph = np.zeros_like(dd)
        ph[jump] = dmod - d
        up[1:] += np.cumsum(ph, axis=0)
    return up


def _branch_log(w, ok, track=False, upper=False):
    """(log w, ok) on the principal or (upper=True) the upper-cut branch;
    points on the cut are masked.  With track, the argument is instead
    continued down axis 0 from the first row (lifted into (0, 2*pi] for
    the upper branch) and nothing is masked."""
    if track:
        th = _unwrap_rows(np.angle(w))
        if upper:
            th = th + np.where(th[0] <= 0.0, 2.0 * np.pi, 0.0)
        return np.log(np.abs(w)) + 1j * th, ok
    ok = ok & ~(on_upper_cut(w) if upper else on_principal_cut(w))
    w = np.where(ok, w, 1j if upper else 1.0)
    return (_log_upper_raw(w) if upper else _log_principal_raw(w)), ok


def _unmasked(vals, ok):
    """vals, or BranchCutError when any point of it was masked."""
    if not np.all(ok):
        raise BranchCutError("a point or an intermediate value landed on a "
                             "branch cut")
    return vals


def log_upper(z):
    """log with arg in (0, 2*pi).  Raises BranchCutError on [0, inf)."""
    return _scalar(_unmasked(*_branch_log(z, True, upper=True)))


def log_principal(z):
    """log with arg in (-pi, pi].  Raises BranchCutError on (-inf, 0]."""
    return _scalar(_unmasked(*_branch_log(z, True)))


def pow_upper(z, p):
    """z**p via log_upper."""
    return _scalar(np.exp(p * log_upper(z)))


def pow_principal(z, p):
    """z**p via log_principal."""
    return _scalar(np.exp(p * log_principal(z)))


def binom_coeff(p, m):
    """Generalized binomial coefficient C(p, m) = p(p-1)...(p-m+1)/m!.

    Running product; exact for integer m >= 0, no gamma-function overflow.
    """
    if m < 0 or m != int(m):
        raise ValueError("m must be a nonnegative integer")
    m = int(m)
    out = 1.0
    for k in range(m):
        out *= (p - k) / (k + 1)
    return out


def binom_series(w, p, n_max=None):
    """(1+w)**p by its generalized binomial series, |w| < 1 required.

    With n_max given, the partial sum through order n_max is returned.
    Otherwise terms are added until the next one falls below
    1e-14 * (1 - |w|), which bounds the geometric tail by 1e-14;
    ConvergenceError past SERIES_MAX_TERMS.
    """
    w = complex(w)
    aw = abs(w)
    if aw >= 1.0:
        raise DomainError("binom_series needs |w| < 1")
    cap = SERIES_MAX_TERMS if n_max is None else int(n_max)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for m in range(1, cap + 1):
        term *= (p - (m - 1)) / m * w
        total += term
        if n_max is None and abs(term) < 1e-14 * (1.0 - aw):
            return total
    if n_max is None:
        raise ConvergenceError(
            f"binomial series did not settle in {SERIES_MAX_TERMS} terms (|w|={aw:.3g})"
        )
    return total
