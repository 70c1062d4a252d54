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


def _lift_rows(p, upper, watch, turns):
    """Lift p, principal args in [-pi, pi] down axis 0, in place onto whole
    sheets: each row becomes its arg plus 2*pi*k.  A column starts on k = 0,
    or (upper) k = 1 where its first arg is not positive, and each step down
    it of more than pi moves k one turn against the step, which always
    suffices.  So a row's value is its arg's and k's alone, whatever path
    led there.  A NaN step makes k, and the rest of its column, NaN.  The
    columns that turn, where a step of watch, a slice of the steps (step i
    goes from row i to i + 1), moved the lifted arg by more than pi/3 or is
    NaN, are appended to the list turns as booleans, if there are any."""
    d = np.diff(p, axis=0)
    small = np.abs(d) <= np.pi
    k = (p[:1] <= 0.0) * float(upper)
    if not small.all():
        k = np.concatenate((k, np.where(small, 0.0, -np.sign(d))))
        np.cumsum(k, axis=0, out=k)
    p += 2.0 * np.pi * k
    # a lifted step differs from d by whole turns: it has d's cosine, below
    # 1/2 where it is more than pi/3
    c = np.cos(d[watch])
    if not np.minimum.reduce(c, axis=None, initial=1.0) >= 0.5:
        turns.append(~(c >= 0.5).all(axis=0))


def _log_parts(w, ok, track, upper):
    """(log|w|, arg w, ok), the one log of the kernel, as two float arrays:
    arg on the principal branch, in (-pi, pi], or (upper) the upper-cut
    branch, in (0, 2*pi), with the points on the cut taken out of ok; or
    with track, a pair (watch, turns), lifted down axis 0 onto whole
    sheets, ok passing through, the columns a step of watch turned
    appended to the list turns (see _lift_rows).  Real parts let the
    caller write its next exponent straight into its own buffer.  Masked
    and invalid points are computed like any other: a caller whose w may
    hold them runs under an np.errstate that ignores what they raise, and
    masks them by ok."""
    th = np.arctan2(w.imag, w.real, out=np.empty(w.shape))
    if track:
        _lift_rows(th, upper, *track)
    elif upper:
        ok = ok & ~on_upper_cut(w)
        np.add(th, 2.0 * np.pi, out=th, where=th <= 0.0)
        # a point grazing the cut from below can round to exactly 2*pi
        np.minimum(th, np.nextafter(2.0 * np.pi, 0.0), out=th)
    else:
        ok = ok & ~on_principal_cut(w)
        # np.arctan2 can round to exactly -pi just below the cut
        np.maximum(th, np.nextafter(-np.pi, 0.0), out=th)
    return np.log(np.abs(w)), th, ok


def _unmasked(vals, ok):
    """vals, or BranchCutError when any point of it was masked."""
    if not np.all(ok):
        raise BranchCutError("a point or an intermediate value landed on a "
                             "branch cut")
    return vals


def _log(z, upper):
    """log z on the principal or (upper) the upper-cut branch, as a scalar
    for a scalar z; BranchCutError on its cut."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lr, th, ok = _log_parts(np.asarray(z, dtype=complex), True, False,
                                upper)
    return _scalar(_unmasked(lr + 1j * th, ok))


def log_upper(z):
    """log with arg in (0, 2*pi).  Raises BranchCutError on [0, inf)."""
    return _log(z, True)


def log_principal(z):
    """log with arg in (-pi, pi].  Raises BranchCutError on (-inf, 0]."""
    return _log(z, False)


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
