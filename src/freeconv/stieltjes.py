"""Density recovery from Cauchy transforms.

The boundary limit -(1/pi) lim_{y->0} Im G(x+iy) is taken numerically with
a Richardson tableau on the halving ladder y_k = y0 * 2**-k.  Atoms show up
as divergent ladders (the tableau refuses to extrapolate them) and have
their own evaluator via lim iy*G(x+iy).  The module also carries the
closed-form densities used as oracles elsewhere.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .branches import _scalar, binom_coeff
from .errors import ConvergenceError, DomainError, QuadratureError

# table values this far below zero are clamped (with a warning); anything
# more negative means a branch bug upstream and is a hard error
NEG_DENSITY_TOL = 1e-9


def _ladder(y0, levels, xs):
    """The halving ladder y0 * 2**-k, k = 0..levels; y0 defaults to
    1e-2 * max(1, |x|) over the points xs."""
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    if y0 is None:
        y0 = 1e-2 * max(1.0, float(np.max(np.abs(xs))))
    return y0 * 0.5 ** np.arange(levels + 1)


def _richardson(vals, police=False):
    """Extrapolate samples g(y0 * 2**-k), k = 0..n-1 along axis 0, toward
    y -> 0.

    Returns (limit, err) with err the last diagonal increment, per point.
    With police, a ladder whose diagonal increments keep growing at any
    point raises ConvergenceError: the signature of a pole (an atom) under
    the evaluation point.  Policing needs 4 samples (levels >= 3).
    """
    vals = np.asarray(vals, dtype=complex)
    if police and len(vals) < 4:
        raise DomainError(f"a ladder checked for divergence needs levels "
                          f">= 3, got {len(vals) - 1}")
    prev = [vals[0]]
    diag = [vals[0]]
    for k in range(1, len(vals)):
        cur = [vals[k]]
        for j in range(1, k + 1):
            fac = 2.0 ** j
            cur.append((fac * cur[j - 1] - prev[j - 1]) / (fac - 1.0))
        diag.append(cur[k])
        prev = cur
    incs = np.abs(np.diff(np.asarray(diag), axis=0))
    if police:
        scale = np.maximum(1.0, np.max(np.abs(vals), axis=0))
        if np.any((incs[-1] > 1e-11 * scale) & (incs[-1] >= incs[-2])
                  & (incs[-2] >= incs[-3])):
            raise ConvergenceError("boundary extrapolation is diverging "
                                   "(atom or pole under the evaluation "
                                   "point?)")
    return diag[-1], incs[-1]


def _inversion(G, xs, y0, levels, police=False):
    """(density, err, ladder): -(1/pi) lim Im G(x+iy) at the points xs,
    with G called once on the whole ladder grid."""
    ladder = _ladder(y0, levels, xs)
    vals = -np.imag(G(xs + 1j * ladder[:, None])) / np.pi
    dens, err = _richardson(vals, police)
    return dens.real, err, ladder


def density_from_G(G, x, y0=None, levels=8):
    """(density, err) at real x by extrapolating -(1/pi) Im G(x+iy); the
    length-1 form of build_density_table, which also refuses divergent
    ladders (an atom under x)."""
    dens, err, _ = _inversion(G, np.asarray([float(x)]), y0, levels,
                              police=True)
    return float(dens[0]), float(err[0])


def atom_mass(G, x, y0=None, levels=8):
    """mu({x}) = lim iy*G(x+iy); the imaginary part must vanish."""
    x = float(x)
    ys = _ladder(y0, levels, x)
    val, _err = _richardson(1j * ys * G(x + 1j * ys), police=True)
    if abs(val.imag) > 1e-7 * (1.0 + abs(val.real)):
        raise ConvergenceError("imaginary part of iy*G(x+iy) did not vanish")
    return float(val.real)


@dataclass
class DensityTable:
    """Grid of (x, density, err) plus the extrapolation ladder used.

    Values within NEG_DENSITY_TOL below zero are clamped to zero with a
    warning; anything more negative raises (branch bug upstream).
    """

    xs: np.ndarray
    values: np.ndarray
    errs: np.ndarray
    y_ladder: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        errs = np.asarray(self.errs, dtype=float)
        if xs.ndim != 1 or np.any(np.diff(xs) <= 0):
            raise DomainError("xs must be strictly increasing")
        if np.any(values < -NEG_DENSITY_TOL):
            raise ConvergenceError("density went significantly negative; "
                                   "branch error upstream")
        neg = values < 0.0
        if np.any(neg):
            warnings.warn(f"clamped {int(neg.sum())} slightly negative "
                          "density values to 0")
            values = np.where(neg, 0.0, values)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "errs", errs)
        object.__setattr__(self, "y_ladder", np.asarray(self.y_ladder,
                                                        dtype=float))

    def csv_text(self, comments=()):
        lines = ["# " + c for c in comments]
        lines.append("x,density,err")
        for x, v, e in zip(self.xs, self.values, self.errs):
            lines.append(f"{x:.17g},{v:.17g},{e:.17g}")
        return "\n".join(lines) + "\n"

    def plotdata_text(self, comments=()):
        lines = ["# " + c for c in comments]
        for x, v in zip(self.xs, self.values):
            lines.append(f"{x:.17g} {v:.17g}")
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {"x": [float(v) for v in self.xs],
                "density": [float(v) for v in self.values],
                "err": [float(v) for v in self.errs],
                "y_ladder": [float(v) for v in self.y_ladder]}


def build_density_table(G, xs, y0=None, levels=8):
    """DensityTable by Stieltjes inversion of G on the grid xs.

    G must accept complex arrays (all transforms in this package do); it
    is called once, on the grid of every x and every ladder rung.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 1 or np.any(np.diff(xs) <= 0):
        raise DomainError("xs must be a strictly increasing 1-D grid")
    dens, err, ladder = _inversion(G, xs, y0, levels)
    return DensityTable(xs=xs, values=dens, errs=err, y_ladder=ladder)


def quadrature(f, a, b, left_exp=0.0, right_exp=0.0, tol=1e-9):
    """Integrate f over (a, b) with declared algebraic endpoint behavior.

    left_exp/right_exp say |f| ~ (x-a)**e resp. (b-x)**e with e > -1;
    exponents in (-1, 0) are removed by the substitution x = a + u**k,
    k = 2/(1+e), before handing off to adaptive quadrature.  b may be inf
    (then right_exp is ignored and f must decay faster than 1/x).  When the
    combined error estimate exceeds tol a QuadratureError carrying the best
    estimate is raised.
    """
    if left_exp <= -1.0 or right_exp <= -1.0:
        raise DomainError("endpoint exponents must be > -1")
    if not a < b:
        raise DomainError("need a < b")
    inf_tail = np.isinf(b)
    mid = a + max(1.0, abs(a)) if inf_tail else 0.5 * (a + b)
    opts = dict(limit=300, epsabs=tol * 0.25, epsrel=tol * 0.25)
    total = 0.0
    errsum = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if left_exp < 0.0:
            k = 2.0 / (1.0 + left_exp)
            top = (mid - a) ** (1.0 / k)
            val, err = integrate.quad(
                lambda u: f(a + u ** k) * k * u ** (k - 1.0), 0.0, top, **opts)
        else:
            val, err = integrate.quad(f, a, mid, **opts)
        total += val
        errsum += err
        if inf_tail:
            val, err = integrate.quad(f, mid, np.inf, **opts)
        elif right_exp < 0.0:
            k = 2.0 / (1.0 + right_exp)
            top = (b - mid) ** (1.0 / k)
            val, err = integrate.quad(
                lambda u: f(b - u ** k) * k * u ** (k - 1.0), 0.0, top, **opts)
        else:
            val, err = integrate.quad(f, mid, b, **opts)
    total += val
    errsum += err
    if errsum > 4.0 * max(tol, tol * abs(total)):
        raise QuadratureError(f"error estimate {errsum:.3g} exceeds "
                              f"tolerance {tol:.3g}", estimate=total)
    return total


def closed_beta_density(r, x):
    """(r sin(pi/r)/pi) x**(-1/r) (1-x)**(1/r) on (0, 1); zero outside."""
    if not r > 1.0:
        raise DomainError("beta density needs r > 1")
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    safe = np.where(inside, x, 0.5)
    coef = r * np.sin(np.pi / r) / np.pi
    out = np.where(inside,
                   coef * safe ** (-1.0 / r) * (1.0 - safe) ** (1.0 / r), 0.0)
    return _scalar(out)


def closed_symmetric_beta_density(s, x):
    """(1/(pi sqrt(s))) |x|**(-1/2) (sqrt(s)-|x|)**(1/2) on [-sqrt(s), sqrt(s)].

    The x = 0 endpoint value is +inf (integrable).
    """
    if not s > 0.0:
        raise DomainError("needs s > 0")
    x = np.asarray(x, dtype=float)
    root = np.sqrt(s)
    inside = np.abs(x) <= root
    with np.errstate(divide="ignore"):
        out = np.where(
            inside,
            np.abs(x) ** -0.5 * np.sqrt(np.where(inside, root - np.abs(x), 0.0))
            / (np.pi * root),
            0.0)
    return _scalar(out)


def example_density_cauchy_mix(x):
    """Density of the r = 2, alpha = 1, s = i member: the free Poisson law
    multiplied freely by a symmetric Cauchy law; positive on all of R."""
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise DomainError("x = 0 is excluded")
    out = (np.sqrt(2.0) / np.pi) * (
        np.sqrt(1.0 + np.sqrt(1.0 + 1.0 / x ** 2)) - np.sqrt(2.0))
    return _scalar(out)


def example_density_halfstable(x):
    """Density of the r = 2, alpha = 1/2, s = -1 member on (0, inf)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("defined for x > 0")
    out = (4.0 * np.sqrt(2.0) / np.pi) * (
        1.0 / np.sqrt(2.0 * x) - np.sqrt(-1.0 + np.sqrt(1.0 + 1.0 / x)))
    return _scalar(out)


def tail_density_series(s, r, x, n_max=80):
    """Tail of the alpha = 1 family density for |x| > |s|.

    -(r/pi) * sum_{n>=1} C(1/r, n+1) R**n sin(n*theta) / x**(n+1) with
    s = R e^{i theta}; converges geometrically with ratio |s|/|x|, so the
    sum is cut once the terms' envelope drops below 1e-18.
    """
    s = complex(s)
    R = abs(s)
    theta = np.angle(s)
    x = float(x)
    if abs(x) <= R:
        raise DomainError("tail series needs |x| > |s|")
    acc = 0.0
    for n in range(1, n_max + 1):
        envelope = binom_coeff(1.0 / r, n + 1) * R ** n / abs(x) ** (n + 1)
        acc += envelope * np.sin(n * theta) * np.sign(x) ** (n + 1)
        # the sine can vanish incidentally, so cut on the sine-free envelope
        if abs(envelope) < 1e-18:
            break
    return -(r / np.pi) * acc
