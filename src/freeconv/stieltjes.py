"""Density recovery from Cauchy transforms.

The boundary value f of -(1/pi) Im G(x+iy) is read at two heights 2y and
y = 1e-13 * max(1, |x|) as 2 f(y) - f(2y); err is |f(y) - f(2y)| plus
the samples' rounding.  An atom doubles f from 2y to y (every read
refuses it) and has its own evaluator, lim iy*G(x+iy).  phi's
boundary values (the Levy data in fid) share these helpers.  The module
also carries the closed-form densities used as oracles elsewhere.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .branches import _scalar, binom_coeff
from .errors import ConvergenceError, DomainError, QuadratureError

# table values this far below zero are clamped (with a warning below
# -err); anything more negative means a branch bug upstream: an error
NEG_DENSITY_TOL = 1e-9

# a sample's rounding in err: 3x the kernel's worst near the axis, 2e-15
_ROUNDING = 32 * np.finfo(float).eps


def _heights(xs):
    """(2y, y), y = 1e-13 * max(1, |x|) over the points xs."""
    y = 1e-13 * max(1.0, float(np.max(np.abs(xs))))
    return np.array([2.0 * y, y])


def _read(rows):
    """(2 f(y) - f(2y), |f(y) - f(2y)|) from the rows f(2y), f(y): the
    linear step removes the O(y) bias.  A positive f that grows 1.9-fold
    or more (by over 1e-11 max(1, |f|)) raises: an atom, f ~ 1/y; an
    integrable |x - a|**-p, p < 1, grows only 2**p-fold."""
    f2, f1 = rows
    err = np.abs(f1 - f2)
    if np.any((f2 > 0.0) & (f1 >= 1.9 * f2)
              & (err > 1e-11 * np.maximum(1.0, np.abs(f1)))):
        raise ConvergenceError("the boundary value doubles from 2y to y "
                               "(atom or pole under the evaluation point?)")
    return 2.0 * f1 - f2, err


def _inversion(G, xs):
    """(density, err, heights): -(1/pi) Im G(x+i0) at the points xs, read
    at two heights with one call of G; err adds G's own rounding."""
    heights = _heights(xs)
    g = G(xs + 1j * heights[:, None])
    dens, err = _read(-np.imag(g) / np.pi)
    return dens, err + _ROUNDING / np.pi * np.abs(g[1]), heights


def _atom_limit(samples, x, tol):
    """lim iy*g(x+iy) from v = iy*g at y, 2y and 4y, y = 1e-6 max(1, |x|),
    as (8 v(y) - 6 v(2y) + v(4y))/3, which removes the O(y) and O(y**2)
    terms of v and so trades the kernel's eps/y loss near a pole against
    an O(y**3) bias; samples(ys) = g(x + 1j*ys); an Im above tol
    (relative) raises."""
    ys = np.array([4e-6, 2e-6, 1e-6]) * max(1.0, abs(x))
    v4, v2, v1 = 1j * ys * samples(ys)
    val = (8.0 * v1 - 6.0 * v2 + v4) / 3.0
    if abs(val.imag) > tol * (1.0 + abs(val.real)):
        raise ConvergenceError("the atom limit lim iy*g(x+iy) kept an "
                               "imaginary part")
    return float(val.real)


def density_from_G(G, x):
    """(density, err) at real x from -(1/pi) Im G(x+iy); the length-1
    form of build_density_table."""
    dens, err, _ = _inversion(G, np.asarray([float(x)]))
    return float(dens[0]), float(err[0])


def atom_mass(G, x):
    """mu({x}) = lim iy*G(x+iy); the imaginary part must vanish."""
    x = float(x)
    return _atom_limit(lambda ys: G(x + 1j * ys), x, 1e-7)


@dataclass
class DensityTable:
    """Grid of (x, density, err) plus the two read heights (2y, y), kept
    under the JSON key y_ladder.

    Negative values are clamped to zero: silently within their own err,
    with a warning below -err; anything below -NEG_DENSITY_TOL raises
    (branch bug upstream).
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
        loud = int(np.count_nonzero(values < -errs))
        if loud:
            warnings.warn(f"clamped {loud} slightly negative density values "
                          "to 0")
        values = np.where(values < 0.0, 0.0, values)
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


def _grid(xs):
    """xs as a float array; it must be a strictly increasing 1-D grid."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 1 or np.any(np.diff(xs) <= 0):
        raise DomainError("xs must be a strictly increasing 1-D grid")
    return xs


def build_density_table(G, xs):
    """DensityTable by Stieltjes inversion of G on the grid xs, read at
    2y and y, y = 1e-13 * max(1, max|x|); an atom under a point raises.

    G must accept complex arrays (all transforms in this package do); it
    is called once, on the grid of every x at both heights.
    """
    xs = _grid(xs)
    dens, err, heights = _inversion(G, xs)
    return DensityTable(xs=xs, values=dens, errs=err, y_ladder=heights)


# t ranges of the two rules: tanh-sinh nodes come within 5e-38 of an
# end (relative to the length), and exp-sinh nodes run from 2e-19 out to
# 1e83, where an f that decays like 1/x**1.2 or faster has no weight left
_DE_T = {True: (-4.0, 4.0), False: (-4.0, 5.5)}
_DE_H0 = 0.5
_DE_LEVELS = 8


@functools.cache
def _de_rule(finite):
    """Node data of the tanh-sinh (finite) or exp-sinh rule, one (a, b)
    pair of arrays per level, built once per process and read-only, since
    every caller shares it.

    Level 0 holds the trapezoid nodes t of step _DE_H0 on _DE_T[finite];
    level l > 0 holds the nodes halfway between those of the levels
    before it.  With s = (pi/2) sinh t, a finite rule has a = u/L and
    b = w/(L k u**(k-1)) of a piece of length L (see _de_piece), and the
    exp-sinh rule has a = u = exp(s) and b = w.
    """
    lo, hi = _DE_T[finite]
    h = _DE_H0
    t0 = np.ceil(lo / h) * h
    n = int(np.floor(hi / h) - np.ceil(lo / h))
    ts = [t0 + h * np.arange(n + 1)]
    for _ in range(_DE_LEVELS):
        # the new nodes sit halfway between the old ones
        h *= 0.5
        ts.append(t0 + h * (2.0 * np.arange(n) + 1.0))
        n *= 2
    rule = []
    for t in ts:
        s = 0.5 * np.pi * np.sinh(t)
        ds = 0.5 * np.pi * np.cosh(t)
        if finite:
            # u near 0 is formed directly, not as a difference from L
            e = np.exp(-2.0 * np.abs(s))
            a = np.where(s < 0.0, e, 1.0) / (1.0 + e)
            b = ds * 2.0 * e / (1.0 + e) ** 2
        else:
            a = np.exp(s)
            b = ds * a
        a.flags.writeable = False
        b.flags.writeable = False
        rule.append((a, b))
    return tuple(rule)


def _de_piece(f, mid, end, exp, tol):
    """(value, error) of the integral of f between mid and end (end may
    be +-inf), by double-exponential quadrature (Takahasi & Mori 1974):
    tanh-sinh on a finite piece, exp-sinh on a half-line.

    A finite piece is written as an integral over u in (0, L) with
    x = end - sign * u**k, which removes an endpoint exponent in (-1, 0)
    at end.  The trapezoid step h halves every level, with f called once
    per level on the new nodes only; the error is the change of the sum
    over the last halving plus the size of the outermost terms.  Nodes
    that round onto mid or end are dropped.
    """
    sign = 1.0 if end > mid else -1.0
    finite = not np.isinf(end)
    k = 2.0 / (1.0 + exp) if finite and exp < 0.0 else 1.0
    length = abs(end - mid) ** (1.0 / k) if finite else 1.0
    rule = _de_rule(finite)

    def terms(level):
        a, b = rule[level]
        if finite:
            u = length * a
            w = length * b * k * u ** (k - 1.0)
            x = end - sign * u ** k
        else:
            w = b
            x = mid + sign * a
        keep = (x != end) & (x != mid) & (w > 0.0)
        out = np.zeros(x.shape)
        out[keep] = w[keep] * np.asarray(f(x[keep]), dtype=float)
        return out

    h = _DE_H0
    vals = terms(0)
    total = h * float(np.sum(vals))
    edge = abs(vals[0]) + abs(vals[-1])
    for level in range(1, _DE_LEVELS + 1):
        h *= 0.5
        new = terms(level)
        prev, total = total, 0.5 * total + h * float(np.sum(new))
        err = abs(total - prev) + edge
        if err <= 0.25 * tol * max(1.0, abs(total)):
            break
    return total, err


def quadrature(f, a, b, left_exp=0.0, right_exp=0.0, tol=1e-9):
    """Integrate f over (a, b) with declared algebraic endpoint behavior.

    f is called on 1-D float arrays of nodes and must act elementwise.
    left_exp/right_exp say |f| ~ (x-a)**e resp. (b-x)**e with e > -1;
    exponents in (-1, 0) are removed by the substitution x = a + u**k,
    k = 2/(1+e), before handing off to double-exponential quadrature.  a
    may be -inf and b may be inf (the exponent of an infinite end is
    ignored, and f must decay faster than 1/|x| there).  When the combined
    error estimate exceeds tol a QuadratureError carrying the best
    estimate is raised.

    The nodes crowd toward the ends, where f sees x rounded to the end's
    own precision: an f singular at a nonzero end (such as (1 - x)**-0.5
    at 1) is then good to about 1e-8 only.  Put such an end at 0.
    """
    if left_exp <= -1.0 or right_exp <= -1.0:
        raise DomainError("endpoint exponents must be > -1")
    if not a < b:
        raise DomainError("need a < b")
    if np.isinf(a) and np.isinf(b):
        mid = 0.0
    elif np.isinf(b):
        mid = a + max(1.0, abs(a))
    elif np.isinf(a):
        mid = b - max(1.0, abs(b))
    else:
        mid = 0.5 * (a + b)
    left, left_err = _de_piece(f, mid, a, left_exp, tol)
    right, right_err = _de_piece(f, mid, b, right_exp, tol)
    total = left + right
    errsum = left_err + right_err
    if not errsum <= 4.0 * max(tol, tol * abs(total)):
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
    # (sqrt2/pi) (sqrt(1 + sqrt(1 + 1/x**2)) - sqrt2), rewritten with
    # m = (|x| + hypot(x, 1))/2 as 1/(2 pi sqrt|x| m (sqrt m + sqrt|x|)):
    # no difference cancels at large |x| and, taken as a chain of
    # quotients, no step overflows for subnormal or huge |x|
    a = np.abs(x)
    m = 0.5 * a + 0.5 * np.hypot(a, 1.0)
    ra = np.sqrt(a)
    out = 0.5 / np.pi / ra / m / (np.sqrt(m) + ra)
    return _scalar(out)


def example_density_halfstable(x):
    """Density of the r = 2, alpha = 1/2, s = -1 member on (0, inf)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("defined for x > 0")
    # (4 sqrt2/pi) (1/sqrt(2x) - sqrt(q - 1)), q = sqrt(1 + 1/x), equals
    # (4/pi) x**-1.5 / ((q+1)**1.5 (sqrt(q+1) + sqrt2)); with
    # p = sqrt(x) (q+1) = sqrt(x) + sqrt(1+x) that is
    # (4/pi) / (sqrt(x) p**1.5 (sqrt(p) + sqrt2 x**0.25)): no difference
    # cancels at large x and, taken as a chain of quotients, no step
    # overflows for subnormal or huge x
    rx = np.sqrt(x)
    p = rx + np.sqrt(1.0 + x)
    rp = np.sqrt(p)
    out = 4.0 / np.pi / rx / (p * rp) / (rp + np.sqrt(2.0 * rx))
    return _scalar(out)


def tail_density_series(s, r, x):
    """Tail of the alpha = 1 family density for |x| > |s|.

    -(r/pi) * sum_{n>=1} C(1/r, n+1) R**n sin(n*theta) / x**(n+1) with
    s = R e^{i theta}; converges geometrically with ratio |s|/|x|, so the
    sum is cut once the terms' envelope drops below 1e-18, or after 80
    terms.
    """
    s = complex(s)
    R = abs(s)
    theta = np.angle(s)
    x = float(x)
    if abs(x) <= R:
        raise DomainError("tail series needs |x| > |s|")
    acc = 0.0
    for n in range(1, 81):
        envelope = binom_coeff(1.0 / r, n + 1) * R ** n / abs(x) ** (n + 1)
        acc += envelope * np.sin(n * theta) * np.sign(x) ** (n + 1)
        # the sine can vanish incidentally, so cut on the sine-free envelope
        if abs(envelope) < 1e-18:
            break
    return -(r / np.pi) * acc
