"""Closed forms the benchmark checks results against.

Everything here is written out independently of freeconv, with numpy only,
so a change to the library cannot move its own reference.  Every member
the workloads draw is a dilation by c > 0 of a member with a known closed
form, and dilation maps closed forms to closed forms:
density_c(x) = density(x/c)/c and Levy density nu_c(x) = nu(x/c)/c for
alpha = 1; for alpha = 2 the dilation factor is sqrt(c).
"""

import cmath
import math

import numpy as np

# criterion 7/8 bounds of the acceptance suite
DENSITY_TOL = 1e-4
LEVY_TOL = {"beta": 1e-4, "cubic": 1e-5, "r2": 1e-4}
S_TOL = 1e-6
EVAL_RTOL = 1e-9

# criterion-9 members, (alpha, s, r) before dilation, by classification
FID_DIVISIBLE = [(1.0, -1.0, 2.0), (1.0, 3j, 3.0), (2.0, 1.0, 1.0),
                 (0.5, -1.0, 2.0), (0.7, cmath.exp(0.8j * math.pi), 1.7),
                 (1.5, cmath.exp(1j * math.pi / 8.0), 4.0 / 3.0)]
FID_NOT_DIVISIBLE = [(1.0, 3.0 * cmath.exp(1j * math.pi / 4.0), 3.0),
                     (1.0, -3.0, 3.0)]

# criterion-2 composition sets (alpha, s, r, u) before dilation
COMPOSITION_SETS = [
    (1.0, -1.0 + 0j, 2.0, 1.5), (1.0, -1.0 + 0j, 1.5, 2.0),
    (0.5, -1.0 + 0j, 2.0, 3.0), (0.5, cmath.exp(3j * math.pi / 4.0), 1.5, 2.0),
    (2.0, 1.0 + 0j, 2.0, 2.0), (1.5, cmath.exp(1j * math.pi / 8.0), 2.0, 1.5),
    (1.0, 3j, 3.0, 2.0)]
COMPOSITION_TOL = 1e-10


def beta_density(c, r, x):
    """Density of the beta-line member (1, -c, r), r > 1, on (0, c)."""
    t = np.asarray(x, dtype=float) / c
    inside = (t > 0.0) & (t < 1.0)
    t = np.where(inside, t, 0.5)
    coef = r * math.sin(math.pi / r) / math.pi
    return np.where(inside, coef * t ** (-1.0 / r) * (1.0 - t) ** (1.0 / r),
                    0.0) / c


def sym_beta_density(c, x):
    """Density of the r = 2 member (2, c, 2), supported on [-b, b] with
    b = sqrt(c): (1/(pi b)) |x|**(-1/2) (b - |x|)**(1/2)."""
    b = math.sqrt(c)
    ax = np.abs(np.asarray(x, dtype=float))
    inside = (ax > 0.0) & (ax < b)
    ax = np.where(inside, ax, 0.5 * b)
    return np.where(inside, ax ** -0.5 * np.sqrt(b - ax) / (math.pi * b), 0.0)


def beta_G(c, r, z):
    """Cauchy transform (r/c)(1 - (1 - c/z)**(1/r)) of (1, -c, r); for z in
    the upper half-plane 1 - c/z stays there, so the principal power is
    the right branch."""
    return (r / c) * (1.0 - (1.0 - c / z) ** (1.0 / r))


def cubic_phi(c, z):
    """phi of the cubic member (1, 3ci, 3) in rational form with s0 = ci."""
    s0 = 1j * c
    return (-3.0 * s0 * z ** 2 - s0 ** 2 * z) / (3.0 * z ** 2 + 3.0 * s0 * z
                                                + s0 ** 2)


def s_beta(c, z):
    """S-transform of (1, -c, 2): free Poisson factor 1/(1+z) times the
    S-transform 4/c of the point mass at c/4."""
    return 4.0 / (c * (1.0 + z))


def s_sym(c, z):
    """S-transform of (2, c, 2) on the negative imaginary axis."""
    return 1j * math.sqrt(4.0 * (1.0 - (1.0 + z) ** 2) / c) / (z * (1.0 + z))


def levy_beta(c, x, r=1.5):
    """Levy density of (1, -c, r) for 1 < r < 2, supported on (0, c/r)."""
    t = np.asarray(x, dtype=float) / c
    inside = (t > 0.0) & (t < 1.0 / r)
    t = np.where(inside, t, 0.5 / r)
    u = 1.0 / r - t
    num = abs(math.sin(r * math.pi)) / math.pi * t ** (r - 2.0) * u ** r
    den = u ** (2 * r) - 2.0 * t ** r * u ** r * math.cos(r * math.pi) \
        + t ** (2 * r)
    return np.where(inside, num / den, 0.0) / c


def levy_cubic(c, x):
    """Levy density 9 t**2 / (pi (9 t**4 + 3 t**2 + 1)) / c, t = x/c."""
    t = np.asarray(x, dtype=float) / c
    return 9.0 * t ** 2 / (math.pi * (9.0 * t ** 4 + 3.0 * t ** 2 + 1.0)) / c


def levy_r2(c, x):
    """Levy density of (2, c, 2): the arcsine law 1/(pi sqrt(c/4 - x**2)),
    the stable law at scale c/4 the member compounds."""
    x = np.asarray(x, dtype=float)
    inside = x ** 2 < c / 4.0
    return np.where(inside, 1.0 / (math.pi * np.sqrt(
        np.where(inside, c / 4.0 - x ** 2, 1.0))), 0.0)


def ce_map(c):
    """Dilated counterexample map z + c**2/(z-c) + c**2/(z+c): the
    reciprocal transform of a divisible law that is two-to-one on the
    imaginary axis."""
    def f(z):
        z = np.asarray(z, dtype=complex)
        return z + c * c / (z - c) + c * c / (z + c)
    return f


def r2_inverse_F(c, z):
    """Inverse reciprocal transform of (2, c, 2): the family composition at
    (s/r, 1/r) = (c/2, 1/2) collapses to -sqrt(2) / sqrt(w) with
    w = 2t - (c/2) t**2, t = 1/z**2, and the square root cut along
    [0, inf).  Two points with equal w collide."""
    t = 1.0 / complex(z) ** 2
    w = 2.0 * t - 0.5 * c * t * t
    arg = cmath.phase(w)
    if arg <= 0.0:
        arg += 2.0 * math.pi
    return -math.sqrt(2.0) / (math.sqrt(abs(w)) * cmath.exp(0.5j * arg))


def sup_err(values, reference):
    return float(np.max(np.abs(np.asarray(values) - reference)))


def perturb(v):
    """A nearby wrong answer of the same shape: numbers moved by 1% plus
    0.01, booleans flipped, strings and None replaced."""
    if isinstance(v, bool):
        return not v
    if isinstance(v, (int, float, complex, np.ndarray)):
        return v * 1.01 + 0.01
    if isinstance(v, str):
        return v + "~"
    if v is None:
        return "perturbed"
    if isinstance(v, dict):
        return {k: perturb(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [perturb(x) for x in v]
    raise TypeError(f"cannot perturb {type(v).__name__}")
