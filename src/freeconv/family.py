"""The deformation family indexed by (alpha, s, r).

Writing u = -1/z for z in the upper half-plane, the Cauchy transform is the
branch-resolved composition

    w1 = u**alpha               upper-cut power, arg in (0, 2*pi)
    w2 = 1 - s*w1
    w3 = w2**(1/r)              principal power
    w4 = (1 - w3)/s
    G  = -r**(1/alpha) * w4**(1/alpha)    upper-cut power

For r = 1 this collapses to G = 1/z (a point mass at the origin), which is
why the right inverse of F = 1/G is again a member of the family:
F(alpha, s, r)^{-1} = F(alpha, s/r, 1/r).  More generally

    F(s, r) o F(u*s, u) = F(u*s, u*r)

holds on truncated cones for any r, u > 0.
"""

from dataclasses import dataclass, field

import numpy as np

from .branches import (CUT_TOL, _branch_log, _log_upper_raw, _scalar,
                       _unmasked, binom_coeff)
from .errors import AdmissibilityError, BranchCutError, DomainError

# tolerance for angle comparisons against the admissible-sector boundary
ANGLE_TOL = 1e-12


def is_admissible(alpha, s):
    """True iff (alpha, s) lies in the admissible sector.

    With theta = arg s required in [0, pi]:
      0 < alpha <= 1  needs  (1-alpha)*pi <= theta <= pi,
      1 < alpha <= 2  needs  0 <= theta <= (2-alpha)*pi.
    Angles are compared with a 1e-12 tolerance.
    """
    if not (0.0 < alpha <= 2.0):
        return False
    s = complex(s)
    if s == 0:
        return False
    theta = np.angle(s)
    if theta < -ANGLE_TOL:
        return False
    theta = max(theta, 0.0)
    if alpha <= 1.0:
        return theta >= (1.0 - alpha) * np.pi - ANGLE_TOL
    return theta <= (2.0 - alpha) * np.pi + ANGLE_TOL


def _require_admissible(alpha, s):
    if not is_admissible(alpha, s):
        raise AdmissibilityError(
            f"(alpha={alpha}, s={s}) is outside the admissible sector")


@dataclass(frozen=True)
class FamilyParams:
    """The triple (alpha, s, r).  theta = arg s, normalized into [0, 2*pi)."""

    alpha: float
    s: complex
    r: float
    theta: float = field(init=False)

    def __post_init__(self):
        _require_admissible(self.alpha, self.s)
        if not self.r > 0:
            raise DomainError("r must be positive")
        th = float(np.angle(complex(self.s)))
        if th < 0.0:
            th += 2.0 * np.pi
        object.__setattr__(self, "theta", th)


@dataclass(frozen=True)
class TruncatedCone:
    """Gamma_{eta,M} = {z in C_+ : Im z > M, Im z > eta*|Re z|}."""

    eta: float
    M: float

    def __post_init__(self):
        if self.eta <= 0 or self.M <= 0:
            raise DomainError("cone needs eta > 0 and M > 0")

    def contains(self, z):
        z = np.asarray(z, dtype=complex)
        inside = (z.imag > self.M) & (z.imag > self.eta * np.abs(z.real))
        return _scalar(inside)

    def sample(self, n):
        """Deterministic grid of about n points inside the cone."""
        rows = max(2, int(np.sqrt(n)))
        cols = max(2, n // rows)
        ys = self.M * (1.1 + 2.0 * np.arange(rows) / (rows - 1))
        pts = []
        for y in ys:
            half = 0.9 * y / self.eta
            xs = np.linspace(-half, half, cols)
            pts.append(xs + 1j * y)
        out = np.concatenate(pts)[:n]
        assert np.all(self.contains(out))
        return out


def default_cone(alpha, s, r, eta=1.0):
    """Cone on which the series and composition identities are safe.

    M = 10 * max(1, |s|**(1/alpha)) * max(1, r) keeps |s*(-1/z)**alpha| / r
    below 0.1 throughout, so every binomial argument stays well inside the
    unit disk.
    """
    M = 10.0 * max(1.0, abs(complex(s)) ** (1.0 / alpha)) * max(1.0, r)
    return TruncatedCone(eta=eta, M=M)


def verification_cone(alpha, *scales, eta=1.0):
    """Cone for identity checks at full double precision.

    M clears every |s|-scale passed in but stays as low as possible: the
    absolute error of F compounds like |z|**(1 + 2/alpha) * eps, so tall
    grids drown a 1e-10 residual check in roundoff long before the
    identity itself degrades.
    """
    m = 10.0 * max([1.0] + [abs(complex(s)) ** (1.0 / alpha) for s in scales])
    return TruncatedCone(eta=eta, M=m)


def _stage1(alpha, s, z):
    """The masked first stage w = 1 - s*(-1/z)**alpha (upper-cut power);
    returns (w, ok).  Never raises: invalid z or -1/z on the cut is masked.
    """
    z = np.asarray(z, dtype=complex)
    ok = np.isfinite(z) & (np.abs(z) > CUT_TOL)
    lu, ok = _branch_log(-1.0 / np.where(ok, z, 1j), ok, upper=True)
    return 1.0 - s * np.exp(alpha * lu), ok


def _core(alpha, s, r, z, track=False):
    """Branch-resolved evaluation of the composition; returns (G, ok).

    Never raises: points where an intermediate lands on a cut (or the input
    is invalid) come back masked with ok=False and value NaN.  Vectorized
    over z.  With track=True, z is a grid whose rows descend a path and the
    arguments of both power bases are continued down its columns instead
    of being cut (see _phi_tracked_block).
    """
    z = np.asarray(z, dtype=complex)
    if r == 1.0 and not track:
        # the chain collapses algebraically to 1/z (point mass at zero)
        ok = np.isfinite(z) & (np.abs(z) > CUT_TOL)
        g = 1.0 / np.where(ok, z, 1j)
        return np.where(ok, g, complex(np.nan, np.nan)), ok
    w2, ok = _stage1(alpha, s, z)
    l2, ok = _branch_log(w2, ok, track)
    l4, ok = _branch_log((1.0 - np.exp(l2 / r)) / s, ok, track, upper=True)
    g = -(r ** (1.0 / alpha)) * np.exp(l4 / alpha)
    ok &= np.isfinite(g)
    return np.where(ok, g, complex(np.nan, np.nan)), ok


def _F_masked(alpha, s, r, z, track=False):
    """(F = 1/G, ok) over z without raising; masked points are NaN."""
    vals, ok = _core(alpha, s, r, z, track)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 1.0 / vals
    ok &= np.isfinite(f)
    return np.where(ok, f, complex(np.nan, np.nan)), ok


def _worst(res, pts, return_argmax):
    """max(res), paired with the point of pts where it is attained when
    return_argmax is set."""
    k = int(np.argmax(res))
    if return_argmax:
        return float(res.flat[k]), np.asarray(pts).flat[k].item()
    return float(res.flat[k])


def _upper(z):
    """z as a complex array; it must lie in the open upper half-plane."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise DomainError("z must lie in the open upper half-plane")
    return z


def cauchy_G(params, z):
    """Cauchy transform of the measure; z in the open upper half-plane.

    Requires r >= 1 (for r < 1 the composition is not the transform of any
    measure; use inverse_F for that regime).
    """
    if params.r < 1.0:
        raise DomainError("cauchy_G needs r >= 1; use inverse_F for r < 1")
    return _scalar(_unmasked(*_core(params.alpha, params.s, params.r,
                                    _upper(z))))


def _map_F(alpha, s, r, z):
    # F = 1/G as an analytic map, any r > 0; no half-plane or r gate.
    if r == 1.0:
        return np.asarray(z, dtype=complex) + 0.0  # identity, exactly
    return _unmasked(*_F_masked(alpha, s, r, z))


def reciprocal_F(params, z):
    """F = 1/G; a self-map of the upper half-plane for r >= 1."""
    if params.r < 1.0:
        raise DomainError("reciprocal_F needs r >= 1; use inverse_F for r < 1")
    return _scalar(_map_F(params.alpha, params.s, params.r, _upper(z)))


def inverse_F(params, z):
    """Right inverse of reciprocal_F: the same composition at (s/r, 1/r).

    For r > 1 this is not the reciprocal Cauchy transform of any measure;
    it is still a well-defined analytic expression wherever no intermediate
    hits a branch cut and the inner expression has no zero.
    """
    return _scalar(_map_F(params.alpha, params.s / params.r,
                          1.0 / params.r, _upper(z)))


def voiculescu_phi(params, z):
    """phi(z) = inverse_F(z) - z; additive under free convolution."""
    z = _upper(z)
    return _scalar(np.asarray(inverse_F(params, z)) - z)


def phi_masked(params, z):
    """(phi values, ok mask) without raising; single-valued composition.

    Valid on truncated cones.  Near the real axis prefer phi_boundary /
    _phi_tracked_block, which continue the cone values analytically.
    """
    z = np.asarray(z, dtype=complex)
    f, ok = _F_masked(params.alpha, params.s / params.r, 1.0 / params.r, z)
    return f - z, ok


def _phi_tracked_block(alpha, s, r, xs, ys_desc):
    """phi on the grid xs[j] + 1j*ys_desc[i] by analytic continuation of
    the inverse map down each vertical line.

    The single-valued composition is the inverse only high up on the
    truncated cone; descending toward the real axis its two non-integer
    powers can cross their cuts, silently switching sheets.  Each column
    therefore starts inside the cone and the arguments of both power bases
    are lifted continuously (numpy unwrap) along a dense geometric descent,
    staying on the sheet that continues the cone values.  ys_desc must be
    finite, positive and strictly decreasing.  Returns (phi, ok) with rows
    matching ys_desc; a column is masked below any point where the
    continuation degenerates (zero or infinity in an intermediate).
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys_desc = np.asarray(ys_desc, dtype=float).ravel()
    if not (ys_desc.size and np.all(np.isfinite(ys_desc) & (ys_desc > 0.0))
            and np.all(np.diff(ys_desc) < 0.0)):
        raise DomainError("ys must be finite, positive and strictly "
                          "decreasing")
    sp, rp = complex(s) / r, 1.0 / r
    scale = max(1.0, abs(complex(s)) ** (1.0 / alpha),
                abs(sp) ** (1.0 / alpha)) * max(1.0, r, rp)
    xmax = float(np.max(np.abs(xs))) if xs.size else 0.0
    y_top = max(10.0 * scale, 1.5 * xmax, 2.0 * float(ys_desc[0]))
    # difference of logs: the ratio overflows for subnormal ys
    n_dense = max(48, int(24.0 * (np.log10(y_top)
                                  - np.log10(ys_desc[-1]))) + 1)
    path = np.unique(np.concatenate(
        [np.geomspace(y_top, float(ys_desc[-1]), n_dense), ys_desc]))[::-1]
    Z = xs[None, :] + 1j * path[:, None]
    with np.errstate(all="ignore"):
        f_inv, ok = _F_masked(alpha, sp, rp, Z, track=True)
    phi = f_inv - Z
    idx = np.searchsorted(-path, -ys_desc)
    return phi[idx, :], ok[idx, :]


def phi_boundary(params, x, ys_desc):
    """phi at x + i*y down a decreasing ladder ys_desc, evaluated on the
    analytic-continuation sheet (see _phi_tracked_block).  Rows follow
    ys_desc; an array x gives one column per point."""
    phi, ok = _phi_tracked_block(params.alpha, params.s, params.r,
                                 np.asarray(x, dtype=float), ys_desc)
    if not np.all(ok):
        raise BranchCutError("continuation degenerated along the descent")
    return phi[:, 0] if np.ndim(x) == 0 else phi


def series_coefficients(params, N):
    """Coefficients c_0..c_N of z*G as a series in t = (-1/z)**alpha.

    Formal composition of the outer binomial (1+u)**(1/alpha) with the inner
    series u(t) = r * sum_{n>=1} C(1/r, n+1) (-s)**n t**n; c_0 = 1 always.
    """
    if N < 0:
        raise DomainError("N must be >= 0")
    alpha, s, r = params.alpha, params.s, params.r
    b = np.zeros(N + 1, dtype=complex)
    for n in range(1, N + 1):
        b[n] = r * binom_coeff(1.0 / r, n + 1) * (-s) ** n
    c = np.zeros(N + 1, dtype=complex)
    c[0] = 1.0
    upow = np.zeros(N + 1, dtype=complex)
    upow[0] = 1.0
    for k in range(1, N + 1):
        # upow <- truncated convolution upow * u; u has no constant term
        new = np.zeros(N + 1, dtype=complex)
        for i in range(N + 1 - 1):
            if upow[i] != 0.0:
                tail = N - i
                new[i + 1:] += upow[i] * b[1:tail + 1]
        upow = new
        c += binom_coeff(1.0 / alpha, k) * upow
    return c


def series_G(params, z, N):
    """Truncated series evaluation of the transform near infinity.

    Valid where |s*(-1/z)**alpha| / r is small (inside default_cone); the
    direct composition cauchy_G is the reference elsewhere.
    """
    z = _upper(z)
    t = np.exp(params.alpha * _log_upper_raw(-1.0 / z))
    w = params.s * t / params.r
    if np.any(np.abs(w) >= 1.0):
        raise DomainError("outside the series region: need |s*(-1/z)^alpha/r| < 1")
    c = series_coefficients(params, N)
    acc = np.zeros_like(z)
    for cn in c[::-1]:
        acc = acc * t + cn
    out = acc / z
    return _scalar(out)


def verify_composition(alpha, s, r, u, grid, return_argmax=False):
    """max |F(s,r)(F(us,u)(z)) - F(us,ur)(z)| over the grid."""
    grid = np.asarray(grid, dtype=complex)
    inner = _map_F(alpha, u * s, u, grid)
    lhs = _map_F(alpha, s, r, inner)
    rhs = _map_F(alpha, u * s, u * r, grid)
    return _worst(np.abs(lhs - rhs), grid, return_argmax)


def verify_self_similarity(params, c, grid, return_argmax=False):
    """max |G(c*s, r)(c**(1/alpha) z) - c**(-1/alpha) G(s, r)(z)|.

    Dilation D_b with b = c**(1/alpha) sends a random variable X to bX, so
    Cauchy transforms scale as G(z) -> (1/b) G(z/b).
    """
    if c <= 0:
        raise DomainError("c must be positive")
    grid = np.asarray(grid, dtype=complex)
    b = c ** (1.0 / params.alpha)
    scaled = FamilyParams(params.alpha, c * params.s, params.r)
    lhs = cauchy_G(scaled, b * grid)
    rhs = cauchy_G(params, grid) / b
    return _worst(np.abs(np.asarray(lhs) - np.asarray(rhs)), grid,
                  return_argmax)
