"""Free infinite divisibility: certificates, Levy data, obstructions.

A probability measure is freely infinitely divisible exactly when phi = F^{-1} - z
maps the upper half-plane into the closed lower half-plane.  check_fid_grid
scans Im phi over a rectangle; theory_verdict reports what the known
classification says; the Levy machinery extracts the generating triplet
from boundary values of phi; find_E_zero locates the closed-form
obstruction points; and ui_heuristic searches for injectivity failures of
the reciprocal transform and its inverse.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .branches import _log_parts, _scalar, _unmasked
from .errors import ConvergenceError, DomainError, FreeconvError
from .family import (_admissible_s, _core, _phi_tracked_block, _s_scale,
                     _stage1, _tracked_columns, _upper, _worst, phi_boundary,
                     voiculescu_phi)
# perfbench records the pool size it ran with as fid._thread_count()
from .family import _thread_count  # noqa: F401
from .stieltjes import (NEG_DENSITY_TOL, DensityTable, _ROUNDING,
                        _atom_limit, _grid, _heights, _read)

_GAUSS_N = 200
LEVY_X_MIN = 1e-12  # nearer 0, Levy points are refused or dropped


@dataclass
class FidReport:
    """Result of a grid scan for Im phi > 0.

    verdict is "violation-found" (witness holds the confirmed point) or
    "no-violation-on-grid" (evidence, not proof).  n_failures counts grid
    points where phi could not be evaluated (branch-cut hits); theory is
    the classification's verdict for the same parameters.
    """

    verdict: str
    witness: complex | None
    witness_im_phi: float | None
    grid_spec: dict
    params: dict
    tol: float
    n_failures: int
    theory: str

    def to_dict(self):
        w = self.witness
        return {
            "verdict": self.verdict,
            "witness": None if w is None else {"re": w.real, "im": w.imag},
            "witness_im_phi": self.witness_im_phi,
            "grid_spec": self.grid_spec,
            "params": self.params,
            "tol": float(self.tol),
            "n_failures": int(self.n_failures),
            "theory": self.theory,
        }


@dataclass
class LevyTriplet:
    """Free generating triplet: drift gamma, semicircular coefficient a,
    and a grid of the Levy density nu."""

    gamma: float
    a: float
    nu: DensityTable

    def to_dict(self):
        return {"gamma": float(self.gamma), "a": float(self.a),
                "nu": self.nu.to_dict()}


def default_fid_rect(params):
    """Scan rectangle scaled to the law: the interesting boundary behavior
    lives within a few multiples of |s|**(1/alpha) of the origin."""
    L = max(1.0, _s_scale(params.alpha, params.s))
    return (-5.0 * L, 5.0 * L, 1e-6 * L, 5.0 * L)


def _confirm_violation(params, xs, ys, i, j, tol):
    """Re-test a flagged grid point on a 4x-refined local patch; returns
    (witness, im_phi) or None if the flag does not persist."""
    dx = xs[1] - xs[0]
    x0, y0 = xs[j], ys[i]
    fx = np.linspace(x0 - dx, x0 + dx, 9)
    fy = np.geomspace(2.0 * y0, max(y0 / 2.0, 1e-300), 9)
    phi, ok = _phi_tracked_block(params.alpha, params.s, params.r, fx, fy)
    good = ok & (phi.imag > tol)
    if not np.any(good):
        return None
    im, z = _worst(np.where(good, phi.imag, -np.inf),
                   fx[None, :] + 1j * fy[:, None], return_argmax=True)
    return z, im


def check_fid_grid(params, rect=None, nx=400, ny=200, tol=1e-9):
    """Scan Im phi over rect = (xmin, xmax, ymin, ymax) in the upper
    half-plane; any confirmed Im phi > tol refutes free infinite
    divisibility.

    Candidates are confirmed on a refined local patch before being
    reported, screening off floating-point noise near the real axis.
    """
    if rect is None:
        rect = default_fid_rect(params)
    xmin, xmax, ymin, ymax = rect
    if not (np.all(np.isfinite(rect)) and xmin < xmax and 0.0 < ymin < ymax
            and np.isfinite(float(xmax) - float(xmin))):
        raise DomainError("need a finite rect with xmin < xmax, a finite "
                          "width xmax - xmin and 0 < ymin < ymax")
    if not 0.0 <= tol < np.inf:
        raise DomainError("tol must be finite and >= 0")
    if nx < 2 or ny < 2:
        raise DomainError("the scan grid needs nx >= 2 and ny >= 2")
    xs = np.linspace(xmin, xmax, nx)
    ys = np.geomspace(ymin, ymax, ny)
    # rows top down, as the continuation walks them; only the masks are kept
    ok = np.empty((ny, nx), dtype=bool)
    viol = np.empty_like(ok)

    def keep(cols, phi, ok_b):
        ok[:, cols] = ok_b
        viol[:, cols] = ok_b & (phi.imag > tol)
    _tracked_columns(params.alpha, params.s, params.r, xs, ys[::-1], keep)
    n_failures = int(ok.size - np.count_nonzero(ok))
    witness = None
    wit_val = None
    if np.any(viol):
        # scan bottom row (smallest y) outward; first confirmed point wins
        for i, j in zip(*np.nonzero(viol[::-1])):
            hit = _confirm_violation(params, xs, ys, int(i), int(j), tol)
            if hit is not None:
                witness, wit_val = hit
                break
    verdict = "violation-found" if witness is not None \
        else "no-violation-on-grid"
    grid_spec = {"xmin": float(xmin), "xmax": float(xmax),
                 "ymin": float(ymin), "ymax": float(ymax),
                 "nx": int(nx), "ny": int(ny)}
    pdict = {"alpha": params.alpha, "s": [complex(params.s).real,
                                          complex(params.s).imag],
             "r": params.r}
    return FidReport(verdict, witness, wit_val, grid_spec, pdict, tol,
                     n_failures, theory_verdict(params))


def theory_verdict(params):
    """'fid', 'not-fid', or 'unknown' per the known classification.

    Covered: r = 1 (point mass) and r = 2 (compound Poisson) always; the
    rectangle alpha <= 1, 1 <= r <= 2; the band alpha >= 1,
    1 <= r <= 2/alpha; the cubic curve alpha = 1, r = 3 (divisible only at
    arg s = pi/2); the beta direction alpha = 1, arg s = pi, r > 2 (never
    divisible); and parameters where a zero of the inner inverse-map
    expression lands in the upper half-plane (never divisible).
    """
    tol = 1e-9
    alpha, r, theta = params.alpha, params.r, params.theta
    if abs(r - 1.0) <= tol or abs(r - 2.0) <= tol:
        return "fid"
    if alpha <= 1.0 + tol and 1.0 - tol <= r <= 2.0 + tol:
        return "fid"
    if alpha >= 1.0 - tol and 1.0 - tol <= r <= 2.0 / alpha + tol:
        return "fid"
    if abs(alpha - 1.0) <= tol and abs(r - 3.0) <= tol:
        return "fid" if abs(theta - np.pi / 2.0) <= tol else "not-fid"
    if abs(alpha - 1.0) <= tol and abs(theta - np.pi) <= tol \
            and r > 2.0 + tol:
        return "not-fid"
    if find_E_zero(alpha, params.s, r) is not None:
        return "not-fid"
    return "unknown"


def e_function(alpha, s, r, z):
    """E(z) = (1 - (1 - (s/r)(-1/z)**alpha)**r)/s.

    The inverse reciprocal transform is -1/E**(1/alpha) wherever that makes
    sense, so a zero of E inside the upper half-plane is a pole of the
    inverse map and rules out free infinite divisibility.
    """
    with np.errstate(all="ignore"):
        lr, th, ok = _log_parts(*_stage1(alpha, s / r, z), False, False)
    lw = _unmasked(lr + 1j * th, ok)
    return _scalar((1.0 - np.exp(r * lw)) / s)


def find_E_zero(alpha, s, r):
    """A zero of e_function in the upper half-plane, or None.

    Zeros solve 1 - (s/r)(-1/z)**alpha = exp(2 pi i k / r) for integer k
    with 0 < |k| < r/2 (both signs; only then is the principal r-th power
    exactly 1).  For each k, (-1/z)**alpha = c_k is solved across branch
    offsets, keeping solutions whose argument lands in (0, pi); each
    candidate is accepted only if |E| < 1e-10 there.
    """
    s = complex(s)
    if r <= 1.0 or s == 0:
        return None
    kmax = int(np.ceil(r / 2.0 - 1.0 + 1e-12))
    for k_abs in range(1, kmax + 1):
        for k in (k_abs, -k_abs):
            c = r * (1.0 - np.exp(2j * np.pi * k / r)) / s
            if c == 0:
                continue
            arg_c = float(np.angle(c))
            for j in (0, 1, -1, 2, -2):
                a = (arg_c + 2.0 * np.pi * j) / alpha
                if not 1e-12 < a < np.pi - 1e-12:
                    continue
                w = abs(c) ** (1.0 / alpha) * np.exp(1j * a)
                z0 = -1.0 / w
                try:
                    res = abs(e_function(alpha, s, r, z0))
                except FreeconvError:
                    continue
                if res < 1e-10:
                    return complex(z0)
    return None


def r0_threshold(alpha, s):
    """Smallest r beyond which e_function acquires upper half-plane zeros,
    for alpha > 1: 2*pi over the wider arc of the unit circle, from 1 out,
    inside the sector theta - pi < arg(w - 1) < theta - pi + alpha*pi
    swept by 1 - (s/r)(-1/z)**alpha, theta = arg s.

    arg(e^{it} - 1) is pi/2 + t/2 on (0, pi] and t/2 - pi/2 on [-pi, 0),
    so the arcs end at t = 2 theta + (2 alpha - 3) pi and at
    t = 2 theta - pi (an arc of length <= 0 is absent).  theta is the
    parameter classes' own; AdmissibilityError outside the sector.
    """
    if not alpha > 1.0:
        raise DomainError("threshold is stated for alpha > 1")
    theta = _admissible_s(alpha, s)[1]
    extent = max(2.0 * theta + (2.0 * alpha - 3.0) * np.pi,
                 np.pi - 2.0 * theta)
    return float(2.0 * np.pi / extent)


def phi_cubic(s0, z):
    """phi for the alpha = 1, r = 3 member at s = 3*s0, in closed rational
    form: (-3 s0 z**2 - s0**2 z) / (3 z**2 + 3 s0 z + s0**2)."""
    s0 = complex(s0)
    z = np.asarray(z, dtype=complex)
    den = 3.0 * z ** 2 + 3.0 * s0 * z + s0 ** 2
    if np.any(den == 0):
        raise DomainError("pole of the rational form")
    out = (-3.0 * s0 * z ** 2 - s0 ** 2 * z) / den
    return _scalar(out)


def im_phi_cubic_pi2(x, y):
    """Im phi at x + iy for the alpha = 1, r = 3, s = 3i member, written
    so the sign is manifest: -(numerator)/|3 z**2 + 3 i z - 1|**2 with the
    numerator a polynomial that is positive on the upper half-plane."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    num = (9.0 * x ** 4 + 18.0 * x ** 2 * y ** 2 + 9.0 * y ** 4
           + 12.0 * x ** 2 * y + 12.0 * y ** 3 + 6.0 * y ** 2 + y)
    z = x + 1j * y
    den = np.abs(3.0 * z ** 2 + 3j * z - 1.0) ** 2
    out = -num / den
    return _scalar(out)


def levy_cubic_closed(x):
    """Levy density 9 x**2 / (pi (9 x**4 + 3 x**2 + 1)) of the alpha = 1,
    r = 3, s = 3i member (x != 0)."""
    x = np.asarray(x, dtype=float)
    out = 9.0 * x ** 2 / (np.pi * (9.0 * x ** 4 + 3.0 * x ** 2 + 1.0))
    return _scalar(out)


def levy_beta_closed(r, x):
    """Levy density of the alpha = 1, s = -1 member for 1 < r < 2,
    supported on (0, 1/r)."""
    if not 1.0 < r < 2.0:
        raise DomainError("closed Levy form holds for 1 < r < 2")
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0 / r)
    xs = np.where(inside, x, 0.5 / r)
    u = 1.0 / r - xs
    num = np.abs(np.sin(r * np.pi)) / np.pi * xs ** (r - 2.0) * u ** r
    den = (u ** (2.0 * r) - 2.0 * xs ** r * u ** r * np.cos(r * np.pi)
           + xs ** (2.0 * r))
    out = np.where(inside, num / den, 0.0)
    return _scalar(out)


def _phi_read(params, xs):
    """(f, err, heights): -(1/pi) Im phi(x+i0) read at the points xs; err
    adds the rounding of F^-1 = phi + z, which phi inherits."""
    heights = _heights(xs)
    phi = phi_boundary(params, xs, heights)
    f, err = _read(-phi.imag / np.pi)
    finv = phi[1] + (xs + 1j * heights[1])
    return f, err + _ROUNDING / np.pi * np.abs(finv), heights


def levy_density_numeric(params, x):
    """Levy density at |x| >= LEVY_X_MIN from boundary values of phi: the
    length-1 form of levy_table.

    The boundary value f(x) of -(1/pi) Im phi(x+iy) is the density of
    (1+x**2) tau(dx); the Levy density is f(x)/x**2.
    """
    x = float(x)
    if abs(x) < LEVY_X_MIN:
        raise DomainError("x = 0 is excluded")
    f, _err, _ = _phi_read(params, np.asarray([x]))
    return float(f[0]) / x ** 2


def levy_table(params, xs):
    """DensityTable of the Levy density over a strictly increasing grid
    with |x| >= LEVY_X_MIN; an atom under a point raises, and so does a
    value below -NEG_DENSITY_TOL, naming its point and theory_verdict."""
    xs = _grid(xs)
    if np.any(np.abs(xs) < LEVY_X_MIN):
        raise DomainError("grid must avoid x = 0")
    f, err, heights = _phi_read(params, xs)
    values = f / xs ** 2
    if np.any(values < -NEG_DENSITY_TOL):
        k = np.nanargmin(values)
        raise ConvergenceError(
            f"Levy density went significantly negative, {values[k]:.6g} at "
            f"x = {xs[k]:.6g}; theory verdict: {theory_verdict(params)}")
    return DensityTable(xs=xs, values=values, errs=err / xs ** 2,
                        y_ladder=heights)


@functools.cache
def _gauss_rule():
    """The _GAUSS_N-point Gauss-Legendre rule on [-1, 1], built once per
    process and read-only, since every caller shares it."""
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_N)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _gauss_nodes(u, v):
    nodes, weights = _gauss_rule()
    mid, half = 0.5 * (u + v), 0.5 * (v - u)
    return mid + half * nodes, half * weights


def tau_interval_mass(params, u, v):
    """Integral of (1 + x**2) d tau over [u, v]: the x-integral of
    -(1/pi) Im phi(x+i0), read at the nodes of a fixed Gauss rule."""
    if not u < v:
        raise DomainError("need u < v")
    xs, ws = _gauss_nodes(float(u), float(v))
    f, _err, _ = _phi_read(params, xs)
    return float(np.sum(ws * f))


def tau_atom(params, x):
    """tau({x}) = lim iy phi(x+iy) / (1 + x**2), read off F^-1 = phi + z,
    the same limit without phi's -z, whose rounding the step would keep."""
    x = float(x)
    return _atom_limit(lambda ys: phi_boundary(params, x, ys) + (x + 1j * ys),
                       x, 1e-6) / (1.0 + x ** 2)


def tau_total_mass(params):
    """tau(R) = -Im phi(i)."""
    return float(-voiculescu_phi(params, 1j).imag)


def levy_triplet(params, xmin, xmax, n):
    """Generating triplet read off from phi on a window [xmin, xmax].

    gamma = Re phi(i) + 2 * integral of x d tau, the moment taken over the
    window (principal-value sense; for heavy symmetric tails choose a
    symmetric window).  a = tau({0}).  nu is a Levy-density grid on the
    window with the points |x| < LEVY_X_MIN dropped.  nu and the moment
    are read at heights their own points pick; an atom under one raises.
    """
    if not xmin < xmax:
        raise DomainError("need xmin < xmax")
    xs = np.linspace(float(xmin), float(xmax), int(n))
    xs = xs[np.abs(xs) >= LEVY_X_MIN]
    if not xs.size:
        raise DomainError("the window's grid has no point off x = 0")
    nu = levy_table(params, xs)
    gx, gw = _gauss_nodes(float(xmin), float(xmax))
    f, _err, _ = _phi_read(params, gx)
    moment = float(np.sum(gw * gx * f / (1.0 + gx ** 2)))
    gamma = float(voiculescu_phi(params, 1j).real) + 2.0 * moment
    a = tau_atom(params, 0.0)
    return LevyTriplet(gamma=gamma, a=a, nu=nu)


def ui_counterexample_map(z):
    """z + 1/(z-1) + 1/(z+1): reciprocal transform of a freely infinitely
    divisible measure that is nevertheless not injective on the upper
    half-plane (it identifies pairs on the imaginary axis)."""
    z = np.asarray(z, dtype=complex)
    out = z + 1.0 / (z - 1.0) + 1.0 / (z + 1.0)
    return _scalar(out)


def _refine_collision(f, z1, z2, min_sep, val_tol):
    """Newton-polish f(z) = f(z1[k]) from z2[k] for every candidate k at
    once; returns the first pair (z1[k], z), in candidate order, whose
    solution z stays in the upper half-plane and away from z1[k], or None.

    Each candidate takes the steps it would take alone: a central
    difference with h = 1e-6 (1 + |z|), steps capped at (1 + |z|)/2, and
    rejection on leaving the half-plane, a non-finite value or a zero
    derivative; 40 iterations at most.  f is called at most 42 times,
    whatever the number of candidates.
    """
    with np.errstate(all="ignore"):
        target = np.asarray(f(z1), dtype=complex)
        z = z2.copy()
        live = np.isfinite(target)
        done = np.zeros(z1.size, dtype=bool)
        for _ in range(40):
            k = np.nonzero(live)[0]
            if not k.size:
                break
            zk = z[k]
            h = 1e-6 * (1.0 + np.abs(zk))
            w, wp, wm = np.split(np.asarray(
                f(np.concatenate([zk, zk + h, zk - h])), dtype=complex), 3)
            d = w - target[k]
            ok = np.isfinite(w)
            conv = ok & (np.abs(d) < val_tol)
            done[k[conv]] = True
            der = (wp - wm) / (2.0 * h)
            step = d / der
            mag = np.abs(step)
            cap = 0.5 * (1.0 + np.abs(zk))
            step = np.where(mag > cap, step * (cap / mag), step)
            z[k] = np.where(conv, zk, zk - step)
            live[k] = (ok & ~conv & (der != 0) & np.isfinite(der.real)
                       & (z[k].imag > 0))
        k = np.nonzero(done)[0]
        if not k.size:
            return None
        good = ((np.abs(z[k] - z1[k]) > min_sep)
                & (np.abs(np.asarray(f(z[k]), dtype=complex) - target[k])
                   < val_tol))
    if not np.any(good):
        return None
    i = k[np.argmax(good)]
    return complex(z1[i]), complex(z[i])


# cells per axis are capped so that a cell key fits an int64; the cells
# are a little wider than the search radius, so that rounding in the cell
# index cannot split a pair at exactly the radius across two cells
_CELLS_PER_AXIS = 2 ** 28
_CELL_SLACK = 1.0 + 2.0 ** -20


def _close_pairs(x, y, radius):
    """Index pairs (a, b), a < b, of the points (x, y) with
    dx*dx + dy*dy <= radius*radius, the predicate of a k-d tree's pair
    query.

    The points are hashed into square cells at least radius wide and
    sorted by cell key, column-major, so that a point's own cell and the
    cell above it are one run of the sorted keys, and the three cells of
    the next column are another.  Pairing each point with the later
    points of the first run and all of the second meets every pair of
    points in the same or adjacent cells exactly once.
    """
    # halved coordinates cannot overflow when shifted to start at 0
    gx = 0.5 * x - 0.5 * np.min(x)
    gy = 0.5 * y - 0.5 * np.min(y)
    width = max(0.5 * radius * _CELL_SLACK,
                float(np.max(gx)) / _CELLS_PER_AXIS,
                float(np.max(gy)) / _CELLS_PER_AXIS,
                np.finfo(float).tiny)
    cx = np.floor(gx / width).astype(np.int64)
    cy = np.floor(gy / width).astype(np.int64) + 1
    rows = int(cy.max()) + 2
    key = cx * rows + cy
    order = np.argsort(key, kind="stable")
    skey = key[order]
    n = skey.size
    lo = np.concatenate([np.arange(1, n + 1),
                         np.searchsorted(skey, skey + (rows - 1))])
    hi = np.concatenate([np.searchsorted(skey, skey + 1, side="right"),
                         np.searchsorted(skey, skey + (rows + 1),
                                         side="right")])
    count = hi - lo
    first = np.repeat(np.tile(np.arange(n), 2), count)
    # lo[i], lo[i] + 1, ... for each run of count[i] partners
    start = np.cumsum(count) - count
    second = np.repeat(lo - start, count) + np.arange(first.size)
    a, b = order[first], order[second]
    ddx, ddy = x[a] - x[b], y[a] - y[b]
    with np.errstate(over="ignore"):
        near = ddx * ddx + ddy * ddy <= radius * radius
    a, b = a[near], b[near]
    return np.minimum(a, b), np.maximum(a, b)


def collision_search(f, pts, max_candidates=200):
    """Search for z1 != z2 in pts (separation > 1e-3) with
    f(z1) = f(z2) to 1e-12.

    pts must lie in the open upper half-plane, and f must act elementwise
    on complex arrays: it is called on all of pts at once and then on
    arrays of candidates.  Near-coincident pairs (within one median
    value-space grid step) are ordered by value distance and
    Newton-polished together, and the first confirmed pair in that order
    is returned, so the result is deterministic.  Returns (z1, z2) or
    None.

    The pairs come from a cell hash of the values.  It starts at a
    quarter of the grid step and doubles the radius until the
    max_candidates nearest pairs lie strictly inside it, so the
    candidates are those of the full-radius query.
    """
    min_sep, val_tol = 1e-3, 1e-12
    pts = _upper(np.asarray(pts, dtype=complex).ravel())
    with np.errstate(all="ignore"):
        vals = np.asarray(f(pts), dtype=complex)
    idx = np.nonzero(np.isfinite(vals))[0]
    if idx.size < 2:
        return None
    v = vals[idx]
    gaps = np.abs(np.diff(v))
    gaps = gaps[gaps > 0]
    radius = float(np.median(gaps)) if gaps.size else val_tol
    r = 0.25 * radius if max_candidates > 0 else radius
    while True:
        a, b = _close_pairs(v.real, v.imag, r)
        ia, ib = idx[a], idx[b]
        dist = np.abs(v[a] - v[b])
        keep = np.abs(pts[ia] - pts[ib]) > min_sep
        if r >= radius:
            break
        if np.count_nonzero(keep) >= max_candidates:
            kth = np.partition(dist[keep], max_candidates - 1)[
                max_candidates - 1]
            # the margin covers the rounding between dist and the
            # squared-distance predicate
            if kth < r * (1.0 - 1e-12):
                break
        r = min(2.0 * r, radius)
    if np.count_nonzero(keep) > max_candidates > 0:
        # only the max_candidates nearest can be taken; ties at the cut
        # stay in for the (ia, ib) tie-break
        keep &= dist <= np.partition(dist[keep],
                                     max_candidates - 1)[max_candidates - 1]
    ia, ib, dist = ia[keep], ib[keep], dist[keep]
    order = np.lexsort((ib, ia, dist))[:max_candidates]
    if not order.size:
        return None
    return _refine_collision(f, pts[ia[order]], pts[ib[order]], min_sep,
                             val_tol)


def ui_heuristic(params, grid):
    """Collision search on the reciprocal transform and on its inverse map
    over the grid, which must lie in the open upper half-plane; None when
    nothing is confirmed, else a dict naming the map and the colliding
    pair.  The inverse map is the single-valued composition at (s/r, 1/r),
    equal to inverse_F only on the cone: the search calls it on arrays of
    Newton candidates anywhere.  Heuristic evidence only: a clean pass
    does not prove injectivity."""
    grid = np.asarray(grid, dtype=complex).ravel()

    def fwd(z):
        return _core(params.alpha, params.s, params.r, z, True)[0]

    def inv(z):
        return _core(params.alpha, params.s / params.r, 1.0 / params.r, z,
                     True)[0]

    hit = collision_search(fwd, grid)
    if hit is not None:
        return {"map": "reciprocal_F", "pair": hit}
    hit = collision_search(inv, grid)
    if hit is not None:
        return {"map": "inverse_F", "pair": hit}
    return None
