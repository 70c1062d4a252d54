"""Free infinite divisibility: certificates, Levy data, obstructions.

A probability measure is freely infinitely divisible exactly when phi = F^{-1} - z
maps the upper half-plane into the closed lower half-plane.  check_fid_grid
scans Im phi over a rectangle; theory_verdict reports what the known
classification says; the Levy machinery extracts the generating triplet
from boundary values of phi; find_E_zero locates the closed-form
obstruction points; and ui_heuristic searches for injectivity failures of
the reciprocal transform and its inverse.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .branches import _branch_log, _scalar, _unmasked
from .errors import ConvergenceError, DomainError, FreeconvError
from .family import (_F_masked, _phi_tracked_block, _stage1, _worst,
                     phi_boundary)
from .stieltjes import DensityTable, _ladder, _richardson

_GAUSS_N = 200


def _thread_count():
    """Worker threads for the fid scan: FREECONV_THREADS (an integer >= 1)
    or 4, capped at the CPU count."""
    env = os.environ.get("FREECONV_THREADS", "")
    if env and not (env.strip().isdigit() and int(env) >= 1):
        raise DomainError(f"FREECONV_THREADS must be an integer >= 1, "
                          f"got {env!r}")
    return min(int(env) if env else 4, os.cpu_count() or 1)


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
    L = max(1.0, abs(complex(params.s)) ** (1.0 / params.alpha))
    return (-5.0 * L, 5.0 * L, 1e-6 * L, 5.0 * L)


def _phi_im_grid(params, xs, ys):
    """(Im phi, ok) over the grid, rows indexed by ascending ys; columns
    are continued independently from the cone, evaluated in thread chunks.
    Chunking is order-preserving, so results are deterministic."""
    nthreads = _thread_count()
    ys_desc = ys[::-1]

    def run(cols):
        phi, ok = _phi_tracked_block(params.alpha, params.s, params.r,
                                     xs[cols], ys_desc)
        return phi.imag[::-1, :], ok[::-1, :]

    if nthreads == 1 or len(xs) < 8:
        return run(np.arange(len(xs)))
    chunks = [c for c in np.array_split(np.arange(len(xs)), 2 * nthreads)
              if c.size]
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        parts = list(pool.map(run, chunks))
    im = np.hstack([p for p, _ in parts])
    ok = np.hstack([o for _, o in parts])
    return im, ok


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
    if not (xmin < xmax and 0.0 < ymin < ymax):
        raise DomainError("need xmin < xmax and 0 < ymin < ymax")
    if nx < 2 or ny < 2:
        raise DomainError("the scan grid needs nx >= 2 and ny >= 2")
    xs = np.linspace(xmin, xmax, nx)
    ys = np.geomspace(ymin, ymax, ny)
    im, ok = _phi_im_grid(params, xs, ys)
    n_failures = int(ok.size - np.count_nonzero(ok))
    viol = ok & (im > tol)
    witness = None
    wit_val = None
    if np.any(viol):
        # scan bottom row (smallest y) outward; first confirmed point wins
        for i, j in zip(*np.nonzero(viol)):
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
    lw = _unmasked(*_branch_log(*_stage1(alpha, s / r, z)))
    return _scalar((1.0 - np.exp(r * lw)) / s)


def find_E_zero(alpha, s, r, residual_tol=1e-10):
    """A zero of e_function in the upper half-plane, or None.

    Zeros solve 1 - (s/r)(-1/z)**alpha = exp(2 pi i k / r) for integer k
    with 0 < |k| < r/2 (both signs; only then is the principal r-th power
    exactly 1).  For each k, (-1/z)**alpha = c_k is solved across branch
    offsets, keeping solutions whose argument lands in (0, pi); each
    candidate is accepted only if |E| < residual_tol there.
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
                if res < residual_tol:
                    return complex(z0)
    return None


def r0_threshold(alpha, s, n=4001):
    """Smallest r beyond which e_function acquires upper half-plane zeros,
    for alpha > 1: 2*pi divided by the widest arc of the unit circle
    (walked outward from 1) inside the sector swept by
    1 - (s/r)(-1/z)**alpha.

    The arc endpoints are pinned by bisection on the membership predicate.
    """
    if not alpha > 1.0:
        raise DomainError("threshold is stated for alpha > 1")
    theta = float(np.angle(complex(s)))
    if theta < -1e-12:
        raise DomainError("need arg s in [0, (2 - alpha) pi]")
    a1 = theta - np.pi  # sector is a1 < arg(w - 1) < a1 + alpha*pi
    width = alpha * np.pi

    def members(ts):
        beta = np.angle(np.exp(1j * ts) - 1.0)
        rel = np.mod(beta - a1, 2.0 * np.pi)
        return (rel > 1e-14) & (rel < width - 1e-14)

    best = 0.0
    for sign in (1.0, -1.0):
        ts = sign * np.linspace(1e-9, np.pi, n)
        m = members(ts)
        if not m[0]:
            continue
        if m.all():
            extent = np.pi
        else:
            stop = int(np.argmin(m))  # first non-member along the walk
            lo, hi = ts[stop - 1], ts[stop]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if members(np.asarray([mid]))[0]:
                    lo = mid
                else:
                    hi = mid
            extent = abs(0.5 * (lo + hi))
        best = max(best, extent)
    if best == 0.0:
        raise ConvergenceError("no admissible arc found")
    return float(2.0 * np.pi / best)


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


def _tau_density(params, xs, ladder, police=False):
    """(f, err): the limit of -(1/pi) Im phi(x+iy) down the ladder at the
    points xs, the density of (1 + x**2) tau(dx)."""
    phi = phi_boundary(params, np.asarray(xs), ladder)
    f, err = _richardson(-phi.imag / np.pi, police)
    return f.real, err


def levy_density_numeric(params, x, y0=None, levels=8):
    """Levy density at x != 0 from boundary values of phi: the length-1
    form of levy_table, which also refuses divergent ladders.

    The extrapolated limit f(x) of -(1/pi) Im phi(x+iy) is the density of
    (1+x**2) tau(dx); the Levy density is f(x)/x**2.
    """
    x = float(x)
    if x == 0.0:
        raise DomainError("x = 0 is excluded")
    f, _err = _tau_density(params, [x], _ladder(y0, levels, x), police=True)
    return float(f[0]) / x ** 2


def levy_table(params, xs, y0=None, levels=8):
    """DensityTable of the Levy density over a grid avoiding 0."""
    xs = np.asarray(xs, dtype=float)
    if np.any(np.abs(xs) < 1e-12):
        raise DomainError("grid must avoid x = 0")
    ladder = _ladder(y0, levels, xs)
    f, err = _tau_density(params, xs, ladder)
    return DensityTable(xs=xs, values=f / xs ** 2,
                        errs=err / xs ** 2, y_ladder=ladder)


def _gauss_nodes(u, v):
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_N)
    mid, half = 0.5 * (u + v), 0.5 * (v - u)
    return mid + half * nodes, half * weights


def tau_interval_mass(params, u, v, y0=None, levels=6):
    """Integral of (1 + x**2) d tau over [u, v]: the x-integral of
    -(1/pi) Im phi(x+iy) on a fixed Gauss rule, extrapolated down the
    y ladder."""
    if not u < v:
        raise DomainError("need u < v")
    xs, ws = _gauss_nodes(float(u), float(v))
    phi = phi_boundary(params, xs, _ladder(y0, levels, (u, v)))
    val, _err = _richardson(np.sum(ws * (-phi.imag / np.pi), axis=1),
                            police=True)
    return float(val.real)


def tau_atom(params, x, y0=None, levels=8):
    """tau({x}) = lim iy phi(x+iy) / (1 + x**2)."""
    x = float(x)
    ys = _ladder(y0, levels, x)
    phi = phi_boundary(params, x, ys)
    val, _err = _richardson(1j * ys * phi, police=True)
    if abs(val.imag) > 1e-6 * (1.0 + abs(val.real)):
        raise ConvergenceError("iy*phi(x+iy) kept an imaginary part")
    return float(val.real) / (1.0 + x ** 2)


def _phi_at_i(params):
    return complex(phi_boundary(params, 0.0, np.asarray([1.0]))[0])


def tau_total_mass(params):
    """tau(R) = -Im phi(i)."""
    return float(-_phi_at_i(params).imag)


def levy_triplet(params, xmin, xmax, n, y0=None, levels=8):
    """Generating triplet read off from phi on a window [xmin, xmax].

    gamma = Re phi(i) + 2 * integral of x d tau, the moment taken over the
    window (principal-value sense; for heavy symmetric tails choose a
    symmetric window).  a = tau({0}).  nu is a Levy-density grid on the
    window with the points nearest 0 dropped.
    """
    if not xmin < xmax:
        raise DomainError("need xmin < xmax")
    xs = np.linspace(float(xmin), float(xmax), int(n))
    xs = xs[np.abs(xs) > 1e-12]
    ladder = _ladder(y0, levels, (xmin, xmax))
    nu = levy_table(params, xs, y0=ladder[0], levels=levels)
    gx, gw = _gauss_nodes(float(xmin), float(xmax))
    f, _err = _tau_density(params, gx, ladder)
    moment = float(np.sum(gw * gx * f / (1.0 + gx ** 2)))
    gamma = float(_phi_at_i(params).real) + 2.0 * moment
    a = tau_atom(params, 0.0, y0=ladder[0], levels=levels)
    return LevyTriplet(gamma=gamma, a=a, nu=nu)


def ui_counterexample_map(z):
    """z + 1/(z-1) + 1/(z+1): reciprocal transform of a freely infinitely
    divisible measure that is nevertheless not injective on the upper
    half-plane (it identifies pairs on the imaginary axis)."""
    z = np.asarray(z, dtype=complex)
    out = z + 1.0 / (z - 1.0) + 1.0 / (z + 1.0)
    return _scalar(out)


def _eval_clean(f, z):
    with np.errstate(all="ignore"):
        w = np.asarray(f(np.asarray([z], dtype=complex)), dtype=complex)[0]
    return complex(w)


def _refine_collision(f, z1, z2, min_sep, val_tol):
    """Newton-polish f(z) = f(z1) starting from z2; accept only if the
    solution stays in the upper half-plane and away from z1."""
    target = _eval_clean(f, z1)
    if not (np.isfinite(target.real) and np.isfinite(target.imag)):
        return None
    z = complex(z2)
    for _ in range(40):
        w = _eval_clean(f, z)
        if not (np.isfinite(w.real) and np.isfinite(w.imag)):
            return None
        d = w - target
        if abs(d) < val_tol:
            break
        h = 1e-6 * (1.0 + abs(z))
        der = (_eval_clean(f, z + h) - _eval_clean(f, z - h)) / (2.0 * h)
        if der == 0 or not np.isfinite(der.real):
            return None
        step = d / der
        cap = 0.5 * (1.0 + abs(z))
        if abs(step) > cap:
            step *= cap / abs(step)
        z = z - step
        if z.imag <= 0:
            return None
    else:
        return None
    if abs(z - z1) > min_sep and abs(_eval_clean(f, z) - target) < val_tol:
        return complex(z1), complex(z)
    return None


def collision_search(f, pts, min_sep=1e-3, val_tol=1e-12,
                     max_candidates=200):
    """Search for z1 != z2 in pts (separation > min_sep) with
    f(z1) = f(z2) to val_tol.

    Values are indexed in a k-d tree; near-coincident pairs (within one
    median value-space grid step) are polished by a Newton solve.
    Candidates are processed in order of value distance, so the result is
    deterministic.  Returns (z1, z2) or None.
    """
    pts = np.asarray(pts, dtype=complex).ravel()
    with np.errstate(all="ignore"):
        vals = np.asarray(f(pts), dtype=complex)
    finite = np.isfinite(vals.real) & np.isfinite(vals.imag)
    idx = np.nonzero(finite)[0]
    if idx.size < 2:
        return None
    v = vals[idx]
    gaps = np.abs(np.diff(v))
    gaps = gaps[gaps > 0]
    radius = float(np.median(gaps)) if gaps.size else val_tol
    tree = cKDTree(np.column_stack([v.real, v.imag]))
    cands = []
    for a, b in sorted(tree.query_pairs(r=radius)):
        ia, ib = int(idx[a]), int(idx[b])
        sep = abs(pts[ia] - pts[ib])
        if sep <= min_sep:
            continue
        cands.append((abs(v[a] - v[b]), ia, ib))
    cands.sort()
    for _, ia, ib in cands[:max_candidates]:
        hit = _refine_collision(f, pts[ia], pts[ib], min_sep, val_tol)
        if hit is not None:
            return hit
    return None


def ui_heuristic(params, grid, min_sep=1e-3, val_tol=1e-12):
    """Collision search on the reciprocal transform and on its inverse map
    over the grid; None when nothing is confirmed, else a dict naming the
    map and the colliding pair.  Heuristic evidence only: a clean pass
    does not prove injectivity."""
    grid = np.asarray(grid, dtype=complex).ravel()

    def fwd(z):
        return _F_masked(params.alpha, params.s, params.r, z)[0]

    def inv(z):
        return _F_masked(params.alpha, params.s / params.r, 1.0 / params.r,
                         z)[0]

    hit = collision_search(fwd, grid, min_sep=min_sep, val_tol=val_tol)
    if hit is not None:
        return {"map": "reciprocal_F", "pair": hit}
    hit = collision_search(inv, grid, min_sep=min_sep, val_tol=val_tol)
    if hit is not None:
        return {"map": "inverse_F", "pair": hit}
    return None
