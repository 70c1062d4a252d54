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

import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .branches import CUT_TOL, _log_parts, _scalar, _unmasked, binom_coeff
from .errors import AdmissibilityError, BranchCutError, DomainError

# tolerance for angle comparisons against the admissible-sector boundary
ANGLE_TOL = 1e-12

# points per block of a wide kernel call (see _in_blocks): small enough
# for a block's temporaries to stay in cache, large enough for numpy to
# release the GIL for most of its time
_BLOCK_POINTS = 2 ** 15


def _thread_count():
    """Worker threads for every kernel call wider than one block (see
    _in_blocks): FREECONV_THREADS (an integer >= 1) or 4, capped at the
    CPU count."""
    env = os.environ.get("FREECONV_THREADS", "")
    if env and not (env.strip().isdigit() and int(env) >= 1):
        raise DomainError(f"FREECONV_THREADS must be an integer >= 1, "
                          f"got {env!r}")
    return min(int(env) if env else 4, os.cpu_count() or 1)


# one pool per thread count, kept: a pool per call starts new threads, and
# a new thread can take a new malloc arena, a few resident MB, before the
# exiting ones free theirs; a forked child has the pools but no threads
_pool = functools.cache(ThreadPoolExecutor)
os.register_at_fork(after_in_child=_pool.cache_clear)


def _in_blocks(run, n, points_each):
    """run(block) for slices that tile range(n), whose items hold
    points_each points each: blocks of at most _BLOCK_POINTS points (one
    item at least), split evenly into a multiple of _thread_count() of
    them and run on the kept pool under the caller's numpy error state,
    which is per thread.  One block runs inline on the caller's thread.
    run must write only its own block and submit nothing to the pool (a
    kernel call on its block runs inline): a block waiting on the pool it
    runs on can deadlock it."""
    width = max(1, _BLOCK_POINTS // points_each)
    nthreads = _thread_count() if n > width else 1
    count = -(-n // width)  # blocks needed, then rounded up to a multiple
    count = max(1, min(n, -(-count // nthreads) * nthreads))
    edges = [n * k // count for k in range(count + 1)]
    blocks = [slice(a, b) for a, b in zip(edges, edges[1:])]
    if nthreads == 1:
        for b in blocks:
            run(b)
        return
    state = np.geterr()

    def task(b):
        with np.errstate(**state):
            run(b)
    futures = [_pool(nthreads).submit(task, b) for b in blocks]
    wait(futures)  # no block still runs when one's exception is raised
    for f in futures:
        f.result()


def is_admissible(alpha, s):
    """True iff (alpha, s) lies in the admissible sector.

    With theta = arg s required in [0, pi]:
      0 < alpha <= 1  needs  (1-alpha)*pi <= theta <= pi,
      1 < alpha <= 2  needs  0 <= theta <= (2-alpha)*pi.
    Angles are compared with a 1e-12 tolerance.  A negative-zero
    imaginary part counts as +0, so s = -1-0j has theta = pi.
    """
    try:
        _admissible_s(alpha, complex(s))
    except AdmissibilityError:
        return False
    return True


def _fold_zero(s):
    """A complex s with its negative zeros made +0: arg(-1-0j) is -pi."""
    return s + 0j if isinstance(s, complex) else s


def _admissible_s(alpha, s):
    """(s folded, theta = max(arg s, 0)), the one source of theta;
    AdmissibilityError outside the admissible sector (see is_admissible),
    where no non-finite s lies."""
    s = _fold_zero(s)
    arg = float(np.angle(s))
    theta = max(arg, 0.0)
    if alpha <= 1.0:
        inside = theta >= (1.0 - alpha) * np.pi - ANGLE_TOL
    else:
        inside = theta <= (2.0 - alpha) * np.pi + ANGLE_TOL
    if not (0.0 < alpha <= 2.0 and s != 0 and np.isfinite(s)
            and arg >= -ANGLE_TOL and inside):
        raise AdmissibilityError(
            f"(alpha={alpha}, s={s}) is outside the admissible sector")
    return s, theta


@dataclass(frozen=True)
class FamilyParams:
    """The triple (alpha, s, r).  theta = max(arg s, 0), in [0, pi]; a
    negative-zero imaginary part of s is stored as +0."""

    alpha: float
    s: complex
    r: float
    theta: float = field(init=False)

    def __post_init__(self):
        s, theta = _admissible_s(self.alpha, self.s)
        if not 0.0 < self.r < np.inf:
            raise DomainError("r must be positive and finite")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "theta", theta)


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


def _s_scale(alpha, s):
    """|s|**(1/alpha); DomainError where it overflows a float."""
    try:
        return abs(complex(s)) ** (1.0 / alpha)
    except OverflowError:
        raise DomainError("|s|**(1/alpha) overflows a float") from None


def default_cone(alpha, s, r):
    """Cone on which the series and composition identities are safe.

    M = 10 * max(1, |s|**(1/alpha)) * max(1, r) keeps |s*(-1/z)**alpha| / r
    below 0.1 throughout, so every binomial argument stays well inside the
    unit disk.
    """
    M = 10.0 * max(1.0, _s_scale(alpha, s)) * max(1.0, r)
    return TruncatedCone(eta=1.0, M=M)


def verification_cone(alpha, *scales):
    """Cone for identity checks at full double precision.

    M clears every |s|-scale passed in but stays as low as possible: the
    absolute error of F compounds like |z|**(1 + 2/alpha) * eps, so tall
    grids drown a 1e-10 residual check in roundoff long before the
    identity itself degrades.
    """
    m = 10.0 * max([1.0] + [_s_scale(alpha, s) for s in scales])
    return TruncatedCone(eta=1.0, M=m)


def _stage1(alpha, s, z):
    """(w, ok): the first stage w = 1 - v, v = s*(-1/z)**alpha on the
    upper-cut branch, in a new buffer; ok is False where z is invalid or
    -1/z = (-x + 1j*y)/|z|**2 lies on the cut, tested on z itself.  The
    upper-cut log of -1/z is -log|z| + 1j*arg(-x + 1j*y), lifted by 2*pi
    below the axis, with no division, substitution or clamp; taking the
    angle of -x + 1j*y, not pi - arg z, keeps it to full relative
    precision next to the negative axis.  Masked points are computed
    too, under the caller's np.errstate (see _log_parts).  The power
    comes first in the product: complex products round by operand
    order."""
    z = np.asarray(z, dtype=complex)
    az = np.abs(z, out=np.empty(z.shape))
    tol = az * CUT_TOL * az
    ok = (az > CUT_TOL) & ((np.abs(z.imag) > tol) | (z.real > tol))
    w = np.empty_like(z)
    np.log(az, out=az)
    np.multiply(az, -alpha, out=w.real)
    np.arctan2(z.imag, np.negative(z.real, out=az), out=az)
    np.add(az, 2.0 * np.pi, out=az, where=az < 0.0)
    np.multiply(az, alpha, out=w.imag)
    np.exp(w, out=w)
    w *= s  # v, kept apart from the 1 - v that cancels at large |z|
    return np.subtract(1.0, w, out=w), ok


def _chain(alpha, s, r, z, track):
    """(l4, ok): the composition up to l4 = log w4, the log of its last
    power base, each stage one pass over the buffer _stage1 made, which
    holds l4.  With track, z is a grid whose rows descend a path and the
    arguments of both power bases are continued down its columns instead
    of being cut (see _tracked_columns)."""
    w, ok = _stage1(alpha, s, z)
    lr, th, ok = _log_parts(w, ok, track, False)
    # l2 / r, as numpy divides a complex array by a real: times 1/r
    np.multiply(lr, 1.0 / r, out=w.real)
    np.multiply(th, 1.0 / r, out=w.imag)
    np.exp(w, out=w)
    np.subtract(1.0, w, out=w)
    w /= s
    w.real, w.imag, ok = _log_parts(w, ok, track, True)
    return w, ok


def _power(a, r, l4, ok):
    """(-r**(1/a) * exp(l4/a), ok), the chain's last power, in place over
    l4 and masked to NaN where ok is False or the value is not finite:
    G for a = alpha, and F = 1/G with the reciprocal folded into the
    power (one exp, no division) for a = -alpha."""
    l4 *= 1.0 / a  # l4 / a, as numpy divides by a real
    np.exp(l4, out=l4)
    l4 *= -(r ** (1.0 / a))
    ok &= np.isfinite(l4)
    l4[~ok] = complex(np.nan, np.nan)
    return l4, ok


def _core(alpha, s, r, z, reciprocal):
    """(G, ok), or (F = 1/G, ok) with reciprocal: the branch-resolved
    composition, never raising.  Points where an intermediate lands on a
    cut (or the input is invalid) come back masked with ok=False and value
    NaN.  A call wider than one block runs in blocks (see _in_blocks)."""
    def block(zb):
        if r == 1.0:  # the chain collapses to G = 1/z, a point mass at 0
            ok = np.isfinite(zb) & (np.abs(zb) > CUT_TOL)
            w = np.where(ok, zb, 1j)
            return np.where(ok, w if reciprocal else 1.0 / w,
                            complex(np.nan, np.nan)), ok
        with np.errstate(all="ignore"):
            return _power(-alpha if reciprocal else alpha, r,
                          *_chain(alpha, s, r, zb, False))

    z = np.asarray(z, dtype=complex)
    if z.size <= _BLOCK_POINTS:
        return block(z)
    vals = np.empty(z.shape, dtype=complex)
    ok = np.empty(z.shape, dtype=bool)
    zf, vf, okf = z.reshape(-1), vals.reshape(-1), ok.reshape(-1)

    def run(b):
        vf[b], okf[b] = block(zf[b])
    _in_blocks(run, zf.size, 1)
    return vals, ok


def _worst(res, pts, return_argmax):
    """max(res), paired with the point of pts where it is attained when
    return_argmax is set."""
    k = int(np.argmax(res))
    if return_argmax:
        return float(res.flat[k]), np.asarray(pts).flat[k].item()
    return float(res.flat[k])


def _upper(z):
    """z as a complex array; it must be finite, in the upper half-plane."""
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z) & (z.imag > 0)):
        raise DomainError("z must be finite, in the open upper half-plane")
    return z


def cauchy_G(params, z):
    """Cauchy transform of the measure; z in the open upper half-plane.

    Requires r >= 1 (for r < 1 the composition is not the transform of any
    measure; use inverse_F for that regime).
    """
    if params.r < 1.0:
        raise DomainError("cauchy_G needs r >= 1; use inverse_F for r < 1")
    return _scalar(_unmasked(*_core(params.alpha, params.s, params.r,
                                    _upper(z), False)))


def _map_F(alpha, s, r, z):
    """F = 1/G, the single-valued composition, for any r > 0 and z."""
    return _unmasked(*_core(alpha, s, r, z, True))


def reciprocal_F(params, z):
    """F = 1/G; a self-map of the upper half-plane for r >= 1."""
    if params.r < 1.0:
        raise DomainError("reciprocal_F needs r >= 1; use inverse_F for r < 1")
    return _scalar(_map_F(params.alpha, params.s, params.r, _upper(z)))


def inverse_F(params, z):
    """Right inverse of reciprocal_F: z + voiculescu_phi(params, z).

    For r > 1 this is not the reciprocal Cauchy transform of any measure;
    it is still a well-defined analytic map wherever the continuation
    meets no zero of the inner expression.
    """
    return _scalar(np.asarray(z, dtype=complex) + voiculescu_phi(params, z))


def voiculescu_phi(params, z):
    """phi(z) = F^-1(z) - z, additive under free convolution, on C+: the
    continuation from the cone of the composition at (s/r, 1/r), which
    switches sheet below it; exactly 0 for r = 1.  Each point takes the
    path phi_boundary(params, x, [y]) takes, none if z is as high as its
    start, so its value is that call's bit for bit, in any array."""
    z = _upper(z)
    phi = np.empty(z.shape, dtype=complex)
    out, ok = phi.reshape(-1), np.empty(z.size, dtype=bool)
    xs, ys = z.real.ravel(), z.imag.reshape(1, -1)
    for c in range(0, z.size, 4096):  # a call holds its points' whole paths
        part = slice(c, c + 4096)

        def keep(cols, phi_b, ok_b):
            out[part][cols], ok[part][cols] = phi_b[0], ok_b[0]
        _tracked_columns(params.alpha, params.s, params.r, xs[part],
                         ys[:, part], keep)
    if not np.all(ok):
        raise BranchCutError("continuation degenerated along the descent")
    return _scalar(phi)


def _paths(y_top, ys, knee):
    """(path, rows): a column per column of ys, a ladder of shape (m, 1) or
    one row a column, (1, n).  Column j is y_top[j], then ys[:, j] with
    each gap split at the knee into equal steps in log y, 24 or more a
    decade above it, 2 a decade below (a gap of length 0, or of rows an
    ulp apart, which can share a log, gets one), padded above with
    y_top[j] to the longest column, so that path[rows, j] == ys[:, j]
    exactly.  A padded row repeats its column's first and so continues
    nothing.  The columns are laid end to end in one np.interp call, which
    gives each what it gives it alone.  Logs, not ratios, which overflow
    for subnormal rows."""
    ends = np.concatenate((y_top[None, :], ys))
    logs = np.log10(ends)
    hi, lo = logs[:-1], logs[1:]
    # knots alternate an end and where its gap meets the knee (the knee,
    # or the end nearer to it): steps to it are dense, past it sparse
    knots, fp = np.zeros((2, 2 * len(ys) + 1, ys.shape[1]))
    fp[::2], mid = logs, fp[1::2]
    np.minimum(np.maximum(lo, float(np.log10(knee))), hi, out=mid)
    dense = knots[1::2]
    np.ceil(24.0 * (hi - mid), out=dense)
    np.maximum(np.ceil(2.0 * (mid - lo)), 1.0 - dense, out=knots[2::2])
    np.add.accumulate(knots, out=knots)
    size = int(knots[-1].max()) + 1
    # lay the columns end to end, each ending on its last position
    knots += np.arange(size - 1.0, size * ys.shape[1], size) - knots[-1]
    at = np.arange(float(size * ys.shape[1]))
    flat = 10.0 ** np.interp(at, knots.T.ravel(), fp.T.ravel())
    flat[knots[::2].astype(np.intp)] = ends
    path = flat.reshape(-1, size).T
    np.copyto(path, y_top, where=at.reshape(-1, size).T < knots[0])
    # column 0 sits at position 0; its ys rows are every column's
    return path, knots[2::2, 0].astype(np.intp)


def _tracked_columns(alpha, s, r, xs, ys_desc, keep):
    """phi on the grid xs[j] + 1j*ys_desc[i] by analytic continuation of
    the inverse map down each vertical line, handed over a block of
    columns at a time as keep(cols, phi, ok), so that no caller has to
    hold what it does not read.

    The single-valued composition is the inverse only high up on the
    truncated cone; descending toward the real axis its two non-integer
    powers can cross their cuts, silently switching sheets.  Each column
    therefore starts inside the cone and the arguments of both power bases
    are lifted continuously (unwrapped) down a path (_paths), through the
    rows ys_desc in steps of at most 1/24 decade down to 1e-4 of the
    member's scale and half a decade below (coarser steps, or a knee at
    1e-3, let columns switch sheet), staying on the sheet of the cone
    values.  ys_desc is a ladder for every column, whose one path starts
    above the widest x, or of shape (1, xs.size), one height a column,
    each down its own path from above its own x.  A path starts at
    max(10*scale, 1.5*max|x| over its columns, its first y), which must be
    finite: a first row that high is read off the composition.  ys_desc
    must be finite, positive and strictly decreasing.  phi and ok have
    rows matching ys_desc; a column is masked below any point where the
    continuation degenerates (zero or infinity in an intermediate).  For
    r = 1, F^-1(z) = z: one keep call gets every column, phi exactly 0.
    The columns run in blocks (see _in_blocks), each continued along the
    whole path but given its final power, F itself, on the ys_desc
    rows only, and keep must write only the columns it is given; the
    values do not depend on the thread count or the block size.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.ascontiguousarray(ys_desc, dtype=float)
    if not (len(ys) and np.isfinite(ys).all() and (ys > 0.0).all()
            and (ys[1:] < ys[:-1]).all()):
        raise DomainError("ys must be finite, positive and strictly "
                          "decreasing")
    ys = ys.reshape(len(ys), -1)  # (m, 1) a ladder, (1, n) a row a column
    if r == 1.0:  # F^-1(z) = z: phi is exactly 0, and no path is needed
        zero = np.broadcast_to(0j, (len(ys), xs.size))
        return keep(slice(None), zero, np.broadcast_to(True, zero.shape))
    sp, rp = complex(s) / r, 1.0 / r
    scale = max(1.0, _s_scale(alpha, s), _s_scale(alpha, sp)) \
        * max(1.0, r, rp)
    # max |x| over each path: all x for a ladder, its own for a point
    xmax = np.abs(xs).reshape(-1, ys.shape[1]).max(axis=0, initial=0.0)
    with np.errstate(over="ignore"):
        y_top = np.fmax(np.fmax(10.0 * scale, 1.5 * xmax), ys[0])
    if not np.isfinite(y_top).all():
        raise DomainError("the path start overflows: |s| or |x| too large")
    path, rows = _paths(y_top, ys, 1e-4 * scale)
    path = np.broadcast_to(path, (len(path), xs.size))

    # columns are continued independently: blocks of them keep the
    # continuation's memory bounded, and only the ys_desc rows are finished
    # and handed on
    def run(cols):
        ys_b = path[:, cols]
        Z = np.empty(ys_b.shape, dtype=complex)
        Z.real, Z.imag = xs[cols] + 0.0, ys_b  # x + 1j*y, -0.0 made +0.0
        with np.errstate(all="ignore"):
            l4, ok_b = _chain(alpha, sp, rp, Z, True)
            f_inv, ok_b = _power(-alpha, rp, l4[rows], ok_b[rows])
        f_inv -= Z[rows]
        keep(cols, f_inv, ok_b)
    _in_blocks(run, xs.size, len(path))


def _phi_tracked_block(alpha, s, r, xs, ys_desc):
    """(phi, ok) of _tracked_columns, gathered whole."""
    phi = np.empty((np.size(ys_desc), np.size(xs)), dtype=complex)
    ok = np.empty(phi.shape, dtype=bool)

    def keep(cols, phi_b, ok_b):
        phi[:, cols], ok[:, cols] = phi_b, ok_b
    _tracked_columns(alpha, s, r, xs, ys_desc, keep)
    return phi, ok


def phi_boundary(params, x, ys_desc):
    """phi at x + i*y down a decreasing ladder ys_desc, evaluated on the
    analytic-continuation sheet (see _tracked_columns).  Rows follow
    ys_desc; an array x gives one column per point."""
    phi, ok = _phi_tracked_block(params.alpha, params.s, params.r, x, ys_desc)
    if not np.all(ok):
        raise BranchCutError("continuation degenerated along the descent")
    return phi[:, 0] if np.ndim(x) == 0 else phi


def series_coefficients(params, N):
    """Coefficients c_0..c_N of z*G as a series in t = (-1/z)**alpha.

    z*G = g**p with p = 1/alpha and g(t) = 1 + r * sum_{n>=1} C(1/r, n+1)
    (-s)**n t**n, by J.C.P. Miller's power recurrence; c_0 = 1 always.
    """
    if N < 0:
        raise DomainError("N must be >= 0")
    alpha, s, r = params.alpha, params.s, params.r
    g = np.zeros(N + 1, dtype=complex)
    g[0] = 1.0
    for n in range(1, N + 1):
        g[n] = r * binom_coeff(1.0 / r, n + 1) * (-s) ** n
    p = 1.0 / alpha
    c = np.zeros(N + 1, dtype=complex)
    c[0] = 1.0
    for n in range(1, N + 1):
        # n c_n = sum_{k=1..n} ((p+1)k - n) g_k c_{n-k}, as g_0 = 1
        k = np.arange(1, n + 1)
        c[n] = np.sum(((p + 1.0) * k - n) * g[1:n + 1] * c[n - 1::-1]) / n
    return c


def series_G(params, z, N):
    """Truncated series evaluation of the transform near infinity.

    Valid where |s*(-1/z)**alpha| / r is small (inside default_cone); the
    direct composition cauchy_G is the reference elsewhere.
    """
    z = _upper(z)
    # (-1/z)**alpha on the upper-cut branch: arg -1/z = pi - arg z on C+
    t = np.exp(params.alpha * (1j * (np.pi - np.angle(z)) - np.log(abs(z))))
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
