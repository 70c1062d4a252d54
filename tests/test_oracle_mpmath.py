"""The branch-resolved kernel against an independent 40-digit port of its
branch conventions in mpmath.

The port evaluates the composition of family.py's module docstring at
the kernel's own float input z, so the only difference left is the
kernel's rounding: a slip onto another branch, or a lost sheet, reads
O(1).  Large |z|, where `1 - w2**(1/r)` cancels (ROADMAP item 8), stays
with the strict xfail `test_phi_and_scan_at_large_z`; every point here
has |z| <= 20.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

from freeconv.family import _core  # noqa: E402

# fixed before the run: both kernels' worst relative error on |z| <= 20
# was about 2e-14, and a branch slip is O(1)
BOUND = 1e-12
# relative distance of a cut point from its cut, on either side
CUT_GAP = 1e-7

MEMBERS = [(1.0, -1.0, 2.0), (2.0, 1.0, 2.0),
           (0.7, np.exp(0.8j * np.pi), 1.7), (1.5, np.exp(0.3j), 2.5),
           (1.0, 3j, 3.0), (0.5, np.exp(2j * np.pi / 3), 3.0),
           (1.3, 1.0, 2.0), (1.0, -1.0, 1.5),
           (1.8, np.exp(0.1j * np.pi), 2.6), (0.5, -1.0, 2.0)]


def _log_upper(w):
    arg = mpmath.arg(w)
    if arg <= 0:
        arg += 2 * mpmath.pi
    return mpmath.mpc(mpmath.log(abs(w)), arg)


def _stages(alpha, s, r, z):
    """(w2, w4, G) of the composition at 40 digits."""
    with mpmath.workdps(40):
        alpha, r = mpmath.mpf(alpha), mpmath.mpf(r)
        s, z = mpmath.mpc(s), mpmath.mpc(z)
        w2 = 1 - s * mpmath.exp(alpha * _log_upper(-1 / z))
        w4 = (1 - mpmath.exp(mpmath.log(w2) / r)) / s
        return w2, w4, -r ** (1 / alpha) * mpmath.exp(_log_upper(w4) / alpha)


def _preimages(alpha, s, w2):
    """The z whose first stage is w2: every u = -1/z off the cut [0, inf)
    with u**alpha = (1 - w2)/s on some sheet; below the real axis too,
    where the kernel is called on Newton candidates and inner values."""
    with mpmath.workdps(40):
        v = (1 - mpmath.mpc(w2)) / mpmath.mpc(s)
        out = []
        for k in range(-4, 5):
            arg = (mpmath.arg(v) + 2 * k * mpmath.pi) / alpha
            if 0 < arg < 2 * mpmath.pi:
                u = abs(v) ** (1 / mpmath.mpf(alpha)) * mpmath.expj(arg)
                out.append(complex(-1 / u))
        return out


def _cut_points(alpha, s, r, rng):
    """Points next to each cut: -1/z next to [0, inf) (z next to the
    negative axis, from above), w2 next to (-inf, 0] and w4 next to
    [0, inf), each CUT_GAP away on either side, where the member's maps
    reach them."""
    pts = [complex(-x, CUT_GAP * x) for x in rng.uniform(0.05, 20.0, 4)]
    for a in 10.0 ** rng.uniform(-2.0, 1.0, 10):
        for side in (1.0, -1.0):
            pts += _preimages(alpha, s, -a * (1.0 + side * CUT_GAP * 1j))
            w3 = 1.0 - s * a * (1.0 + side * CUT_GAP * 1j)
            # w2 = w3**r, with the principal log taking w2 back to w3
            if abs(np.angle(w3)) * r < np.pi:
                pts += _preimages(alpha, s, w3 ** r)
    return pts


def _points(alpha, s, r, seed):
    rng = np.random.default_rng(seed)
    scale = max(1.0, abs(s) ** (1.0 / alpha))
    sector = 10.0 ** rng.uniform(-2.0, np.log10(20.0), 100) \
        * np.exp(1j * rng.uniform(1e-6, np.pi - 1e-6, 100))
    axis = rng.uniform(-3.0, 3.0, 100) * scale \
        + 1j * 10.0 ** rng.uniform(-13.0, 0.0, 100)
    z = np.concatenate((sector, axis, _cut_points(alpha, s, r, rng)))
    return z[np.abs(z) <= 20.0]


def _near_cuts(alpha, s, r, z):
    """How many points of z put w2 next to its cut, and w4 next to its."""
    near = np.zeros(2, dtype=int)
    for zk in z:
        w2, w4, _ = _stages(alpha, s, r, zk)
        near += (abs(w2.imag) < 1e-6 * abs(w2) and w2.real < 0,
                 abs(w4.imag) < 1e-6 * abs(w4) and w4.real > 0)
    return near


def test_the_points_reach_each_cut():
    near = np.array([_near_cuts(*m, _points(*m, seed=8 + k))
                     for k, m in enumerate(MEMBERS)])
    assert np.count_nonzero(near >= 4, axis=0).tolist() >= [6, 6], near


@pytest.mark.parametrize("member", MEMBERS, ids=str)
def test_kernel_matches_the_mpmath_port(member):
    alpha, s, r = member
    z = _points(alpha, s, r, seed=8 + MEMBERS.index(member))
    assert z.size > 200 and np.all(z[:200].imag > 0.0)
    g, ok_g = _core(alpha, s, r, z, False)
    f, ok_f = _core(alpha, s, r, z, True)
    assert ok_g.all() and ok_f.all()
    for k, zk in enumerate(z):
        want = _stages(alpha, s, r, zk)[2]
        for got, ref in ((g[k], want), (f[k], 1 / want)):
            err = abs(mpmath.mpc(got) - ref) / abs(ref)
            assert err < BOUND, (zk, got, complex(ref), float(err))
