"""The branch-resolved kernel against an independent 40-digit port of its
branch conventions in mpmath.

The port evaluates the composition of family.py's module docstring, the
stable law's F and E at the kernel's own float input z, so the only
difference left is the kernel's rounding: a slip onto another branch, or
a lost sheet, reads O(1).  The continuation below the cone is checked on
the r = 2 members, whose inverse map has a closed form single-valued on
C+, so its port tracks no sheet.  Large |z|, where `1 - w2**(1/r)`
cancels (ROADMAP item 8), stays with the strict xfail
`test_phi_and_scan_at_large_z`; every point here has |z| <= 20.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

from freeconv import FamilyParams, voiculescu_phi  # noqa: E402
from freeconv.family import _core  # noqa: E402
from freeconv.fid import e_function  # noqa: E402
from freeconv.stable_poisson import _stable_core  # noqa: E402

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

# (alpha, s) of r = 2 members across alpha in [0.5, 2] and the sector
R2_MEMBERS = [(0.5, -1.0), (0.5, 1j), (0.7, np.exp(0.8j * np.pi)),
              (1.0, -1.0), (1.0, 3j), (1.0, 1.0), (1.3, 1.0),
              (1.5, np.exp(0.3j)), (1.8, np.exp(0.1j * np.pi)), (2.0, 1.0)]


def _log_upper(w):
    arg = mpmath.arg(w)
    if arg <= 0:
        arg += 2 * mpmath.pi
    return mpmath.mpc(mpmath.log(abs(w)), arg)


def _w2(alpha, s, z):
    """1 - s*(-1/z)**alpha, the first stage, at 40 digits."""
    with mpmath.workdps(40):
        return 1 - mpmath.mpc(s) * mpmath.exp(mpmath.mpf(alpha)
                                              * _log_upper(-1 / mpmath.mpc(z)))


def _stages(alpha, s, r, z):
    """(w2, w4, G) of the composition at 40 digits."""
    with mpmath.workdps(40):
        w2 = _w2(alpha, s, z)
        alpha, r, s = mpmath.mpf(alpha), mpmath.mpf(r), mpmath.mpc(s)
        w4 = (1 - mpmath.exp(mpmath.log(w2) / r)) / s
        return w2, w4, -r ** (1 / alpha) * mpmath.exp(_log_upper(w4) / alpha)


def _stable_F(alpha, s, z):
    """F(z) = z*(1 - s*(-1/z)**alpha)**(1/alpha) of the stable law."""
    with mpmath.workdps(40):
        return mpmath.mpc(z) * mpmath.exp(mpmath.log(_w2(alpha, s, z))
                                          / mpmath.mpf(alpha))


def _E(alpha, s, r, z):
    """E(z) = (1 - (1 - (s/r)*(-1/z)**alpha)**r)/s."""
    with mpmath.workdps(40):
        w = _w2(alpha, mpmath.mpc(s) / r, z)
        return (1 - mpmath.exp(r * mpmath.log(w))) / mpmath.mpc(s)


def _finv_r2(alpha, s, z):
    """F^-1 of the r = 2 member, z**2 G_a(z) for the stable law a at s/4:
    z / (1 - (s/4)*(-1/z)**alpha)**(1/alpha), whose base stays off
    (-inf, 0] for z in C+ and an admissible s."""
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        return z * z / _stable_F(alpha, mpmath.mpc(s) / 4, z)


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


def _near_cuts(alpha, s, r, z, z_e):
    """How many points of z put w2 next to its cut, and w4 next to its,
    and how many of z_e put E's first stage next to the cut of w2."""
    near = np.zeros(3, dtype=int)
    for zk in z:
        w2, w4, _ = _stages(alpha, s, r, zk)
        near[:2] += (abs(w2.imag) < 1e-6 * abs(w2) and w2.real < 0,
                     abs(w4.imag) < 1e-6 * abs(w4) and w4.real > 0)
    for zk in z_e:
        w = _w2(alpha, s / r, zk)
        near[2] += abs(w.imag) < 1e-6 * abs(w) and w.real < 0
    return near


def test_the_points_reach_each_cut():
    near = np.array([_near_cuts(*m, _points(*m, seed=8 + k),
                                _points(m[0], m[1] / m[2], m[2], seed=8 + k))
                     for k, m in enumerate(MEMBERS)])
    assert np.count_nonzero(near >= 4, axis=0).tolist() >= [6, 6, 6], near


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


def _assert_matches(got, z, port, plus_z=False):
    """Each got within BOUND of port(z), relative; with plus_z, got + z,
    summed at 40 digits."""
    for gk, zk in zip(got, z):
        ref = port(zk)
        with mpmath.workdps(40):
            err = abs(mpmath.mpc(gk) + plus_z * mpmath.mpc(zk) - ref) \
                / abs(ref)
        assert err < BOUND, (zk, gk, complex(ref), float(err))


@pytest.mark.parametrize("member", MEMBERS, ids=str)
def test_stable_law_and_E_match_the_port(member):
    # the stable law's F shares the composition's first stage, and so its
    # points next to the cut of w2; E's first stage is at s/r, whose
    # points are made for it
    alpha, s, r = member
    seed = 8 + MEMBERS.index(member)
    z = _points(alpha, s, r, seed)
    f, ok = _stable_core(alpha, s, z)
    assert ok.all()
    _assert_matches(f, z, lambda zk: _stable_F(alpha, s, zk))
    z = _points(alpha, s / r, r, seed)
    _assert_matches(e_function(alpha, s, r, z), z,
                    lambda zk: _E(alpha, s, r, zk))


@pytest.mark.parametrize("member", R2_MEMBERS, ids=str)
def test_continuation_matches_the_r2_closed_form(member):
    # F^-1 = phi + z below the cone, down to y = 1e-13, where a column
    # that lost its sheet reads O(1)
    alpha, s = member
    z = _points(alpha, s, 2.0, seed=30 + R2_MEMBERS.index(member))
    z = z[z.imag > 0.0]
    assert z.size > 200 and z.imag.min() < 1e-12
    phi = voiculescu_phi(FamilyParams(alpha, s, 2.0), z)
    _assert_matches(phi, z, lambda zk: _finv_r2(alpha, s, zk), plus_z=True)
