import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from freeconv import family, fid
from freeconv import (AdmissibilityError, ConvergenceError, DomainError,
                      FamilyParams, StableParams, build_density_table,
                      cauchy_G, check_fid_grid, closed_beta_density,
                      collision_search, e_function, find_E_zero,
                      im_phi_cubic_pi2, is_admissible, levy_beta_closed,
                      levy_cubic_closed, levy_density_numeric, levy_table,
                      levy_triplet, phi_cubic, quadrature, r0_threshold,
                      stable_density, tau_atom, tau_interval_mass,
                      tau_total_mass, theory_verdict, ui_counterexample_map,
                      ui_heuristic, verification_cone, voiculescu_phi)


def test_phi_cubic_matches_general_evaluator():
    p = FamilyParams(1.0, 3j, 3.0)
    zs = np.array([0.3 + 0.2j, -1.0 + 0.5j, 2j, 5.0 + 1e-3j])
    got = phi_cubic(1j, zs)
    want = voiculescu_phi(p, zs)
    assert np.max(np.abs(got - want)) < 1e-11


def test_phi_cubic_pole():
    z0 = (-3.0 + 1j * np.sqrt(3.0)) / 6.0
    with pytest.raises(DomainError):
        phi_cubic(1.0, z0)


def test_im_phi_cubic_sign():
    xs = np.linspace(-10.0, 10.0, 81)
    ys = np.geomspace(1e-4, 10.0, 41)
    vals = im_phi_cubic_pi2(xs[None, :], ys[:, None])
    assert np.all(vals < 0.0)
    # agrees with the rational form
    z = 0.7 + 0.3j
    assert im_phi_cubic_pi2(0.7, 0.3) == pytest.approx(
        phi_cubic(1j, z).imag, abs=1e-14)


def test_levy_closed_forms():
    assert levy_cubic_closed(0.0) == 0.0
    assert levy_cubic_closed(1.0) == pytest.approx(9.0 / (13.0 * np.pi),
                                                   abs=1e-16)
    xs = np.linspace(0.1, 3.0, 7)
    np.testing.assert_allclose(levy_cubic_closed(xs), levy_cubic_closed(-xs))

    assert levy_beta_closed(1.5, 1.0 / 3.0) == pytest.approx(
        9.0 / (2.0 * np.pi), abs=1e-14)
    assert levy_beta_closed(1.5, -0.1) == 0.0
    assert levy_beta_closed(1.5, 0.7) == 0.0  # beyond 1/r
    with pytest.raises(DomainError):
        levy_beta_closed(2.0, 0.3)
    with pytest.raises(DomainError):
        levy_beta_closed(1.0, 0.3)


def test_levy_numeric_matches_closed():
    cubic = FamilyParams(1.0, 3j, 3.0)
    for x in (0.5, 1.0, -1.0, 2.0):
        assert levy_density_numeric(cubic, x) == pytest.approx(
            levy_cubic_closed(x), abs=1e-5)
    beta = FamilyParams(1.0, -1.0, 1.5)
    for x in (0.2, 1.0 / 3.0, 0.6):
        assert levy_density_numeric(beta, x) == pytest.approx(
            levy_beta_closed(1.5, x), abs=2e-5)
    with pytest.raises(DomainError):
        levy_density_numeric(cubic, 0.0)


def test_levy_r2_is_the_scaled_stable_density():
    # r = 2 members are free compound Poisson over the stable law at s/4,
    # so the Levy measure is that stable law itself
    for alpha, s, x in ((2.0, 1.0, 0.3), (2.0, 1.0, -0.45),
                        (0.5, -1.0, 0.5), (0.5, -1.0, 2.0)):
        fam = FamilyParams(alpha, s, 2.0)
        st = StableParams(alpha, s / 4.0)
        assert levy_density_numeric(fam, x) == pytest.approx(
            stable_density(st, x), abs=1e-4)
    # outside the stable support the Levy density vanishes
    beta2 = FamilyParams(1.0, -1.0, 2.0)
    assert levy_density_numeric(beta2, 0.7) == pytest.approx(0.0, abs=1e-8)


def test_boundary_read_across_support_edges():
    # the beta member's density and Levy density, and the arcsine Levy
    # density of (2, 1, 2), on windows across their power-law support
    # edges: against the closed forms, and err covers the true error
    beta = FamilyParams(1.0, -1.0, 1.5)
    arcsine = FamilyParams(2.0, 1.0, 2.0)
    tables = [
        (build_density_table(lambda z: cauchy_G(beta, z),
                             np.linspace(-0.5, 1.5, 4000)),
         lambda x: closed_beta_density(1.5, x), 1e-12),
        (levy_table(beta, np.linspace(-1.0, 3.0, 4000)),
         lambda x: levy_beta_closed(1.5, x), 1e-12),
        # the stable law at s/4 = 1/4: arcsine on (-1/2, 1/2)
        (levy_table(arcsine, np.linspace(-3.0, 3.0, 4000)),
         lambda x: np.where(x * x < 0.25, 1.0 / (np.pi * np.sqrt(
             np.abs(0.25 - x * x))), 0.0), 1e-10)]
    for table, closed, bound in tables:
        true = np.abs(table.values - closed(table.xs))
        assert np.max(true) < bound
        assert np.all(true <= table.errs)


def test_levy_table_matches_pointwise(monkeypatch):
    cubic = FamilyParams(1.0, 3j, 3.0)
    xs = np.array([-1.5, -0.5, 0.5, 1.5])
    tab = levy_table(cubic, xs)
    np.testing.assert_allclose(tab.values, levy_cubic_closed(xs), atol=1e-5)

    # a bad grid is refused before the continuation runs
    def no_continuation(*args):
        raise AssertionError("phi_boundary called")

    monkeypatch.setattr(fid, "phi_boundary", no_continuation)
    for bad in ([0.0, 1.0], [], [0.6, 0.5], [0.5, 0.5], [[0.5, 0.6]]):
        with pytest.raises(DomainError):
            levy_table(cubic, bad)
    with pytest.raises(DomainError, match="no point off x = 0"):
        levy_triplet(cubic, 0.0, 1.0, 1)  # the only grid point is x = 0


def test_levy_functions_share_one_x_zero_rule():
    # |x| < LEVY_X_MIN is refused by the point value and the table and
    # dropped from a triplet's window
    cubic = FamilyParams(1.0, 3j, 3.0)
    tiny = 0.1 * fid.LEVY_X_MIN
    for x in (tiny, -tiny, 0.0):
        with pytest.raises(DomainError):
            levy_density_numeric(cubic, x)
        with pytest.raises(DomainError):
            levy_table(cubic, [x, 1.0])
    assert levy_triplet(cubic, tiny, 1.0, 2).nu.xs.tolist() == [1.0]
    assert levy_triplet(cubic, -1.0, -tiny, 2).nu.xs.tolist() == [-1.0]


def test_negative_levy_density_names_the_point_and_the_verdict():
    # E of (1.7, 1, 4) has a zero at -0.323+0.161i, so the law is not
    # fid and its boundary density may go negative: the error gives the
    # most negative grid point and the verdict
    p = FamilyParams(1.7, 1.0, 4.0)
    xs = np.linspace(-3.0, 3.0, 400)
    with pytest.raises(ConvergenceError) as err:
        levy_table(p, xs)
    k = int(np.argmin(np.abs(xs + 0.293233)))
    assert str(err.value).endswith(
        f" at x = {xs[k]:.6g}; theory verdict: not-fid")
    assert str(err.value).startswith("Levy density went significantly "
                                     "negative, -")


def test_levy_table_blocks_are_exact(monkeypatch):
    # columns are continued independently, so neither the block size nor
    # the number of threads can change a single bit of the result, also
    # for an s neither real nor imaginary: complex products round by
    # operand order, which numpy swaps on large temporaries
    cubic = FamilyParams(1.0, 3j, 3.0)
    xs = np.linspace(-3.0, 3.0, 400)
    ys = np.geomspace(4.0, 1e-6, 60)

    def results():
        tab = levy_table(cubic, xs)
        out = [tab.values, tab.errs]
        for m in ((1.0, -3.0, 3.0), (1.0, -1.0, 2.0)):
            out += family._phi_tracked_block(
                *m, np.linspace(-4.0, 4.0, 120), ys)
        out += family._phi_tracked_block(
            0.7, np.exp(0.8j * np.pi), 1.7, np.linspace(-4.0, 4.0, 300), ys)
        return out

    monkeypatch.delenv("FREECONV_THREADS", raising=False)
    pooled = results()
    monkeypatch.setattr(family, "_BLOCK_POINTS", 10 ** 9)
    whole = results()
    monkeypatch.setattr(family, "_BLOCK_POINTS", 1)  # one column
    columns = results()
    # more threads than cores, switching as often as the interpreter
    # allows: the workers' disjoint column writes must still all land
    monkeypatch.setattr(family, "_thread_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = results()
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.undo()
    monkeypatch.setenv("FREECONV_THREADS", "1")
    serial = results()
    for other in (whole, columns, stressed, serial):
        for a, b in zip(pooled, other):
            assert np.array_equal(a, b)


def test_levy_table_memory_is_bounded():
    # the continuation path is held for one block of columns at a time;
    # holding it for all 20000 points at once peaked above 300 MB
    cubic = FamilyParams(1.0, 3j, 3.0)
    xs = np.linspace(-5.0, 5.0, 20000)
    tracemalloc.start()
    try:
        levy_table(cubic, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("member", [(1.0, -1.0, 2.0), (1.0, -3.0, 3.0)])
def test_fid_scan_keeps_masks_not_phi(member, monkeypatch):
    # at 1600x800 the complex phi grid alone is 20.5 MB (24 MB traced peak
    # when the scan kept it); the scan keeps two boolean masks (2.6 MB)
    # and one block of columns per thread, about 3 MB each
    monkeypatch.setenv("FREECONV_THREADS", "1")
    tracemalloc.start()
    try:
        rep = check_fid_grid(FamilyParams(*member), nx=1600, ny=800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == ("violation-found" if member[2] == 3.0
                           else "no-violation-on-grid")
    assert peak < 8 * 2 ** 20


def test_pool_is_kept_across_calls(monkeypatch):
    # a pool per call would start new threads, each free to take a new
    # malloc arena; the kept pool runs every call on the same workers
    seen = set()
    chain = family._chain

    def spy(*args, **kwargs):
        seen.add(threading.current_thread().name)
        return chain(*args, **kwargs)

    monkeypatch.setattr(family, "_thread_count", lambda: 2)
    monkeypatch.setattr(family, "_chain", spy)
    grid = (np.linspace(-4.0, 4.0, 400), np.geomspace(4.0, 1e-6, 60))
    wide = 1j + np.linspace(-4.0, 4.0, 3 * family._BLOCK_POINTS)
    for _ in range(4):
        family._phi_tracked_block(1.0, -1.0, 2.0, *grid)
        family.cauchy_G(FamilyParams(1.0, -1.0, 2.0), wide)
    assert threading.current_thread().name not in seen
    assert 1 <= len(seen) <= 2


def test_find_E_zero():
    got = find_E_zero(1.0, -1.0, 3.0)
    want = 1.0 / 6.0 + 1j / (6.0 * np.sqrt(3.0))
    assert abs(got - want) < 1e-10
    assert abs(e_function(1.0, -1.0, 3.0, got)) < 1e-10
    assert got.imag > 0
    assert find_E_zero(1.0, -1.0, 2.0) is None
    assert find_E_zero(2.0, 1.0, 2.0) is None
    assert find_E_zero(1.0, -1.0, 1.0) is None
    # this zero is only reachable with a negative winding index
    got = find_E_zero(1.5, 1.0, 8.0)
    assert got == pytest.approx(-0.21127360363143005
                                + 0.21127360363143005j, abs=1e-9)


def test_e_function_shapes():
    out = e_function(1.0, -1.0, 3.0, np.array([1j, 2j]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    assert isinstance(e_function(1.0, -1.0, 3.0, 1j), complex)


def test_r0_threshold():
    assert r0_threshold(1.5, 1.0) == pytest.approx(2.0, abs=1e-9)
    assert r0_threshold(2.0, 1.0) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(DomainError):
        r0_threshold(1.0, -1.0)
    with pytest.raises(AdmissibilityError):
        r0_threshold(1.5, -1j)
    with pytest.raises(AdmissibilityError):
        r0_threshold(1.5, -1.0)  # arg s = pi > (2 - alpha) pi


def _r0_walk(alpha, thetas, n=65):
    """Reference for r0_threshold by walking the arcs, every theta at
    once: step outward from 1 along each half of the unit circle while
    e^{it} stays in the sector theta - pi < arg(e^{it} - 1) <
    theta - pi + alpha*pi, pin the exit by 60 bisections on the
    membership predicate (the n steps only bracket it), and return 2 pi
    over the wider arc (at most pi)."""
    a1 = thetas[:, None] - np.pi

    def members(ts):
        beta = np.angle(np.exp(1j * ts) - 1.0)
        rel = np.mod(beta - a1, 2.0 * np.pi)
        return (rel > 1e-14) & (rel < alpha * np.pi - 1e-14)

    best = np.zeros(thetas.size)
    for sign in (1.0, -1.0):
        ts = sign * np.linspace(1e-9, np.pi, n)
        m = members(ts[None, :])
        stop = np.argmin(m, axis=1)  # first non-member along the walk
        lo = ts[np.maximum(stop - 1, 0)][:, None]
        hi = ts[stop][:, None]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            inside = members(mid)
            lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
        extent = np.where(m.all(axis=1), np.pi, np.abs(0.5 * (lo + hi))[:, 0])
        best = np.maximum(best, np.where(m[:, 0], extent, 0.0))
    return 2.0 * np.pi / best


def test_r0_threshold_is_the_walked_arc():
    # the closed form against the walk, over the whole stated range
    for alpha in np.linspace(1.0, 2.0, 101)[1:]:
        thetas = np.linspace(0.0, (2.0 - alpha) * np.pi, 100)
        want = _r0_walk(alpha, thetas)
        got = np.array([r0_threshold(alpha, np.exp(1j * t)) for t in thetas])
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


def test_theory_verdict_table():
    cases = [
        ((1.0, -1.0, 1.0), "fid"),
        ((2.0, 1.0, 2.0), "fid"),
        ((0.5, np.exp(3j * np.pi / 4.0), 1.7), "fid"),
        ((1.5, np.exp(1j * np.pi / 8.0), 4.0 / 3.0), "fid"),
        ((1.0, 3j, 3.0), "fid"),
        ((1.0, -3.0, 3.0), "not-fid"),
        ((1.0, -1.0, 2.5), "not-fid"),
        ((1.5, 1.0, 8.0), "not-fid"),
        ((0.9, np.exp(0.8j * np.pi), 3.0), "unknown"),
    ]
    for (alpha, s, r), want in cases:
        assert theory_verdict(FamilyParams(alpha, s, r)) == want


def test_fid_grid_clean_cases():
    for alpha, s, r in ((1.0, -1.0, 2.0), (1.0, 3j, 3.0), (2.0, 1.0, 1.0)):
        rep = check_fid_grid(FamilyParams(alpha, s, r), nx=80, ny=40)
        assert rep.verdict == "no-violation-on-grid"
        assert rep.witness is None
        assert rep.theory == "fid"
        assert rep.n_failures == 0
    d = rep.to_dict()
    assert d["verdict"] == "no-violation-on-grid"
    assert d["witness"] is None


def test_fid_grid_finds_violation():
    rep = check_fid_grid(FamilyParams(1.0, -3.0, 3.0),
                         rect=(0.1, 0.6, 1e-6, 0.5), nx=120, ny=60)
    assert rep.verdict == "violation-found"
    assert rep.theory == "not-fid"
    w = rep.witness
    assert 0.1 <= w.real <= 0.6 and 0.0 < w.imag <= 1.0
    assert rep.witness_im_phi > 1e-9
    d = rep.to_dict()
    assert d["witness"] == {"re": w.real, "im": w.imag}
    with pytest.raises(DomainError):
        check_fid_grid(FamilyParams(1.0, -3.0, 3.0), rect=(0, 1, 0, 1))
    # a rect or tol that is not finite is refused, not scanned as clean
    for rect in ((0.0, np.inf, 1e-3, 1.0), (-np.inf, 1.0, 1e-3, 1.0),
                 (0.0, 1.0, 1e-3, np.inf), (np.nan, 1.0, 1e-3, 1.0)):
        with pytest.raises(DomainError):
            check_fid_grid(FamilyParams(1.0, -1.0, 1.5), rect=rect, nx=4,
                           ny=4)
    # so is one whose width overflows: its grid was all NaN, which read
    # as a clean scan of a not-fid member
    with pytest.raises(DomainError, match="width"):
        check_fid_grid(FamilyParams(1.0, -3.0, 3.0),
                       rect=(-1e308, 1e308, 1e-3, 1.0), nx=4, ny=4)
    # a finite rect whose continuation cannot start (1.5 * xmax overflows)
    # is refused by the continuation
    with pytest.raises(DomainError, match="path start overflows"):
        check_fid_grid(FamilyParams(1.0, -1.0, 2.0),
                       rect=(0.0, 1.5e308, 1e-3, 1.0), nx=4, ny=4)
    for tol in (np.nan, np.inf, -1e-9):
        with pytest.raises(DomainError):
            check_fid_grid(FamilyParams(1.0, -3.0, 3.0), nx=40, ny=20,
                           tol=tol)
    # a degenerate grid is refused, not reported as a clean scan
    for nx, ny in ((1, 60), (0, 60), (120, 1), (-3, 60)):
        with pytest.raises(DomainError):
            check_fid_grid(FamilyParams(1.0, -3.0, 3.0), nx=nx, ny=ny)


def test_r1_phi_is_exactly_zero():
    # for r = 1, F^-1(z) = z: the continuation hands back exact zeros and
    # walks no path, so the boundary values, the scan and the Levy table
    # read 0, not the chain's rounding (5.4e-15 for (2, 1, 1) before), and
    # voiculescu_phi agrees with phi_boundary bit for bit
    xs = np.linspace(-3.0, 3.0, 101)
    ys = np.geomspace(10.0, 1e-13, 30)
    for alpha, s in ((2.0, 1.0), (1.0, -1.0), (0.7, np.exp(0.8j * np.pi)),
                     (1.0, 3j)):
        p = FamilyParams(alpha, s, 1.0)
        assert not np.any(family.phi_boundary(p, xs, ys))
        for x, y in ((2.0, 1.0), (-3.0, 1e-13), (1e3, 5.0), (0.0, 1e300)):
            phi = voiculescu_phi(p, x + 1j * y)
            assert phi == family.phi_boundary(p, x, [y])[0] == 0.0
        rep = check_fid_grid(p, nx=40, ny=20, tol=0.0)
        assert rep.verdict == "no-violation-on-grid"
        assert rep.n_failures == 0
        table = levy_table(p, np.linspace(0.1, 1.0, 5))
        assert not np.any(table.values)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 8: family._core computes 1 - w2**(1/r) with w2 = "
    "1 - s*(-1/z)**alpha near 1, which cancels at large |z|; for "
    "(1, -1, 2) at 0.5+1e8i phi reads -0.5 + 3.4e-7i against z/(4z - 1) "
    "= 0.25 - 6.25e-10i, and the scan up to y = 1e10 reports a violation "
    "on a fid member.  Kept strict so the kernel fix is flagged."))
def test_phi_and_scan_at_large_z():
    p = FamilyParams(1.0, -1.0, 2.0)
    z = 0.5 + 1e8j
    assert abs(voiculescu_phi(p, z) - z / (4.0 * z - 1.0)) < 1e-6
    rep = check_fid_grid(p, rect=(-1.0, 1.0, 1e-3, 1e10), nx=40, ny=40)
    assert rep.verdict == "no-violation-on-grid"


# the atlas's "unknown" members on which the default scan finds no
# violation, as (alpha, k, r) with arg s = k*pi/6; every other unknown
# member shows a confirmed one
_ATLAS_CLEAN_UNKNOWN = {
    (0.5, 4, 2.5), (0.5, 4, 3.0), (0.5, 5, 2.5), (0.5, 5, 3.0),
    (0.8, 3, 2.5), (0.8, 4, 2.5), (1.0, 2, 2.5), (1.0, 3, 2.5),
    (1.0, 4, 2.5), (1.3, 1, 2.5), (1.3, 2, 2.5), (1.3, 3, 2.5),
    (1.7, 0, 1.5), (1.7, 1, 1.5), (1.7, 1, 2.5), (2.0, 0, 1.5)}


def test_fid_atlas_agrees_with_theory():
    # the 120 admissible members with alpha in {0.5, 0.8, 1, 1.3, 1.7, 2},
    # arg s = k*pi/6 and r in {1.5, 2.5, 3, 4, 6}, at the CLI's default
    # 400x200 scan: no verdict contradicts theory_verdict, and the
    # verdicts on the 57 members it cannot classify stay as recorded
    counts = {"fid": 0, "not-fid": 0, "unknown": 0}
    for alpha in (0.5, 0.8, 1.0, 1.3, 1.7, 2.0):
        for k in range(7):
            s = np.exp(1j * k * np.pi / 6.0)
            if not is_admissible(alpha, s):
                continue
            for r in (1.5, 2.5, 3.0, 4.0, 6.0):
                rep = check_fid_grid(FamilyParams(alpha, s, r))
                counts[rep.theory] += 1
                clean = rep.verdict == "no-violation-on-grid"
                if rep.theory == "unknown":
                    want = (alpha, k, r) in _ATLAS_CLEAN_UNKNOWN
                else:
                    want = rep.theory == "fid"
                assert clean == want, (alpha, k, r, rep.theory)
                assert clean == (rep.witness is None)
                assert rep.n_failures == 0
    assert counts == {"fid": 22, "not-fid": 41, "unknown": 57}


def test_tau_values():
    cubic = FamilyParams(1.0, 3j, 3.0)
    assert tau_total_mass(cubic) == pytest.approx(4.0 / 7.0, abs=1e-12)
    got = tau_interval_mass(cubic, 0.5, 1.5)
    want = quadrature(lambda x: x ** 2 * levy_cubic_closed(x), 0.5, 1.5)
    assert got == pytest.approx(want, abs=1e-5)
    with pytest.raises(DomainError):
        tau_interval_mass(cubic, 1.5, 0.5)

    beta2 = FamilyParams(1.0, -1.0, 2.0)
    assert tau_atom(beta2, 0.25) == pytest.approx(1.0 / 17.0, abs=1e-9)
    assert tau_atom(FamilyParams(2.0, 1.0, 2.0), 0.0) == pytest.approx(
        0.0, abs=1e-10)


def test_tau_atom_at_zero_keeps_no_step_bias():
    # read off F^-1 = phi + z: phi's -z term alone left -2y**2 = -2e-12
    for member in ((1.0, 3j, 3.0), (2.0, 1.0, 2.0), (1.0, -1.0, 1.5),
                   (1.0, -1.0, 2.0), (1.0, 1j, 2.0), (0.5, -1.0, 2.0),
                   (1.7, 1.0, 4.0)):
        assert abs(tau_atom(FamilyParams(*member), 0.0)) <= 1e-14, member


def test_levy_triplet_cubic():
    cubic = FamilyParams(1.0, 3j, 3.0)
    trip = levy_triplet(cubic, -3.0, 3.0, 41)
    assert trip.gamma == pytest.approx(0.0, abs=1e-6)
    assert trip.a == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(trip.nu.values,
                               levy_cubic_closed(trip.nu.xs), atol=2e-4)
    d = trip.to_dict()
    assert set(d) == {"gamma", "a", "nu"}


def test_collision_search_counterexample():
    # z + 1/(z-1) + 1/(z+1) maps the upper half-plane but identifies
    # distinct points of the imaginary axis
    grid = 1j * np.linspace(0.05, 0.95, 200)
    hit = collision_search(ui_counterexample_map, grid)
    assert hit is not None
    z1, z2 = hit
    assert abs(z1 - z2) > 1e-3
    assert abs(ui_counterexample_map(z1) - ui_counterexample_map(z2)) < 1e-12
    assert z1.imag > 0 and z2.imag > 0


def test_collision_search_clean_on_injective_map():
    grid = (np.linspace(-2, 2, 20)[None, :]
            + 1j * np.linspace(0.1, 2, 10)[:, None]).ravel()
    assert collision_search(lambda z: z, grid) is None
    assert collision_search(lambda z: z, np.array([1j])) is None


def test_ui_heuristic_clean():
    p = FamilyParams(1.0, -1.0, 2.0)
    grid = verification_cone(1.0, -1.0).sample(300)
    assert ui_heuristic(p, grid) is None


def test_thread_count_env(monkeypatch):
    cpus = os.cpu_count() or 1
    assert fid._thread_count is family._thread_count
    monkeypatch.delenv("FREECONV_THREADS", raising=False)
    assert family._thread_count() == min(4, cpus)
    monkeypatch.setenv("FREECONV_THREADS", "1")
    assert family._thread_count() == 1
    # values past the CPU count are capped, never handed to the pool
    monkeypatch.setenv("FREECONV_THREADS", "100000")
    assert family._thread_count() == cpus
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("FREECONV_THREADS", bad)
        with pytest.raises(DomainError):
            family._thread_count()
