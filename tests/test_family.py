import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv import (AdmissibilityError, DomainError, FamilyParams,
                      TruncatedCone, cauchy_G, default_cone, inverse_F,
                      is_admissible, r0_threshold, r_transform, reciprocal_F,
                      series_coefficients, series_G, verification_cone,
                      verify_composition, verify_self_similarity,
                      voiculescu_phi)
from freeconv import family
from freeconv.branches import binom_coeff
from freeconv.family import _paths, _phi_tracked_block, phi_boundary
from freeconv.fid import default_fid_rect
from freeconv.stable_poisson import StableParams, stable_G
from freeconv.stieltjes import build_density_table


def test_params_validation():
    p = FamilyParams(1.0, -1.0, 2.0)
    assert p.theta == pytest.approx(np.pi)
    with pytest.raises(AdmissibilityError):
        FamilyParams(2.0, 1j, 2.0)
    with pytest.raises(AdmissibilityError):
        FamilyParams(1.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        FamilyParams(1.0, -1.0, 0.0)
    # an infinite s or r was accepted: theory_verdict read "fid" or
    # "not-fid", and cauchy_G warned and raised a BranchCutError
    for alpha, s, r in ((1.5, complex(np.inf, 0.0), 2.0),
                        (1.0, complex(-np.inf, 0.0), 2.0),
                        (1.0, complex(np.nan, 0.0), 2.0),
                        (1.0, -1.0, np.inf), (1.0, -1.0, np.nan)):
        with pytest.raises(DomainError):
            FamilyParams(alpha, s, r)
    for s in (complex(np.inf, 0.0), complex(-np.inf, 0.0), np.inf):
        assert not is_admissible(1.0, s)
        with pytest.raises(DomainError):
            StableParams(1.5, s)


def test_admissible_sector():
    assert is_admissible(1.0, 1j)
    assert not is_admissible(2.0, 1j)
    assert not is_admissible(0.5, np.exp(1j * np.pi / 4))
    assert is_admissible(0.5, -1.0)
    assert is_admissible(2.0, 1.0)
    assert is_admissible(1.5, np.exp(1j * np.pi / 4))
    assert not is_admissible(1.0, -1.0 - 1e-6j)  # arg below 0
    assert not is_admissible(2.5, 1.0)


def test_negative_zero_s_is_the_negative_axis():
    # arg(-1-0j) is -pi; a signed zero is folded to +0, so these are the
    # s = -1 members, bit for bit
    neg0 = -(1 + 0j)
    assert np.signbit(neg0.imag)
    assert is_admissible(1.0, neg0) and is_admissible(0.5, neg0)
    z = np.array([1j, 0.3 + 0.2j, -2.0 + 0.5j, 1e-3 + 1e-9j])
    for alpha, r in ((1.0, 2.0), (0.5, 2.0), (1.0, 1.5)):
        p, want = FamilyParams(alpha, neg0, r), FamilyParams(alpha, -1.0, r)
        assert p.theta == want.theta == np.pi
        assert not np.signbit(p.s.imag)
        for fn in (cauchy_G, reciprocal_F, inverse_F, voiculescu_phi):
            assert np.array_equal(fn(p, z), fn(want, z))
        assert np.array_equal(phi_boundary(p, 0.3, np.array([1.0, 0.5])),
                              phi_boundary(want, 0.3, np.array([1.0, 0.5])))
    a, want = StableParams(1.0, neg0), StableParams(1.0, -1.0)
    assert (a.theta, a.R) == (want.theta, want.R) == (np.pi, 1.0)
    assert np.array_equal(stable_G(a, z), stable_G(want, z))
    # a complex s without signed zeros is kept as given
    assert FamilyParams(1.0, 3j, 2.0).s == 3j
    assert FamilyParams(1.0, -1.0, 2.0).s == -1.0


def test_theta_just_below_zero_reads_zero():
    # an arg s just below 0, inside the sector's tolerance, is theta = 0
    # in both parameter classes and in r0_threshold (FamilyParams read
    # 2*pi - 1e-13)
    s = 1 - 1e-13j
    assert FamilyParams(1.0, s, 3.0).theta == StableParams(1.0, s).theta == 0.0
    assert r0_threshold(1.5, s) == r0_threshold(1.5, 1.0) == 2.0


def test_r1_collapses_to_point_mass():
    for alpha, s in ((1.0, -1.0), (0.5, -1.0), (2.0, 1.0), (1.0, 3j)):
        p = FamilyParams(alpha, s, 1.0)
        assert cauchy_G(p, 2j) == -0.5j  # exactly 1/z
        assert reciprocal_F(p, 1 + 1j) == 1 + 1j
        assert inverse_F(p, 1 + 1j) == 1 + 1j
        assert voiculescu_phi(p, 2j) == 0


def test_G_alpha2_matches_symmetric_beta_closed_form():
    # alpha=2, s=1, r=2: the chain reduces to
    # -sqrt(2) * sqrt(1 - sqrt(1 - 1/z^2)), upper branch outside.
    p = FamilyParams(2.0, 1.0, 2.0)
    got = cauchy_G(p, 3j)
    inner = np.sqrt(10.0 / 9.0)  # sqrt(1 - 1/(3i)^2)
    want = -np.sqrt(2.0) * 1j * np.sqrt(inner - 1.0)
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(-0.32891504492637563j, abs=1e-15)


def test_G_alpha1_beta_closed_form():
    # alpha=1, s=-1: G = r*(1 - (1 - 1/z)**(1/r)), principal branch
    for r in (1.5, 2.0, 3.0):
        p = FamilyParams(1.0, -1.0, r)
        for z in (0.5 + 0.8j, -1 + 2j, 3j, 2 + 0.1j):
            want = r * (1 - (1 - 1 / z) ** (1 / r))
            assert cauchy_G(p, z) == pytest.approx(want, abs=1e-14)


def test_G_maps_into_lower_half_plane():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-5, 5, 60) + 1j * rng.uniform(0.05, 8, 60)
    for alpha, s, r in ((1.0, -1.0, 2.0), (2.0, 1.0, 2.0), (0.5, -1.0, 1.5),
                        (1.0, 3j, 3.0), (1.5, np.exp(1j * np.pi / 8), 2.0)):
        vals = cauchy_G(FamilyParams(alpha, s, r), pts)
        assert np.all(vals.imag < 0)


def test_G_rejects_lower_half_plane_and_small_r():
    p = FamilyParams(1.0, -1.0, 2.0)
    with pytest.raises(DomainError):
        cauchy_G(p, 1 - 1j)
    with pytest.raises(DomainError):
        cauchy_G(FamilyParams(1.0, -1.0, 0.5), 1j)
    with pytest.raises(DomainError):
        reciprocal_F(FamilyParams(1.0, -1.0, 0.5), 1j)


def test_zG_tends_to_one():
    for alpha, s, r in ((1.0, -1.0, 2.0), (2.0, 1.0, 2.0), (1.0, 3j, 3.0)):
        p = FamilyParams(alpha, s, r)
        y = 1e3 * max(1.0, abs(complex(s)) ** (1.0 / alpha))
        assert abs(1j * y * cauchy_G(p, 1j * y) - 1) < 0.01


def test_F_expands_imaginary_part():
    p = FamilyParams(1.0, -1.0, 2.0)
    f = reciprocal_F(p, 1 + 1j)
    assert f == pytest.approx(1 / cauchy_G(p, 1 + 1j))
    assert f.imag > 1.0
    # asymptotically F(iy)/iy -> 1
    assert abs(reciprocal_F(p, 1e5j) / 1e5j - 1) < 1e-4


def test_inverse_round_trip():
    p = FamilyParams(1.0, -1.0, 2.0)
    z = 1 + 2j
    assert abs(inverse_F(p, reciprocal_F(p, z)) - z) < 1e-11
    assert abs(reciprocal_F(p, inverse_F(p, z)) - z) < 1e-11
    for alpha, s, r in ((2.0, 1.0, 2.0), (0.5, -1.0, 1.5), (1.0, 3j, 3.0)):
        q = FamilyParams(alpha, s, r)
        grid = verification_cone(alpha, s).sample(64)
        res = np.max(np.abs(inverse_F(q, reciprocal_F(q, grid)) - grid))
        assert res < 1e-10


def test_inverse_F_blows_up_at_inner_zero():
    # (1,-1,3): the inner expression vanishes at 1/6 + i/(6*sqrt(3))
    p = FamilyParams(1.0, -1.0, 3.0)
    z0 = 1 / 6 + 1j / (6 * np.sqrt(3))
    assert abs(inverse_F(p, z0 + 1e-9j)) > 1e6


def test_phi_is_the_continuation_below_the_cone():
    # phi of the r = 2 member is z**2 G_a - z, a the stable law at s/4, down
    # to the axis; the composition at (s/r, 1/r) missed it by up to 15.8
    # on this grid, with Im phi up to +5.6, by switching sheet
    xs = np.linspace(-3.0, 3.0, 41)
    ys = np.geomspace(1e-3, 3.0, 24)
    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    tol = 1e-12 * np.maximum(1.0, np.abs(z))
    for alpha, s in ((2.0, 1.0), (1.3, 1.0), (0.7, np.exp(0.8j * np.pi)),
                     (1.5, np.exp(0.3j))):
        p = FamilyParams(alpha, s, 2.0)
        want = z ** 2 * stable_G(StableParams(alpha, s / 4), z) - z
        assert np.all(np.abs(voiculescu_phi(p, z) - want) < tol)
        assert np.all(np.abs(inverse_F(p, z) - z - want) < tol)
        for k in range(0, z.size, 13):  # R(w) = w phi(1/w) at w = 1/z
            assert abs(z[k] * r_transform(p, 1 / z[k]) - want[k]) < tol[k]
    # one point is one continuation, bit for bit
    p = FamilyParams(2.0, 1.0, 2.0)
    assert voiculescu_phi(p, 0.5 + 0.1j) == phi_boundary(p, 0.5, [0.1])[0]


def test_phi_at_a_point_does_not_depend_on_its_array(monkeypatch):
    # each point takes its own path, the one phi_boundary(p, x, [y]) takes:
    # a wide array of equal heights with one large |x| among them, and an
    # array of scattered heights, give every point its value alone, bit
    # for bit, in a few wide kernel calls, not one per height
    rng = np.random.default_rng(19)
    same = np.append(rng.uniform(-3.0, 3.0, 400), 1e6) + 0.1j
    scattered = rng.uniform(-3.0, 3.0, 1000) \
        + 1j * 10.0 ** rng.uniform(-3.0, 1.5, 1000)
    calls = []
    chain = family._chain
    monkeypatch.setattr(family, "_chain",
                        lambda *a: calls.append(1) or chain(*a))
    for alpha, s in ((2.0, 1.0), (0.7, np.exp(0.8j * np.pi))):
        p = FamilyParams(alpha, s, 2.0)
        for z in (same, scattered):
            calls.clear()
            wide = voiculescu_phi(p, z)
            assert len(calls) <= 16
            for k in [*range(0, z.size, 37), z.size - 1]:
                alone = voiculescu_phi(p, z[k])
                assert wide[k] == alone
                assert alone == phi_boundary(p, z[k].real, [z[k].imag])[0]


def test_phi_above_the_path_start_is_the_composition(monkeypatch):
    # a point at or above its path's start, max(10*scale, 1.5*|x|), takes
    # no step: its path is its own row twice, and phi is the composition at
    # (s/r, 1/r) bit for bit.  On (2, 1, 2) about half the points give the
    # last power base a negative angle, so the path's lift of its first
    # row, th[0] <= 0, must pick the sheet the upper-cut log picks
    rng = np.random.default_rng(31)
    lifted = 0
    for alpha, s, r in ((1.0, -1.0, 2.0), (2.0, 1.0, 2.0), (1.3, 1.0, 2.0),
                        (0.7, np.exp(0.8j * np.pi), 1.7),
                        (1.5, np.exp(0.3j), 2.5), (1.0, 3j, 3.0),
                        (0.5, np.exp(2j * np.pi / 3), 3.0),
                        (1.0, -1.0, 1.5)):
        p = FamilyParams(alpha, s, r)
        sp, rp = complex(p.s) / r, 1.0 / r  # as the continuation divides
        scale = max(1.0, abs(p.s) ** (1.0 / alpha),
                    abs(sp) ** (1.0 / alpha)) * max(r, rp)
        x = rng.uniform(-1e3, 1e3, 4000)
        floor = np.maximum(10.0 * scale, 1.5 * np.abs(x))
        y = floor * 10.0 ** rng.uniform(0.0, 3.0, 4000)
        y[:100] = floor[:100]
        z = x + 1j * y
        want = family._core(alpha, sp, rp, z, True)[0] - z
        assert np.array_equal(voiculescu_phi(p, z), want), (alpha, s, r)
        lifted += np.count_nonzero(
            family._chain(alpha, sp, rp, z, False)[0].imag > np.pi)
    assert 1000 < lifted < 30000
    # the kernel runs on the points themselves, each row twice
    seen = []
    chain = family._chain
    monkeypatch.setattr(family, "_chain",
                        lambda *a: seen.append(a[3]) or chain(*a))
    p = FamilyParams(2.0, 1.0, 2.0)
    z = np.array([3.0 + 20.0j, -40.0 + 60.0j, 0.0 + 1e5j])
    voiculescu_phi(p, z)
    assert len(seen) == 1 and np.array_equal(seen[0], [z, z])


def test_phi_memory_is_bounded(monkeypatch):
    # a continuation call holds the whole paths of its points, so a wide
    # array goes a few thousand points a call: 20000 points down to 1e-13
    # peaked at 71.7 MB traced in one call; each point keeps its value
    # alone across the calls' edges
    monkeypatch.setenv("FREECONV_THREADS", "1")
    rng = np.random.default_rng(23)
    z = rng.uniform(-3.0, 3.0, 20000) \
        + 1j * 10.0 ** rng.uniform(-13.0, 1.0, 20000)
    p = FamilyParams(1.0, -1.0, 2.0)
    tracemalloc.start()
    try:
        wide = voiculescu_phi(p, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    for k in (0, 4095, 4096, 8191, 8192, 19999):
        assert wide[k] == voiculescu_phi(p, z[k])


def test_point_paths_are_the_one_row_paths():
    # one call over a row a column builds, column by column, the path of
    # that column's own call, padded above with its y_top: above and
    # below the knee, at it, and down to subnormal rows
    rng = np.random.default_rng(5)
    knee = 3e-4
    ys = np.concatenate((10.0 ** rng.uniform(-320.0, 3.0, 300),
                         [knee, 1e-4, 0.1, 5e-324]))
    tops = np.maximum(2.0 * ys, 10.0 ** rng.uniform(1.0, 4.0, ys.size))
    got, rows = _paths(tops, ys[None, :], knee)
    assert got.shape[1] == ys.size and np.array_equal(rows, [len(got) - 1])
    for j in range(ys.size):
        want, idx = _paths(tops[j:j + 1], ys[None, j:j + 1], knee)
        pad = len(got) - len(want)
        assert np.array_equal(idx, [len(want) - 1])
        assert np.array_equal(got[pad:, j], want[:, 0])
        assert np.all(got[:pad, j] == tops[j])


def test_empty_arrays_give_empty_arrays():
    # no point to continue: an empty array of the input's shape
    p = FamilyParams(1.0, -1.0, 2.0)
    for z in (np.array([], dtype=complex), np.zeros((0, 3), dtype=complex)):
        for fn in (voiculescu_phi, inverse_F):
            out = fn(p, z)
            assert out.shape == z.shape and out.dtype == complex


def test_non_finite_z_is_refused():
    # a NaN imaginary part passed the half-plane test: the point mass's
    # F printed 1 nan
    for r in (1.0, 2.0):
        p = FamilyParams(1.0, -1.0, r)
        for z in (complex(1.0, np.nan), complex(np.inf, 1.0),
                  complex(0.0, np.inf)):
            for fn in (cauchy_G, reciprocal_F, inverse_F, voiculescu_phi):
                with pytest.raises(DomainError, match="finite"):
                    fn(p, z)


def test_phi_r2_is_compound_poisson():
    # phi of the r=2 member equals z^2 * G_stable(s/4) - z
    for alpha, s in ((1.0, -1.0), (2.0, 1.0), (0.5, -1.0), (1.0, 1j)):
        p = FamilyParams(alpha, s, 2.0)
        a = StableParams(alpha, s / 4)
        grid = verification_cone(alpha, s).sample(50)
        res = np.abs(voiculescu_phi(p, grid)
                     - (grid ** 2 * stable_G(a, grid) - grid))
        assert np.max(res) < 1e-10


def test_series_coefficients():
    p = FamilyParams(1.0, -1.0, 2.0)
    cs = series_coefficients(p, 4)
    assert cs[0] == 1.0
    # c_1 = r*C(1/r,2)*(-s) / alpha = s(r-1)/(2r) for alpha=1
    assert cs[1] == pytest.approx(-1 * (2 - 1) / (2 * 2))
    for alpha, s, r in ((1.0, 2j, 3.0), (0.5, -1.0, 1.5)):
        c1 = series_coefficients(FamilyParams(alpha, s, r), 1)[1]
        assert c1 == pytest.approx(s * (r - 1) / (2 * r * alpha))
    cs1 = series_coefficients(FamilyParams(1.0, -1.0, 1.0), 6)
    assert cs1[0] == 1.0
    assert all(c == 0 for c in cs1[1:])


def _series_by_composition(params, N):
    """series_coefficients as the composition of (1+u)**(1/alpha) with
    u(t) = r * sum_{n>=1} C(1/r, n+1) (-s)**n t**n, power by power of u:
    the reference for its recurrence."""
    alpha, s, r = params.alpha, params.s, params.r
    b = np.zeros(N + 1, dtype=complex)
    for n in range(1, N + 1):
        b[n] = r * binom_coeff(1.0 / r, n + 1) * (-s) ** n
    c = np.zeros(N + 1, dtype=complex)
    c[0] = 1.0
    upow = np.zeros(N + 1, dtype=complex)
    upow[0] = 1.0
    for k in range(1, N + 1):
        new = np.zeros(N + 1, dtype=complex)
        for i in range(N):
            if upow[i] != 0.0:
                new[i + 1:] += upow[i] * b[1:N - i + 1]
        upow = new
        c += binom_coeff(1.0 / alpha, k) * upow
    return c


def test_series_coefficients_closed_form_on_the_alpha_1_line():
    # G = (r/c)(1 - (1 - c/z)**(1/r)) for (1, -c, r), so
    # c_n = r C(1/r, n+1) c**n
    for r in (1.5, 2.0, 3.0):
        binom = np.cumprod([(1.0 / r - k) / (k + 1) for k in range(41)])
        for c in (0.5, 2.0):
            got = series_coefficients(FamilyParams(1.0, -c, r), 40)
            want = r * binom * c ** np.arange(41.0)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_series_coefficients_match_the_composition():
    for alpha, s, r in ((1.0, -1.0, 1.5), (1.0, 3j, 3.0), (2.0, 1.0, 2.0),
                        (0.5, -1.0, 1.5), (1.7, 1.0, 4.0), (0.8, 1j, 2.5),
                        (1.5, np.exp(0.3j), 1.7), (0.5, -1.0, 1.0)):
        p = FamilyParams(alpha, s, r)
        got = series_coefficients(p, 60)
        want = _series_by_composition(p, 60)
        assert np.array_equal(got == 0, want == 0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_series_G_agrees_with_direct():
    for alpha, s, r in ((1.0, -1.0, 2.0), (2.0, 1.0, 2.0), (1.0, 3j, 3.0),
                        (0.5, -1.0, 1.5)):
        p = FamilyParams(alpha, s, r)
        assert abs(series_G(p, 100j, 30) - cauchy_G(p, 100j)) < 1e-12
    p = FamilyParams(1.0, -1.0, 2.0)
    assert series_G(p, 50j, 0) == 1 / 50j
    p1 = FamilyParams(1.0, -1.0, 1.0)
    assert series_G(p1, 7j, 25) == 1 / 7j


def test_series_G_agreement_on_cone():
    for alpha, s, r in ((1.0, -1.0, 2.0), (2.0, 1.0, 2.0)):
        p = FamilyParams(alpha, s, r)
        grid = default_cone(alpha, s, r).sample(100)
        res = np.abs(np.asarray(series_G(p, grid, 40)) - cauchy_G(p, grid))
        assert np.max(res) < 1e-10


def test_cones_refuse_an_overflowing_scale():
    # |s|**(1/alpha) = 1e600 is no float: the cones and the default fid
    # rectangle raise a DomainError naming it, not an OverflowError
    for make in (lambda: default_cone(0.5, -1e300, 2.0),
                 lambda: verification_cone(0.5, -1.0, -1e300),
                 lambda: default_fid_rect(FamilyParams(0.5, -1e300, 2.0))):
        with pytest.raises(DomainError, match=r"\|s\|\*\*\(1/alpha\)"):
            make()


def test_cone_membership_and_sampling():
    cone = TruncatedCone(eta=1.0, M=10.0)
    assert cone.contains(20j)
    assert cone.contains(5 + 20j)
    assert not cone.contains(5 + 9j)
    assert not cone.contains(30 + 20j)
    pts = cone.sample(100)
    assert pts.size == 100
    assert np.all(cone.contains(pts))
    with pytest.raises(DomainError):
        TruncatedCone(eta=0.0, M=1.0)


def test_composition_identity():
    # u=1 composes with the identity map, residual exactly zero
    grid = TruncatedCone(1.0, 10.0).sample(50)
    assert verify_composition(1.0, -1.0, 2.0, 1.0, grid) == 0.0
    assert verify_composition(1.0, -1.0, 1.5, 2.0, grid) < 1e-10
    assert verify_composition(2.0, 1.0, 2.0, 2.0, grid) < 1e-10
    res, arg = verify_composition(1.0, -1.0, 1.5, 2.0, grid,
                                  return_argmax=True)
    assert arg in grid


def test_wide_calls_are_exact_in_any_blocks(monkeypatch):
    # a call wider than one block runs in even blocks on the kept pool:
    # neither their layout nor the thread count may change a bit, also
    # for an s neither real nor imaginary, whose products round by order
    p = FamilyParams(0.7, np.exp(0.8j * np.pi), 1.7)
    n = 3 * family._BLOCK_POINTS + 1000
    z = np.linspace(-3.0, 3.0, n) + 1j * np.geomspace(1e-3, 10.0, n)
    cone = verification_cone(p.alpha, p.s).sample(n)
    assert cone.size > 3 * family._BLOCK_POINTS

    def results():
        return [cauchy_G(p, z),
                *family._core(p.alpha, p.s / p.r, 1.0 / p.r, z, True),
                *verify_composition(p.alpha, p.s, p.r, 0.5, cone,
                                    return_argmax=True)]

    monkeypatch.delenv("FREECONV_THREADS", raising=False)
    pooled = results()
    monkeypatch.setenv("FREECONV_THREADS", "1")
    serial = results()
    monkeypatch.setattr(family, "_BLOCK_POINTS", 10 ** 9)
    whole = results()
    monkeypatch.undo()
    # more threads than cores, switching as often as the interpreter
    # allows: the workers' disjoint writes must still all land
    monkeypatch.setattr(family, "_thread_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = results()
    finally:
        sys.setswitchinterval(interval)
    for other in (serial, whole, stressed):
        for a, b in zip(pooled, other):
            assert np.array_equal(a, b, equal_nan=True)


def test_kernel_masks_at_edge_inputs():
    # the ok masks of G, F and a one-row continuation on inputs at the
    # edges of the float range and on each cut: a point is masked where
    # z is not finite, |z| <= CUT_TOL, -1/z lands on its cut or a stage
    # overflows, and the continuation refuses a row it cannot start
    tiny = 5e-324
    z = np.array([0j, complex(np.inf, 0.0), complex(-np.inf, 0.0),
                  complex(np.nan, 0.0), complex(np.nan, 1.0),
                  complex(np.inf, 1.0), complex(1.0, np.inf),
                  1.0 + 1j * tiny, -1.0 + 1j * tiny,  # subnormal y
                  1e-300 + 1e-300j, 1e-301j, 1e-310 + 1e-310j,
                  1e300 + 1e300j, 1e305j, -1e300 + 1j,
                  complex(-2.0, 0.0), complex(-2.0, -0.0),  # -1/z on its cut
                  complex(2.0, 0.0)])
    both = [0, 0, 0, 0, 0, 0, 0, 1, 0, None, 0, 0, 0, 0, 0, 0, 0, 1]
    cont = ["D", "D", "D", "D", 0, "D", "D", 1, 0, 0, 0, 0, 0, 0, 0,
            "D", "D", "D"]
    for alpha, s, r in ((1.0, -1.0, 2.0), (2.0, 1.0, 2.0),
                        (0.7, np.exp(0.8j * np.pi), 1.7)):
        # u**alpha overflows at 1e-300(1+i) for alpha = 2 only
        want = [int(alpha < 2.0) if m is None else m for m in both]
        with np.errstate(all="ignore"):
            for reciprocal in (False, True):
                vals, ok = family._core(alpha, s, r, z, reciprocal)
                assert ok.astype(int).tolist() == want, (alpha, reciprocal)
                assert np.isnan(vals[~ok]).all()
        got = []
        for zk in z:
            try:
                got.append(int(_phi_tracked_block(alpha, s, r, [zk.real],
                                                  [zk.imag])[1][0, 0]))
            except DomainError:
                got.append("D")
        assert got == cont, alpha
    # w2 = 1 - s*u**alpha lands on the principal cut at -1 for alpha = 1,
    # z = i and s = 2*conj(u), where the product's imaginary part cancels
    # exactly; the continuation cuts nothing
    u = np.exp(np.array([0.5j * np.pi]))[0]
    for reciprocal in (False, True):
        assert not family._core(1.0, 2.0 * np.conj(u), 2.0, np.array([1j]),
                                reciprocal)[1][0]
    assert _phi_tracked_block(1.0, 2.0 * np.conj(u), 2.0, [0.0],
                              [1.0])[1].all()
    # w4 = (1 - w3)/s lands on its cut at 0 for (2, 1, 2) at 1e160i:
    # u**2 underflows, so w2 and w3 are exactly 1
    for reciprocal in (False, True):
        assert not family._core(2.0, 1.0, 2.0, np.array([1e160j]),
                                reciprocal)[1][0]
    assert not _phi_tracked_block(2.0, 1.0, 2.0, [0.0], [1e160])[1].any()


def test_pooled_blocks_keep_the_callers_error_state(monkeypatch):
    # numpy's error state is per thread: a block run on a pool worker
    # must still ignore what its caller ignores
    monkeypatch.setattr(family, "_thread_count", lambda: 2)
    n = 200_000
    z = np.geomspace(1e-300, 1e300, n) * np.exp(
        1j * np.linspace(0.01, np.pi - 0.01, n)[::-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(all="ignore"):
            family._core(2.0, 1.0, 2.0, z, True)


def test_density_table_memory_is_bounded(monkeypatch):
    # the kernel's temporaries live one block at a time: the read of
    # 2e5 points at two heights peaked at 37.5 MB traced in one piece
    monkeypatch.setenv("FREECONV_THREADS", "1")
    p = FamilyParams(1.0, -1.0, 2.0)
    xs = np.linspace(0.05, 0.95, 200_000)
    tracemalloc.start()
    try:
        build_density_table(lambda z: cauchy_G(p, z), xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_self_similarity():
    grid = TruncatedCone(1.0, 10.0).sample(50)
    p = FamilyParams(1.0, -1.0, 2.0)
    assert verify_self_similarity(p, 1.0, grid) < 1e-15
    assert verify_self_similarity(p, 4.0, grid) < 1e-11
    assert verify_self_similarity(FamilyParams(2.0, 1.0, 2.0), 2.0,
                                  grid) < 1e-11
    with pytest.raises(DomainError):
        verify_self_similarity(p, -1.0, grid)


def test_phi_boundary_continues_cone_values():
    # high up the tracked values agree with the single-valued composition
    p = FamilyParams(2.0, 1.0, 2.0)
    ys = np.array([30.0, 20.0, 12.0])
    tracked = phi_boundary(p, 1.0, ys)
    z = 1.0 + 1j * ys
    direct = family._map_F(p.alpha, p.s / p.r, 1.0 / p.r, z) - z
    np.testing.assert_allclose(tracked, direct, atol=1e-12)


def test_phi_boundary_near_axis_alpha2():
    # near the real axis the composition switches sheets but the tracked
    # continuation must keep matching z^2 G_stable(s/4) - z
    p = FamilyParams(2.0, 1.0, 2.0)
    a = StableParams(2.0, 0.25)
    for x in (-0.3, 0.1, 0.45, 2.0):
        ys = np.geomspace(0.5, 1e-3, 12)
        tracked = phi_boundary(p, x, ys)
        zs = x + 1j * ys
        want = zs ** 2 * stable_G(a, zs) - zs
        np.testing.assert_allclose(tracked, want, atol=1e-12)


def test_path_passes_through_the_rows():
    # the continuation's path: the caller's rows exactly, no step wider
    # than 1/24 decade above the knee; subnormal rows, whose ratio to y_top
    # overflows, too; one column, a ladder
    def ladder(top, ys, knee):
        path, idx = _paths(np.array([top]), np.reshape(ys, (-1, 1)), knee)
        return path[:, 0], idx

    rng = np.random.default_rng(5)
    tiny = 5e-324  # a knee at or below every row: dense all the way
    for k in range(200):
        top = 10.0 ** rng.uniform(-2.0, 6.0)
        rows = 10.0 ** rng.uniform(-300.0, np.log10(top) - 0.31,
                                   rng.integers(1, 40))
        if k < 4:
            rows[0] = (1e-310, 5e-324, 2.2e-308, 1e-300)[k]
        ys = np.unique(rows)[::-1]
        path, idx = ladder(top, ys, tiny)
        assert path[0] == top and np.array_equal(path[idx], ys)
        # subnormal path points may round to equal values
        assert np.all(np.diff(path) <= 0.0)
        steps = -np.diff(np.log10(path[path > 1e-300]))
        assert np.max(steps) <= (1.0 + 1e-9) / 24.0
        # below a knee inside the rows, half a decade a step at most
        knee = 10.0 ** rng.uniform(-300.0, np.log10(top))
        path, idx = ladder(top, ys, knee)
        assert path[0] == top and np.array_equal(path[idx], ys)
        logs = np.log10(path[path > 1e-300])
        steps = -np.diff(logs)
        above = logs[1:] >= np.log10(knee)
        assert np.max(steps[above], initial=0.0) <= (1.0 + 1e-9) / 24.0
        assert np.max(steps) <= (1.0 + 1e-9) / 2.0
    # a start on the first row: a gap of length 0 is one step, and a
    # one-row path is that row twice
    for top in (1e-300, 0.3, 7.0, 1e300):
        for knee in (tiny, top, 1e305):
            path, idx = ladder(top, np.array([top]), knee)
            assert np.array_equal(path, [top, top]) and idx.tolist() == [1]
            ys = np.array([top, top / 3.0])
            path, idx = ladder(top, ys, knee)
            assert path[0] == top and np.array_equal(path[idx], ys)
            assert idx[0] == 1
    # rows that are already dense get no points between them
    ys = np.geomspace(10.0, 1e-6, 200)
    path, idx = ladder(20.0, ys, tiny)
    assert np.array_equal(idx, np.arange(8, 208))  # 8 steps down to 10
    # rows an ulp apart share a log10 and still get a step of their own
    ys = np.array([1e300, np.nextafter(1e300, 0.0), 1e299])
    path, idx = ladder(1.5e307, ys, tiny)
    assert np.array_equal(path[idx], ys) and idx[1] == idx[0] + 1
    # two rows far below the knee: 24 a decade down to it, 2 below
    path, idx = ladder(10.0, np.array([2e-13, 1e-13]), 1e-6)
    assert np.array_equal(path[idx], [2e-13, 1e-13])
    assert np.count_nonzero(path >= 1e-6) == 24 * 7 + 1
    assert idx[0] == 24 * 7 + 14 and idx[1] == idx[0] + 1


def test_knee_matches_dense_rows():
    # below the knee, 1e-4 of the member's scale, the path takes 2 steps a
    # decade; handing the continuation rows 24 a decade from the knee down
    # makes its path dense there, and identical above: the two agree on
    # the read heights, on members with alpha > 1, r = 2, an E zero in C+
    # and the beta line
    rows = np.array([2e-13, 1e-13])
    for alpha, s, r in ((1.7, 1.0, 4.0), (1.3, np.exp(1j * np.pi / 6), 2.5),
                        (2.0, 1.0, 2.0), (0.5, -1.0, 2.0), (1.0, -1.0, 1.5),
                        (1.5, np.exp(0.3j), 2.5)):
        p = FamilyParams(alpha, s, r)
        scale = max(1.0, abs(s) ** (1.0 / alpha),
                    abs(s / r) ** (1.0 / alpha)) * max(1.0, r, 1.0 / r)
        knee = 1e-4 * scale
        dense = np.concatenate([np.geomspace(
            knee, 2e-13, int(np.ceil(24.0 * np.log10(knee / 2e-13))) + 1),
            [1e-13]])
        xmin, xmax, _, _ = default_fid_rect(p)
        xs = np.linspace(xmin, xmax, 201)
        phi, ok = _phi_tracked_block(alpha, s, r, xs, rows)
        ref, ok_ref = _phi_tracked_block(alpha, s, r, xs, dense)
        ref, ok_ref = ref[-2:], ok_ref[-2:]
        assert np.array_equal(ok, ok_ref), (alpha, s, r)
        # relative to F^-1 = phi + z, whose rounding phi inherits
        finv = np.abs(ref + xs + 1j * rows[:, None])
        assert np.all(np.abs(phi - ref)[ok] <= 1e-13 * finv[ok]), (alpha, s,
                                                                   r)


def test_phi_boundary_rejects_bad_ladder():
    p = FamilyParams(1.0, -1.0, 2.0)
    with pytest.raises(DomainError):
        phi_boundary(p, 0.0, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        phi_boundary(p, 0.0, np.array([1.0, -1.0]))


_cone_pts = st.builds(
    complex,
    st.floats(-15.0, 15.0, allow_nan=False),
    st.floats(16.0, 60.0, allow_nan=False),
)


@settings(max_examples=40)
@given(_cone_pts)
def test_round_trip_property(z):
    p = FamilyParams(1.0, -1.0, 2.0)
    assert abs(inverse_F(p, reciprocal_F(p, z)) - z) < 1e-10 * max(1, abs(z))
