import os

import numpy as np
import pytest

from freeconv import fid
from freeconv import (DomainError, FamilyParams, StableParams, cauchy_G,
                      check_fid_grid, collision_search, e_function,
                      find_E_zero, im_phi_cubic_pi2, levy_beta_closed,
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
    for levels in (-1, 0, 1, 2):
        with pytest.raises(DomainError):
            levy_density_numeric(cubic, 1.0, levels=levels)
        with pytest.raises(DomainError):
            tau_atom(cubic, 1.0, levels=levels)


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


def test_levy_table_matches_pointwise():
    cubic = FamilyParams(1.0, 3j, 3.0)
    xs = np.array([-1.5, -0.5, 0.5, 1.5])
    tab = levy_table(cubic, xs)
    np.testing.assert_allclose(tab.values, levy_cubic_closed(xs), atol=1e-5)
    with pytest.raises(DomainError):
        levy_table(cubic, np.array([0.0, 1.0]))


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
    with pytest.raises(DomainError):
        r0_threshold(1.5, -1j)


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
    # a degenerate grid is refused, not reported as a clean scan
    for nx, ny in ((1, 60), (0, 60), (120, 1), (-3, 60)):
        with pytest.raises(DomainError):
            check_fid_grid(FamilyParams(1.0, -3.0, 3.0), nx=nx, ny=ny)


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
    monkeypatch.delenv("FREECONV_THREADS", raising=False)
    assert fid._thread_count() == min(4, cpus)
    monkeypatch.setenv("FREECONV_THREADS", "1")
    assert fid._thread_count() == 1
    # values past the CPU count are capped, never handed to the pool
    monkeypatch.setenv("FREECONV_THREADS", "100000")
    assert fid._thread_count() == cpus
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("FREECONV_THREADS", bad)
        with pytest.raises(DomainError):
            fid._thread_count()
