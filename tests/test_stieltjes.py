import warnings

import mpmath
import numpy as np
import pytest

from freeconv import (ConvergenceError, DensityTable, DomainError,
                      FamilyParams, QuadratureError, atom_mass,
                      build_density_table, cauchy_G, closed_beta_density,
                      closed_symmetric_beta_density, density_from_G,
                      example_density_cauchy_mix, example_density_halfstable,
                      quadrature, tail_density_series)


def test_density_point_values():
    got, err = density_from_G(lambda z: 1 / z, 1.0)
    assert got == pytest.approx(0.0, abs=1e-12)
    p = FamilyParams(1.0, -1.0, 2.0)
    got, err = density_from_G(lambda z: cauchy_G(p, z), 0.5)
    assert got == pytest.approx(2 / np.pi, abs=1e-6)
    assert err < 1e-6


def test_density_outside_support_is_zero():
    from freeconv import mp_cauchy
    got, _ = density_from_G(mp_cauchy, 5.0)
    assert got == pytest.approx(0.0, abs=1e-8)


def test_atom_mass():
    assert atom_mass(lambda z: 1 / z, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert atom_mass(lambda z: 1 / z, 1.0) == pytest.approx(0.0, abs=1e-10)
    p = FamilyParams(1.0, 3j, 1.0)
    assert atom_mass(lambda z: cauchy_G(p, z), 0.0) == pytest.approx(1.0)
    beta = FamilyParams(1.0, -1.0, 2.0)
    assert atom_mass(lambda z: cauchy_G(beta, z), 0.5) == pytest.approx(
        0.0, abs=1e-6)


def test_quadrature_basics():
    assert quadrature(lambda x: 0.0 * x, 0.0, 1.0) == 0.0
    got = quadrature(lambda x: closed_beta_density(2.0, x), 0.0, 1.0,
                     left_exp=-0.5, right_exp=0.5)
    assert got == pytest.approx(1.0, abs=1e-8)
    # int_0^a x^{3/2} (a-x)^{1/2} dx = a^3 * pi / 16
    for a in (1.0, 2.0):
        got = quadrature(lambda x: x ** 1.5 * np.sqrt(a - x), 0.0, a,
                         left_exp=1.5, right_exp=0.5)
        assert got == pytest.approx(a ** 3 * np.pi / 16, abs=1e-9)


def test_quadrature_second_moment_of_symmetric_beta():
    # split at the |x|^{-1/2} singularity to declare the exponents
    f = lambda x: x ** 2 * closed_symmetric_beta_density(1.0, x)
    left = quadrature(f, -1.0, 0.0, left_exp=0.5, right_exp=-0.5)
    right = quadrature(f, 0.0, 1.0, left_exp=-0.5, right_exp=0.5)
    assert left + right == pytest.approx(1 / 8, abs=1e-7)


def test_quadrature_improper_tail():
    got = quadrature(lambda x: 1 / (1 + x ** 2) / np.pi, 0.0, np.inf)
    assert got == pytest.approx(0.5, abs=1e-8)
    # the left endpoint must stay finite
    with pytest.raises(DomainError):
        quadrature(lambda x: 0.0 * x, 1.0, 1.0)


def test_quadrature_error_carries_estimate():
    # heavy 1/x tail: no p > 1 decay, the error report keeps the estimate
    with pytest.raises(QuadratureError) as info:
        quadrature(lambda x: 1.0 / x, 1.0, np.inf)
    assert hasattr(info.value, "estimate")


def test_closed_beta_density():
    assert closed_beta_density(2.0, 0.5) == pytest.approx(2 / np.pi)
    assert closed_beta_density(2.0, 2.0) == 0.0
    assert closed_beta_density(2.0, -0.5) == 0.0
    got = quadrature(lambda x: closed_beta_density(4.0, x), 0.0, 1.0,
                     left_exp=-0.25, right_exp=0.25)
    assert got == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(DomainError):
        closed_beta_density(1.0, 0.5)


def test_closed_symmetric_beta_density():
    xs = np.linspace(0.05, 0.95, 7)
    np.testing.assert_allclose(closed_symmetric_beta_density(1.0, xs),
                               closed_symmetric_beta_density(1.0, -xs))
    assert closed_symmetric_beta_density(1.0, 1.5) == 0.0
    for s in (0.5, 1.0, 2.0):
        root = np.sqrt(s)
        total = (quadrature(lambda x: closed_symmetric_beta_density(s, x),
                            -root, 0.0, right_exp=-0.5)
                 + quadrature(lambda x: closed_symmetric_beta_density(s, x),
                              0.0, root, left_exp=-0.5))
        assert total == pytest.approx(1.0, abs=1e-8), s
        # the (2, s, 2) member is this law: compare with its inversion
        p = FamilyParams(2.0, s, 2.0)
        grid = root * np.concatenate([-xs[::-1], xs])
        table = build_density_table(lambda z: cauchy_G(p, z), grid)
        np.testing.assert_allclose(
            table.values, closed_symmetric_beta_density(s, grid),
            rtol=0, atol=1e-10)
    with pytest.raises(DomainError):
        closed_symmetric_beta_density(0.0, 0.5)


def test_example_densities():
    xs = np.linspace(0.3, 3.0, 5)
    np.testing.assert_allclose(example_density_cauchy_mix(xs),
                               example_density_cauchy_mix(-xs))
    with pytest.raises(DomainError):
        example_density_cauchy_mix(0.0)
    with pytest.raises(DomainError):
        example_density_halfstable(-1.0)
    # frozen spot values
    assert example_density_cauchy_mix(1.0) == pytest.approx(
        0.06282425785217374, abs=1e-15)
    assert example_density_halfstable(1.0) == pytest.approx(
        0.11436273098348444, abs=1e-15)
    total = quadrature(example_density_halfstable, 0.0, np.inf,
                       left_exp=-0.5, tol=1e-7)
    assert total == pytest.approx(1.0, abs=1e-5)


def test_cauchy_mix_density_at_tiny_x():
    # x**2 underflows here, and 1/x overflows for subnormal x; the density
    # is (sqrt2/pi) |x|**-0.5 to far below roundoff
    x = np.concatenate([[5e-324, 1e-320, 1e-310, 2.2e-308],
                        np.logspace(-300, -150, 31)])
    x = np.concatenate([-x[::-1], x])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = example_density_cauchy_mix(x)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, np.sqrt(2.0) / np.pi / np.sqrt(np.abs(x)),
                               rtol=1e-12, atol=0)
    # far out it is 1/(4 pi x**2) to far below roundoff, where the
    # difference sqrt(1 + sqrt(1 + 1/x**2)) - sqrt2 would cancel to 0;
    # past the largest double's square root it underflows quietly to 0
    x = np.logspace(8, 150, 30)
    x = np.concatenate([-x[::-1], x])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = example_density_cauchy_mix(x)
        assert example_density_cauchy_mix(np.finfo(float).max) == 0.0
    np.testing.assert_allclose(got, 0.25 / np.pi / x ** 2, rtol=1e-12,
                               atol=0)


def test_halfstable_density_over_the_doubles():
    # against the original difference form at enough digits that its
    # cancellation (about 2 log10 x digits) leaves 120 of them
    def ref(x):
        with mpmath.workdps(120 + int(2.5 * max(0.0, np.log10(x)))):
            t = mpmath.mpf(x)
            return (4 * mpmath.sqrt(2) / mpmath.pi) * (
                1 / mpmath.sqrt(2 * t) - mpmath.sqrt(mpmath.sqrt(1 + 1 / t)
                                                     - 1))
    x = np.concatenate([[5e-324, 1e-320, 1e-310, 2.2e-308],
                        np.logspace(-300, 300, 241), [1e4, 1e8, 1e12]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = example_density_halfstable(x)
        assert example_density_halfstable(np.finfo(float).max) == 0.0
    tiny = np.finfo(float).tiny
    for xi, g in zip(x, got):
        want = ref(xi)
        if want >= tiny:
            assert abs(g - want) <= 2e-15 * want, xi
        else:  # subnormal or underflowed: within one subnormal step
            assert abs(g - want) <= 5e-324, xi


def test_examples_match_inversion():
    p1 = FamilyParams(1.0, 1j, 2.0)
    got, _ = density_from_G(lambda z: cauchy_G(p1, z), 1.0)
    assert got == pytest.approx(example_density_cauchy_mix(1.0), abs=1e-5)
    p2 = FamilyParams(0.5, -1.0, 2.0)
    got, _ = density_from_G(lambda z: cauchy_G(p2, z), 1.0)
    assert got == pytest.approx(example_density_halfstable(1.0), abs=1e-5)


def test_tail_series_is_exact_outside_modulus():
    for s, r, x in ((1j, 2.0, 12.0), (1j, 2.0, -12.0), (1j, 2.0, 5.0),
                    (3j, 3.0, 8.0)):
        p = FamilyParams(1.0, s, r)
        truth, _ = density_from_G(lambda z: cauchy_G(p, z), x)
        assert tail_density_series(s, r, x) == pytest.approx(truth,
                                                             abs=1e-13)
    with pytest.raises(DomainError):
        tail_density_series(1j, 2.0, 0.5)


def test_density_table_validation():
    with pytest.raises(DomainError):
        DensityTable(xs=np.array([1.0, 1.0]), values=np.zeros(2),
                     errs=np.zeros(2), y_ladder=np.empty(0))
    with pytest.raises(ConvergenceError):
        DensityTable(xs=np.array([0.0, 1.0]), values=np.array([-1e-3, 0.0]),
                     errs=np.zeros(2), y_ladder=np.empty(0))
    with pytest.warns(UserWarning):
        t = DensityTable(xs=np.array([0.0, 1.0]),
                         values=np.array([-1e-12, 0.5]),
                         errs=np.zeros(2), y_ladder=np.empty(0))
    assert t.values[0] == 0.0


def test_density_table_serialization():
    t = DensityTable(xs=np.array([0.25, 0.5]), values=np.array([1.0, 2.0]),
                     errs=np.array([1e-9, 2e-9]), y_ladder=np.array([0.01]))
    csv = t.csv_text(comments=("hello",))
    assert csv.startswith("# hello\nx,density,err\n")
    assert "0.25,1,1.0000000000000001e-09" in csv
    plot = t.plotdata_text()
    assert plot == "0.25 1\n0.5 2\n"
    d = t.to_dict()
    assert d["x"] == [0.25, 0.5] and d["y_ladder"] == [0.01]


def test_build_density_table_matches_pointwise():
    p = FamilyParams(1.0, -1.0, 2.0)
    G = lambda z: cauchy_G(p, z)
    xs = np.linspace(0.1, 0.9, 9)
    table = build_density_table(G, xs)
    for x, v in zip(xs, table.values):
        got, _ = density_from_G(G, float(x))
        assert v == pytest.approx(got, abs=1e-12)
    np.testing.assert_allclose(table.values, closed_beta_density(2.0, xs),
                               atol=1e-6)
    assert table.y_ladder.tolist() == [2e-13, 1e-13]
    with pytest.raises(DomainError):
        build_density_table(G, np.array([0.5, 0.2]))


def test_density_from_G_flags_divergence():
    # an atom under the probe point makes the ladder blow up, never converge
    with pytest.raises(ConvergenceError):
        density_from_G(lambda z: 1 / z, 0.0)
