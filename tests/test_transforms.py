import functools

import numpy as np
import pytest

from freeconv import (BracketingError, ConvergenceError, DomainError,
                      FamilyParams, HypothesisError, ResidualReport,
                      StableParams, cauchy_G, chi_numeric, mp_cauchy,
                      mp_r_transform, mp_s_transform, psi_from_G,
                      psi_symmetric_from_G, r_transform, s_mu2_closed,
                      s_stable_closed, s_transform_numeric, stable_G,
                      transforms, verification_cone, verify_boxtimes,
                      verify_compound_poisson)
from freeconv.cli import main


def G_delta1(z):
    return 1.0 / (z - 1.0)


def test_point_mass_transforms():
    # psi(z) = z/(1-z), chi(w) = w/(1+w), S = 1 identically
    assert psi_from_G(G_delta1, -1.0) == pytest.approx(-0.5, abs=1e-12)
    got = chi_numeric(lambda t: psi_from_G(G_delta1, t), -0.5)
    assert got == pytest.approx(-1.0, abs=1e-10)
    for z in (-0.8, -0.5, -0.2):
        assert s_transform_numeric(G_delta1, z) == pytest.approx(1.0,
                                                                 abs=1e-9)


def test_free_poisson_transforms():
    got = chi_numeric(lambda t: psi_from_G(mp_cauchy, t), -0.5)
    assert got == pytest.approx(-2.0, abs=1e-9)
    for z in np.linspace(-0.9, -0.1, 20):
        s_num = s_transform_numeric(mp_cauchy, float(z))
        assert abs(s_num - mp_s_transform(z)) < 1e-8
    assert mp_r_transform(0.5) == pytest.approx(1.0)
    assert mp_s_transform(-0.5) == pytest.approx(2.0)


def test_psi_chi_round_trip():
    psi = lambda t: psi_from_G(mp_cauchy, t)
    for w in (-0.7, -0.4, -0.1):
        t = chi_numeric(psi, w)
        assert psi(t) == pytest.approx(w, abs=1e-12)


def test_psi_offset_is_relative():
    # S near z = -1 evaluates G near 0, where 1/z is large: an offset of
    # psi_from_G that is not small against |1/z| there reads a smoothed G
    p = FamilyParams(1.0, -1.0, 2.0)
    G = lambda w: cauchy_G(p, w)
    for z, rel in ((-0.999, 1e-12), (-0.9999, 1e-11)):
        want = s_mu2_closed(1.0, -1.0, z)
        assert abs(s_transform_numeric(G, z) - want) <= rel * abs(want)
    # an atom of mass 1/2 at 0: psi never drops below -1/2 on the whole
    # ladder, out to |chi| = 2**79
    with pytest.raises(BracketingError, match="never drops below w"):
        s_transform_numeric(lambda z: 0.5 / z + 0.5 / (z - 1.0), -0.7)


def test_free_poisson_psi_near_zero():
    # psi(t) = t + 2 t**2 + ..., and psi = z G(z) - 1 at z = 1/t keeps its
    # absolute accuracy of a few eps as long as G does not cancel at large
    # |z|
    psi = lambda t: psi_from_G(mp_cauchy, t)
    for k in range(6, 12):
        t = -10.0 ** -k
        assert abs(psi(t) - (t + 2.0 * t * t)) <= 1e-15
    assert chi_numeric(psi, -1e-9) == pytest.approx(-1e-9, rel=1e-6)
    with pytest.raises(BracketingError, match="too close to 0"):
        chi_numeric(psi, -1e-15)


def test_psi_symmetric_decreasing():
    p = StableParams(2.0, 1.0)
    G = lambda z: stable_G(p, z)
    vals = [psi_symmetric_from_G(G, t) for t in (0.25, 0.5, 1.0, 2.0)]
    assert all(v < 0 for v in vals)
    assert vals == sorted(vals, reverse=True)
    # psi(it) ~ -m2 t**2 near zero; arcsine on [-1, 1] has m2 = 1/2
    t = 1e-3
    assert psi_symmetric_from_G(G, t) == pytest.approx(-0.5 * t * t,
                                                       rel=1e-3)


def test_arcsine_s_transform_closed_and_numeric():
    # alpha = 2, s = 1: S(z) = i sqrt(-z(z+2)) / z, so S(-1/2) = -i sqrt(3)
    got = s_stable_closed(2.0, 1.0, -0.5)
    assert got == pytest.approx(-1j * np.sqrt(3.0), abs=1e-14)
    p = StableParams(2.0, 1.0)
    num = s_transform_numeric(lambda z: stable_G(p, z), -0.5,
                              kind="symmetric")
    assert abs(num - got) < 1e-9
    for z in (-0.8, -0.3):
        want = 1j * np.sqrt(-z * (z + 2.0)) / z
        assert s_stable_closed(2.0, 1.0, z) == pytest.approx(want, abs=1e-13)


def test_point_mass_stable_s_transform():
    # alpha = 1, s = -1 is the point mass at 1, whose S-transform is 1
    for z in (-0.9, -0.5, -0.1):
        assert s_stable_closed(1.0, -1.0, z) == pytest.approx(1.0, abs=1e-14)


def test_mu2_closed_factorization():
    # the r = 2 member factors as free Poisson boxtimes stable at s/4
    assert s_mu2_closed(1.0, 1j, -0.5) == pytest.approx(-8j, abs=1e-13)
    for alpha, s in ((2.0, 1.0), (0.5, -1.0)):
        for z in (-0.7, -0.4, -0.15):
            want = s_stable_closed(alpha, s / 4.0, z) / (1.0 + z)
            assert s_mu2_closed(alpha, s, z) == pytest.approx(want,
                                                              abs=1e-15)


def test_mu2_closed_matches_numeric():
    for alpha, s, kind in ((2.0, 1.0, "symmetric"), (0.5, -1.0, "positive")):
        params = FamilyParams(alpha, s, 2.0)
        G = lambda z: cauchy_G(params, z)
        for z in (-0.6, -0.25):
            num = s_transform_numeric(G, z, kind=kind)
            assert abs(num - s_mu2_closed(alpha, s, z)) < 1e-8


def test_closed_form_needs_matching_angle():
    with pytest.raises(HypothesisError):
        s_stable_closed(1.0, np.exp(3j * np.pi / 4.0), -0.5)
    with pytest.raises(HypothesisError):
        verify_boxtimes(1.0, np.exp(3j * np.pi / 4.0), [-0.5])


def test_r_transform():
    p1 = FamilyParams(1.0, -1.0, 1.0)
    assert r_transform(p1, -0.2 - 0.1j) == 0.0
    # r = 2: R(z) = (1/z) G_a(1/z) - 1 with a the stable law at s/4,
    # which is psi of that stable law
    for alpha, s in ((1.0, -1.0), (2.0, 1.0)):
        p = FamilyParams(alpha, s, 2.0)
        a = StableParams(alpha, s / 4.0)
        for z in (-0.2 - 0.1j, 0.1 - 0.3j):
            want = psi_from_G(lambda w: stable_G(a, w), z)
            assert abs(r_transform(p, z) - want) < 1e-10
    with pytest.raises(DomainError):
        r_transform(p1, 0.2 + 0.1j)
    with pytest.raises(DomainError):
        r_transform(p1, 0.0)


def test_verify_compound_poisson():
    for alpha, s in ((2.0, 1.0), (0.5, -1.0)):
        grid = verification_cone(alpha, s).sample(200)
        assert verify_compound_poisson(alpha, s, grid) < 1e-10
    res, argmax = verify_compound_poisson(2.0, 1.0,
                                          verification_cone(2.0, 1.0).sample(50),
                                          return_argmax=True)
    assert isinstance(argmax, complex)


def test_verify_boxtimes():
    zs = np.linspace(-0.9, -0.1, 5)
    for alpha, s in ((2.0, 1.0), (0.5, -1.0)):
        assert verify_boxtimes(alpha, s, zs) < 1e-6
    res, arg = verify_boxtimes(2.0, 1.0, [-0.5, -0.3], return_argmax=True)
    assert arg in (-0.5, -0.3)


def test_domain_gates():
    with pytest.raises(DomainError):
        psi_from_G(mp_cauchy, 0.0)
    with pytest.raises(DomainError):
        chi_numeric(lambda t: psi_from_G(mp_cauchy, t), -1.5)
    with pytest.raises(DomainError):
        s_transform_numeric(mp_cauchy, 0.5)
    with pytest.raises(DomainError):
        s_transform_numeric(mp_cauchy, -0.5, kind="sideways")
    with pytest.raises(DomainError):
        s_stable_closed(2.0, 1.0, -1.5)
    with pytest.raises(DomainError):
        psi_symmetric_from_G(mp_cauchy, -1.0)


def test_residual_report_round_trip():
    rep = ResidualReport(identity="composition", params={"alpha": 1.0},
                         grid_spec={"n": 300}, max_residual=1e-12,
                         argmax_point=1 + 2j, tolerance=1e-10, passed=True)
    d = rep.to_dict()
    assert d["argmax_point"] == {"re": 1.0, "im": 2.0}
    assert d["passed"] is True
    rep2 = ResidualReport(identity="x", params={}, grid_spec={},
                          max_residual=0.0, argmax_point=None,
                          tolerance=1.0, passed=True)
    assert rep2.to_dict()["argmax_point"] is None


def _brentq_s(G, z, kind):
    """S(z) by scipy's brentq(xtol=1e-14) on the same psi, bracketed as the
    scalar solver before the batched one did."""
    from scipy.optimize import brentq
    if kind == "positive":
        f = lambda t: psi_from_G(G, t) - z
        lo = -1.0
        while f(lo) >= 0.0:
            lo *= 2.0
        return (1.0 + z) / z * brentq(f, lo, -1e-12, xtol=1e-14) + 0j
    f = lambda t: psi_symmetric_from_G(G, t) - z
    hi = 1.0
    while f(hi) >= 0.0:
        hi *= 2.0
    return (1.0 + z) / z * 1j * brentq(f, 1e-6, hi, xtol=1e-14)


def test_solver_matches_scipy_brentq():
    # the accuracy grid: relative error against the closed form and
    # relative difference from scipy's brentq on the same psi
    zs = np.linspace(-0.95, -0.05, 19)
    for alpha, sign, kind, closed_tol in ((1.0, -1.0, "positive", 1e-12),
                                          (0.5, -1.0, "positive", 1e-9),
                                          (2.0, 1.0, "symmetric", 1e-12)):
        for c in np.geomspace(0.25, 4.0, 9):
            params = FamilyParams(alpha, sign * c, 2.0)
            G = lambda w: cauchy_G(params, w)
            got = s_transform_numeric(G, zs, kind)
            closed = np.array([s_mu2_closed(alpha, sign * c, z) for z in zs])
            assert np.max(np.abs(got / closed - 1.0)) < closed_tol, (alpha, c)
            ref = np.array([_brentq_s(G, z, kind) for z in zs.tolist()])
            assert np.max(np.abs(got / ref - 1.0)) < 2e-12, (alpha, c)
    # analytic psi on (-inf, 0), increasing from -1 to 0, with their
    # inverses; arctan is flat far out, exp - 1 near -1, and -tanh(t**5)
    # saturates so fast that the unfloored Anderson-Bjorck factor never
    # settles at w = -0.999
    from scipy.optimize import brentq
    ws = np.array([-0.999, -0.9, -0.5, -0.1, -1e-3, -1e-9])
    for psi, inverse in ((lambda t: t / (1.0 - t), lambda w: w / (1.0 + w)),
                         (lambda t: np.expm1(t), np.log1p),
                         (lambda t: np.arctan(t) / (np.pi / 2.0),
                          lambda w: np.tan(np.pi / 2.0 * w)),
                         (lambda t: -np.tanh((-t) ** 5),
                          lambda w: -np.arctanh(-w) ** 0.2)):
        got = chi_numeric(psi, ws)
        ref = [brentq(lambda t: psi(t) - w, -1e9, -1e-15, xtol=1e-14)
               for w in ws]
        assert np.allclose(got, ref, rtol=1e-11, atol=1e-14)
        assert np.allclose(got, inverse(ws), rtol=1e-12, atol=1e-14)


def test_array_calls_equal_scalar_calls():
    # entries bracketed in the first round of rungs and in later ones (at
    # z = -0.999999 |chi| is near 1e6 to 1e12) share one call without
    # changing any bit
    zs = np.array([-0.999999, -0.9, -0.5, -0.3, -0.1, -1e-3, -1e-9])
    cases = [(mp_cauchy, "positive"),
             (lambda w: stable_G(StableParams(2.0, 1.0), w), "symmetric")]
    for alpha, s, kind in ((1.0, -1.0, "positive"), (0.5, -2.0, "positive"),
                           (2.0, 0.5, "symmetric"), (1.0, 1j, "symmetric")):
        params = FamilyParams(alpha, s, 2.0)
        cases.append((lambda w, p=params: cauchy_G(p, w), kind))
    for G, kind in cases:
        got = s_transform_numeric(G, zs[:-1], kind)
        one = [s_transform_numeric(G, z, kind) for z in zs[:-1].tolist()]
        assert all(isinstance(v, complex) for v in one)
        assert np.array_equal(got, one)
    psi = lambda t: psi_from_G(mp_cauchy, t)
    assert np.array_equal(chi_numeric(psi, zs),
                          [chi_numeric(psi, w) for w in zs.tolist()])
    assert np.array_equal(chi_numeric(psi, zs.reshape(7, 1)),
                          chi_numeric(psi, zs).reshape(7, 1))
    assert chi_numeric(psi, []).shape == (0,)
    assert s_transform_numeric(_bernoulli_G, np.empty((0, 2)),
                               "symmetric").shape == (0, 2)
    # psi at real, upper and lower half-plane points, and on i*(0, inf)
    pts = np.array([-2.0, -0.5, 0.3 + 0.4j, -1.0 - 2.0j, 4.0])
    assert np.array_equal(psi_from_G(mp_cauchy, pts[:2]),
                          [psi_from_G(mp_cauchy, z) for z in pts[:2]])
    assert np.array_equal(psi_from_G(mp_cauchy, pts),
                          [complex(psi_from_G(mp_cauchy, z)) for z in pts])
    G = lambda w: stable_G(StableParams(2.0, 1.0), w)
    ts = np.array([1e-3, 0.5, 2.0, 1e3])
    assert np.array_equal(psi_symmetric_from_G(G, ts),
                          [psi_symmetric_from_G(G, t) for t in ts])
    # verify_boxtimes is the per-z loop of scalar solves
    zs = np.linspace(-0.9, -0.1, 5)
    for alpha, s, kind in ((2.0, 1.0, "symmetric"), (0.5, -1.0, "positive")):
        params, ap = FamilyParams(alpha, s, 2.0), StableParams(alpha, s / 4)
        loop = [abs(s_transform_numeric(lambda w: cauchy_G(params, w), z,
                                        kind)
                    - mp_s_transform(z)
                    * s_transform_numeric(lambda w: stable_G(ap, w), z,
                                          kind)) for z in zs.tolist()]
        assert verify_boxtimes(alpha, s, zs) == max(loop)


def _bernoulli_G(z):
    """Cauchy transform of the symmetric Bernoulli law: psi(i*t) =
    -t**2/(1 + t**2)."""
    return z / (z * z - 1.0)


def _point_mass_G(z):
    """Cauchy transform of the point mass at 1: psi(t) = t/(1 - t)."""
    return 1.0 / (z - 1.0)


def test_s_transform_failures():
    for G, kind in ((_point_mass_G, "positive"),
                    (_bernoulli_G, "symmetric")):
        for z in (0.5, -1.0, 0.0, [-0.5, -1.5], np.nan):
            with pytest.raises(DomainError):
                s_transform_numeric(G, z, kind)
    with pytest.raises(DomainError):
        chi_numeric(lambda t: t / (1.0 - t), [-0.5, -1.5])

    # psi still below w at |chi| = 1e-13, on either curve: w too close to
    # 0, or the Bernoulli law at +-1e15, whose chi(-1/2) is 1e-15 i
    with pytest.raises(BracketingError, match="too close to 0"):
        chi_numeric(lambda t: psi_from_G(_point_mass_G, t), -1e-15)
    with pytest.raises(BracketingError, match="too close to 0"):
        s_transform_numeric(lambda z: z / (z * z - 1e30), [-0.5, -0.3],
                            "symmetric")
    # an atom of mass 1/2 at 0: psi never drops below -1/2
    with pytest.raises(BracketingError, match="never drops below w"):
        chi_numeric(lambda t: 0.5 * t / (1.0 - t), [-0.4, -0.7])
    with pytest.raises(BracketingError, match="never drops below w"):
        s_transform_numeric(lambda z: 0.5 / z + 0.5 * _bernoulli_G(z),
                            -0.7, "symmetric")

    # G NaN on an annulus the solve reaches: a ConvergenceError naming the
    # NaN in both kinds, not a bracketing failure
    def nan_on(G, lo, hi):
        return lambda z: np.where((lo < abs(z)) & (abs(z) < hi), np.nan,
                                  G(z))

    with pytest.raises(ConvergenceError, match="NaN"):
        s_transform_numeric(nan_on(_point_mass_G, 0.4, 0.9), -0.5)
    with pytest.raises(ConvergenceError, match="NaN"):
        s_transform_numeric(nan_on(_bernoulli_G, 0.5, 2.0), -0.5,
                            kind="symmetric")

    # a DomainError raised inside the bracket, at a point the bracket
    # search never visits, reaches the caller unchanged.  For w = -0.6 the
    # rungs are |chi| = 2**-43, ..., 2**15 and the bracket is [1, 2]; the
    # roots are |chi| = 1.5 (psi(t) = t/(1-t)) and sqrt(1.5) (the
    # Bernoulli law), and the first false-position steps land at 1.6 and
    # 4/3.  The rungs put G at |z| near 2**43, ..., 1, 1/2, ..., where the
    # steps put it inside 0.55 < |z| < 0.95.
    def raise_on(G):
        def G_domain(z):
            if np.any((0.55 < abs(z)) & (abs(z) < 0.95)):
                raise DomainError("G undefined here")
            return G(z)
        return G_domain

    for G, kind in ((_point_mass_G, "positive"),
                    (_bernoulli_G, "symmetric")):
        assert np.isfinite(s_transform_numeric(G, -0.6, kind))
        with pytest.raises(DomainError, match="G undefined here"):
            s_transform_numeric(raise_on(G), -0.6, kind)

    def psi_domain(t):
        if np.any((-1.99 < t) & (t < -1.01)):
            raise DomainError("psi undefined here")
        return t / (1.0 - t)

    with pytest.raises(DomainError, match="psi undefined here"):
        chi_numeric(psi_domain, -0.6)


def test_s_transform_non_convergence_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(transforms, "_solve",
                        functools.partial(transforms._solve, maxiter=1))
    with pytest.raises(ConvergenceError, match="did not converge"):
        chi_numeric(lambda t: t / (1.0 - t), -0.6)
    # at z = -0.5 the root of the (1, -1, 2) member is the rung 8, and the
    # first step already settles it
    for s in ("-1", "i"):
        code = main(["eval", "--transform", "S", "--alpha", "1", "--s", s,
                     "--z=-0.3"])
        out = capsys.readouterr()
        assert code == 1, s
        assert out.out == ""
        assert out.err.startswith("error:") and out.err.count("\n") == 1
