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


def _counted(solver, f, *args, **kw):
    """solver(f, *args, **kw) -> (root or exception type, f evaluations)."""
    n = [0]

    def g(x):
        n[0] += 1
        return f(x)

    try:
        out = solver(g, *args, **kw)
    except (ValueError, RuntimeError) as exc:
        out = ValueError if isinstance(exc, ValueError) else RuntimeError
    return out, n[0]


def test_brentq_matches_scipy(monkeypatch):
    # the port takes scipy's iterates: the same float after the same number
    # of evaluations, on the solves S-transform inversion really makes
    from scipy.optimize import brentq
    port = transforms._brentq
    calls = []

    def both(f, a, b, **kw):
        got = _counted(port, f, a, b, **kw)
        calls.append((got, _counted(brentq, f, a, b, **kw)))
        return got[0]

    monkeypatch.setattr(transforms, "_brentq", both)
    zs = np.linspace(-0.9, -0.1, 5)
    for c in (0.5, 1.0, 2.0):
        positive = FamilyParams(1.0, -c, 2.0)
        symmetric = FamilyParams(2.0, c, 2.0)
        for z in zs:
            s_transform_numeric(lambda w: cauchy_G(positive, w), z)
            s_transform_numeric(lambda w: cauchy_G(symmetric, w), z,
                                kind="symmetric")
    assert len(calls) == 2 * 3 * len(zs)
    for got, ref in calls:
        assert isinstance(got[0], float)
        assert got == ref
    # analytic functions, including one so small that the extrapolation's
    # denominator underflows to 0 (C divides to inf and bisects),
    # non-convergence within maxiter (scipy raises RuntimeError, the port
    # its subclass ConvergenceError), a bad bracket and a NaN value
    # (ValueError in both)
    cases = [(lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, {}),
             (lambda x: 1e-160 * (x ** 3 - 2.0 * x - 5.0), 0.0, 3.0, {}),
             (lambda x: np.cos(x) - x, 0.0, 1.0, {"xtol": 1e-14}),
             (lambda x: np.tanh(x - 0.3) + 0.1 * (x - 0.3) ** 3, -10.0,
              10.0, {}),
             (lambda x: np.exp(x) - 2.0, -5.0, 5.0, {"xtol": 1e-14}),
             (lambda x: (x - 0.7) ** 5, -7.3, 9.1, {}),
             (lambda x: np.arctan(1e3 * (x - 0.3)), -7.0, 9.0,
              {"maxiter": 3}),
             (lambda x: x * x + 1.0, -1.0, 1.0, {}),
             (lambda x: np.nan if x > 0.5 else x - 0.75, 0.0, 1.0, {})]
    for _, _, _, kw in cases:
        kw.setdefault("xtol", 2e-12)  # scipy's default
    for f, a, b, kw in cases:
        assert _counted(port, f, a, b, **kw) == _counted(brentq, f, a, b,
                                                         **kw)


def test_brentq_failures():
    with pytest.raises(ValueError):
        transforms._brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-14)
    with pytest.raises(ConvergenceError):
        transforms._brentq(lambda x: np.arctan(1e3 * (x - 0.3)), -7.0, 9.0,
                           xtol=1e-14, maxiter=3)
    # psi(t_floor) is still below w: the bad bracket is a BracketingError
    with pytest.raises(BracketingError):
        chi_numeric(lambda t: psi_from_G(mp_cauchy, t), -1e-15)

    # symmetric Bernoulli law, psi(i*t) = -t**2/(1 + t**2), with G made NaN
    # inside the bracket: the solve fails with a ConvergenceError
    def G_nan(z):
        return np.nan if 0.5 < abs(z) < 2.0 else z / (z * z - 1.0)

    with pytest.raises(ConvergenceError, match="NaN"):
        s_transform_numeric(G_nan, -0.5, kind="symmetric")

    # a DomainError raised inside the bracket, at a point the bracket
    # search never visits, reaches the caller unchanged in both solves:
    # the bracket is [1e-6, 2] here (t = 1 and 2 tried), the solve steps
    # into 1 < t < 2, i.e. 1/2 < |z| < 1
    def G_domain(z):
        if 0.5 < abs(z) < 1.0:
            raise DomainError("G undefined here")
        return z / (z * z - 1.0)

    with pytest.raises(DomainError, match="G undefined here"):
        s_transform_numeric(G_domain, -0.5, kind="symmetric")

    # psi(t) = t/(1 - t): the bracket is [-2, -1e-12] (t = -1 and -2
    # tried), the root is -1.5
    def psi_domain(t):
        if -1.99 < t < -1.01:
            raise DomainError("psi undefined here")
        return t / (1.0 - t)

    with pytest.raises(DomainError, match="psi undefined here"):
        chi_numeric(psi_domain, -0.6)


def test_s_transform_non_convergence_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(transforms, "_brentq",
                        functools.partial(transforms._brentq, maxiter=1))
    for s in ("-1", "i"):
        code = main(["eval", "--transform", "S", "--alpha", "1", "--s", s,
                     "--z=-0.5"])
        out = capsys.readouterr()
        assert code == 1, s
        assert out.out == ""
        assert out.err.startswith("error:") and out.err.count("\n") == 1
