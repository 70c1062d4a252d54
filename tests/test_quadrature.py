"""Double-exponential quadrature: closed forms, infinite ends, nodes that
round onto an end, and the error report."""

import mpmath
import numpy as np
import pytest

from freeconv import (QuadratureError, StableParams, closed_beta_density,
                      example_density_cauchy_mix, example_density_halfstable,
                      mp_density, quadrature, stable_density)
from freeconv import stieltjes

HALFSTABLE = StableParams(0.5, -1.0)


@pytest.mark.parametrize("f, a, b, kw, want", [
    (mp_density, 0.0, 4.0, dict(left_exp=-0.5, right_exp=0.5), 1.0),
    (lambda x: closed_beta_density(1.5, x), 0.0, 1.0,
     dict(left_exp=-1.0 / 1.5, right_exp=1.0 / 1.5), 1.0),
    (example_density_cauchy_mix, 0.0, np.inf, dict(left_exp=-0.5), 0.5),
    (lambda x: stable_density(HALFSTABLE, x), 0.0, np.inf,
     dict(left_exp=-0.5), 1.0),
])
def test_normalizations(f, a, b, kw, want):
    assert abs(quadrature(f, a, b, **kw) - want) < 1e-12


def test_against_mpmath():
    # the half-stable mass of (0, 1], and a beta integral singular at 0
    with mpmath.workdps(40):
        hs = mpmath.quad(
            lambda t: (4 * mpmath.sqrt(2) / mpmath.pi)
            * (1 / mpmath.sqrt(2 * t) - mpmath.sqrt(mpmath.sqrt(1 + 1 / t)
                                                    - 1)), [0, 1])
        beta = mpmath.beta(mpmath.mpf(1) / 2, mpmath.mpf(5) / 3)
    got = quadrature(example_density_halfstable, 0.0, 1.0, left_exp=-0.5)
    assert got == pytest.approx(float(hs), rel=1e-13, abs=0)
    got = quadrature(lambda t: t ** -0.5 * (1 - t) ** (2 / 3), 0.0, 1.0,
                     left_exp=-0.5, right_exp=2 / 3)
    assert got == pytest.approx(float(beta), rel=1e-13, abs=0)


def test_infinite_ends():
    def cauchy(x):
        return 1.0 / (np.pi * (1.0 + x * x))
    assert quadrature(cauchy, -np.inf, 0.0) == pytest.approx(0.5, abs=1e-14)
    assert quadrature(cauchy, -np.inf, np.inf) == pytest.approx(1.0,
                                                                abs=1e-14)
    assert quadrature(np.exp, -np.inf, 2.0) == pytest.approx(np.exp(2.0),
                                                             rel=1e-14)
    # (-inf, 0] on a law supported on (0, inf): nothing, exactly
    assert quadrature(lambda x: stable_density(HALFSTABLE, x),
                      -np.inf, -1.0) == 0.0


def test_nodes_on_an_end_are_dropped():
    # with x = u**200 at the left end (the declared exponent -0.99), every
    # node with u below 0.03 rounds onto x = 0, where both densities raise;
    # the integral is still the one taken with the true exponent -0.5
    for f in (example_density_cauchy_mix,
              lambda x: stable_density(HALFSTABLE, x)):
        want = quadrature(f, 0.0, 1.0, left_exp=-0.5)
        got = quadrature(f, 0.0, 1.0, left_exp=-0.99)
        assert got == pytest.approx(want, abs=1e-9)
    # here the nodes round onto the nonzero end 1, and onto the split
    # point 0 of (-1, 1)
    got = quadrature(lambda x: example_density_cauchy_mix(x - 1.0), 1.0, 2.0,
                     left_exp=-0.5)
    want = quadrature(example_density_cauchy_mix, 0.0, 1.0, left_exp=-0.5)
    assert got == pytest.approx(want, abs=1e-7)
    arcsine = StableParams(2.0, 1.0)
    got = quadrature(lambda x: stable_density(arcsine, x), -1.0, 1.0,
                     left_exp=-0.5, right_exp=-0.5)
    assert got == pytest.approx(1.0, abs=1e-7)


def test_heavy_tail_raises_with_estimate():
    with pytest.raises(QuadratureError) as info:
        quadrature(lambda x: 1.0 / x, 1.0, np.inf)
    assert np.isfinite(info.value.estimate) and info.value.estimate > 10.0
    # 1/(x log(x)**2) integrates to 1 over (e, inf), but 1/log(x) of it
    # lies beyond any finite node; the trapezoid sums agree to 5e-6 on the
    # 0.9948 that the nodes reach, so only the size of the outermost terms
    # tells the missing tail
    with pytest.raises(QuadratureError) as info:
        quadrature(lambda x: 1.0 / (x * np.log(x) ** 2), np.e, np.inf,
                   tol=1e-5)
    assert info.value.estimate == pytest.approx(0.9948, abs=1e-4)


def test_nan_integrand_raises():
    with pytest.raises(QuadratureError):
        quadrature(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)


def test_f_is_called_on_arrays_once_per_level():
    calls = []

    def f(x):
        calls.append(x)
        return np.exp(-x)
    assert quadrature(f, 0.0, np.inf) == pytest.approx(1.0, rel=1e-14)
    assert all(isinstance(x, np.ndarray) and x.ndim == 1
               and x.dtype == float for x in calls)
    # two pieces, each at most one call per level
    assert len(calls) <= 2 * (stieltjes._DE_LEVELS + 1)


def test_de_rule_is_built_once_and_read_only():
    for finite in (True, False):
        rule = stieltjes._de_rule(finite)
        assert stieltjes._de_rule(finite) is rule
        assert len(rule) == stieltjes._DE_LEVELS + 1
        for level in rule:
            for arr in level:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0


def _fresh_nodes(mid, end):
    """Per level, the nodes x of the piece from mid to end (exponent 0)
    built from the t-nodes on every call, as _de_piece did before its rule
    was cached."""
    sign = 1.0 if end > mid else -1.0
    finite = not np.isinf(end)
    length = abs(end - mid) if finite else 1.0
    lo, hi = stieltjes._DE_T[finite]
    h = stieltjes._DE_H0
    t0 = np.ceil(lo / h) * h
    n = int(np.floor(hi / h) - np.ceil(lo / h))
    ts = [t0 + h * np.arange(n + 1)]
    for _ in range(stieltjes._DE_LEVELS):
        h *= 0.5
        ts.append(t0 + h * (2.0 * np.arange(n) + 1.0))
        n *= 2
    out = []
    for t in ts:
        s = 0.5 * np.pi * np.sinh(t)
        ds = 0.5 * np.pi * np.cosh(t)
        if finite:
            e = np.exp(-2.0 * np.abs(s))
            u = length * np.where(s < 0.0, e, 1.0) / (1.0 + e)
            w = length * ds * 2.0 * e / (1.0 + e) ** 2
            x = end - sign * u
        else:
            u = np.exp(s)
            w = ds * u
            x = mid + sign * u
        out.append(x[(x != end) & (x != mid) & (w > 0.0)])
    return out


@pytest.mark.parametrize("a, b, mid", [(0.0, 1.0, 0.5), (1.0, 3.0, 2.0),
                                       (0.0, np.inf, 1.0),
                                       (-np.inf, np.inf, 0.0)])
def test_de_nodes_match_a_fresh_construction(a, b, mid):
    # an integrand of noise never settles, so f sees the nodes of all
    # levels of both pieces, one call each, before the QuadratureError
    calls = []
    rng = np.random.default_rng(3)

    def f(x):
        calls.append(x)
        return rng.random(x.shape)
    with pytest.raises(QuadratureError):
        quadrature(f, a, b)
    want = _fresh_nodes(mid, a) + _fresh_nodes(mid, b)
    assert len(calls) == len(want) == 2 * (stieltjes._DE_LEVELS + 1)
    for got, fresh in zip(calls, want):
        # the ends here keep |x| >= the distance u to the end, so x
        # inherits the relative error of u
        np.testing.assert_array_max_ulp(got, fresh, maxulp=2)
