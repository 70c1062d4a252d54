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
