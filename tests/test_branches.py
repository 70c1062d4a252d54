import numpy as np
import pytest
from hypothesis import given, strategies as st

from freeconv import BranchCutError, ConvergenceError, DomainError
from freeconv.branches import (_lift_rows, binom_coeff, binom_series,
                               log_principal, log_upper, pow_principal,
                               pow_upper)


def test_log_upper_frozen_points():
    assert log_upper(-1) == pytest.approx(1j * np.pi)
    assert log_upper(1j) == pytest.approx(1j * np.pi / 2)
    # the branch puts -i at 3*pi/2, not -pi/2
    assert log_upper(-1j) == pytest.approx(3j * np.pi / 2)


def test_log_principal_frozen_points():
    assert log_principal(1) == 0
    assert log_principal(1j) == pytest.approx(1j * np.pi / 2)
    assert log_principal(-1j) == pytest.approx(-1j * np.pi / 2)


def test_log_upper_rejects_its_cut():
    for z in (0.0, 1.0, 2.5, 1e308):
        with pytest.raises(BranchCutError):
            log_upper(z)
    # the other side of zero is fine
    assert log_upper(-1e-6).real == pytest.approx(np.log(1e-6))


def test_log_principal_rejects_its_cut():
    for z in (0.0, -1.0, -2.5):
        with pytest.raises(BranchCutError):
            log_principal(z)
    assert log_principal(1e-6).imag == 0.0


def test_pow_upper_frozen_points():
    assert pow_upper(-1, 2) == pytest.approx(1.0)
    assert pow_upper(1j, 0.5) == pytest.approx(np.exp(1j * np.pi / 4))
    # follows from log_upper(-i) = 3i*pi/2
    assert pow_upper(-1j, 0.5) == pytest.approx((-1 + 1j) / np.sqrt(2))


def test_pow_principal_frozen_points():
    assert pow_principal(4, 0.5) == pytest.approx(2.0)
    assert pow_principal(1 + 0j, 0.37) == pytest.approx(1.0)
    assert pow_principal(1j, 2) == pytest.approx(-1.0)


def test_binom_coeff_values():
    assert binom_coeff(0.5, 2) == pytest.approx(-1 / 8)
    assert binom_coeff(0.5, 1) == 0.5
    assert binom_coeff(1.37, 0) == 1.0
    # integer p: exact zeros past the degree
    assert binom_coeff(1.0, 2) == 0.0
    assert binom_coeff(3.0, 2) == 3.0


def test_binom_coeff_rejects_bad_n():
    with pytest.raises(ValueError):
        binom_coeff(0.5, -1)
    with pytest.raises(ValueError):
        binom_coeff(0.5, 1.5)


def test_binom_series_values():
    assert binom_series(0.0, 0.7, 10) == 1.0
    assert binom_series(0.5, 1.0, 5) == pytest.approx(1.5)
    got = binom_series(0.3, 1 / 3, 40)
    assert abs(got - pow_principal(1.3, 1 / 3)) < 1e-12


def test_binom_series_adaptive_matches_pow():
    for w in (0.3, -0.45, 0.2 + 0.3j, -0.1 - 0.4j):
        for p in (1 / 3, 0.5, -0.25, 2.0):
            got = binom_series(w, p)
            want = pow_principal(1 + complex(w), p)
            assert abs(got - want) < 1e-12


def test_binom_series_domain_and_cap():
    with pytest.raises(DomainError):
        binom_series(1.0, 0.5)
    with pytest.raises(DomainError):
        binom_series(1.2j, 0.5)
    # adaptive mode cannot settle this close to the disk edge
    with pytest.raises(ConvergenceError):
        binom_series(0.999999, -0.5)


_off_upper = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
).filter(lambda z: abs(z.imag) > 1e-12 or z.real < -1e-12)

_off_principal = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
).filter(lambda z: abs(z.imag) > 1e-12 or z.real > 1e-12)

_upper_half = st.builds(
    complex,
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(1e-6, 1e3, allow_nan=False),
)


@given(_off_upper)
def test_exp_log_upper_roundtrip(z):
    w = log_upper(z)
    assert 0.0 < w.imag < 2 * np.pi
    assert abs(np.exp(w) - z) <= 1e-14 * abs(z)


@given(_off_principal)
def test_exp_log_principal_roundtrip(z):
    w = log_principal(z)
    # range closed at pi: points grazing the cut from above round onto it
    assert -np.pi < w.imag <= np.pi
    assert abs(np.exp(w) - z) <= 1e-14 * abs(z)


@given(_upper_half)
def test_logs_agree_on_upper_half_plane(z):
    assert abs(log_upper(z) - log_principal(z)) < 1e-13


@given(_upper_half, st.floats(-3, 3), st.floats(-3, 3))
def test_pow_upper_additive_exponents(z, p, q):
    lhs = pow_upper(z, p) * pow_upper(z, q)
    rhs = pow_upper(z, p + q)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@given(st.floats(-0.8, 0.8), st.floats(0.1, 2.0))
def test_binom_series_monotone_convergence(w, p):
    # partial sums for real w close in on the principal power
    target = pow_principal(1 + w, p)
    errs = [abs(binom_series(w, p, n) - target) for n in (5, 10, 20, 40)]
    assert errs[-1] <= errs[0] + 1e-15
    assert errs[-1] < 1e-6


def test_vectorized_forms():
    zs = np.array([-1.0, 1j, -1j])
    np.testing.assert_allclose(
        log_upper(zs), [1j * np.pi, 1j * np.pi / 2, 3j * np.pi / 2], atol=1e-15
    )
    zs = np.array([4.0, 1j])
    np.testing.assert_allclose(pow_principal(zs, 0.5),
                               [2.0, np.exp(1j * np.pi / 4)], atol=1e-15)


def test_lift_rows_takes_whole_turns():
    # each row is its principal arg plus 2*pi*k, bit for bit, where k is
    # the whole number of turns np.unwrap finds, plus the upper branch's
    # starting turn; so the lift is np.unwrap within 1e-13 on args in
    # [-pi, pi], steps of exactly +-pi and signed zeros included; a column
    # turns where a step of the watched slice moves the lift over pi/3
    special = np.array([np.pi, -np.pi, 0.0, -0.0, np.nextafter(np.pi, 0.0),
                        np.nextafter(-np.pi, 0.0)])
    rng = np.random.default_rng(5)
    for n in range(600):
        shape = (int(rng.integers(1, 30)),) + ((int(rng.integers(1, 9)),)
                                                if n % 3 else ())
        if n % 4 == 0:  # steps of exactly +-pi
            p = rng.choice([np.pi, -np.pi, 0.0, -0.0], shape)
        elif n % 4 == 1:  # no jump at all
            p = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], shape)
        else:
            p = rng.uniform(-np.pi, np.pi, shape)
            hit = rng.random(shape) < 0.2
            p[hit] = rng.choice(special, int(hit.sum()))
        upper = bool(n % 2)
        start = 2.0 * np.pi * (upper & (p[:1] <= 0.0))
        unwrapped = np.unwrap(p, axis=0)
        k = np.round((unwrapped + start - p) / (2.0 * np.pi))
        got = p.copy()
        watch = slice(int(rng.integers(0, 3)), int(rng.integers(0, 30)))
        turns = []
        _lift_rows(got, upper, watch, turns)
        assert np.array_equal(got, p + 2.0 * np.pi * k), p
        assert np.all(np.abs(got - start - unwrapped) <= 1e-13), p
        # a column turns where a watched step of the lift exceeds pi/3, and
        # the columns are reported only if one does
        steps = np.abs(np.diff(unwrapped, axis=0))[watch]
        want = np.any(steps > np.pi / 3.0, axis=0)
        assert len(turns) == int(np.any(want))
        assert not turns or np.array_equal(turns[0], want)
    # a NaN row poisons its column from there down, and only it; args that
    # barely move turn no column but the one with a NaN step watched
    p = rng.uniform(-0.5, 0.5, (20, 6))
    p[[3, 0, 19], [1, 4, 5]] = np.nan
    for upper in (False, True):
        got = p.copy()
        turns = []
        with np.errstate(invalid="ignore"):
            _lift_rows(got, upper, slice(2, 4), turns)
        first = np.array([20, 3, 20, 20, 0, 19])
        assert np.array_equal(np.isnan(got),
                              np.arange(20)[:, None] >= first), got
        assert np.array_equal(turns, [[False, True] + [False] * 4])
