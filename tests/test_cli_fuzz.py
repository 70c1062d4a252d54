"""Argv fuzzing of the CLI: every run ends in a documented exit code.

The contract is 0 success, 1 computation error, 2 bad configuration
(argparse's own SystemExit(2) included), 3 verification failure; any other
exception escaping main() is a bug.  Sizes stay small (n, nx, ny <= 64) so
the whole run takes seconds.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from freeconv.cli import main

MEMBERS = [("1", "-1", "2"), ("1", "3i", "3"), ("2", "1", "2"),
           ("0.5", "-1", "2"), ("1.5", "1", "1.5"), ("1", "-3", "3"),
           ("0.7", "-1", "5"), ("2", "1", "1"), ("1", "1", "2")]

small_int = st.integers(min_value=-3, max_value=64)
coord = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
num = coord.map(lambda v: f"{v:.6g}")


def _opt(name, values):
    """An optional ['--name=value'] fragment."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


def _member():
    return st.sampled_from(MEMBERS).map(
        lambda m: [f"--alpha={m[0]}", f"--s={m[1]}", f"--r={m[2]}"])


def _window():
    return st.tuples(coord, coord).map(
        lambda w: [f"--xmin={w[0]:.6g}", f"--xmax={w[1]:.6g}"])


def _join(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


density = _join(
    st.just(["density"]), _member(),
    st.sampled_from(["family", "stable", "mp", "beta", "symmetric-beta",
                     "cauchy-mix", "half-stable"]).map(
        lambda m: [f"--measure={m}"]),
    _window(), _opt("n", small_int),
    st.sampled_from([[], ["--format=json"], ["--format=plotdata"]]))

levy = _join(
    st.just(["levy"]), _member(), _window(), _opt("n", small_int),
    st.sampled_from([[], ["--format=json"]]))

fid = _join(
    st.just(["fid"]), _member(), _opt("nx", small_int), _opt("ny", small_int),
    _opt("tol", st.sampled_from(["1e-9", "1e-3", "0", "-1e-6"])),
    st.one_of(st.just([]), st.tuples(coord, coord, coord, coord).map(
        lambda r: [f"--xmin={r[0]:.6g}", f"--xmax={r[1]:.6g}",
                   f"--ymin={abs(r[2]) / 6:.6g}",
                   f"--ymax={abs(r[3]):.6g}"])))

verify = _join(
    st.just(["verify"]),
    st.sampled_from(["all", "composition", "self-similarity",
                     "compound-poisson", "boxtimes", "inversion"]).map(
        lambda s: [f"--suite={s}"]),
    _opt("tol", st.sampled_from(["1e-16", "1e-8", "1", "-1"])))

evaluate = _join(
    st.just(["eval"]), _member(),
    st.sampled_from(["G", "F", "Finv", "phi", "R", "S"]).map(
        lambda t: [f"--transform={t}"]),
    st.one_of(
        st.tuples(num, num).map(lambda z: f"{z[0]}+{z[1]}i".replace("+-",
                                                                     "-")),
        st.floats(min_value=-1.0, max_value=0.0).map(lambda v: f"{v:.9g}")
    ).map(lambda z: [f"--z={z}"]))


# random windows hit clamped densities and overflowing closed forms; their
# warnings are expected and beside the point here
@pytest.mark.filterwarnings("ignore::UserWarning",
                            "ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.one_of(density, levy, fid, verify, evaluate))
def test_cli_exit_codes_are_documented(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit on bad usage
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
