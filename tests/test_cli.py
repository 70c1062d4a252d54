import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from freeconv import (ConvergenceError, FamilyParams, build_density_table,
                      cauchy_G, cli, closed_beta_density, levy_table)
from freeconv.cli import build_parser, main, parse_complex
from freeconv.stable_poisson import StableParams, stable_G


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_complex():
    assert parse_complex("-1") == -1.0
    assert parse_complex("2i") == 2j
    assert parse_complex("0.5-0.25i") == 0.5 - 0.25j
    assert parse_complex("1+2j") == 1 + 2j
    with pytest.raises(Exception):
        parse_complex("one")


def test_eval_point_mass_is_exact(capsys):
    code, out, _ = run(capsys, "eval", "--transform", "G", "--alpha", "1",
                       "--s", "-1", "--r", "1", "--z", "2i")
    assert code == 0
    assert out == "0 -0.5\n"


def test_eval_phi_folds_negative_zero(capsys):
    code, out, _ = run(capsys, "eval", "--transform", "phi", "--alpha", "1",
                       "--s", "-1", "--r", "1", "--z", "1+1i")
    assert code == 0
    assert out == "0 0\n"


def test_eval_negative_zero_s(capsys):
    # -1-0i is the s = -1 member, not an arg s = -pi outside the sector
    want = "-0.19736822693561962 -0.91017972112445467\n"
    for s in ("--s=-1", "--s=-1-0i", "--s=-1-0j"):
        code, out, err = run(capsys, "eval", "--alpha", "1", s, "--r", "2",
                             "--transform", "G", "--z", "1i")
        assert (code, out, err) == (0, want, ""), s
    tables = [run(capsys, "density", "--alpha", "1", s, "--r", "1.5",
                  "--xmin", "0.1", "--xmax", "0.9", "--n", "5")
              for s in ("--s=-1", "--s=-1-0i")]
    assert tables[0] == tables[1] and tables[0][0] == 0


def test_eval_s_transform(capsys):
    code, out, _ = run(capsys, "eval", "--transform", "S", "--alpha", "1",
                       "--s", "i", "--z", "-0.5")
    assert code == 0
    lines = out.splitlines()
    num = [float(v) for v in lines[0].split()]
    assert lines[1] == "# closed form 0 -8"
    assert num[0] == pytest.approx(0.0, abs=1e-8)
    assert num[1] == pytest.approx(-8.0, abs=1e-7)


def test_eval_r_transform(capsys):
    code, out, _ = run(capsys, "eval", "--transform", "R", "--alpha", "1",
                       "--s", "-1", "--r", "2", "--z=-0.2-0.1i")
    assert code == 0
    re, im = (float(v) for v in out.split())
    assert np.isfinite(re) and np.isfinite(im)


def test_eval_phi_is_the_continuation(capsys):
    # below the cone the composition at (s/r, 1/r) switches sheet: this
    # printed -1.2418773323343764 0.24966149966844001
    z = 0.5 + 0.1j
    code, out, err = run(capsys, "eval", "--transform", "phi", "--alpha",
                         "2", "--s", "1", "--r", "2", "--z=0.5+0.1i")
    assert (code, err) == (0, "")
    re, im = (float(v) for v in out.split())
    want = z ** 2 * stable_G(StableParams(2.0, 0.25), z) - z
    assert abs(complex(re, im) - want) < 1e-15


def test_density_closed_beta_csv(capsys):
    code, out, _ = run(capsys, "density", "--measure", "beta", "--r", "2",
                       "--xmin", "0.05", "--xmax", "0.95", "--n", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# freeconv density")
    assert lines[1].startswith("# config {")
    assert lines[2] == "x,density,err"
    rows = [line.split(",") for line in lines[3:]]
    xs = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(vals, closed_beta_density(2.0, xs),
                               atol=1e-12)


def test_density_family_inversion_vs_closed(capsys):
    code, out, _ = run(capsys, "density", "--measure", "family", "--alpha",
                       "1", "--s", "-1", "--r", "2", "--xmin", "0.1",
                       "--xmax", "0.9", "--n", "9")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[3:]]
    xs = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(vals, closed_beta_density(2.0, xs),
                               atol=1e-4)


def test_density_s_mod_arg_spelling(capsys):
    # n = 4 keeps x = 0 (where the density blows up) off the grid
    code, out, _ = run(capsys, "density", "--measure", "stable", "--alpha",
                       "2", "--s-mod", "1", "--s-arg", "0", "--xmin", "-0.9",
                       "--xmax", "0.9", "--n", "4", "--format", "plotdata")
    assert code == 0
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(body) == 4
    assert all(len(line.split()) == 2 for line in body)


def test_density_cauchy_mix_near_zero(capsys):
    code, out, err = run(capsys, "density", "--measure", "cauchy-mix",
                         "--xmin=-1e-160", "--xmax=1e-160", "--n", "4")
    assert code == 0
    assert err == ""
    rows = [line.split(",") for line in out.splitlines()[3:]]
    xs = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(vals, np.sqrt(2.0) / np.pi
                               / np.sqrt(np.abs(xs)), rtol=1e-12, atol=0)


def test_density_halfstable_far_out(capsys):
    # the difference form printed 0, 3.8e-11 and 0 here, with a clamp
    # warning; the density is about x**-1.5 / (2 pi)
    code, out, err = run(capsys, "density", "--measure", "half-stable",
                         "--xmin", "1e11", "--xmax", "1e12", "--n", "3")
    assert code == 0
    assert err == ""
    rows = [line.split(",") for line in out.splitlines()[3:]]
    xs = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(vals, xs ** -1.5 / (2.0 * np.pi), rtol=1e-5,
                               atol=0)


def test_config_errors_exit_2(capsys, monkeypatch):
    cases = [
        ("density", "--measure", "family", "--alpha", "1", "--s", "-1",
         "--s-mod", "1", "--r", "2", "--xmin", "0", "--xmax", "1"),
        ("density", "--measure", "family", "--xmin", "0", "--xmax", "1"),
        ("density", "--measure", "beta", "--r", "1", "--xmin", "0",
         "--xmax", "1"),
        ("density", "--measure", "symmetric-beta", "--s", "-1",
         "--xmin", "0", "--xmax", "1"),
        ("levy", "--alpha", "1", "--s", "-1", "--xmin", "0", "--xmax", "1"),
        ("fid", "--alpha", "1", "--s", "-1", "--r", "2", "--xmin", "0"),
        ("eval", "--transform", "S", "--alpha", "1", "--s", "i",
         "--z", "0.5"),
        ("eval", "--transform", "S", "--alpha", "1", "--s", "i",
         "--z", "-0.5", "--r", "3"),
        ("eval", "--transform", "G", "--alpha", "1", "--s", "-1",
         "--z", "2i"),
        # --s-arg means nothing without --s-mod
        ("eval", "--transform", "G", "--alpha", "1", "--s=-1", "--s-arg",
         "1.0", "--r", "2", "--z", "2i"),
    ]
    # size minimums: --n 1, fid --nx/--ny 2
    density = ("density", "--alpha", "1", "--s", "-1", "--r", "2",
               "--xmin", "0.1", "--xmax", "0.9")
    levy = ("levy", "--alpha", "1", "--s", "3i", "--r", "3", "--xmin=-2",
            "--xmax", "2")
    fid = ("fid", "--alpha", "1", "--s=-3", "--r", "3")
    cases += [
        density + ("--n", "-1"),
        density + ("--n", "0"),
        levy + ("--n", "-1"),
        levy + ("--n", "0"),
        fid + ("--nx", "0"),
        fid + ("--nx", "1"),
        fid + ("--nx", "-3"),
        fid + ("--ny", "1"),
        fid + ("--nx", "4.5"),
    ]
    # rect and tolerance values: finite, --tol >= 0
    cases += [
        fid + ("--tol", "nan", "--nx", "40", "--ny", "20"),
        fid + ("--tol", "inf"),
        fid + ("--tol=-1e-9",),
        ("fid", "--alpha", "1", "--s=-1", "--r", "1.5", "--xmin", "0",
         "--xmax", "inf", "--ymin", "1e-3", "--ymax", "1", "--nx", "4",
         "--ny", "4"),
        ("fid", "--alpha", "1", "--s=-1", "--r", "1.5", "--xmin", "0",
         "--xmax", "1", "--ymin", "nan", "--ymax", "1"),
        ("fid", "--alpha", "1", "--s=-1", "--r", "1.5", "--xmin=-inf",
         "--xmax", "1", "--ymin", "1e-3", "--ymax", "1"),
        ("density", "--alpha", "1", "--s=-1", "--r", "1.5", "--xmin", "0",
         "--xmax", "inf", "--n", "3"),
        ("density", "--alpha", "1", "--s=-1", "--r", "1.5", "--xmin", "nan",
         "--xmax", "1"),
        levy + ("--xmax", "inf"),
        # the read heights are no option
        density + ("--y0", "2e-13"),
        # finite ends whose difference overflows: the grid would be NaN
        density + ("--xmin=-1e308", "--xmax", "1e308"),
        levy + ("--xmin=-1e308", "--xmax", "1e308"),
        fid + ("--xmin=-1e308", "--xmax", "1e308", "--ymin", "1e-3",
               "--ymax", "1", "--nx", "4", "--ny", "4"),
        ("verify", "--tol", "nan"),
        ("verify", "--tol=-1"),
        ("verify", "--tol", "abc"),
    ]
    # every number must be finite: a NaN z printed "1 nan" with exit 0,
    # an infinite --s-arg wrote a numpy warning before its error, and
    # --r inf read as a branch cut
    point_mass = ("eval", "--transform", "F", "--alpha", "1", "--r", "1")
    g = ("eval", "--transform", "G", "--z=2i")
    cases += [
        point_mass + ("--s=-1", "--z=1+nani"),
        point_mass + ("--s=-1", "--z=1e400i"),
        point_mass + ("--s=nan", "--z=2i"),
        point_mass + ("--s=1e400", "--z=2i"),
        g + ("--alpha", "nan", "--s=-1", "--r", "2"),
        g + ("--alpha", "1", "--s=-1", "--r", "inf"),
        g + ("--alpha", "1", "--s-mod", "inf", "--r", "2"),
        g + ("--alpha", "1", "--s-mod", "1", "--s-arg", "inf", "--r", "2"),
    ]
    # size caps: each cap + 1, and a size numpy itself cannot allocate
    cases += [
        density + ("--n", "100000000000000000000"),
        density + ("--n", "1000001"),
        levy + ("--n", "10001"),
        fid + ("--nx", "3201"),
        fid + ("--ny", "1601"),
        fid + ("--nx", "100000000000000000000"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("config error:"), argv
        assert err.count("\n") == 1, argv
    # the caps themselves are accepted (parsed only: nothing is built)
    parser = build_parser()
    for argv in (density + ("--n", "1000000"),
                 levy + ("--n", "10000"),
                 fid + ("--nx", "3200", "--ny", "1600")):
        parser.parse_args(list(argv))
    # the continuation's thread count from the environment: an integer
    # >= 1, checked before any subcommand runs
    for bad in ("abc", "0", "-1"):
        monkeypatch.setenv("FREECONV_THREADS", bad)
        for argv in (("fid", "--alpha", "1", "--s", "-1", "--r", "2",
                      "--nx", "8", "--ny", "4"),
                     ("levy", "--alpha", "1", "--s", "3i", "--r", "3",
                      "--xmin=-2", "--xmax", "2", "--n", "1001")):
            code, out, err = run(capsys, *argv)
            assert code == 2, (bad, argv)
            assert out == ""
            assert err.startswith("config error:") and err.count("\n") == 1


def test_computation_error_exits_1(capsys, tmp_path, monkeypatch):
    code, _, err = run(capsys, "eval", "--transform", "G", "--alpha", "1",
                       "--s", "-1", "--r", "2", "--z=-1-1i")
    assert code == 1
    assert err.startswith("error:")
    # a continuation whose starting height overflows (1.5 * max|x| or the
    # scale of a huge |s|) is an error line, not a trace
    for argv in (("fid", "--alpha", "1", "--s=-1", "--r", "2", "--xmin=0",
                  "--xmax", "1.5e308", "--ymin", "1e-3", "--ymax", "1",
                  "--nx", "4", "--ny", "4"),
                 ("levy", "--alpha", "1", "--s=3i", "--r", "3", "--xmin=1",
                  "--xmax", "1.5e308", "--n", "3"),
                 ("levy", "--alpha", "0.5", "--s=-1e300", "--r", "2",
                  "--xmin=-1", "--xmax", "1", "--n", "3"),
                 ("fid", "--alpha", "0.5", "--s=-1e300", "--r", "2",
                  "--nx", "4", "--ny", "4"),
                 ("fid", "--alpha", "0.5", "--s=-1e200", "--r", "2",
                  "--nx", "4", "--ny", "4")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, argv
    # a negative Levy density on a law that is not fid names the verdict
    code, out, err = run(capsys, "levy", "--alpha", "1.7", "--s=1", "--r",
                         "4", "--xmin=-3", "--xmax", "3", "--n", "400")
    assert (code, out) == (1, "")
    assert err.startswith("error: Levy density went significantly negative")
    assert err.endswith("theory verdict: not-fid\n") and err.count("\n") == 1
    # an output file that cannot be written is an error line, not a trace
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "verify", "--suite", "inversion", "--out",
                         str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.parent.exists()
    # running out of memory is an error line too (simulated: nothing big
    # is allocated)
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.5 TiB for an array")

    monkeypatch.setattr(cli, "build_density_table", no_memory)
    code, out, err = run(capsys, "density", "--alpha", "1", "--s", "-1",
                         "--r", "2", "--xmin", "0.1", "--xmax", "0.9")
    assert code == 1
    assert out == ""
    assert err == "error: Unable to allocate 1.5 TiB for an array\n"


def test_warning_is_one_stderr_line(capsys):
    # the Levy density of (0.5, 2e4 e^{2 pi i/3}, 3), theory "unknown",
    # dips to about -3e-10 on this window, far below its err (1e-20) but
    # above -NEG_DENSITY_TOL: the table clamps it, with a UserWarning
    argv = ["levy", "--alpha", "0.5", "--s-mod", "2e4", "--s-arg",
            "2.0943951023931953", "--r", "3", "--xmin=-2.4e6",
            "--xmax=-4e4", "--n", "50"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err.startswith("warning: clamped ") and err.count("\n") == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(capsys, *argv) == (0, out, "")


def test_power_law_edges_tabulate(capsys):
    # the paper's beta members and the r = 2 members whose densities have
    # a power-law edge inside the window: a clean table, no clamp warning
    for argv in (
            "density --alpha 1 --s=-1 --r 1.5 --xmin=-0.5 --xmax 1.5 --n 400",
            "density --alpha 1 --s=-1 --r 1.5 --xmin=-0.5 --xmax 1.5 --n 4000",
            "density --alpha 1 --s=-1 --r 2 --xmin=-0.5 --xmax 1.5 --n 400",
            "density --alpha 0.5 --s=-1 --r 2 --xmin=-1 --xmax 5 --n 400",
            "density --alpha 2 --s=1 --r 2 --xmin=-3 --xmax 3 --n 4000",
            "density --alpha 1.5 --s=1 --r 2 --xmin=-3 --xmax 3 --n 4000",
            "levy --alpha 1 --s=-1 --r 1.5 --xmin=-1 --xmax 3 --n 4000",
            "levy --alpha 2 --s=1 --r 2 --xmin=-3 --xmax 3 --n 4000"):
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, ""), argv
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert len(rows) == int(argv.split()[-1]) + 1, argv  # header, n rows


def test_every_read_refuses_an_atom(capsys):
    # mu(1, -1, 1) is the point mass at 0, and the Levy measure of
    # mu(1, -1, 2) the point mass at 1/4: f doubles from 2y to y there
    point = FamilyParams(1.0, -1.0, 1.0)
    with pytest.raises(ConvergenceError, match="doubles from 2y to y"):
        build_density_table(lambda z: cauchy_G(point, z),
                            np.linspace(-1.0, 1.0, 5))
    with pytest.raises(ConvergenceError, match="doubles from 2y to y"):
        levy_table(FamilyParams(1.0, -1.0, 2.0), np.linspace(0.05, 0.45, 9))
    for argv in ("density --alpha 1 --s=-1 --r 1 --xmin=-1 --xmax 1 --n 5",
                 "levy --alpha 1 --s=-1 --r 2 --xmin 0.05 --xmax 0.45 "
                 "--n 9"):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: the boundary value doubles"), argv
        assert err.count("\n") == 1, argv


def test_verify_inversion_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "inversion")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    (res,) = payload["results"]
    assert res["identity"] == "inversion-consistency"
    assert res["max_residual"] < 1e-4


def test_verify_failure_exits_3(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "boxtimes", "--tol",
                       "1e-16")
    assert code == 3
    payload = json.loads(out)
    assert payload["passed"] is False
    assert any(r["passed"] is False for r in payload["results"])


def test_fid_json_report(capsys):
    code, out, _ = run(capsys, "fid", "--alpha", "1", "--s", "-1", "--r",
                       "2", "--nx", "60", "--ny", "30")
    assert code == 0
    payload = json.loads(out)
    rep = payload["report"]
    assert rep["verdict"] == "no-violation-on-grid"
    assert rep["theory"] == "fid"
    assert rep["witness"] is None


def test_levy_json_keys(capsys, tmp_path):
    out_path = tmp_path / "trip.json"
    code, out, _ = run(capsys, "levy", "--alpha", "1", "--s", "3i", "--r",
                       "3", "--xmin", "-2", "--xmax", "2", "--n", "11",
                       "--format", "json", "--out", str(out_path))
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert set(payload) == {"config", "gamma", "a", "nu"}
    assert payload["gamma"] == pytest.approx(0.0, abs=1e-6)
    assert payload["a"] == pytest.approx(0.0, abs=1e-8)
    assert set(payload["nu"]) == {"x", "density", "err", "y_ladder"}


def test_output_is_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "self-similarity", "--format", "json"]
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "freeconv", "eval", "--transform", "G",
         "--alpha", "1", "--s", "-1", "--r", "1", "--z", "2i"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "0 -0.5\n"
