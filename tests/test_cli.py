import json
import subprocess
import sys

import numpy as np
import pytest

from freeconv import closed_beta_density
from freeconv.cli import main, parse_complex


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
    ]
    # size and level minimums: density --levels 1, levy --levels 3 (its
    # atom at 0 is read off a policed ladder), --n 1, fid --nx/--ny 2
    density = ("density", "--alpha", "1", "--s", "-1", "--r", "2",
               "--xmin", "0.1", "--xmax", "0.9")
    levy = ("levy", "--alpha", "1", "--s", "3i", "--r", "3", "--xmin=-2",
            "--xmax", "2")
    fid = ("fid", "--alpha", "1", "--s=-3", "--r", "3")
    cases += [
        density + ("--levels", "0"),
        density + ("--levels", "-1"),
        density + ("--levels", "two"),
        levy + ("--levels", "1"),
        levy + ("--levels", "2"),
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
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("config error:"), argv
        assert err.count("\n") == 1, argv
    # the fid thread count from the environment: an integer >= 1
    for bad in ("abc", "0", "-1"):
        monkeypatch.setenv("FREECONV_THREADS", bad)
        code, out, err = run(capsys, "fid", "--alpha", "1", "--s", "-1",
                             "--r", "2", "--nx", "8", "--ny", "4")
        assert code == 2, bad
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1


def test_computation_error_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--transform", "G", "--alpha", "1",
                       "--s", "-1", "--r", "2", "--z=-1-1i")
    assert code == 1
    assert err.startswith("error:")
    # an output file that cannot be written is an error line, not a trace
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "verify", "--suite", "inversion", "--out",
                         str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.parent.exists()


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
