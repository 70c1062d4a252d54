"""The library and the CLI run without scipy.

The runtime needs numpy alone.  The check runs in a fresh interpreter in
which scipy cannot be imported (sys.modules["scipy"] is None), so that
scipy imported by other tests does not leak in and any import of it
fails.
"""

import os
import subprocess
import sys
import textwrap

import freeconv

SRC = os.path.dirname(os.path.dirname(os.path.abspath(freeconv.__file__)))

SCRIPT = textwrap.dedent("""
    import contextlib, io, sys
    sys.modules["scipy"] = None  # import scipy now raises ImportError

    import numpy as np

    def scipy_loaded():  # the first few, to keep a failure readable
        return sorted(m for m, mod in sys.modules.items() if mod is not None
                      and (m == "scipy" or m.startswith("scipy.")))[:5]

    import freeconv
    assert not scipy_loaded(), ("import freeconv", scipy_loaded())
    from freeconv.cli import main
    for argv in ARGVS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 0, (argv, code)
        assert not scipy_loaded(), (argv, scipy_loaded())

    grid = (np.linspace(-1.0, 1.0, 21)[None, :]
            + 1j * np.linspace(0.1, 1.0, 10)[:, None]).ravel()
    hit = freeconv.ui_heuristic(freeconv.FamilyParams(2.0, 1.0, 2.0), grid)
    assert hit is not None and hit["map"] == "inverse_F", hit
    hit = freeconv.collision_search(freeconv.ui_counterexample_map, grid)
    assert hit is not None, hit
    total = freeconv.quadrature(freeconv.mp_density, 0.0, 4.0,
                                left_exp=-0.5, right_exp=0.5)
    assert abs(total - 1.0) < 1e-12, total
    assert not scipy_loaded(), ("library", scipy_loaded())
    print("ok")
""")

ARGVS = [
    ["eval", "--transform", "G", "--alpha", "1", "--s=-1", "--r", "2",
     "--z", "0.5+0.1i"],
    ["eval", "--transform", "S", "--alpha", "1", "--s=-1", "--z=-0.5"],
    ["eval", "--transform", "S", "--alpha", "1", "--s", "i", "--z=-0.5"],
    ["density", "--alpha", "1", "--s=-1", "--r", "2", "--xmin", "0.1",
     "--xmax", "0.9", "--n", "9"],
    ["density", "--measure", "cauchy-mix", "--xmin=-2", "--xmax", "2",
     "--n", "4"],
    ["levy", "--alpha", "1", "--s", "3i", "--r", "3", "--xmin=-2",
     "--xmax", "2", "--n", "11"],
    ["fid", "--alpha", "1", "--s=-3", "--r", "3", "--nx", "40", "--ny",
     "20"],
    ["verify", "--suite", "all"],
]


def test_cli_does_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", f"ARGVS = {ARGVS!r}\n" + SCRIPT],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
