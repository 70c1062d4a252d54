"""The CLI starts without scipy.

scipy is imported only inside quadrature, collision_search and
ui_heuristic, none of which a CLI subcommand calls.  The check runs in a
fresh interpreter, so that scipy imported by other tests does not leak in.
"""

import os
import subprocess
import sys
import textwrap

import freeconv

SRC = os.path.dirname(os.path.dirname(os.path.abspath(freeconv.__file__)))

SCRIPT = textwrap.dedent("""
    import contextlib, io, sys

    def scipy_loaded():  # the first few, to keep a failure readable
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))[:5]

    import freeconv
    assert not scipy_loaded(), ("import freeconv", scipy_loaded())
    from freeconv.cli import main
    for argv in ARGVS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 0, (argv, code)
        assert not scipy_loaded(), (argv, scipy_loaded())
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
