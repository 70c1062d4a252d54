"""Set-up probe: import freeconv and make a workload's first warm call.

Run as ``python perfbench/probe.py <workload>`` with freeconv on the path;
the caller times the whole process.  freeconv is imported first so that
``-X importtime`` output of this script starts with the library's imports.
Prints one JSON line with the fid scan's resolved thread count; anything
more would add to the time measured.
"""

import freeconv as fc

import contextlib
import io
import json
import sys

import numpy as np


def warm(workload):
    if workload == "cli-mix":
        from freeconv import cli
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["eval", "--transform", "G", "--alpha", "1",
                      "--s=-1", "--r", "2", "--z", "1+1i"])
    elif workload == "scan":
        fc.check_fid_grid(fc.FamilyParams(1.0, -1.0, 2.0), nx=40, ny=20)
    else:
        p = fc.FamilyParams(1.0, -1.0, 2.0)
        fc.s_transform_numeric(lambda w: fc.cauchy_G(p, w), -0.5)
        fc.ui_heuristic(p, np.linspace(-1.0, 1.0, 8) + 0.5j)
        fc.quadrature(lambda x: x, 0.0, 1.0)


if __name__ == "__main__":
    warm(sys.argv[1])
    thread_count = getattr(fc.fid, "_thread_count", None)
    print(json.dumps({"fid_threads": thread_count() if thread_count
                      else None}))
