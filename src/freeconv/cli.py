"""Command-line front end.

Subcommands: density (tables by inversion or closed form), levy (generating
triplet on a window), fid (grid scan report), verify (identity residual
suites), eval (single transform values).  Output is deterministic: no
timestamps, fixed float formatting (%.17g), sorted JSON keys, and atomic
file writes, so repeated runs with equal arguments are byte-identical.
Exit codes: 0 success, 1 computation failure, 2 bad configuration,
3 verification failure.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import DomainError, FreeconvError
from .family import (FamilyParams, _worst, cauchy_G, default_cone, inverse_F,
                     reciprocal_F, verification_cone, verify_composition,
                     verify_self_similarity, voiculescu_phi)
from .fid import _thread_count, check_fid_grid, levy_triplet
from .stable_poisson import StableParams, mp_density, stable_density
from .stieltjes import (DensityTable, build_density_table,
                        closed_beta_density, closed_symmetric_beta_density,
                        example_density_cauchy_mix, example_density_halfstable)
from .transforms import (ResidualReport, _closed_form_kind, r_transform,
                         s_mu2_closed, s_transform_numeric,
                         verify_boxtimes, verify_compound_poisson)


def _fmt(x):
    return format(float(x) + 0.0, ".17g")  # +0.0 folds -0.0 into 0


def parse_complex(text):
    """Accept '1', '-1', '2i', '1+2i', '0.5-0.25i' (j also works)."""
    t = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(t)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse {text!r} as a complex number")


def _complex_str(z):
    z = complex(z)
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}i"


class _ConfigError(Exception):
    pass


def _config_error(msg):
    raise _ConfigError(msg)


def _int_at_least(lo):
    """argparse type: an integer >= lo."""
    def parse(text):
        try:
            val = int(text)
        except ValueError:
            val = lo - 1
        if val < lo:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {lo}, got {text!r}")
        return val
    return parse


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as one config-error line (exit 2), not as a
    usage block."""

    def error(self, message):
        raise _ConfigError(message)


def _write_atomic(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".freeconv-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _resolve_s(args):
    """--s wins; --s-mod/--s-arg build s = mod * exp(i*arg) as a pair."""
    if args.s is not None and args.s_mod is not None:
        _config_error("give either --s or --s-mod/--s-arg, not both")
    if args.s is not None:
        return args.s
    if args.s_mod is not None:
        return args.s_mod * complex(np.exp(1j * (args.s_arg or 0.0)))
    return None


def _family(args):
    """FamilyParams from --alpha, --s (or --s-mod/--s-arg) and --r."""
    s = _resolve_s(args)
    if args.alpha is None or s is None or args.r is None:
        _config_error("--alpha, --s and --r are required")
    return FamilyParams(args.alpha, s, args.r)


def _run_config(args, fields):
    cfg = {"version": __version__, "command": args.command}
    for name in fields:
        val = getattr(args, name.replace("-", "_"))
        if isinstance(val, complex):
            val = _complex_str(val)
        cfg[name] = val
    return cfg


def _emit_table(table, cfg, args, extra=None):
    comments = ["freeconv " + args.command,
                "config " + json.dumps(cfg, sort_keys=True)]
    if extra:
        comments += extra
    if args.format == "csv":
        text = table.csv_text(comments)
    elif args.format == "plotdata":
        text = table.plotdata_text(comments)
    else:
        payload = {"config": cfg, "table": table.to_dict()}
        if extra:
            payload["notes"] = extra
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write_atomic(args.out, text)


def cmd_density(args):
    s = _resolve_s(args)
    xs = np.linspace(args.xmin, args.xmax, args.n)
    measure = args.measure
    if measure in ("family", "stable") and (args.alpha is None or s is None):
        return _config_error(f"--alpha and --s are required for "
                             f"measure {measure!r}")
    if measure == "family":
        params = _family(args)
        table = build_density_table(lambda z: cauchy_G(params, z), xs,
                                    y0=args.y0, levels=args.levels)
    else:
        if measure == "stable":
            vals = stable_density(StableParams(args.alpha, s), xs)
        elif measure == "mp":
            vals = mp_density(xs)
        elif measure == "beta":
            if args.r is None or args.r <= 1.0:
                return _config_error("--r must be given and > 1 for "
                                     "measure 'beta'")
            vals = closed_beta_density(args.r, xs)
        elif measure == "symmetric-beta":
            if s is None or complex(s).imag != 0 or complex(s).real <= 0:
                return _config_error("measure 'symmetric-beta' needs a "
                                     "positive real --s")
            vals = closed_symmetric_beta_density(complex(s).real, xs)
        elif measure == "cauchy-mix":
            vals = example_density_cauchy_mix(xs)
        elif measure == "half-stable":
            vals = example_density_halfstable(xs)
        else:
            return _config_error(f"unknown measure {measure!r}")
        table = DensityTable(xs=xs, values=np.asarray(vals, dtype=float),
                             errs=np.zeros_like(xs),
                             y_ladder=np.empty(0))
    cfg = _run_config(args, ["measure", "alpha", "r", "xmin", "xmax", "n",
                             "y0", "levels", "format"])
    cfg["s"] = None if s is None else _complex_str(s)
    _emit_table(table, cfg, args)
    return 0


def cmd_levy(args):
    params = _family(args)
    trip = levy_triplet(params, args.xmin, args.xmax, args.n,
                        y0=args.y0, levels=args.levels)
    cfg = _run_config(args, ["alpha", "r", "xmin", "xmax", "n", "y0",
                             "levels", "format"])
    cfg["s"] = _complex_str(params.s)
    if args.format == "json":
        payload = {"config": cfg, "gamma": trip.gamma, "a": trip.a,
                   "nu": trip.nu.to_dict()}
        _write_atomic(args.out,
                      json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        extra = [f"gamma {_fmt(trip.gamma)}", f"a {_fmt(trip.a)}"]
        _emit_table(trip.nu, cfg, args, extra=extra)
    return 0


def cmd_fid(args):
    params = _family(args)
    if args.format != "json":
        return _config_error("fid reports are JSON only")
    try:
        _thread_count()
    except DomainError as exc:
        return _config_error(str(exc))
    given = [args.xmin, args.xmax, args.ymin, args.ymax]
    rect = None
    if any(v is not None for v in given):
        if any(v is None for v in given):
            return _config_error("give all of --xmin --xmax --ymin --ymax "
                                 "or none")
        rect = tuple(given)
    report = check_fid_grid(params, rect=rect, nx=args.nx, ny=args.ny,
                            tol=args.tol)
    cfg = _run_config(args, ["alpha", "r", "nx", "ny", "tol", "format"])
    cfg["s"] = _complex_str(params.s)
    payload = {"config": cfg, "report": report.to_dict()}
    _write_atomic(args.out,
                  json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


# representative parameter sets for the verification suites; each entry
# spans a different admissibility regime
_COMPOSITION_SETS = [(1.0, -1.0 + 0j, 2.0, 1.5),
                     (1.0, -1.0 + 0j, 1.5, 2.0),
                     (0.5, -1.0 + 0j, 2.0, 3.0),
                     (2.0, 1.0 + 0j, 2.0, 2.0)]
_SELFSIM_SETS = [(1.0, -1.0 + 0j, 2.0, 4.0),
                 (2.0, 1.0 + 0j, 2.0, 0.25)]
_CPOISSON_SETS = [(2.0, 1.0 + 0j), (1.0, 1j), (0.5, -1.0 + 0j)]
_BOXTIMES_SETS = [(2.0, 1.0 + 0j), (0.5, -1.0 + 0j)]


def _cone_spec(grid):
    return {"kind": "cone", "n": int(grid.size)}


# each suite yields (params, grid_spec, (max_residual, argmax_point))
def _suite_composition():
    for alpha, s, r, u in _COMPOSITION_SETS:
        grid = verification_cone(alpha, s, complex(s) * u).sample(300)
        yield ({"alpha": alpha, "s": _complex_str(s), "r": r, "u": u},
               _cone_spec(grid), verify_composition(alpha, s, r, u, grid,
                                                    return_argmax=True))


def _suite_selfsim():
    for alpha, s, r, c in _SELFSIM_SETS:
        grid = default_cone(alpha, s, r).sample(300)
        yield ({"alpha": alpha, "s": _complex_str(s), "r": r, "c": c},
               _cone_spec(grid),
               verify_self_similarity(FamilyParams(alpha, s, r), c, grid,
                                      return_argmax=True))


def _suite_cpoisson():
    for alpha, s in _CPOISSON_SETS:
        grid = verification_cone(alpha, s).sample(300)
        yield ({"alpha": alpha, "s": _complex_str(s)}, _cone_spec(grid),
               verify_compound_poisson(alpha, s, grid, return_argmax=True))


def _suite_boxtimes():
    zs = np.linspace(-0.9, -0.1, 9)
    for alpha, s in _BOXTIMES_SETS:
        yield ({"alpha": alpha, "s": _complex_str(s)},
               {"kind": "interval", "zmin": -0.9, "zmax": -0.1, "n": 9},
               verify_boxtimes(alpha, s, zs, return_argmax=True))


def _suite_inversion():
    xs = np.linspace(0.05, 0.95, 19)
    params = FamilyParams(1.0, -1.0, 2.0)
    table = build_density_table(lambda z: cauchy_G(params, z), xs)
    yield ({"alpha": 1.0, "s": _complex_str(-1.0), "r": 2.0},
           {"kind": "interval", "xmin": 0.05, "xmax": 0.95, "n": 19},
           _worst(np.abs(table.values - closed_beta_density(2.0, xs)), xs,
                  return_argmax=True))


# suite name -> (parameter sets, identity checked, default tolerance)
_SUITES = {"composition": (_suite_composition, "composition", 1e-10),
           "self-similarity": (_suite_selfsim, "self-similarity", 1e-11),
           "compound-poisson": (_suite_cpoisson, "compound-poisson", 1e-10),
           "boxtimes": (_suite_boxtimes, "multiplicative-factorization",
                        1e-6),
           "inversion": (_suite_inversion, "inversion-consistency", 1e-4)}


def cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        sets, identity, default_tol = _SUITES[name]
        tol = args.tol if args.tol is not None else default_tol
        for params, grid_spec, (res, arg) in sets():
            results.append(ResidualReport(
                identity=identity, params=params, grid_spec=grid_spec,
                max_residual=res, argmax_point=complex(arg), tolerance=tol,
                passed=res < tol))
    cfg = _run_config(args, ["suite", "tol", "format"])
    passed = all(r.passed for r in results)
    payload = {"config": cfg, "passed": passed,
               "results": [r.to_dict() for r in results]}
    _write_atomic(args.out,
                  json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if passed else 3


def cmd_eval(args):
    s = _resolve_s(args)
    if args.alpha is None or s is None:
        return _config_error("--alpha and --s are required")
    t = args.transform
    if t == "S":
        if args.z.imag != 0 or not -1.0 < args.z.real < 0.0:
            return _config_error("--z must be real in (-1, 0) for S")
        if args.r is not None and args.r != 2.0:
            return _config_error("numeric S evaluation is wired for the "
                                 "r = 2 member; drop --r or pass 2")
        kind = _closed_form_kind(args.alpha, s)
        params = FamilyParams(args.alpha, s, 2.0)
        val = s_transform_numeric(lambda z: cauchy_G(params, z),
                                  args.z.real, kind)
        closed = s_mu2_closed(args.alpha, s, args.z.real)
        print(f"{_fmt(val.real)} {_fmt(val.imag)}")
        print(f"# closed form {_fmt(closed.real)} {_fmt(closed.imag)}")
        return 0
    params = _family(args)
    fn = {"G": cauchy_G, "F": reciprocal_F, "Finv": inverse_F,
          "phi": voiculescu_phi}.get(t)
    if fn is not None:
        val = complex(fn(params, args.z))
    elif t == "R":
        val = complex(r_transform(params, args.z))
    else:
        return _config_error(f"unknown transform {t!r}")
    print(f"{_fmt(val.real)} {_fmt(val.imag)}")
    return 0


def _add_param_opts(p, with_r=True):
    p.add_argument("--alpha", type=float, help="stability index in (0, 2]")
    p.add_argument("--s", type=parse_complex,
                   help="scale parameter, e.g. '-1', '3i', '1+2i'")
    p.add_argument("--s-mod", type=float, help="|s| (alternative to --s)")
    p.add_argument("--s-arg", type=float,
                   help="arg s in radians (with --s-mod)")
    if with_r:
        p.add_argument("--r", type=float, help="shape parameter, r > 0")


def _add_table_opts(p):
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--n", type=_int_at_least(1), default=101)
    p.add_argument("--y0", type=float, default=None,
                   help="top of the extrapolation ladder")
    p.add_argument("--format", default="csv",
                   choices=["csv", "json", "plotdata"])
    p.add_argument("--out", default="-")


def build_parser():
    ap = _Parser(
        prog="freeconv",
        description="Explicit Cauchy transforms, densities and free "
                    "infinite divisibility reports for a two-parameter "
                    "deformation of the free stable laws.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="tabulate a density on a grid")
    _add_param_opts(p)
    p.add_argument("--measure", default="family",
                   choices=["family", "stable", "mp", "beta",
                            "symmetric-beta", "cauchy-mix", "half-stable"])
    _add_table_opts(p)
    p.add_argument("--levels", type=_int_at_least(1), default=8)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("levy", help="generating triplet on a window")
    _add_param_opts(p)
    _add_table_opts(p)
    # levy_triplet reads the atom at 0 off a policed ladder (4+ rungs)
    p.add_argument("--levels", type=_int_at_least(3), default=8)
    p.set_defaults(func=cmd_levy)

    p = sub.add_parser("fid", help="scan Im phi for divisibility violations")
    _add_param_opts(p)
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.add_argument("--ymin", type=float, default=None)
    p.add_argument("--ymax", type=float, default=None)
    p.add_argument("--nx", type=_int_at_least(2), default=400)
    p.add_argument("--ny", type=_int_at_least(2), default=200)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", default="json", choices=["json"])
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fid)

    p = sub.add_parser("verify", help="run identity residual suites")
    p.add_argument("--suite", default="all",
                   choices=["all"] + sorted(_SUITES))
    p.add_argument("--tol", type=float, default=None,
                   help="override the per-suite default tolerance")
    p.add_argument("--format", default="json", choices=["json"])
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate one transform at one point")
    _add_param_opts(p)
    p.add_argument("--transform", required=True,
                   choices=["G", "F", "Finv", "phi", "R", "S"])
    p.add_argument("--z", type=parse_complex, required=True)
    p.set_defaults(func=cmd_eval)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FreeconvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
