"""Seeded workloads: op specs, their inputs and their oracle checks.

A workload is an endless sequence of cycles with a fixed mix of op kinds.
The seed only moves each op's parameters inside the ranges in RANGES: the
k-th draw of a stream is the k-th van der Corput point shifted by an
offset taken from the seed, so every prefix of a run covers the ranges
evenly and runs with different seeds execute the same mix.  An op spec is
a small JSON-able dict; ``materialize`` turns it into the inputs, the call
and the check, outside the timed region.
"""

import json
import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as orc

WHY = {
    "cli-mix": "python -m freeconv subprocesses cycling eval, density, "
               "levy, fid and verify: what a CLI user pays, mostly "
               "interpreter start and imports",
    "scan": "in-process bulk vectorized calls (fid grid scans, density "
            "and Levy tables, composition residuals): kernel, memory and "
            "threading cost",
    "solve": "in-process small calls (S-transform root solves, collision "
             "sweeps, scalar densities, quadrature): per-call Python "
             "overhead over the same kernel",
}

# inclusive ranges the seed draws from; c is the dilation of s, drawn
# log-uniformly.  Windows scale with c: [0.02c, 0.98c] on the beta line,
# [-3c, 3c] for the cubic member, (0.05c/1.5, 0.95c/1.5) for the beta Levy
# density, |x| < 0.9 sqrt(c/4) for the r = 2 Levy density.
RANGES = {
    "cli-mix": {"c": [0.5, 2.0], "beta_r": [1.5, 2.0, 3.0],
                "closed_beta_r": [1.2, 3.0], "density_n": [500, 2000],
                "levy_n": [101, 801], "eval_x": [-1.0, 2.0],
                "eval_y_over_c": [0.05, 2.0], "S_z": [-0.9, -0.1],
                "fid_grid": "400x200 (CLI default)",
                "repeat": "each argv runs twice (in cycles 4j..4j+3)"},
    "scan": {"c": [0.5, 2.0], "fid_nx": [400, 1600], "fid_ny": "nx/2",
             "density_n": [1000, 8000], "levy_n": [1000, 4000],
             "triplet_n": [1000, 4000], "composition_n": [50000, 200000]},
    "solve": {"c": [0.5, 2.0], "S_z": [-0.9, -0.1], "boxtimes_zs": 3,
              "ui_grid": "101x99 over c*([-3,3] x [0.02,2.5])",
              "density_x_over_c": [0.05, 0.95], "quad_beta_r": [1.2, 3.0]},
}

LEVELS = 8                      # ladder rungs below the top, library default
RUNGS = LEVELS + 1


@dataclass
class Op:
    """One operation: ``call`` (in-process) or ``argv`` (CLI, parsed by
    ``parse``) produces an output that ``check`` maps to None when it
    matches the oracle, else to a reason.  ``points`` counts the complex
    points the op's inputs name (grid cells times ladder rungs); solver
    iterations are not counted.  ``fid_scan`` is (alpha, s, r, nx, ny)
    for ops that run a fid grid scan."""

    kind: str
    spec: dict
    points: int
    check: Callable
    call: Callable = None
    argv: list = None
    parse: Callable = None
    fid_scan: tuple = None


def _vdc(k):
    out, denom = 0.0, 1.0
    while k:
        k, bit = divmod(k, 2)
        denom *= 2.0
        out += bit / denom
    return out


def _sig(x):
    return float(f"{x:.6g}")


class Draws:
    def __init__(self, seed):
        self.seed = int(seed)

    def u(self, stream, k):
        rng = np.random.default_rng([self.seed, zlib.crc32(stream.encode())])
        return (_vdc(k) + float(rng.random())) % 1.0

    def uniform(self, stream, k, lo, hi):
        return _sig(lo + (hi - lo) * self.u(stream, k))

    def logu(self, stream, k, lo, hi):
        return _sig(lo * (hi / lo) ** self.u(stream, k))

    def integer(self, stream, k, lo, hi):
        return lo + min(hi - lo, int(self.u(stream, k) * (hi - lo + 1)))

    def choice(self, stream, k, options):
        return options[self.integer(stream, k, 0, len(options) - 1)]


def _c(d, kind, k):
    return d.logu(kind + ".c", k, 0.5, 2.0)


def _cx(z):
    return [float(complex(z).real), float(complex(z).imag)]


def _member(table, idx, c):
    alpha, s, r = table[idx]
    return alpha, _cx(s * c), r


# ---------------------------------------------------------------- specs

def cycle_specs(workload, d, k):
    """The op specs of cycle k of a workload."""
    if workload == "cli-mix":
        return _cli_specs(d, k // 4)[k % 2]
    if workload == "scan":
        return _scan_specs(d, k)
    if workload == "solve":
        return _solve_specs(d, k)
    raise KeyError(workload)


def _cli_specs(d, j):
    """The two halves of parameter set j.  Cycles 4j..4j+3 run halves
    0, 1, 0, 1, so each argv runs twice, and each cycle holds one of the
    two 80k-point fid scans."""
    out = []
    for kind in ("eval-G", "eval-F"):
        c = _c(d, kind, j)
        z = c * complex(d.uniform(kind + ".x", j, -1.0, 2.0),
                        d.uniform(kind + ".y", j, 0.05, 2.0))
        out.append({"kind": kind, "c": c,
                    "r": d.choice(kind + ".r", j, [1.5, 2.0, 3.0]),
                    "z": _cx(complex(_sig(z.real), _sig(z.imag)))})
    for kind in ("eval-Finv", "eval-phi", "eval-R"):
        c = _c(d, kind, j)
        z = c * complex(d.uniform(kind + ".x", j, -2.0, 2.0),
                        d.uniform(kind + ".y", j, 0.5, 3.0))
        if kind == "eval-R":
            z = 1.0 / z         # R is taken at w with 1/w in C+
        out.append({"kind": kind, "c": c,
                    "z": _cx(complex(_sig(z.real), _sig(z.imag)))})
    out.append({"kind": "eval-S", "member": ("beta", "sym")[j % 2],
                "c": _c(d, "eval-S", j),
                "z": d.uniform("eval-S.z", j, -0.9, -0.1)})
    out.append({"kind": "density-family", "c": _c(d, "density-family", j),
                "r": d.choice("density-family.r", j, [1.5, 2.0]),
                "n": d.integer("density-family.n", j, 500, 2000)})
    out.append({"kind": "density-closed",
                "r": d.uniform("density-closed.r", j, 1.2, 3.0),
                "n": d.integer("density-closed.n", j, 500, 2000)})
    out.append({"kind": "levy", "member": ("cubic", "beta")[j % 2],
                "c": _c(d, "levy", j),
                "n": d.integer("levy.n", j, 101, 801)})
    out.append({"kind": "fid-div",
                "member": d.integer("fid-div.m", j, 0,
                                    len(orc.FID_DIVISIBLE) - 1),
                "c": _c(d, "fid-div", j), "nx": 400, "ny": 200})
    out.append({"kind": "fid-nondiv",
                "member": d.integer("fid-nondiv.m", j, 0,
                                    len(orc.FID_NOT_DIVISIBLE) - 1),
                "c": _c(d, "fid-nondiv", j), "nx": 400, "ny": 200})
    out.append({"kind": "verify"})
    by_kind = {spec["kind"]: spec for spec in out}
    return ([by_kind[x] for x in ("fid-div", "eval-G", "eval-F",
                                  "density-family", "eval-S", "levy")],
            [by_kind[x] for x in ("fid-nondiv", "eval-Finv", "eval-phi",
                                  "density-closed", "eval-R", "verify")])


def _scan_specs(d, k):
    out = []
    for kind, table in (("fid-div", orc.FID_DIVISIBLE),
                        ("fid-nondiv", orc.FID_NOT_DIVISIBLE)):
        nx = d.integer(kind + ".nx", k, 400, 1600)
        out.append({"kind": kind,
                    "member": d.integer(kind + ".m", k, 0, len(table) - 1),
                    "c": _c(d, kind, k), "nx": nx, "ny": nx // 2})
    out.append({"kind": "density-table", "c": _c(d, "density-table", k),
                "r": d.choice("density-table.r", k, [1.5, 2.0]),
                "n": d.integer("density-table.n", k, 1000, 8000)})
    out.append({"kind": "levy-table",
                "member": d.choice("levy-table.m", k,
                                   ["beta", "cubic", "r2"]),
                "c": _c(d, "levy-table", k),
                # even, so the symmetric windows skip x = 0
                "n": 2 * d.integer("levy-table.n", k, 500, 2000)})
    out.append({"kind": "levy-triplet",
                "member": d.choice("levy-triplet.m", k, ["cubic", "r2"]),
                "c": _c(d, "levy-triplet", k),
                "n": d.integer("levy-triplet.n", k, 1000, 4000)})
    out.append({"kind": "composition",
                "set": d.integer("composition.set", k, 0,
                                 len(orc.COMPOSITION_SETS) - 1),
                "c": _c(d, "composition", k),
                "n": d.integer("composition.n", k, 50000, 200000)})
    return out


def _solve_specs(d, k):
    out = []
    for kind in ("s-pos", "s-sym"):
        for i in range(4):
            out.append({"kind": kind, "c": _c(d, kind, 4 * k + i),
                        "z": d.uniform(kind + ".z", 4 * k + i, -0.9, -0.1)})
    out.append({"kind": "boxtimes", "member": ("sym", "pos")[k % 2],
                "c": _c(d, "boxtimes", k),
                "zs": sorted(d.uniform("boxtimes.z", 3 * k + i, -0.9, -0.1)
                             for i in range(3))})
    for kind in ("ui-clean", "ui-r2", "collision-ce"):
        out.append({"kind": kind, "c": _c(d, kind, k)})
    for i in range(4):
        c = _c(d, "density-point", 4 * k + i)
        out.append({"kind": "density-point", "c": c,
                    "r": d.choice("density-point.r", 4 * k + i, [1.5, 2.0]),
                    "x": _sig(c * d.uniform("density-point.x", 4 * k + i,
                                            0.05, 0.95))})
    out.append({"kind": "atom-point", "c": _c(d, "atom-point", k)})
    c = _c(d, "atom-zero", k)
    out.append({"kind": "atom-zero", "c": c,
                "x": _sig(c * d.uniform("atom-zero.x", k, 0.1, 0.9))})
    for i, member in enumerate(("beta", "cubic", "r2")):
        c = _c(d, "levy-point", 3 * k + i)
        u = d.uniform("levy-point.x", 3 * k + i, 0.1, 0.9)
        sign = (1.0, -1.0)[(k + i) % 2]
        x = {"beta": c * u / 1.5, "cubic": sign * 3.0 * c * u,
             "r2": sign * 0.9 * math.sqrt(c / 4.0) * u}[member]
        out.append({"kind": "levy-point", "member": member, "c": c,
                    "x": _sig(x)})
    for member in ("cubic", "r2"):
        out.append({"kind": "tau-atom", "member": member,
                    "c": _c(d, "tau-atom." + member, k)})
    out.append({"kind": "quad-beta", "c": _c(d, "quad-beta", k),
                "r": d.uniform("quad-beta.r", k, 1.2, 3.0)})
    out.append({"kind": "quad-sym", "c": _c(d, "quad-sym", k)})
    return out


def spec_key(spec):
    return json.dumps(spec, sort_keys=True)


# ---------------------------------------------------------------- checks

def _close(value, ref, tol, relative=False):
    err = abs(complex(value) - complex(ref))
    if not err <= tol * (max(1.0, abs(complex(ref))) if relative else 1.0):
        return f"value {value} vs closed form {ref} (err {err:.3g})"
    return None


def _sup(values, ref, tol, what):
    values = np.asarray(values, dtype=float)
    if values.shape != np.shape(ref):
        return f"{what}: {values.shape} values for {np.shape(ref)} points"
    err = orc.sup_err(values, ref)
    if not err < tol:
        return f"{what}: sup err {err:.3g} >= {tol:g}"
    return None


def _first_failure(*reasons):
    return next((r for r in reasons if r is not None), None)


def _fid_check(expected):
    """Scan verdict and report theory against the classification."""
    want = {"fid": "no-violation-on-grid", "not-fid": "violation-found"}

    def check(out):
        if out["theory"] != expected:
            return f"theory {out['theory']!r}, expected {expected!r}"
        if out["verdict"] != want[expected]:
            return f"verdict {out['verdict']!r} for a {expected} member"
        if out["witness"] != (expected == "not-fid"):
            return "witness presence does not match the verdict"
        return None
    return check


def _levy_ref(member, c, xs):
    return {"beta": orc.levy_beta, "cubic": orc.levy_cubic,
            "r2": orc.levy_r2}[member](c, xs)


def _levy_member(member, c):
    return {"beta": (1.0, -c, 1.5), "cubic": (1.0, 3j * c, 3.0),
            "r2": (2.0, c + 0j, 2.0)}[member]


def _levy_window(member, c):
    return {"beta": (0.05 * c / 1.5, 0.95 * c / 1.5),
            "cubic": (-3.0 * c, 3.0 * c),
            "r2": (-0.9 * math.sqrt(c / 4.0), 0.9 * math.sqrt(c / 4.0))
            }[member]


def _ui_grid(c):
    xs = np.linspace(-3.0, 3.0, 101) * c
    ys = np.linspace(0.02, 2.5, 99) * c
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def _cone_grid(alpha, scales, n):
    """About n points of the verification cone eta = 1,
    M = 10 max(1, |s|**(1/alpha)) over the scales given: rows at
    M * (1.1 .. 3.1), each row spanning 0.9 of the cone's width."""
    m = 10.0 * max([1.0] + [abs(s) ** (1.0 / alpha) for s in scales])
    rows = max(2, int(math.sqrt(n)))
    cols = max(2, n // rows)
    ys = m * (1.1 + 2.0 * np.arange(rows) / (rows - 1))
    frac = np.linspace(-0.9, 0.9, cols)
    return (ys[:, None] * (frac[None, :] + 1j)).ravel()


def _pair_check(f):
    def check(out):
        if out is None or len(out) != 2:
            return f"expected a collision pair, got {out!r}"
        z1, z2 = complex(*out[0]), complex(*out[1])
        if not (z1.imag > 0 and z2.imag > 0 and abs(z1 - z2) > 1e-3):
            return f"pair {z1}, {z2} is not separated in C+"
        v1, v2 = complex(f(z1)), complex(f(z2))
        gap = abs(v1 - v2)
        if not gap <= 1e-9 * max(1.0, abs(v1)):
            return f"pair values differ by {gap:.3g}"
        return None
    return check


# ---------------------------------------------------------------- CLI ops

def _fmt(x):
    return format(float(x), ".17g")


def _zarg(z):
    z = complex(*z) if isinstance(z, list) else complex(z)
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}i"


def _parse_eval(text):
    re, im = text.splitlines()[0].split()
    return [float(re), float(im)]


def _cli_op(spec):
    kind = spec["kind"]
    c = spec.get("c")
    if kind in ("eval-G", "eval-F"):
        z = complex(*spec["z"])
        g = orc.beta_G(c, spec["r"], z)
        ref = g if kind == "eval-G" else 1.0 / g
        argv = ["eval", "--transform", kind[5:], "--alpha", "1",
                f"--s=-{_fmt(c)}", "--r", _fmt(spec["r"]),
                f"--z={_zarg(z)}"]
        return Op(kind, spec, 1, lambda out: _close(complex(*out), ref,
                                                    orc.EVAL_RTOL, True),
                  argv=argv, parse=_parse_eval)
    if kind in ("eval-Finv", "eval-phi", "eval-R"):
        z = complex(*spec["z"])
        ref = {"eval-Finv": z + orc.cubic_phi(c, z),
               "eval-phi": orc.cubic_phi(c, z),
               "eval-R": z * orc.cubic_phi(c, 1.0 / z)}[kind]
        argv = ["eval", "--transform", kind[5:], "--alpha", "1",
                f"--s={_zarg(3j * c)}", "--r", "3", f"--z={_zarg(z)}"]
        return Op(kind, spec, 1, lambda out: _close(complex(*out), ref,
                                                    orc.EVAL_RTOL, True),
                  argv=argv, parse=_parse_eval)
    if kind == "eval-S":
        z = spec["z"]
        if spec["member"] == "beta":
            ref, params = orc.s_beta(c, z), ["--alpha", "1", f"--s=-{_fmt(c)}"]
        else:
            ref, params = orc.s_sym(c, z), ["--alpha", "2", f"--s={_fmt(c)}"]
        argv = ["eval", "--transform", "S"] + params + [f"--z={_fmt(z)}"]
        return Op(kind, spec, 1, lambda out: _close(complex(*out), ref,
                                                    orc.S_TOL),
                  argv=argv, parse=_parse_eval)
    if kind in ("density-family", "density-closed"):
        n, r = spec["n"], spec["r"]
        lo, hi = (_sig(0.02 * c), _sig(0.98 * c)) if c else (0.02, 0.98)
        xs = np.linspace(lo, hi, n)
        if kind == "density-family":
            argv = ["density", "--alpha", "1", f"--s=-{_fmt(c)}", "--r",
                    _fmt(r)]
            ref, tol, points = orc.beta_density(c, r, xs), orc.DENSITY_TOL, \
                n * RUNGS
        else:
            argv = ["density", "--measure", "beta", "--r", _fmt(r)]
            ref, tol, points = orc.beta_density(1.0, r, xs), 1e-12, n
        argv += [f"--xmin={_fmt(lo)}", f"--xmax={_fmt(hi)}", "--n", str(n),
                 "--format", "json"]
        return Op(kind, spec, points,
                  lambda out: _first_failure(
                      _sup(out["table"]["x"], xs, 1e-15, "x grid"),
                      _sup(out["table"]["density"], ref, tol, kind)),
                  argv=argv, parse=json.loads)
    if kind == "levy":
        member, n = spec["member"], spec["n"]
        alpha, s, r = _levy_member(member, c)
        lo, hi = (_sig(v) for v in _levy_window(member, c))
        xs = np.linspace(lo, hi, n)
        xs = xs[np.abs(xs) > 1e-12]
        ref = _levy_ref(member, c, xs)
        argv = ["levy", "--alpha", _fmt(alpha), f"--s={_zarg(s)}", "--r",
                _fmt(r), f"--xmin={_fmt(lo)}", f"--xmax={_fmt(hi)}", "--n",
                str(n), "--format", "json"]
        return Op(kind, spec, n * RUNGS,
                  lambda out: _first_failure(
                      _sup(out["nu"]["x"], xs, 1e-15, "x grid"),
                      _sup(out["nu"]["density"], ref, orc.LEVY_TOL[member],
                           "levy " + member),
                      _close(out["a"], 0.0, 1e-6)),
                  argv=argv, parse=json.loads)
    if kind in ("fid-div", "fid-nondiv"):
        table = orc.FID_DIVISIBLE if kind == "fid-div" \
            else orc.FID_NOT_DIVISIBLE
        alpha, s, r = _member(table, spec["member"], c)
        expected = "fid" if kind == "fid-div" else "not-fid"
        argv = ["fid", "--alpha", _fmt(alpha), f"--s={_zarg(s)}",
                "--r", _fmt(r)]
        inner = _fid_check(expected)

        def check(out):
            rep = out["report"]
            return inner({"theory": rep["theory"], "verdict": rep["verdict"],
                          "witness": rep["witness"] is not None})
        return Op(kind, spec, spec["nx"] * spec["ny"], check, argv=argv,
                  parse=json.loads,
                  fid_scan=(alpha, complex(*s), r, spec["nx"], spec["ny"]))
    if kind == "verify":
        return Op(kind, spec, 0,
                  lambda out: None if out["passed"] is True
                  else "verify --suite all did not pass",
                  argv=["verify", "--suite", "all"], parse=json.loads)
    raise KeyError(kind)


# ------------------------------------------------------- in-process ops

def _fid_out(rep):
    return {"theory": rep.theory, "verdict": rep.verdict,
            "witness": rep.witness is not None}


def _scan_op(spec, fc):
    kind, c = spec["kind"], spec["c"]
    if kind in ("fid-div", "fid-nondiv"):
        table = orc.FID_DIVISIBLE if kind == "fid-div" \
            else orc.FID_NOT_DIVISIBLE
        alpha, s, r = _member(table, spec["member"], c)
        p = fc.FamilyParams(alpha, complex(*s), r)
        nx, ny = spec["nx"], spec["ny"]
        return Op(kind, spec, nx * ny,
                  _fid_check("fid" if kind == "fid-div" else "not-fid"),
                  call=lambda: _fid_out(fc.check_fid_grid(p, nx=nx, ny=ny)),
                  fid_scan=(alpha, complex(*s), r, nx, ny))
    if kind == "density-table":
        r, n = spec["r"], spec["n"]
        p = fc.FamilyParams(1.0, -c, r)
        xs = np.linspace(0.02 * c, 0.98 * c, n)
        ref = orc.beta_density(c, r, xs)
        return Op(kind, spec, n * RUNGS,
                  lambda out: _sup(out, ref, orc.DENSITY_TOL, kind),
                  call=lambda: fc.build_density_table(
                      lambda z: fc.cauchy_G(p, z), xs).values)
    if kind in ("levy-table", "levy-triplet"):
        member, n = spec["member"], spec["n"]
        alpha, s, r = _levy_member(member, c)
        p = fc.FamilyParams(alpha, s, r)
        lo, hi = _levy_window(member, c)
        xs = np.linspace(lo, hi, n)
        if kind == "levy-table":
            ref = _levy_ref(member, c, xs)
            return Op(kind, spec, n * RUNGS,
                      lambda out: _sup(out, ref, orc.LEVY_TOL[member], kind),
                      call=lambda: fc.levy_table(p, xs).values)
        ref = _levy_ref(member, c, xs[np.abs(xs) > 1e-12])

        def triplet():
            t = fc.levy_triplet(p, lo, hi, n)
            return {"nu": t.nu.values, "a": t.a, "gamma": t.gamma}
        return Op(kind, spec, n * RUNGS,
                  lambda out: _first_failure(
                      _sup(out["nu"], ref, orc.LEVY_TOL[member], kind),
                      _close(out["a"], 0.0, 1e-6),
                      None if math.isfinite(out["gamma"])
                      else "gamma is not finite"),
                  call=triplet)
    if kind == "composition":
        alpha, s, r, u = orc.COMPOSITION_SETS[spec["set"]]
        s = s * c
        grid = _cone_grid(alpha, (s, s * u), spec["n"])
        return Op(kind, spec, 3 * grid.size,
                  lambda out: None if out < orc.COMPOSITION_TOL
                  else f"composition residual {out:.3g}",
                  call=lambda: fc.verify_composition(alpha, s, r, u, grid))
    raise KeyError(kind)


def _solve_op(spec, fc):
    kind, c = spec["kind"], spec["c"]
    if kind in ("s-pos", "s-sym"):
        z = spec["z"]
        if kind == "s-pos":
            p, ref, how = fc.FamilyParams(1.0, -c, 2.0), orc.s_beta(c, z), \
                "positive"
        else:
            p, ref, how = fc.FamilyParams(2.0, c, 2.0), orc.s_sym(c, z), \
                "symmetric"
        return Op(kind, spec, 1,
                  lambda out: _close(out, ref, orc.S_TOL),
                  call=lambda: complex(fc.s_transform_numeric(
                      lambda w: fc.cauchy_G(p, w), z, how)))
    if kind == "boxtimes":
        alpha, s = (2.0, c) if spec["member"] == "sym" else (0.5, -c)
        zs = np.asarray(spec["zs"])
        return Op(kind, spec, 2 * zs.size,
                  lambda out: None if out < orc.S_TOL
                  else f"boxtimes residual {out:.3g}",
                  call=lambda: float(fc.verify_boxtimes(alpha, s, zs)))
    if kind in ("ui-clean", "ui-r2"):
        grid = _ui_grid(c)
        if kind == "ui-clean":
            p = fc.FamilyParams(1.0, -c, 2.0)
            check = (lambda out: None if out is None
                     else f"unexpected collision {out!r}")
        else:
            # the (2, 1, 2) member is two-to-one (the strict xfail of the
            # acceptance suite): a collision is the expected result here
            p = fc.FamilyParams(2.0, c, 2.0)
            pair = _pair_check(lambda z: orc.r2_inverse_F(c, z))

            def check(out):
                if not isinstance(out, dict) or out.get("map") != "inverse_F":
                    return f"expected an inverse_F collision, got {out!r}"
                return pair(out["pair"])

        def ui():
            hit = fc.ui_heuristic(p, grid)
            return None if hit is None else {
                "map": hit["map"], "pair": [_cx(z) for z in hit["pair"]]}
        return Op(kind, spec, 2 * grid.size, check, call=ui)
    if kind == "collision-ce":
        grid = _ui_grid(c)
        f = orc.ce_map(c)

        def search():
            hit = fc.collision_search(f, grid)
            return None if hit is None else [_cx(z) for z in hit]
        return Op(kind, spec, grid.size, _pair_check(f), call=search)
    if kind == "density-point":
        p = fc.FamilyParams(1.0, -c, spec["r"])
        x = spec["x"]
        ref = float(orc.beta_density(c, spec["r"], x))
        return Op(kind, spec, RUNGS,
                  lambda out: _close(out, ref, orc.DENSITY_TOL),
                  call=lambda: fc.density_from_G(
                      lambda w: fc.cauchy_G(p, w), x)[0])
    if kind in ("atom-point", "atom-zero"):
        # the r = 1 member is the point mass at 0; the beta member has none
        p = fc.FamilyParams(1.0, -c, 1.0 if kind == "atom-point" else 2.0)
        x = spec.get("x", 0.0)
        ref = 1.0 if kind == "atom-point" else 0.0
        return Op(kind, spec, RUNGS,
                  lambda out: _close(out, ref, 1e-9),
                  call=lambda: fc.atom_mass(lambda w: fc.cauchy_G(p, w), x))
    if kind == "levy-point":
        member, x = spec["member"], spec["x"]
        p = fc.FamilyParams(*_levy_member(member, c))
        ref = float(_levy_ref(member, c, x))
        return Op(kind, spec, RUNGS,
                  lambda out: _close(out, ref, orc.LEVY_TOL[member]),
                  call=lambda: fc.levy_density_numeric(p, x))
    if kind == "tau-atom":
        p = fc.FamilyParams(*_levy_member(spec["member"], c))
        return Op(kind, spec, RUNGS,
                  lambda out: _close(out, 0.0, 1e-9),
                  call=lambda: fc.tau_atom(p, 0.0))
    if kind == "quad-beta":
        r = spec["r"]
        return Op(kind, spec, 0,
                  lambda out: _close(out, 1.0, 1e-5),
                  call=lambda: fc.quadrature(
                      lambda x: orc.beta_density(c, r, x), 0.0, c,
                      left_exp=-1.0 / r, right_exp=1.0 / r))
    if kind == "quad-sym":
        b = math.sqrt(c)
        return Op(kind, spec, 0,
                  lambda out: _close(out, 0.5, 1e-5),
                  call=lambda: fc.quadrature(
                      lambda x: orc.sym_beta_density(c, x), 0.0, b,
                      left_exp=-0.5, right_exp=0.5))
    raise KeyError(kind)


def materialize(workload, spec, fc=None):
    """Inputs, call and check of one spec; fc is the freeconv package
    (not needed for cli-mix)."""
    if workload == "cli-mix":
        return _cli_op(spec)
    if workload == "scan":
        return _scan_op(spec, fc)
    return _solve_op(spec, fc)
