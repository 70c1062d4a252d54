"""Span recorder for the traced run.

Spans are recorded around the calls into each freeconv module by
replacing each target function, under every name any ``freeconv.*``
module bound it to, with a wrapper that opens and closes a span.  Spans
stay in memory in flat arrays and are written once, at the end.  A span
opened on a worker thread (the fid scan pool) with nothing open on its
own thread takes as parent the span open on the main thread.

The private log helpers and cut masks of ``branches`` are not wrapped:
they are pieces of the composition kernel, so their time counts in
``family.core_ms`` and ``family.tracked_ms``; the ``branches`` layer is
its public API.
"""

import functools
import gzip
import sys
import threading
import time
from array import array

import numpy as np

TARGETS = {
    "family": ("_core", "_phi_tracked_block", "cauchy_G", "reciprocal_F",
               "inverse_F", "voiculescu_phi"),
    "stieltjes": ("build_density_table", "_richardson", "_richardson_vec",
                  "density_from_G", "atom_mass", "quadrature"),
    "transforms": ("s_transform_numeric", "chi_numeric", "_chi_symmetric_t",
                   "psi_from_G", "psi_symmetric_from_G", "verify_boxtimes"),
    "fid": ("check_fid_grid", "_phi_im_grid", "_confirm_violation",
            "levy_table", "levy_triplet", "levy_density_numeric", "tau_atom",
            "tau_interval_mass", "tau_total_mass", "_phi_at_i",
            "collision_search", "ui_heuristic", "_refine_collision"),
    "branches": ("log_upper", "log_principal", "pow_upper", "pow_principal",
                 "binom_coeff", "binom_series"),
    "stable_poisson": ("stable_F", "stable_G", "_stable_core",
                       "stable_density", "mp_cauchy", "mp_density",
                       "is_positive_supported", "is_symmetric",
                       "stable_fid_predicate"),
    "cli": ("main",),
}


def _arg(a, k, i, name, default=None):
    if len(a) > i:
        return a[i]
    return k.get(name, default)


# span aux value: points named by the call's arguments, or 1 for a hit
POINTS = {
    "family._core": lambda a, k: np.size(_arg(a, k, 3, "z")),
    "family._phi_tracked_block": lambda a, k: (
        np.size(_arg(a, k, 3, "xs")) * np.size(_arg(a, k, 4, "ys_desc"))),
    "fid.check_fid_grid": lambda a, k: (
        int(_arg(a, k, 2, "nx", 400)) * int(_arg(a, k, 3, "ny", 200))),
}
HITS = ("fid._confirm_violation", "fid._refine_collision")


class Recorder:
    """Spans as parallel arrays: name id, parent index, op id, aux value,
    worker flag, start and end (perf_counter seconds)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.aux = array("q")
        self.worker = array("b")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id, aux=0):
        main = self._main_stack
        if threading.get_ident() == self._main_ident:
            stack, worker = main, 0
            parent = stack[-1] if stack else -1
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            worker = 1
            parent = stack[-1] if stack else (main[-1] if main else -1)
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.aux.append(int(aux))
            self.worker.append(worker)
            self.start.append(0.0)
            self.end.append(0.0)
        stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        stack = self._main_stack if threading.get_ident() == self._main_ident \
            else self._local.stack
        stack.pop()

    def arrays(self):
        fields = ("name", "parent", "op", "aux", "worker", "start", "end")
        return {f: np.frombuffer(getattr(self, f),
                                 dtype=getattr(self, f).typecode)
                for f in fields}

    def self_times(self):
        """Span duration minus the part of it its child spans cover."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        par = a["parent"]
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=dur.size)
        # children from pool threads overlap in time: use their union
        for p in np.unique(par[has & (a["worker"] == 1)]):
            kids = np.nonzero(par == p)[0]
            lo = np.maximum(a["start"][kids], a["start"][p])
            hi = np.minimum(a["end"][kids], a["end"][p])
            order = np.argsort(lo)
            covered, reach = 0.0, -np.inf
            for s, e in zip(lo[order], hi[order]):
                s = max(s, reach)
                if e > s:
                    covered += e - s
                    reach = e
            child[p] = covered
        return dur - child

    def write(self, path):
        """All spans as gzip TSV: op, span, parent, name, start_s, end_s."""
        a = self.arrays()
        t0 = float(a["start"].min()) if a["start"].size else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            fh.writelines(
                f"{o}\t{i}\t{p}\t{names[n]}\t{s - t0:.9f}\t{e - t0:.9f}\n"
                for i, (o, p, n, s, e) in enumerate(zip(
                    a["op"].tolist(), a["parent"].tolist(),
                    a["name"].tolist(), a["start"].tolist(),
                    a["end"].tolist())))


def _wrap(rec, fn, name):
    nid = rec.name_id(name)
    points = POINTS.get(name)
    hit = name in HITS

    @functools.wraps(fn)
    def wrapper(*a, **k):
        idx = rec.open(nid, points(a, k) if points else 0)
        try:
            out = fn(*a, **k)
        finally:
            rec.close(idx)
        if hit and out is not None:
            rec.aux[idx] = 1
        return out
    return wrapper


def patch(rec):
    """Wrap every target under every name a freeconv module bound it to.
    Returns (undo list, targets not found)."""
    wrappers, missing = {}, []
    for short, funcs in TARGETS.items():
        mod = sys.modules.get("freeconv." + short)
        for f in funcs:
            fn = getattr(mod, f, None)
            if not callable(fn):
                missing.append(f"{short}.{f}")
                continue
            wrappers[id(fn)] = (fn, _wrap(rec, fn, f"{short}.{f}"))
    undo = []
    for name, mod in list(sys.modules.items()):
        if name != "freeconv" and not name.startswith("freeconv."):
            continue
        for attr, val in list(vars(mod).items()):
            w = wrappers.get(id(val))
            if w is not None and w[0] is val:
                setattr(mod, attr, w[1])
                undo.append((mod, attr, val))
    return undo, missing


def unpatch(undo):
    for mod, attr, val in undo:
        setattr(mod, attr, val)


def unit(metric):
    if metric.endswith("_ms") or metric.endswith(".ms"):
        return "ms"
    if metric.endswith(("_ratio", "_per_call", "_per_solve", "_speedup")):
        return "ratio"
    return "count"


def layer_metrics(rec):
    """Per-layer counts and self times (ms) from the recorded spans."""
    a = rec.arrays()
    n = len(rec.names)
    calls = np.bincount(a["name"], minlength=n)
    self_ms = np.bincount(a["name"], weights=rec.self_times(),
                          minlength=n) * 1e3
    aux = np.bincount(a["name"], weights=a["aux"], minlength=n)
    ids = rec._ids

    def tot(arr, *names):
        return float(sum(arr[ids[x]] for x in names if x in ids))

    def ratio(num, den):
        return num / den if den else 0.0

    def module(short):
        return [x for x in ids if x.startswith(short + ".")]

    fam_pub = [f"family.{f}" for f in ("cauchy_G", "reciprocal_F",
                                       "inverse_F", "voiculescu_phi")]
    solves = ("transforms.chi_numeric", "transforms._chi_symmetric_t")
    psi = ("transforms.psi_from_G", "transforms.psi_symmetric_from_G")
    levy = [f"fid.{f}" for f in ("levy_table", "levy_triplet",
                                 "levy_density_numeric", "tau_atom",
                                 "tau_interval_mass", "tau_total_mass",
                                 "_phi_at_i")]
    m = {
        "cli.calls": tot(calls, "cli.main"),
        "cli.main_ms": tot(self_ms, "cli.main"),
        "family.core_calls": tot(calls, "family._core"),
        "family.core_points": tot(aux, "family._core"),
        "family.core_ms": tot(self_ms, "family._core"),
        "family.tracked_calls": tot(calls, "family._phi_tracked_block"),
        "family.tracked_points": tot(aux, "family._phi_tracked_block"),
        "family.tracked_ms": tot(self_ms, "family._phi_tracked_block"),
        "family.public_calls": tot(calls, *fam_pub),
        "family.public_ms": tot(self_ms, *fam_pub),
        "stieltjes.table_calls": tot(calls, "stieltjes.build_density_table"),
        "stieltjes.table_ms": tot(self_ms, "stieltjes.build_density_table"),
        "stieltjes.richardson_calls": tot(calls, "stieltjes._richardson",
                                          "stieltjes._richardson_vec"),
        "stieltjes.richardson_ms": tot(self_ms, "stieltjes._richardson",
                                       "stieltjes._richardson_vec"),
        "stieltjes.scalar_calls": tot(calls, "stieltjes.density_from_G",
                                      "stieltjes.atom_mass"),
        "stieltjes.scalar_ms": tot(self_ms, "stieltjes.density_from_G",
                                   "stieltjes.atom_mass"),
        "stieltjes.quad_calls": tot(calls, "stieltjes.quadrature"),
        "stieltjes.quad_ms": tot(self_ms, "stieltjes.quadrature"),
        "transforms.s_solves": tot(calls, *solves),
        "transforms.s_ms": tot(self_ms, "transforms.s_transform_numeric",
                               *solves, *psi),
        "transforms.psi_evals": tot(calls, *psi),
        "transforms.boxtimes_ms": tot(self_ms, "transforms.verify_boxtimes"),
        "fid.scan_calls": tot(calls, "fid.check_fid_grid"),
        "fid.scan_points": tot(aux, "fid.check_fid_grid"),
        "fid.scan_ms": tot(self_ms, "fid.check_fid_grid", "fid._phi_im_grid"),
        "fid.confirm_calls": tot(calls, "fid._confirm_violation"),
        "fid.levy_ms": tot(self_ms, *levy),
        "fid.collision_calls": tot(calls, "fid.collision_search"),
        "fid.collision_ms": tot(self_ms, "fid.collision_search",
                                "fid.ui_heuristic"),
        "fid.refine_calls": tot(calls, "fid._refine_collision"),
        "fid.refine_ms": tot(self_ms, "fid._refine_collision"),
        "branches.calls": tot(calls, *module("branches")),
        "branches.ms": tot(self_ms, *module("branches")),
        "stable_poisson.calls": tot(calls, *module("stable_poisson")),
        "stable_poisson.ms": tot(self_ms, *module("stable_poisson")),
    }
    m["family.core_points_per_call"] = ratio(m["family.core_points"],
                                             m["family.core_calls"])
    m["transforms.psi_evals_per_solve"] = ratio(m["transforms.psi_evals"],
                                                m["transforms.s_solves"])
    m["fid.confirm_hit_ratio"] = ratio(tot(aux, "fid._confirm_violation"),
                                       m["fid.confirm_calls"])
    m["fid.refine_hit_ratio"] = ratio(tot(aux, "fid._refine_collision"),
                                      m["fid.refine_calls"])
    return m
