"""freeconv benchmark: seeded closed-loop workloads checked against oracles.

    python3 perfbench/run.py --workload {cli-mix,scan,solve} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository: freeconv is imported from its
``src/`` directory, never from an installed copy.  One client issues the
next op only after the previous one returned; the benchmark itself starts
no threads and at most one process at a time.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  Everything else (provenance, tail
percentile, failures, import breakdown) is printed above it and written
with the spans to ``.perfbench_out/`` in the checkout.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import imports
import oracles
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120.0
# shares of --seconds in a traced run: untraced ops, then the same ops
# traced, then the fid scans again on one thread and on the default pool
UNTRACED_SHARE = 0.35
THREAD_SHARE = 0.2
UNITS = {"op_ms_p50": "ms", "op_ms_tail": "ms", "ops_per_s": "1/s",
         "points_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args):
    """Run one child process to completion; (seconds, returncode, stdout,
    stderr).  subprocess.run kills and reaps the child on timeout."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc.returncode, proc.stdout, \
        proc.stderr


def import_freeconv():
    sys.path.insert(0, str(SRC))
    import freeconv
    import freeconv.cli  # noqa: F401  (the shim drives cli.main)
    if not Path(freeconv.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"freeconv came from {freeconv.__file__}, "
                         f"not from {SRC}")
    return freeconv


# ------------------------------------------------------------ provenance

def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args, fid_threads):
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "fid_threads": fid_threads,
            "FREECONV_THREADS": os.environ.get("FREECONV_THREADS")}


# ------------------------------------------------------------ execution

class Session:
    """Runs ops, checks every output and keeps the per-op records."""

    def __init__(self, workload, seed, fc, cli_in_process):
        self.workload = workload
        self.seed = seed
        self.fc = fc
        self.cli_in_process = cli_in_process
        self.stdout_seen = {}
        self.kinds_self_checked = set()
        self.self_check_failures = []
        self.failures = []

    def ops(self):
        """(cycle index, op) in op-list order."""
        d = workloads.Draws(self.seed)
        for k in itertools.count():
            for spec in workloads.cycle_specs(self.workload, d, k):
                yield k, workloads.materialize(self.workload, spec, self.fc)

    def _execute(self, op):
        """The op's output; only this is timed."""
        if op.call is not None:
            return op.call()
        if self.cli_in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.fc.cli.main(list(op.argv))
            return rc, buf.getvalue(), ""
        _, rc, out, err = run_child(["-m", "freeconv"] + op.argv)
        return rc, out, err

    def _judge(self, op, raw):
        if op.argv is None:
            out = raw
        else:
            rc, text, err = raw
            if rc != 0:
                return f"exit code {rc}: {err.strip()[-200:]}"
            key = tuple(op.argv)
            if self.stdout_seen.setdefault(key, text) != text:
                return "stdout differs from an earlier run of the same argv"
            out = op.parse(text)
        reason = op.check(out)
        if reason is None and op.kind not in self.kinds_self_checked:
            # the oracle must reject a nearby wrong answer
            self.kinds_self_checked.add(op.kind)
            if op.check(oracles.perturb(out)) is None:
                self.self_check_failures.append(op.kind)
        return reason

    def run(self, op, rec=None):
        """(kind, ms, points, failure reason or None)."""
        root = rec.open(rec.name_id("op." + op.kind)) if rec else None
        t0 = time.perf_counter()
        try:
            raw = self._execute(op)
            err = None
        except Exception as exc:  # an op that raises is a failed op
            raw, err = None, f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1e3
        if rec:
            rec.close(root)
        if err is None:
            try:
                err = self._judge(op, raw)
            except Exception as exc:  # malformed output
                err = f"unreadable output: {type(exc).__name__}: {exc}"
        if err is not None:
            self.failures.append({"kind": op.kind, "spec": op.spec,
                                  "reason": err})
        return op.kind, ms, op.points, err

    def measure(self, seconds=None, count=None, rec=None, probes=0):
        """Run ops from the start of the op list for exactly `count` ops, or
        for whole cycles until `seconds` of wall time have passed, so that
        every run executes the workload's mix in the same proportions;
        returns (records, specs, probe results).

        The set-up probe runs `probes` times, spread evenly over the window
        so that its median does not hang on one moment of a shared host;
        its time is left out of the window."""
        records, specs, setup = [], [], []
        t0 = time.perf_counter()
        paused = 0.0
        cycle = 0
        for i, (k, op) in enumerate(self.ops()):
            if count is not None and i >= count:
                break
            elapsed = time.perf_counter() - t0 - paused
            if len(setup) < probes and \
                    elapsed >= seconds * (len(setup) + 0.5) / probes:
                setup.append(setup_probe(self.workload))
                paused += setup[-1][0]
            if count is None and elapsed >= seconds and k != cycle:
                break
            cycle = k
            if rec:
                rec.op_id = i
            records.append(self.run(op, rec))
            specs.append(op.spec)
        while len(setup) < probes:
            setup.append(setup_probe(self.workload))
        return records, specs, setup

    def warm_up(self):
        """One untimed cycle, so lazy imports and caches settle."""
        d = workloads.Draws(self.seed)
        for spec in workloads.cycle_specs(self.workload, d, 0):
            op = workloads.materialize(self.workload, spec, self.fc)
            try:
                self._execute(op)
            except Exception:  # counted when the op is measured
                pass


def reproducible(workload, seed, specs):
    """The seed regenerates the op list that ran."""
    if not specs:
        return True
    d = workloads.Draws(seed)
    again = []
    for k in itertools.count():
        if len(again) >= len(specs):
            break
        again += workloads.cycle_specs(workload, d, k)
    return [workloads.spec_key(s) for s in specs] == \
        [workloads.spec_key(s) for s in again[:len(specs)]]


# ------------------------------------------------------------ statistics

def summarize(records):
    ms = sorted(r[1] for r in records)
    n = len(ms)
    total_s = sum(ms) / 1e3
    beyond = 10 if n > 10 else 0    # n <= 10: report the maximum
    return {"op_ms_p50": statistics.median(ms),
            "op_ms_tail": ms[n - 1 - beyond],
            "tail_percentile": 100.0 * (n - beyond) / n,
            "tail_beyond": beyond, "samples": n,
            "ops_per_s": n / total_s,
            "points_per_s": sum(r[2] for r in records) / total_s}


def per_kind(records):
    out = {}
    for kind, ms, _, err in records:
        e = out.setdefault(kind, {"ops": 0, "failed": 0, "ms": []})
        e["ops"] += 1
        e["failed"] += err is not None
        e["ms"].append(ms)
    return {k: {"ops": e["ops"], "failed": e["failed"],
                "ms_p50": round(statistics.median(e["ms"]), 4)}
            for k, e in out.items()}


def setup_probe(workload):
    """Wall time of a fresh process that imports freeconv and makes the
    workload's first warm call; (seconds, resolved fid thread count)."""
    sec, rc, out, err = run_child([str(ROOT / "perfbench" / "probe.py"),
                                   workload])
    if rc != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-300:]}")
    return sec, json.loads(out.strip().splitlines()[-1])["fid_threads"]


def import_breakdown(workload, first_argv):
    """Median import.* metrics over repeated -X importtime runs of what the
    workload starts: the first CLI op, or the set-up probe."""
    args = (["-X", "importtime", "-m", "freeconv"] + first_argv
            if workload == "cli-mix" else
            ["-X", "importtime", str(ROOT / "perfbench" / "probe.py"),
             workload])
    runs, top = [], []
    for _ in range(IMPORT_REPEATS):
        _, rc, _, err = run_child(args)
        if rc != 0:
            raise RuntimeError(f"importtime run failed: {err.strip()[-300:]}")
        metrics, top = imports.breakdown(err)
        runs.append(metrics)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}, top


def _set_threads(value):
    if value is None:
        os.environ.pop("FREECONV_THREADS", None)
    else:
        os.environ["FREECONV_THREADS"] = value


def thread_speedup(fc, ops, budget_s):
    """1-thread over default-pool time of the same fid scans, alternating
    which runs first; (ratio or 0.0 without scans, 1-thread ms, default
    ms, scans timed)."""
    default = os.environ.get("FREECONV_THREADS")
    total = {"one": 0.0, "default": 0.0}
    done = 0
    t_start = time.perf_counter()
    try:
        for alpha, s, r, nx, ny in (op.fid_scan for op in ops if op.fid_scan):
            if time.perf_counter() - t_start >= budget_s:
                break
            p = fc.FamilyParams(alpha, s, r)
            order = [("one", "1"), ("default", default)]
            for label, threads in order[::1 if done % 2 else -1]:
                _set_threads(threads)
                t0 = time.perf_counter()
                fc.check_fid_grid(p, nx=nx, ny=ny)
                total[label] += time.perf_counter() - t0
            done += 1
    finally:
        _set_threads(default)
    ratio = total["one"] / total["default"] if done else 0.0
    return ratio, total["one"] * 1e3, total["default"] * 1e3, done


# ------------------------------------------------------------ runs

def run_untraced(args, fc, session):
    if fc is not None:
        session.warm_up()
    records, specs, probes = session.measure(seconds=args.seconds,
                                             probes=SETUP_REPEATS)
    setup = [sec for sec, _ in probes]
    fid_threads = probes[-1][1]
    stats = summarize(records)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" \
        else resource.RUSAGE_SELF
    stats["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    stats["setup_s"] = statistics.median(setup)
    metrics = {k: stats[k] for k in UNITS}
    extra = {"setup_samples_s": setup, "tail": {
        "percentile": stats["tail_percentile"],
        "samples": stats["samples"], "beyond": stats["tail_beyond"]}}
    return records, specs, metrics, fid_threads, extra


def run_traced(args, fc, session):
    first_argv = next(session.ops())[1].argv
    import_metrics, top = import_breakdown(args.workload, first_argv)
    session.warm_up()
    untraced, specs, _ = session.measure(
        seconds=UNTRACED_SHARE * args.seconds)
    rec = spans.Recorder()
    undo, missing = spans.patch(rec)
    try:
        traced, _, _ = session.measure(count=len(untraced), rec=rec)
    finally:
        spans.unpatch(undo)
    ops = [op for _, op in itertools.islice(session.ops(), len(untraced))]
    speedup, one_ms, default_ms, scans = thread_speedup(
        fc, ops, THREAD_SHARE * args.seconds)
    metrics = dict(import_metrics)
    metrics.update(spans.layer_metrics(rec))
    metrics["fid.thread_speedup"] = speedup
    metrics["trace.overhead_ratio"] = (
        summarize(traced)["op_ms_p50"] / summarize(untraced)["op_ms_p50"])
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
    rec.write(span_file)
    extra = {"top_importers_ms": top, "missing_targets": missing,
             "spans": len(rec.start), "span_file": str(span_file.name),
             "thread_baseline": {"one_thread_ms": one_ms,
                                 "default_ms": default_ms, "scans": scans}}
    return untraced + traced, specs, metrics, None, extra


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "freeconv" / "__init__.py").is_file():
        print(f"perfbench: no freeconv sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    in_process = args.trace == 1 or args.workload != "cli-mix"
    fc = import_freeconv() if in_process else None
    session = Session(args.workload, args.seed, fc,
                      cli_in_process=args.trace == 1)
    runner = run_traced if args.trace else run_untraced
    records, specs, metrics, fid_threads, extra = runner(args, fc, session)
    if fid_threads is None and fc is not None:
        fid_threads = getattr(fc.fid, "_thread_count", lambda: None)()

    failed = sum(r[3] is not None for r in records)
    same_ops = reproducible(args.workload, args.seed, specs)
    correct = failed == 0 and not session.self_check_failures and same_ops
    prov = provenance(args, fid_threads)
    units = {k: UNITS.get(k) or spans.unit(k) for k in metrics}
    result = {
        "provenance": prov, "why": workloads.WHY[args.workload],
        "ranges": workloads.RANGES[args.workload],
        "fail_ratio": failed / len(records), "per_kind": per_kind(records),
        "failures": session.failures[:20],
        "oracle_self_check_failures": session.self_check_failures,
        "op_list_reproducible": same_ops, **extra,
        "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1, default=str) + "\n")

    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print("ranges " + json.dumps(workloads.RANGES[args.workload]))
    print("provenance " + json.dumps(prov))
    for key in ("tail", "top_importers_ms", "thread_baseline",
                "missing_targets"):
        if key in extra:
            print(f"{key} {json.dumps(extra[key])}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {failed / len(records):.6g} "
          f"({failed}/{len(records)} ops)")
    for f in session.failures[:5]:
        print(f"failure {f['kind']}: {f['reason']}  spec={f['spec']}")
    if session.self_check_failures:
        print("oracle self-check: perturbed output accepted for "
              + ", ".join(session.self_check_failures))
    if not same_ops:
        print("op list: the seed did not reproduce the op list that ran")
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
