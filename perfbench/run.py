#!/usr/bin/env python3
"""End-to-end and per-module benchmark of geninv.

    python3 perfbench/run.py --workload inverse-kinds --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  One process runs one workload as a closed loop: a single
client, no threads, BLAS pinned to one thread, the next request sent when
the previous one returns.  The request list is built from ``--seed`` during
set-up and replayed in passes: one untimed warm-up pass, then timed passes
until ``--seconds`` have elapsed.  Every output is judged against the outcome
fixed by construction (see ``workloads.py``), and every pass must reproduce
the warm-up pass byte for byte.  The untraced run also times a fixed
reference job between requests and states its timing metrics at a
reference speed (see ``Reference``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-module metrics.  Metric names and units come from ``BENCHMARK.json``.
``--workload all`` runs each workload in its own process.

Exit status: 0 after a complete run (wrong outcomes are counted, not fatal),
1 on a determinism mismatch, 2 when the package or ``BENCHMARK.json`` is
missing; a crash inside the package propagates as a traceback.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:          # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".perfbench-work"
WORKLOADS = ("inverse-kinds", "fuzz-campaign", "verify-instances")
SETUP_REPEATS = 9
TAIL_MIN_BEYOND = 10
REFERENCE_PERIOD_S = 0.02   # the reference job runs between requests this often
REFERENCE_QUANTILE = 0.05   # the reference time taken as the run's speed
REFERENCE_MS = 0.5          # the reference time the timing metrics are stated at


class DeterminismError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up


def _workdir(workload):
    return WORKDIR / f"{workload}-{os.getpid()}"


def _setup(workload, seed):
    """Import the package and build the inputs; returns (seconds, requests).

    Leaves the process in its own work directory, which verify-instances
    fills with instance files.
    """
    _workdir(workload).mkdir(parents=True)
    os.chdir(_workdir(workload))
    start = time.perf_counter()
    import workloads
    reqs = workloads.build(workload, seed, ".")
    elapsed = time.perf_counter() - start
    import geninv
    if Path(geninv.__file__).resolve().parent != (SRC / "geninv").resolve():
        raise SystemExit(f"error: geninv imported from {geninv.__file__}, "
                         f"not from {SRC}")
    return elapsed, reqs


def _cleanup(workload):
    os.chdir(ROOT)
    shutil.rmtree(_workdir(workload), ignore_errors=True)
    try:
        WORKDIR.rmdir()
    except OSError:
        pass


def _child_setup(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# passes


class Pass:
    """Outcomes of one replay of the request list (or of its prefix)."""

    def __init__(self):
        self.latency = []       # seconds, per request
        self.ops = 0
        self.bad = 0
        self.complete = True
        self.verdicts = Counter()
        self.mismatches = Counter()
        self._digest = hashlib.sha256()

    @property
    def digest(self):
        return self._digest.hexdigest()


class Reference:
    """A fixed job of numpy and Python work that does not touch geninv.

    The box's speed drifts by tens of percent over minutes, so two runs of
    the same code can differ that much.  The job is timed between requests
    about every REFERENCE_PERIOD_S; its low quantile over the run gauges the
    speed the run saw, as the fastest repeats gauge the requests' cost.
    """

    def __init__(self):
        import numpy as np
        rg = np.random.default_rng(0)
        self.svd = np.linalg.svd
        self.mats = [rg.standard_normal((n, n)) + 1j * rg.standard_normal((n, n))
                     for n in (4, 8, 16)]
        self.samples = []
        self.due = 0.0

    def tick(self):
        """Time the job if it is due."""
        start = time.perf_counter()
        if start < self.due:
            return
        for M in self.mats:
            self.svd(M)
            json.dumps([[float(x) for x in row] for row in (M @ M).real])
        end = time.perf_counter()
        self.samples.append(end - start)
        self.due = end + REFERENCE_PERIOD_S

    def ms(self):
        return _nearest_rank(sorted(self.samples), REFERENCE_QUANTILE)[0] * 1e3


def run_pass(reqs, deadline=None, tracer=None, reference=None):
    p = Pass()
    for i, req in enumerate(reqs):
        if deadline is not None and time.perf_counter() >= deadline:
            p.complete = False
            break
        if reference is not None:
            reference.tick()
        start = time.perf_counter()
        out = req.run() if tracer is None else tracer.request(i, req.run)
        p.latency.append(time.perf_counter() - start)
        bad, digest, verdicts = req.judge(out)
        p.ops += req.ops
        p.bad += bad
        p.verdicts.update(verdicts)
        if bad:
            p.mismatches[req.key()] += bad
        p._digest.update(digest)
    return p


def _check_same(reference, p, what):
    if p.complete and p.digest != reference.digest:
        raise DeterminismError(f"{what} differs from the warm-up pass "
                               f"({p.digest} != {reference.digest})")


def _determinism_probe(seed):
    import workloads
    req = workloads.determinism_probe(seed)
    first, second = req.run(), req.run()
    if first != second:
        raise DeterminismError("repeated fuzz request printed different bytes")
    return " ".join(req.argv)


# ---------------------------------------------------------------------------
# statistics


def _nearest_rank(sorted_values, q):
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _tail(sorted_values):
    """Highest whole percentile with at least TAIL_MIN_BEYOND samples above."""
    for pct in range(99, 49, -1):
        value, beyond = _nearest_rank(sorted_values, pct / 100)
        if beyond >= TAIL_MIN_BEYOND:
            return value, pct, beyond
    value, beyond = _nearest_rank(sorted_values, 0.5)
    return value, 50, beyond


def best_of(passes, n):
    """Per request, its fastest latency over the passes (seconds).

    The machine's speed drifts by tens of percent from second to second and
    from minute to minute, and interference only ever slows a request, so
    the fastest repeat is the stable estimate of what the request costs.
    """
    return [min(p.latency[i] for p in passes if len(p.latency) > i)
            for i in range(n)]


def end_to_end(setups, passes, reqs, reference):
    """The end-to-end metrics; times are stated at the reference speed.

    Each request latency and set-up time is multiplied by REFERENCE_MS over
    the reference time the run measured, so a run on a box in a slow phase
    reads about what it would in a fast one.  The measured figures are
    printed too.
    """
    best = best_of(passes, len(reqs))
    ref_ms = reference.ms()
    speed = REFERENCE_MS / ref_ms
    lat_ms = sorted(x * 1e3 * speed for x in best)
    tail, pct, beyond = _tail(lat_ms)
    reps = f"{len(lat_ms)} requests, fastest of {len(passes)} passes each"
    metrics = {
        "setup_s": (statistics.median(setups) * speed, "s"),
        "ops_per_s": (sum(r.ops for r in reqs) / sum(best) / speed, "1/s"),
        "req_ms_p50": (_nearest_rank(lat_ms, 0.50)[0], "ms"),
        "req_ms_p90": (_nearest_rank(lat_ms, 0.90)[0], "ms"),
        "req_ms_tail": (tail, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    at_ref = f"at reference speed, measured x{1 / speed:.4g}"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, {at_ref}",
        "ops_per_s": f"one pass at the fastest latencies, {at_ref}; {reps}",
        "req_ms_p50": f"{at_ref}; {reps}",
        "req_ms_p90": f"{at_ref}; {reps}",
        "req_ms_tail": f"q=0.{pct:02d}, {beyond} beyond, {at_ref}; {reps}",
        "peak_rss_mb": "ru_maxrss",
    }
    print(f"# reference job: {len(reference.samples)} timings, "
          f"q={REFERENCE_QUANTILE} {ref_ms:.6g} ms against {REFERENCE_MS} ms")
    print(f"# as measured: set-ups "
          f"{' '.join(f'{x:.4g}' for x in setups)} s (median "
          f"{statistics.median(setups):.6g} s), "
          f"{metrics['ops_per_s'][0] * speed:.6g} ops/s, "
          f"p50 {metrics['req_ms_p50'][0] / speed:.6g} ms, "
          f"p90 {metrics['req_ms_p90'][0] / speed:.6g} ms, "
          f"tail {tail / speed:.6g} ms")
    pooled = sorted(x * 1e3 for p in passes for x in p.latency)
    wall = sum(p.ops for p in passes) / sum(sum(p.latency) for p in passes)
    print(f"# pooled over all {len(pooled)} timed requests: "
          f"{wall:.6g} ops/s, p50 {_nearest_rank(pooled, 0.5)[0]:.6g} ms, "
          f"p90 {_nearest_rank(pooled, 0.9)[0]:.6g} ms, "
          f"p99 {_nearest_rank(pooled, 0.99)[0]:.6g} ms")
    return metrics, notes


def per_module(tracer, untraced, traced, reqs, scaled_mismatch_frac):
    ops = sum(p.ops for p in traced)
    nreq = sum(len(p.latency) for p in traced)
    totals = tracer.totals()

    def row(span):
        return totals.get(span, (0, 0.0, 0.0))

    m = {"cli.self_ms_per_req": row("cli.main")[2] * 1e3 / nreq}
    for name in ("load_json", "parse_instance", "dumps_report"):
        m[f"matrixio.{name}.ms_per_req"] = row(f"matrixio.{name}")[1] * 1e3 / nreq
    m["matrixio.report_kb_per_req"] = tracer.report_chars / 1024 / nreq
    calls, total, own = row("generators.instance_for")
    m["generators.instance_for.ms_per_trial"] = total * 1e3 / ops
    m["generators.instance_for.self_ms_per_trial"] = own * 1e3 / ops
    m["generators.degenerate_frac"] = tracer.degenerate / calls if calls else 0.0
    calls, total, own = row("theorems.run_check")
    m["theorems.run_check.ms_per_op"] = total * 1e3 / ops
    m["theorems.run_check.self_ms_per_op"] = own * 1e3 / ops
    for verdict, short in (("pass", "pass"), ("fail", "fail"),
                           ("hypotheses_not_met", "hnm")):
        m[f"theorems.verdict_{short}_frac"] = (
            tracer.verdicts[verdict] / calls if calls else 0.0)
    for fn in spans.INVERSE_FNS:
        calls, _, own = row(f"inverses.{fn}")
        m[f"inverses.{fn}.calls_per_op"] = calls / ops
        m[f"inverses.{fn}.self_ms_per_op"] = own * 1e3 / ops
    for fn in spans.LINALG_FNS:
        calls, _, own = row(f"linalg.{fn}")
        m[f"linalg.{fn}.calls_per_op"] = calls / ops
        m[f"linalg.{fn}.self_ms_per_op"] = own * 1e3 / ops
    for fn in spans.KERNEL_FNS:
        calls, total, _ = row(f"kernel.{fn}")
        m[f"kernel.{fn}.calls_per_op"] = calls / ops
        m[f"kernel.{fn}.ms_per_op"] = total * 1e3 / ops

    import workloads
    untraced_best = best_of(untraced, len(reqs))
    by_class = defaultdict(list)
    for req, lat in zip(reqs, untraced_best):
        if isinstance(req, workloads.InverseCall):
            by_class[req.name, req.n].append(lat * 1e3)
    for fn in workloads.INVERSE_FNS:
        for n in workloads.INVERSE_DIMS:
            values = by_class.get((fn, n))
            m[f"inverses.{fn}.n{n}.ms_p50"] = (
                statistics.median(values) if values else 0.0)

    m["theorems.scaled_mismatch_frac"] = scaled_mismatch_frac
    m["trace.overhead_frac"] = (
        sum(best_of(traced, len(reqs))) / sum(untraced_best) - 1.0)

    print(f"# spans: {len(tracer.spans)} in {len(traced)} traced passes; "
          f"absent: {', '.join(tracer.absent) or 'none'}")
    for name, (calls, total, own) in sorted(totals.items()):
        print(f"span {name} calls={calls} ms={total * 1e3:.3f} "
              f"self_ms={own * 1e3:.3f}")
    notes = dict.fromkeys(m, f"{len(traced)} traced passes, {nreq} requests, "
                             f"{ops} ops")
    notes["theorems.scaled_mismatch_frac"] = "untimed scale probe"
    return {name: (value, _layer_unit(name)) for name, value in m.items()}, notes


def _layer_unit(name):
    if name.endswith("_frac"):
        return "frac"
    if ".calls_per_" in name:
        return "count"
    if "_kb_per_" in name:
        return "KiB"
    return "ms"


# ---------------------------------------------------------------------------
# environment and output


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable"


def _environment():
    import numpy
    src = hashlib.sha256()
    for path in sorted((SRC / "geninv").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']}-{blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"# env git_sha={_git_sha()} src_sha256={src.hexdigest()[:16]} "
            f"numpy={numpy.__version__} blas={blas} {threads} "
            f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={sys.version.split()[0]}")


def _declared(trace):
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _emit(metrics, notes, declared, attempted, failed):
    """Print every computed metric; the JSON line carries the declared ones."""
    wrong = [n for n, unit in declared.items()
             if n not in metrics or metrics[n][1] != unit]
    if wrong:
        raise RuntimeError(f"declared metrics not computed as declared: {wrong}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit} ({notes[name]})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in declared.items()},
    }))


def _print_mismatches(p, what="mismatch"):
    for (workload, name, scale), bad in sorted(p.mismatches.items()):
        print(f"{what} {workload} {name} scale={scale}: {bad} per pass")


def _scale_probe(workload, seed):
    """Share of wrong verdicts on verify-instances' copies at 1e-6 and 1e6.

    Run once, untimed, after the traced passes.  The scaled copies are not
    ops of the workload, so their wrong verdicts do not count in ``failed``;
    they are the scale defect of ROADMAP item 2, listed line by line here.
    """
    if workload != "verify-instances":
        return 0.0
    import workloads
    p = run_pass(workloads.scale_probe(seed, "."))
    _print_mismatches(p, "scale-probe mismatch")
    print(f"# scale probe: {p.bad} of {p.ops} verifies at scales "
          f"{', '.join(f'{c:g}' for c in workloads.PROBE_SCALES)} "
          f"differ from the expected verdict")
    return p.bad / p.ops


# ---------------------------------------------------------------------------
# runs


def run(args):
    declared = _declared(args.trace)
    setup_s, reqs = _setup(args.workload, args.seed)
    print(f"# geninv benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(_environment())
    print(f"# determinism: '{_determinism_probe(args.seed)}' twice, "
          f"byte-identical")
    inputs = hashlib.sha256()
    for r in reqs:
        inputs.update(r.fingerprint())
    print(f"# closed loop, 1 client: {len(reqs)} requests, "
          f"{sum(r.ops for r in reqs)} ops per pass; "
          f"inputs_sha256={inputs.hexdigest()}")

    warm = run_pass(reqs)
    _print_mismatches(warm)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        tracer = spans.Tracer()
        untraced, traced = [], []
        while not traced or time.perf_counter() < deadline:
            untraced.append(run_pass(reqs))
            tracer.install()
            try:
                traced.append(run_pass(reqs, tracer=tracer))
            finally:
                tracer.restore()
            _check_same(warm, untraced[-1], "an untraced pass")
            _check_same(warm, traced[-1], "a traced pass")
        expect = Counter({v: n * len(traced) for v, n in warm.verdicts.items()})
        if +tracer.verdicts != +expect:
            raise DeterminismError(f"traced verdicts {dict(tracer.verdicts)} "
                                   f"!= untraced verdicts {dict(expect)}")
        print(f"# verdicts per pass: {dict(warm.verdicts)}; traced run_check "
              f"saw {dict(tracer.verdicts)} over {len(traced)} passes")
        passes = untraced + traced
        metrics, notes = per_module(tracer, untraced, traced, reqs,
                                    _scale_probe(args.workload, args.seed))
    else:
        # the repeated set-ups are spread over the run, so that their
        # median does not hang on the box's speed in one moment; the time
        # they take is added to the deadline
        passes, setups = [], [setup_s]
        reference = Reference()
        setup_every = args.seconds / SETUP_REPEATS
        next_setup = time.perf_counter() + setup_every
        while not passes or passes[-1].complete and time.perf_counter() < deadline:
            passes.append(run_pass(reqs, deadline if passes else None,
                                   reference=reference))
            _check_same(warm, passes[-1], "a timed pass")
            start = time.perf_counter()
            if start >= next_setup and len(setups) < SETUP_REPEATS:
                setups.append(_child_setup(args.workload, args.seed))
                spent = time.perf_counter() - start
                deadline += spent
                next_setup += setup_every + spent
        setups += [_child_setup(args.workload, args.seed)
                   for _ in range(SETUP_REPEATS - len(setups))]
        print(f"# verdicts per pass: {dict(warm.verdicts)}")
        metrics, notes = end_to_end(setups, passes, reqs, reference)
    print(f"# reports_sha256={warm.digest} (warm-up pass; "
          f"{sum(p.complete for p in passes)} complete passes identical)")
    ops, bad = sum(p.ops for p in passes), sum(p.bad for p in passes)
    metrics["failed_frac"] = (bad / ops, "frac")
    notes["failed_frac"] = f"{bad} of {ops} ops"
    _emit(metrics, notes, declared, ops, bad)
    return 0


def run_all(args):
    """Each workload in its own process; a combined summary line last."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "geninv" / "__init__.py").is_file() or not SPEC.is_file():
        sys.stderr.write(f"error: run from a geninv checkout; need "
                         f"{SRC / 'geninv'} and {SPEC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": _setup(args.workload, args.seed)[0]}))
            return 0
        return run(args)
    except DeterminismError as exc:
        sys.stderr.write(f"error: determinism: {exc}\n")
        return 1
    finally:
        _cleanup(args.workload)


if __name__ == "__main__":
    sys.exit(main())
