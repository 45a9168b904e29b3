#!/usr/bin/env python3
"""The cliffedge benchmark: workloads measured end to end and per layer.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload million-quake --seed 3 --seconds 15 --trace 0

builds the program from this checkout's sources (Release, into
.bench_build/perfbench), runs the workload for --seconds through
perfbench_driver, checks every job's CD1..CD7 verdict and the determinism
guard, prints a readable report and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The full record, with the
run manifest, goes to .bench_build/results/.

Other modes:

    run.py --sweep --runs 10 --out FILE
        runs every workload of BENCHMARK.json on seeds 1..--runs (plus one
        traced run each, seed 1) into one result file and prints each
        end-to-end metric's spread against its bound;
    run.py --compare PARENT.json CHANGE.json
        compares two sweep files, one row per workload x end-to-end metric;
    run.py --selftest
        proves failure accounting, metric names/units and determinism.

perfbench/README.md documents the workloads, metrics and rules.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
DRIVER = os.path.join(BUILD, "perfbench_driver")

# Job seeds per run: run --seed N uses seeds 1+N*K .. N*K+K and cycles
# through them until --seconds is up. K is sized so that one pass takes
# about three quarters of a 20 s run on a 4-CPU host: cost and counters
# vary from seed to seed, and a median over many seeds keeps the
# run-to-run spread of every end-to-end metric inside its bound. A traced
# run runs each seed twice, so it takes the first K / TRACE_SEED_DIVISOR.
SEEDS_PER_RUN = {
    "million-quake": 48,
    "lossy-churn": 44,
    "grid-meltdown-sharded": 150,
    "proc-kill": 10,
    "purelex-repro": 1,
}
TRACE_SEED_DIVISOR = 5
# Workloads whose jobs are service runs (perfbench_driver --crosscheck).
SERVICE_WORKLOADS = {"lossy-churn"}
# End-to-end times are reported at reference host speed: seconds on a host
# where perfbench_driver's calibration kernel takes this long (see README.md).
CALIBRATION_REF_S = 0.009
# peak_rss_mb is a median over this many fresh-process jobs per run.
RSS_PROBES = 3
# Seconds perfbench_driver may take beyond --seconds before a run is
# abandoned.
DRIVER_GRACE_S = 120

# name -> (unit, better). BENCHMARK.json must list exactly these; the
# self-test checks it.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "events_per_s": ("events/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "cpu_s": ("s", "lower"),
    "msgs_per_crash": ("msgs", "lower"),
    "pass_share": ("ratio", "higher"),
}
PER_LAYER = {
    "scenario.parse_s": ("s", "lower"),
    "scenario.materialize_s": ("s", "lower"),
    "scenario.materialize_self_s": ("s", "lower"),
    "graph.build_s": ("s", "lower"),
    "graph.nodes": ("count", "lower"),
    "graph.edges": ("count", "lower"),
    "workload.plan_s": ("s", "lower"),
    "workload.crashes": ("count", "lower"),
    "workload.epoch_s": ("s", "lower"),
    "workload.epoch_tail_s": ("s", "lower"),
    "workload.epoch_self_s": ("s", "lower"),
    "engine.run_s": ("s", "lower"),
    "engine.events": ("count", "lower"),
    "engine.allocs_per_event": ("allocs/event", "lower"),
    "engine.fixed_s": ("s", "lower"),
    "engine.fixed_share": ("ratio", "lower"),
    "engine.cpu_over_wall": ("ratio", "lower"),
    "engine.jobs4_over_jobs1": ("ratio", "lower"),
    "sim.messages": ("count", "lower"),
    "sim.bytes": ("B", "lower"),
    "sim.delivered": ("count", "lower"),
    "sim.bytes_per_crash": ("B", "lower"),
    "core.decisions": ("count", "lower"),
    "core.distinct_views": ("count", "lower"),
    "core.msgs_per_decision": ("msgs", "lower"),
    "core.agree_p50_ticks": ("ticks", "lower"),
    "core.agree_p90_ticks": ("ticks", "lower"),
    "detector.notices": ("count", "lower"),
    "net.retransmits": ("count", "lower"),
    "net.dup_suppressed": ("count", "lower"),
    "net.ack_bytes": ("B", "lower"),
    "net.link_dropped": ("count", "lower"),
    "net.goodput_ratio": ("ratio", "higher"),
    "trace.to_check_input_s": ("s", "lower"),
    "trace.check_all_s": ("s", "lower"),
    "trace.check_rss_mb": ("MB", "lower"),
    "trace.check_over_engine": ("ratio", "lower"),
    "trace.open_waves_hw": ("count", "lower"),
    "report.bundle_s": ("s", "lower"),
    "report.bundle_bytes": ("B", "lower"),
    "proc.launcher_run_s": ("s", "lower"),
    "proc.wall_ms": ("ms", "lower"),
    "proc.daemon_cpu_ms": ("ms", "lower"),
    "proc.daemon_peak_rss_kb": ("KB", "lower"),
    "proc.idle_share": ("ratio", "lower"),
    "proc.retransmits": ("count", "lower"),
    "proc.shim_dropped": ("count", "lower"),
    "bench.job_self_s": ("s", "lower"),
    "bench.untraced_run_s": ("s", "lower"),
    "bench.traced_run_s": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
    "bench.fail_share": ("ratio", "lower"),
}
# Counters that must repeat exactly per (workload, seed) on simulated
# workloads; the self-test compares them across two runs.
DETERMINISTIC = ["events", "messages", "bytes", "delivered", "crashes",
                 "decisions", "views", "retransmits", "dup_suppressed",
                 "ack_bytes", "link_dropped", "agree_p50", "agree_p90"]


class BenchError(Exception):
    """A run that cannot produce a trustworthy result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# -- Build ---------------------------------------------------------------------

def check_layout():
    for rel in ("CMakeLists.txt", "src", "scenarios", "tools"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError(
                "%s has no %s: run the benchmark from the root of a "
                "cliffedge checkout" % (ROOT, rel))


def build():
    check_layout()
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=False, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    res = subprocess.run(["cmake", "--build", BUILD, "--target",
                          "perfbench_driver", "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0 or not os.path.exists(DRIVER):
        raise BenchError("building perfbench_driver failed")


# -- Statistics ----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def tail(values):
    """(p, value) of the highest nearest-rank percentile that has at least
    ten samples beyond it, or None when even the median has fewer."""
    s = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        idx = max(0, math.ceil(len(s) * p / 100.0) - 1)
        if len(s) - 1 - idx >= 10:
            return p, s[idx]
    return None


# -- One run -------------------------------------------------------------------

def job_seeds(workload, seed, trace=False):
    k = SEEDS_PER_RUN[workload]
    n = max(1, k // TRACE_SEED_DIVISOR) if trace else k
    return [1 + seed * k + i for i in range(n)]


def call_driver(args, timeout):
    try:
        res = subprocess.run([DRIVER, "--root", ROOT, "--work", WORK] + args,
                             stdout=subprocess.PIPE, stderr=sys.stderr,
                             timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench_driver %s timed out" % " ".join(args))
    if res.returncode != 0:
        raise BenchError("perfbench_driver %s exited %d"
                         % (" ".join(args), res.returncode))
    return json.loads(res.stdout)


def failed_job(j):
    return not j["ran"] or j["violation"] or j["error"] != ""


def first_per_seed(jobs, traced_only=False):
    seen = {}
    for j in jobs:
        if j["ran"] and (j["traced"] or not traced_only):
            seen.setdefault(j["seed"], j)
    return [seen[s] for s in sorted(seen)]


def speed_factors(raw):
    """Per job: reference calibration time / the calibration time measured
    around it (the mean of the kernel runs just before and just after)."""
    cal = raw["calibration_s"]
    return [CALIBRATION_REF_S / ((cal[i] + cal[i + 1]) / 2.0)
            for i in range(len(raw["jobs"]))]


def rescale(seconds, job, factor):
    """Rescales the CPU-busy share of a job's time to reference host speed;
    time spent waiting (timeouts, barriers, other processes) stays as
    measured. The busy share is the job's CPU time over its wall time."""
    busy = min(1.0, job["cpu_s"] / job["run_s"]) if job["run_s"] > 0 else 1.0
    return seconds * (1.0 - busy + busy * factor)


def end_to_end(raw, peak_mb):
    jobs = raw["jobs"]
    factors = speed_factors(raw)
    ran = [(j, f) for j, f in zip(jobs, factors) if j["ran"]]
    once = first_per_seed(jobs)
    crashes = sum(j["counters"]["crashes"] for j in once)
    failed = sum(1 for j in jobs if failed_job(j))
    run_s = [rescale(j["run_s"], j, f) for j, f in ran]
    # One population per run: the set-up blocks timed between jobs where
    # the workload has them, each rescaled by the calibration just before
    # it, else the jobs' own set-ups.
    setups = ([m * CALIBRATION_REF_S / cal for m, cal in raw["setup_blocks"]]
              or [j["setup_s"] * f for j, f in zip(jobs, factors)
                  if j["setup_s"] > 0])
    return run_s, {
        "setup_s": median(setups),
        "run_s": median(run_s),
        "events_per_s": median([j["counters"]["events"]
                                / rescale(j["engine_s"], j, f)
                                for j, f in ran if j["engine_s"] > 0]),
        "peak_rss_mb": peak_mb,
        "cpu_s": median([j["cpu_s"] * f for j, f in ran]),
        "msgs_per_crash": (sum(j["counters"]["messages"] for j in once)
                           / crashes if crashes else 0.0),
        "pass_share": (len(jobs) - failed) / len(jobs) if jobs else 0.0,
    }


def per_layer(raw):
    jobs = raw["jobs"]
    traced = [j for j in jobs if j["ran"] and j["traced"]]
    untraced = [j for j in jobs if j["ran"] and not j["traced"]]
    once = first_per_seed(jobs)
    once_traced = first_per_seed(jobs, traced_only=True)
    proc = raw["workload"] == "proc-kill"

    def span(name, self_time=False):
        return median([j["spans"].get(name, [0.0, 0.0])[1 if self_time else 0]
                       for j in traced])

    def total(key):
        return sum(j["counters"][key] for j in once)

    def traced_median(key):
        return median([j[key] for j in traced])

    msgs, crashes, decisions = total("messages"), total("crashes"), \
        total("decisions")
    retrans = total("retransmits")
    engine_run = span("engine.run")
    epochs = [e for j in traced for e in j["epoch_s"]]
    epoch_tail = tail(epochs)
    engine_wall = sum(j["spans"].get("engine.run", [0.0])[0] for j in traced)
    jobs1 = [j["jobs1_engine_s"] for j in traced if j["jobs1_engine_s"] > 0]
    to_check, check_all = span("trace.to_check_input"), \
        span("trace.check_all")
    untraced_run = median([j["run_s"] for j in untraced])
    traced_run = median([j["run_s"] for j in traced])
    failed = sum(1 for j in jobs if failed_job(j))
    fixed = traced_median("fixed_s")
    return {
        "scenario.parse_s": span("scenario.parse"),
        "scenario.materialize_s": span("scenario.materialize"),
        "scenario.materialize_self_s": span("scenario.materialize", True),
        "graph.build_s": span("graph.build"),
        "graph.nodes": once[0]["graph_nodes"] if once else 0,
        "graph.edges": once[0]["graph_edges"] if once else 0,
        "workload.plan_s": span("workload.plan"),
        "workload.crashes": crashes,
        "workload.epoch_s": median(epochs),
        "workload.epoch_tail_s": epoch_tail[1] if epoch_tail else
        (max(epochs) if epochs else 0.0),
        "workload.epoch_self_s": span("workload.epoch", True),
        "engine.run_s": engine_run,
        "engine.events": total("events"),
        "engine.allocs_per_event":
            (sum(j["engine_allocs"] for j in traced)
             / max(1, sum(j["counters"]["events"] for j in traced))),
        "engine.fixed_s": fixed,
        "engine.fixed_share": fixed / engine_run if engine_run else 0.0,
        "engine.cpu_over_wall":
            (sum(j["engine_cpu_s"] for j in traced) / engine_wall
             if engine_wall else 0.0),
        "engine.jobs4_over_jobs1":
            engine_run / median(jobs1) if jobs1 else 0.0,
        "sim.messages": 0 if proc else msgs,
        "sim.bytes": total("bytes"),
        "sim.delivered": 0 if proc else total("delivered"),
        "sim.bytes_per_crash": total("bytes") / crashes if crashes else 0.0,
        "core.decisions": decisions,
        "core.distinct_views": total("views"),
        "core.msgs_per_decision": msgs / decisions if decisions else 0.0,
        "core.agree_p50_ticks": median([j["counters"]["agree_p50"]
                                        for j in once]),
        "core.agree_p90_ticks": median([j["counters"]["agree_p90"]
                                        for j in once]),
        "detector.notices": sum(j["notices"] for j in once_traced),
        "net.retransmits": 0 if proc else retrans,
        "net.dup_suppressed": 0 if proc else total("dup_suppressed"),
        "net.ack_bytes": 0 if proc else total("ack_bytes"),
        "net.link_dropped": total("link_dropped"),
        "net.goodput_ratio": (msgs / (msgs + retrans)
                              if msgs + retrans else 1.0),
        "trace.to_check_input_s": to_check,
        "trace.check_all_s": check_all,
        "trace.check_rss_mb": traced_median("check_rss_mb"),
        "trace.check_over_engine":
            (to_check + check_all) / engine_run if engine_run else 0.0,
        "trace.open_waves_hw": max([j["open_waves_hw"] for j in traced],
                                   default=0),
        "report.bundle_s": span("report.bundle"),
        "report.bundle_bytes": traced_median("bundle_bytes"),
        "proc.launcher_run_s": span("proc.launcher_run"),
        "proc.wall_ms": traced_median("wall_ms"),
        "proc.daemon_cpu_ms": traced_median("daemon_cpu_ms"),
        "proc.daemon_peak_rss_kb": traced_median("daemon_rss_kb"),
        "proc.idle_share": median([1.0 - j["daemon_cpu_ms"]
                                   / (j["shards"] * j["wall_ms"])
                                   for j in traced
                                   if j["shards"] and j["wall_ms"]]),
        "proc.retransmits": (median([j["counters"]["retransmits"]
                                     for j in traced]) if proc else 0),
        "proc.shim_dropped": traced_median("shim_dropped"),
        "bench.job_self_s": span("bench.job", True),
        "bench.untraced_run_s": untraced_run,
        "bench.traced_run_s": traced_run,
        "bench.trace_overhead_s": traced_run - untraced_run,
        "bench.fail_share": failed / len(jobs) if jobs else 0.0,
    }


def git_commit():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if res.returncode == 0:
            return res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """sha256 over the sources the benchmark builds and runs, so result
    files identify the code even where git is absent."""
    h = hashlib.sha256()
    paths = ["CMakeLists.txt", "BENCHMARK.json"]
    for top in ("src", "tools", "scenarios", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.relpath(os.path.join(dirpath, n), ROOT)
                      for n in sorted(filenames) if not n.endswith(".md")]
    for rel in paths:
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(raw, seeds, overhead):
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "build_type": raw["build_type"],
        "ndebug": raw["ndebug"],
        "compiler": raw["compiler"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seeds": seeds,
        "tracing_overhead_s": overhead,
    }


def run_once(workload, seed, seconds, trace, max_jobs=0):
    """Runs one workload once; returns the full result record."""
    if workload not in SEEDS_PER_RUN:
        raise BenchError("unknown workload %r (known: %s)"
                         % (workload, ", ".join(SEEDS_PER_RUN)))
    os.makedirs(WORK, exist_ok=True)
    seeds = job_seeds(workload, seed, trace)
    args = ["--workload", workload, "--seconds", str(seconds),
            "--seeds", ",".join(map(str, seeds)),
            "--trace", "1" if trace else "0"]
    if max_jobs:
        args += ["--max-jobs", str(max_jobs)]
    raw = call_driver(args, seconds + DRIVER_GRACE_S)
    if raw["build_type"] != "Release" or not raw["ndebug"]:
        raise BenchError(
            "refusing to report numbers from a %r build (NDEBUG %s): only "
            "an optimised Release build without assertions measures what "
            "users run" % (raw["build_type"], raw["ndebug"]))
    jobs = raw["jobs"]
    failed = sum(1 for j in jobs if failed_job(j))
    errors = sorted({"seed %d: %s" % (j["seed"], j["error"])
                     for j in jobs if j["error"]})
    run_s = []
    if trace:
        metrics = per_layer(raw)
        table = PER_LAYER
        overhead = metrics["bench.trace_overhead_s"]
        probe_ok = True
    else:
        # Peak RSS of one job, in a fresh process per job: the median over
        # the run's first RSS_PROBES seeds.
        probes = [call_driver(["--workload", workload, "--rss-probe",
                               "--seeds", str(s)], DRIVER_GRACE_S)
                  for s in seeds[:RSS_PROBES]]
        probe_ok = all(p["ok"] for p in probes)
        errors += ["rss probe: " + p["error"] for p in probes if p["error"]]
        peak_mb = median([max(p["self_maxrss_kb"], p["daemon_peak_rss_kb"])
                          / 1024.0 for p in probes])
        run_s, metrics = end_to_end(raw, peak_mb)
        table = END_TO_END
        overhead = None
    correct = (failed == 0 and probe_ok and bool(jobs)
               and not raw["determinism_mismatches"])
    raw_medians = {
        "run_s": median([j["run_s"] for j in jobs if j["ran"]]),
        "setup_s": median([m for m, _ in raw["setup_blocks"]]
                          or [j["setup_s"] for j in jobs
                              if j["setup_s"] > 0]),
        "cpu_s": median([j["cpu_s"] for j in jobs if j["ran"]]),
        "calibration_s": median(raw["calibration_s"]),
    }
    return {
        "manifest": manifest(raw, {workload: seeds}, {workload: overhead}),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "fail_share": failed / len(jobs) if jobs else 0.0,
        "metrics": {k: {"value": metrics[k], "unit": table[k][0]}
                    for k in table},
        "raw": raw_medians,
        "run_s_samples": len(run_s),
        "run_s_tail": tail(run_s),
        "counters": {str(j["seed"]): {k: j["counters"][k]
                                      for k in DETERMINISTIC}
                     for j in first_per_seed(jobs)},
        "determinism_mismatches": raw["determinism_mismatches"],
        "workers": raw["workers"],
        "errors": errors,
        "spans_file": raw["spans_file"],
    }


def print_report(rec):
    print("perfbench %s seed %d (%s, %.0f s): %d jobs attempted, %d failed, "
          "fail_share %.4f, CD1..CD7 and determinism %s"
          % (rec["workload"], rec["seed"],
             "traced" if rec["trace"] else "untraced", rec["seconds"],
             rec["attempted"], rec["failed"], rec["fail_share"],
             "verified" if rec["correct"] else "NOT verified"))
    for err in rec["errors"] + rec["determinism_mismatches"]:
        print("  problem: %s" % err)
    for name, m in rec["metrics"].items():
        print("  %-30s %16.6g %s" % (name, m["value"], m["unit"]))
    if not rec["trace"]:
        t = rec["run_s_tail"]
        print("  run_s: median %.6g s, %s, %d samples"
              % (rec["metrics"]["run_s"]["value"],
                 "p%g %.6g s" % (t[0], t[1]) if t else
                 "no percentile has 10 samples beyond it",
                 rec["run_s_samples"]))
    else:
        print("  tracing overhead: %+.6g s per job (traced %.6g s vs "
              "untraced %.6g s); spans in %s"
              % (rec["metrics"]["bench.trace_overhead_s"]["value"],
                 rec["metrics"]["bench.traced_run_s"]["value"],
                 rec["metrics"]["bench.untraced_run_s"]["value"],
                 rec["spans_file"] or "(not written)"))


def save(rec, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(rec, f, indent=1)
        f.write("\n")


def result_line(rec):
    return json.dumps({"correct": rec["correct"],
                       "attempted": rec["attempted"],
                       "failed": rec["failed"],
                       "metrics": rec["metrics"]})


# -- Sweep and compare -----------------------------------------------------------

def load_bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def sweep(args):
    bench = load_bench_json()
    seconds = args.seconds or bench["run_seconds"]
    runs, seeds_used, overhead = [], {}, {}
    for w in (w["name"] for w in bench["workloads"]):
        seeds_used[w] = []
        for seed in range(1, args.runs + 1):
            rec = run_once(w, seed, seconds, False)
            log("%s seed %d: correct=%s run_s=%.4g" % (
                w, seed, rec["correct"], rec["metrics"]["run_s"]["value"]))
            runs.append(rec)
            seeds_used[w].append(job_seeds(w, seed))
        rec = run_once(w, 1, seconds, True)
        overhead[w] = rec["metrics"]["bench.trace_overhead_s"]["value"]
        runs.append(rec)
    man = dict(runs[0]["manifest"]) if runs else {}
    man["seeds"], man["tracing_overhead_s"] = seeds_used, overhead
    out = {"manifest": man, "run_seconds": seconds, "runs": runs}
    save(out, args.out)
    ok = print_spreads(out, bench)
    print("wrote %s" % args.out)
    return 0 if ok else 1


def print_spreads(result, bench):
    ok = True
    print("%-22s %-15s %12s %12s %12s %8s %8s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound/3"))
    for w in bench["workloads"]:
        recs = [r for r in result["runs"]
                if r["workload"] == w["name"] and not r["trace"]]
        if not recs:
            continue
        if not all(r["correct"] for r in recs):
            ok = False
            print("%-22s some runs were not correct" % w["name"])
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in recs]
            q1, med, q3 = quartiles(vals)
            sp = spread(vals)
            flag = ""
            if sp > m["bound"] / 3:
                flag, ok = "  WIDE", False
            print("%-22s %-15s %12.6g %12.6g %12.6g %8.4f %8.4f%s" % (
                w["name"], m["name"], q1, med, q3, sp, m["bound"] / 3, flag))
    return ok


def verdict(metric, parent, change):
    """Rules of the choosing-metrics guide, sections 6.5 and 8."""
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    pq1, pmed, pq3 = quartiles([v for _, v in parent])
    cq1, cmed, cq3 = quartiles([v for _, v in change])
    pairs = [(p, c) for sp, p in parent for sc, c in change if sp == sc]
    won = sum(1 for p, c in pairs if better(c, p))
    lost = sum(1 for p, c in pairs if better(p, c))
    worse_by = ((cmed - pmed) if lower else (pmed - cmed)) / abs(pmed) \
        if pmed else 0.0
    bound = metric["bound"]
    all_better = all(better(c, p) for _, c in change for _, p in parent)
    if (pairs and won >= 0.9 * len(pairs) and better(cmed, pmed)
            and abs(cmed - pmed) > (pq3 - pq1)):
        v = "improved"
    elif all_better:
        v = "no worse"
    elif (spread([v for _, v in parent]) > bound
          or spread([v for _, v in change]) > bound):
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "no worse"
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
            "pairs": len(pairs), "won": won, "lost": lost,
            "ratio": cmed / pmed if pmed else float("nan"), "verdict": v}


def compare(parent_path, change_path):
    bench = load_bench_json()
    with open(parent_path) as f:
        parent = json.load(f)
    with open(change_path) as f:
        change = json.load(f)
    print("parent: %s (%s)" % (parent_path,
                               parent["manifest"].get("git_commit")))
    print("change: %s (%s)" % (change_path,
                               change["manifest"].get("git_commit")))
    print("%-22s %-15s %-34s %-34s %9s %-26s %s" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3",
        "won", "change/parent (base)", "verdict"))
    worse = False
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            def values(result):
                return [(r["seed"], r["metrics"][m["name"]]["value"])
                        for r in result["runs"]
                        if r["workload"] == w["name"] and not r["trace"]]
            p, c = values(parent), values(change)
            if not p or not c:
                continue
            v = verdict(m, p, c)
            worse |= v["verdict"] == "worse"
            print("%-22s %-15s %-34s %-34s %9s %-26s %s" % (
                w["name"], m["name"],
                "%.4g/%.4g/%.4g" % v["parent"],
                "%.4g/%.4g/%.4g" % v["change"],
                "%d/%d" % (v["won"], v["pairs"]),
                "%.4f (%.4g %s)" % (v["ratio"], v["parent"][1], m["unit"]),
                v["verdict"]))
    return 1 if worse else 0


# -- Self-test -----------------------------------------------------------------

def selftest():
    problems = []

    def expect(cond, what):
        print("%s  %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            problems.append(what)

    # 1. Failure accounting: a committed CD7 counterexample must count as
    #    exactly one failed job out of one.
    rec = run_once("purelex-repro", 0, 0, False, max_jobs=1)
    expect(rec["attempted"] == 1 and rec["failed"] == 1,
           "purelex repro: 1 attempted, 1 failed (got %d, %d)"
           % (rec["attempted"], rec["failed"]))
    expect(rec["fail_share"] == 1.0
           and rec["metrics"]["pass_share"]["value"] == 0.0
           and not rec["correct"],
           "purelex repro: fail_share 1, pass_share 0, correct false")

    # 2. Every printed metric is declared in BENCHMARK.json, with its unit.
    bench = load_bench_json()
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        expect(declared == dict(table),
               "BENCHMARK.json %s matches the metrics run.py prints" % key)
    for w in bench["workloads"]:
        for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
            rec = run_once(w["name"], 0, 0, trace, max_jobs=2)
            declared = {m["name"]: m["unit"] for m in
                        bench["per_layer" if trace else "end_to_end"]}
            printed = {k: v["unit"] for k, v in rec["metrics"].items()}
            expect(printed == declared and rec["correct"],
                   "%s trace %d: correct, prints exactly the declared "
                   "metrics and units" % (w["name"], trace))
            if trace and w["name"] != "proc-kill":
                # 3. Determinism: traced and untraced jobs of one seed
                #    (checked inside the run), and a second run of it.
                again = run_once(w["name"], 0, 0, True, max_jobs=2)
                expect(not rec["determinism_mismatches"]
                       and rec["counters"] == again["counters"],
                       "%s: counters identical traced/untraced and across "
                       "two runs of one seed" % w["name"])

    # 4. The driver's copy of the service loop runs the same job as
    #    scenario::CampaignRunner::runOneJob.
    for w in bench["workloads"]:
        if w["name"] in SERVICE_WORKLOADS:
            cc = call_driver(["--workload", w["name"], "--crosscheck",
                              "--seeds", str(job_seeds(w["name"], 0)[0])],
                             DRIVER_GRACE_S)
            expect(cc["ok"], "%s: the driver's service loop and runOneJob "
                   "give the same run%s" % (w["name"], "" if cc["ok"] else
                                            " (%s vs %s)" % (
                                                cc["driver"],
                                                cc["run_one_job"])))
    print("selftest: %s" % ("passed" if not problems else
                            "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        build()
        if args.selftest:
            return selftest()
        if args.sweep:
            if not args.out:
                ap.error("--sweep needs --out")
            return sweep(args)
        if not args.workload or args.seconds is None:
            ap.error("--workload and --seconds are required")
        started = time.time()
        rec = run_once(args.workload, args.seed, args.seconds, args.trace)
        save(rec, os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)))
        print_report(rec)
        log("perfbench: %.1f s wall" % (time.time() - started))
        print(result_line(rec), flush=True)
        return 0
    except BenchError as e:
        log("perfbench: error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
