#!/usr/bin/env python3
"""ChameleonEC benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

NAME is scale-scan, paper-ycsb, pipelined-churn, codec-repair, or
"all". Run from the repository root. The script builds the program
from ../src with CMake into .bench_build/perfbench, generates the
workload's inputs from the seed, runs them through the benchmark
driver for S host seconds, cross-checks the outputs, and prints a
report. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload
untraced and then traced, S/2 seconds each, and reports the per-layer
metrics. The
exit code is non-zero if a build step, a correctness check or the
reference-solver differential fails. README.md documents the metrics
and workloads.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
# Scenario seeds must stay exact as JSON numbers (doubles): the seed is
# folded below 2^40 and input i gets seed * 1000 + i + 1.
SEED_RANGE = 2 ** 40
INSTANCE_SEED_STRIDE = 1000
# Floor of one calibration pass (calibrate.cc), in seconds, on the
# reference host: 4-vCPU Intel Xeon VM (family 6, model 207), gcc
# 12.2, RelWithDebInfo. Host times are reported at this speed.
CALIBRATION_REFERENCE_S = 0.05

E2E_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "repair_mbps": "MB/s",
}
# Workload-specific end-to-end values, reported but not bounded.
EXTRA_UNITS = {
    "ops_failed_frac": "ratio",
    "sim_repair_mbps": "MB/s",
    "sim_fg_p50_ms": "ms",
    "sim_fg_p99_ms": "ms",
    "sim_fg_samples": "count",
    "codec_encode_gbps": "GB/s",
    "codec_repair_gbps": "GB/s",
}

# Registry counters summed over a workload's instances.
COUNTER_METRICS = {
    "sim.events": "sim.events_executed",
    "sim.rate_recomputes": "sim.rate_recomputes",
    "sim.recompute_flow_visits": "sim.rate_recompute_flow_visits",
    "sim.dirty_resource_visits": "sim.solver.dirty_resource_visits",
    "sim.flows_started": "sim.flows.started",
    "sim.flows_cancelled": "sim.flows.cancelled",
    "cluster.stripes_scanned": "scanner.stripes_scanned",
    "cluster.scan_epochs": "scanner.epoch",
    "cluster.queue_scan_steps": "repair.queue.scan_steps",
    "cluster.queue_memo_skips": "repair.queue.memo_skips",
    "repair.exec_chunks": "repair.exec.chunks",
    "repair.exec_slices": "repair.exec.slices",
    "repair.exec_combined_slices": "repair.exec.combined_slices",
    "repair.exec_aborts": "repair.exec.aborts",
    "repair.chameleon_dispatches": "repair.chameleon.dispatches",
    "repair.chameleon_phases": "repair.chameleon.phases",
    "repair.chameleon_retunes": "repair.chameleon.retunes",
    "repair.chameleon_reorders": "repair.chameleon.reorders",
    "repair.chameleon_checks": "repair.chameleon.checks",
    "repair.monitor_samples": "monitor.samples",
    "dag.chunks": "repair.exec.dag.chunks",
    "dag.slices": "repair.exec.dag.slices",
    "traffic.requests": "traffic.requests",
    "traffic.bytes": "traffic.bytes",
    "fault.crashes": "fault.crashes",
}

# Span modules whose summed self time is one per-layer metric.
SPAN_MODULE_METRICS = {
    "cluster.queue_api_s": ["RepairQueue::push", "RepairQueue::pop",
                            "RepairQueue::complete"],
    "repair.exec_api_s": ["RepairExecutor::launch",
                          "RepairExecutor::launchDag",
                          "RepairExecutor::abortChunksTouching"],
    "repair.plan_api_s": ["planChunk", "PlannerState::make",
                          "makeBaselinePlan",
                          "RepairBoostSelector::makePlan"],
    "dag.build_api_s": ["buildTopologyDag", "dagFromParents", "fromTree"],
    "ec.encode_api_s": ["ErasureCode::encode"],
    "ec.repair_api_s": ["ErasureCode::repairIndices+specFor",
                        "ErasureCode::repairCompute"],
    "ec.decode_api_s": ["ErasureCode::decode"],
    "ec.crc_api_s": ["checksum::crc32c"],
    "cluster.placement_s": ["StripeTable::createStripes"],
    "runtime.self_s": ["Runtime::run"],
    "sim.dispatch_self_s": ["Simulator::run"],
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_cmd(cmd, timeout, env=None, cwd=ROOT):
    """Runs cmd to completion (killed on timeout); returns (rc, out, err)."""
    try:
        p = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out after {timeout} s: {' '.join(cmd)}") from e
    return p.returncode, p.stdout, p.stderr


# ------------------------------------------------------------------ build

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no program sources under {ROOT}/src")
    if not shutil.which("cmake"):
        raise BenchError("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc, out, err = run_cmd(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], timeout=600)
        if rc:
            raise BenchError("cmake configure failed:\n" + out[-2000:] + err[-2000:])
    rc, out, err = run_cmd(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
         "perfbench-driver", "perfbench-traced", "perfbench-chameleon-sim"],
        timeout=850)
    if rc:
        raise BenchError("build failed:\n" + out[-3000:] + err[-3000:])


def binary(name):
    return os.path.join(BUILD_DIR, name)


# ----------------------------------------------------------------- inputs

def load_manifest():
    with open(os.path.join(BENCH_DIR, "workloads", "manifest.json")) as f:
        return json.load(f)


def read_input(workload):
    with open(os.path.join(BENCH_DIR, "workloads", workload["input"])) as f:
        return json.load(f)


def instance_seed(seed, i):
    return (seed % SEED_RANGE) * INSTANCE_SEED_STRIDE + i + 1


def generate_inputs(name, workload, seed):
    """Writes the generated inputs for (workload, seed); returns paths."""
    out_dir = os.path.join(BUILD_DIR, "inputs", f"{name}-s{seed}")
    os.makedirs(out_dir, exist_ok=True)
    base = read_input(workload)
    paths = []
    count = workload.get("instances", 1)
    for i in range(count):
        spec = dict(base)
        spec["seed"] = instance_seed(seed, i)
        path = os.path.join(out_dir, f"input-{i}.json")
        with open(path, "w") as f:
            json.dump(spec, f, indent=1, sort_keys=True)
        paths.append(path)
    return paths


def differential_input(name, workload, seed):
    spec = read_input(workload)
    spec.update(workload["differential"])
    spec["seed"] = instance_seed(seed, 0)
    path = os.path.join(BUILD_DIR, "inputs", f"{name}-s{seed}",
                        "differential.json")
    with open(path, "w") as f:
        json.dump(spec, f, indent=1, sort_keys=True)
    return path


# ----------------------------------------------------------------- driver

def run_driver(traced, kind, inputs, seconds, spans_out=None):
    cmd = [binary("perfbench-traced" if traced else "perfbench-driver"),
           kind, "--seconds", repr(float(seconds))]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    cmd += inputs
    rc, out, err = run_cmd(cmd, timeout=seconds + 60)
    lines = out.strip().splitlines()
    if rc not in (0, 1) or not lines:
        raise BenchError(f"driver failed (exit {rc}):\n{err[-3000:]}")
    report = json.loads(lines[-1])
    return report


def run_cmds(cmds, timeout):
    """Runs (cmd, env) pairs side by side; returns [(rc, out, err)].

    Every process is waited for; on a timeout all are killed first."""
    procs = [subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for cmd, env in cmds]
    results = []
    try:
        for p in procs:
            out, err = p.communicate(timeout=timeout)
            results.append((p.returncode, out, err))
    except subprocess.TimeoutExpired as e:
        for p in procs:
            p.kill()
        for p in procs:
            p.communicate()
        raise BenchError(f"timed out after {timeout} s: {' '.join(e.cmd)}") from e
    return results


def cross_checks(name, workload, seed, report, checks):
    """The first input's row and values must equal chameleon-sim's (the
    other inputs run the same code path on other seeds), and a shortened
    run must be identical under the reference solver. The three
    processes run side by side after the measured run, so they time
    nothing."""
    inst = report["instances"][0]
    metrics_path = inst["input"] + ".cli-metrics.json"
    path = differential_input(name, workload, seed)
    env = dict(os.environ)
    env.pop("CHAMELEON_SIM_REFERENCE_SOLVER", None)
    reference_env = dict(env, CHAMELEON_SIM_REFERENCE_SOLVER="1")
    once = [binary("perfbench-driver"), "once", path]
    cli_run, inc_run, ref_run = run_cmds(
        [([binary("perfbench-chameleon-sim"), "--scenario", inst["input"],
           "--metrics-out", metrics_path], env),
         (once, env), (once, reference_env)], timeout=60)

    rc, out, err = cli_run
    if rc:
        checks.append(("cli_row_equal", False,
                       f"chameleon-sim exit {rc}: {err[-500:]}"))
    else:
        rows = [l for l in out.splitlines() if " repair " in l]
        ok = len(rows) == 1 and rows[0].rstrip() == inst["row"].rstrip()
        checks.append(("cli_row_equal", ok,
                       "" if ok else f"{rows!r} vs {inst['row']!r}"))
        with open(metrics_path) as f:
            cli = json.load(f)
        res = inst["result"]
        base = "experiment." + res["algorithm"] + "."
        mismatched = []
        for leaf in ("repair_mbps", "repair_time_s", "chunks", "p99_ms",
                     "mean_ms", "phases", "retunes", "reorders",
                     "unrecoverable", "crash_replans", "faults_injected"):
            # The CLI writes gauges with %.9g; compare at that precision.
            if float(cli.get(base + leaf, "nan")) != float("%.9g" % res[leaf]):
                mismatched.append(leaf)
        checks.append(("cli_values_equal", not mismatched,
                       ", ".join(mismatched)))

    outputs = []
    for rc, out, err in (inc_run, ref_run):
        if rc:
            raise BenchError(f"differential run failed (exit {rc}): {err[-1000:]}")
        outputs.append(json.loads(out.strip().splitlines()[-1]))
    inc, ref = outputs
    ok = inc["row"] == ref["row"] and inc["result"] == ref["result"]
    checks.append(("reference_solver_identical", ok,
                   "" if ok else f"{inc} vs {ref}"))


def merge_checks(report, checks):
    for c in report.get("checks", []):
        checks.append((c["name"], c["ok"], c["detail"]))


def dedupe_checks(checks):
    """One (name, ok, detail) per name; a failure anywhere wins."""
    merged = {}
    for name, ok, detail in checks:
        if name not in merged or (merged[name][0] and not ok):
            merged[name] = (ok, detail)
    return [(n, ok, d) for n, (ok, d) in merged.items()]


# ---------------------------------------------------------------- metrics

def sim_repair_mbps(report):
    """Aggregate simulated repair throughput: total bytes / total time."""
    num = den = 0.0
    for inst in report["instances"]:
        r = inst["result"]
        num += r["repair_mbps"] * r["repair_time_s"]
        den += r["repair_time_s"]
    return num / den if den else 0.0


def segment_floor(rounds):
    """Sum over segments of the segment's fastest round.

    Each input is cut into segments that do identical work every
    round, and the driver moves to another CPU every round. On a
    shared host the same work runs up to about 1.5x slower from one
    moment to the next, so the fastest instance of each short segment
    measures the program better than any whole round (README.md, "How
    a run measures").
    """
    return sum(min(column) for column in zip(*rounds))


def host_scale(report):
    """Reference host speed ÷ the speed the host had during this run.

    The driver times a fixed calibration kernel (calibrate.cc) at the
    start of every round; its per-chunk floor, against the floor it
    has on the reference host, says how much slower the host ran than
    the reference. Multiplying a host time by this factor states it at
    reference speed, so a loaded period that slows the whole run is
    taken out (README.md, "How a run measures").
    """
    return CALIBRATION_REFERENCE_S / segment_floor(report["calibration_s"])


def raw_host_times(kind, report):
    """(run_s, setup_s) of one pass over the inputs, as measured."""
    if kind == "codec":
        return segment_floor(report["segments_s"]), min(report["setup_s"])
    run_s = setup_s = 0.0
    for inst in report["instances"]:
        rounds = inst["segments_s"]
        setup_s += min(r[0] for r in rounds)
        run_s += segment_floor([r[1:] for r in rounds])
    return run_s, setup_s


def host_times(kind, report):
    """(run_s, setup_s) of one pass over the inputs, at reference speed."""
    scale = host_scale(report)
    return tuple(t * scale for t in raw_host_times(kind, report))


def e2e_metrics(kind, report):
    run_s, setup_s = host_times(kind, report)
    m = {
        "run_s": run_s,
        "setup_s": setup_s,
        "peak_rss_mib": report["peak_rss_mib"],
    }
    if kind == "sim":
        m["repair_mbps"] = sim_repair_mbps(report)
    else:
        m["repair_mbps"] = codec_rates(report)[1] * 1e3
    return m


def codec_rates(report):
    """(encode GB/s, rebuild GB/s) from the per-call floors, at
    reference speed."""
    scale = host_scale(report)
    encode_s = segment_floor(report["encode_ops_s"]) * scale
    rebuild_s = (segment_floor(report["repair_ops_s"]) +
                 segment_floor(report["decode_ops_s"])) * scale
    return (report["bytes_encoded"] / encode_s / 1e9,
            report["bytes_rebuilt"] / rebuild_s / 1e9)


def workload_extras(kind, report):
    """Workload-specific end-to-end values (report only)."""
    attempted = report["attempted"]
    extras = {"ops_failed_frac": (report["failed"] / attempted
                                  if attempted else 0.0)}
    if kind == "sim":
        insts = report["instances"]
        extras["sim_repair_mbps"] = sim_repair_mbps(report)
        extras["sim_fg_p50_ms"] = statistics.fmean(
            i["result"]["p50_ms"] for i in insts)
        extras["sim_fg_p99_ms"] = statistics.fmean(
            i["result"]["p99_ms"] for i in insts)
        extras["sim_fg_samples"] = sum(
            i["result"]["latency_count"] for i in insts)
    else:
        extras["codec_encode_gbps"], extras["codec_repair_gbps"] = (
            codec_rates(report))
    return extras


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def per_layer_metrics(kind, untraced, traced):
    rounds = traced["rounds"]
    spans = traced["spans"]
    traced_scale = host_scale(traced)

    def span_self(names):
        return (sum(spans[n]["self_s"] for n in names) / rounds *
                traced_scale)

    def span_calls(names):
        return sum(spans[n]["calls"] for n in names) / rounds

    m = {}
    for metric, names in SPAN_MODULE_METRICS.items():
        m[metric] = (span_self(names), "s")
    flow_spans = [n for n in spans if n.startswith("FlowNetwork::")]
    m["sim.flow_api_s"] = (span_self(flow_spans), "s")
    m["sim.flow_api_calls"] = (span_calls(flow_spans), "count")

    insts = traced.get("instances", [])

    def counter(name):
        return sum(i["counters"].get(name, 0.0) for i in insts)

    for metric, name in COUNTER_METRICS.items():
        m[metric] = (counter(name), "B" if metric.endswith("bytes") else "count")
    recomputes = m["sim.rate_recomputes"][0]
    m["sim.flow_visits_per_recompute"] = (
        m["sim.recompute_flow_visits"][0] / recomputes if recomputes else 0.0,
        "ratio")
    untraced_run_s = host_times(kind, untraced)[0]
    m["sim.events_per_s"] = (m["sim.events"][0] / untraced_run_s, "1/s")
    scanned = m["cluster.stripes_scanned"][0]
    m["cluster.scan_yield"] = (
        counter("scanner.chunks_enqueued") / scanned if scanned else 0.0,
        "ratio")
    pops = span_calls(["RepairQueue::pop"])
    m["cluster.queue_admit_frac"] = (
        counter("repair.queue.admitted") / pops if pops else 0.0, "ratio")
    m["cluster.bytes_per_stripe"] = (
        statistics.fmean(i["bytes_per_stripe"] for i in insts)
        if insts else 0.0, "B")
    m["repair.replans"] = (
        sum(i["result"]["crash_replans"] for i in insts), "count")
    launches = span_calls(["RepairExecutor::launch",
                           "RepairExecutor::launchDag"])
    repaired = sum(i["result"]["chunks"] for i in insts)
    m["repair.launch_success_frac"] = (
        repaired / launches if launches else 0.0, "ratio")

    def hist_mean(name):
        vals = [i["counters"][name] for i in insts
                if i["counters"].get(name.replace(".mean", ".count"), 0)]
        return statistics.fmean(vals) if vals else 0.0

    m["dag.pipeline_depth_mean"] = (
        hist_mean("repair.exec.dag.pipeline_depth.mean"), "count")
    m["dag.occupancy_mean"] = (hist_mean("repair.exec.dag.occupancy.mean"),
                               "ratio")
    m["fault.injected"] = (
        sum(i["result"]["faults_injected"] for i in insts), "count")

    codec = kind == "codec"
    # Single-chunk repair latency: each call's fastest untraced round.
    scale = host_scale(untraced)
    repair_us = sorted(min(c) * 1e6 * scale for c in
                       zip(*untraced["repair_ops_s"])) if codec else []
    m["ec.repair_p50_us"] = (percentile(repair_us, 0.50), "us")
    m["ec.repair_p99_us"] = (percentile(repair_us, 0.99), "us")
    m["ec.repair_samples"] = (len(repair_us), "count")
    m["ec.helper_bytes_per_repaired_byte"] = (
        traced["helper_bytes_per_repaired_byte"] if codec else 0.0, "ratio")
    gf = traced.get("counters", {}) if codec else {}
    for leaf in ("muladd_multi", "muladd", "mul"):
        m["gf.bytes_" + leaf] = (gf.get("gf.bytes." + leaf, 0.0), "B")
    m["telemetry.trace_overhead_frac"] = (
        host_times(kind, traced)[0] / untraced_run_s - 1.0, "ratio")

    extras = workload_extras(kind, untraced)
    for key in ("sim_fg_p50_ms", "sim_fg_p99_ms"):
        m[key] = (extras.get(key, 0.0), "ms")
    m["sim_fg_samples"] = (extras.get("sim_fg_samples", 0), "count")
    for key in ("codec_encode_gbps", "codec_repair_gbps"):
        m[key] = (extras.get(key, 0.0), "GB/s")
    m["ops_failed_frac"] = (extras["ops_failed_frac"], "ratio")
    return m


# ------------------------------------------------------------- provenance

def provenance(report, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown"
    if shutil.which("git"):
        # Look for a repository at the checkout root only, never above.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        rc, out, _ = run_cmd(["git", "rev-parse", "--short=12", "HEAD"],
                             timeout=10, env=env)
        if rc == 0:
            rev = out.strip()
    p = report.get("provenance", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": p.get("compiler", "unknown"),
        "build_type": BUILD_TYPE,
        "git_revision": rev,
        "gf_kernel": p.get("gf_kernel", "unknown"),
        "ec_kernel": p.get("ec_kernel", "unknown"),
        "seed": seed,
    }


# ------------------------------------------------------------------- main

def run_workload(name, manifest, seed, seconds, trace):
    workload = manifest["workloads"][name]
    kind = workload["kind"]
    inputs = generate_inputs(name, workload, seed)

    checks = []
    # A traced run splits the budget between its two drivers.
    budget = seconds / 2 if trace else seconds
    untraced = run_driver(False, kind, inputs, budget)
    merge_checks(untraced, checks)
    traced = None
    if trace:
        spans_out = os.path.join(BUILD_DIR, "traces",
                                 f"{name}-s{seed}.spans.tsv")
        os.makedirs(os.path.dirname(spans_out), exist_ok=True)
        traced = run_driver(True, kind, inputs, budget, spans_out)
        merge_checks(traced, checks)
        if traced.get("instances") and untraced.get("instances"):
            same = all(a["result"] == b["result"] and a["counters"] == b["counters"]
                       for a, b in zip(untraced["instances"], traced["instances"]))
            checks.append(("traced_counters_equal", same, ""))
    if kind == "sim":
        cross_checks(name, workload, seed, untraced, checks)

    checks = dedupe_checks(checks)
    correct = all(ok for _, ok, _ in checks)
    prov = provenance(untraced, seed)
    e2e = e2e_metrics(kind, untraced)
    extras = workload_extras(kind, untraced)

    print(f"perfbench {name} (seed {seed}, {untraced['rounds']} rounds of "
          f"{len(inputs)} input{'s' if len(inputs) > 1 else ''}, "
          f"{seconds} s budget)")
    print("  provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    for key, val in e2e.items():
        print(f"  {key:<28} {val:14.6g} {E2E_UNITS[key]}")
    for key, val in extras.items():
        print(f"  {key:<28} {val:14.6g} {EXTRA_UNITS[key]}")
    raw_run_s, raw_setup_s = raw_host_times(kind, untraced)
    print(f"  {'host_scale':<28} {host_scale(untraced):14.6g} "
          f"(measured run_s {raw_run_s:.6g} s, setup_s {raw_setup_s:.6g} s)")
    for cname, ok, detail in checks:
        print(f"  check {cname:<26} {'ok' if ok else 'FAILED ' + detail}")

    if trace:
        layer = per_layer_metrics(kind, untraced, traced)
        for key, (val, unit) in sorted(layer.items()):
            print(f"  {key:<36} {val:14.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    result = {
        "correct": correct,
        "attempted": int(untraced["attempted"]),
        "failed": int(untraced["failed"]) + sum(1 for _, ok, _ in checks if not ok),
        "metrics": metrics,
    }
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "provenance": prov, "result": result,
              "checks": checks, "untraced": untraced, "traced": traced,
              "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir,
                           f"{name}-s{seed}-t{int(trace)}.json"), "w") as f:
        json.dump(record, f, indent=1)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        manifest = load_manifest()
        names = (list(manifest["workloads"]) if args.workload == "all"
                 else [args.workload])
        for n in names:
            if n not in manifest["workloads"]:
                raise BenchError(f"unknown workload {n!r}; choose from "
                                 f"{', '.join(manifest['workloads'])} or all")
        seed = manifest["default_seed"] if args.seed is None else args.seed
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        build()
        results = {n: run_workload(n, manifest, seed, args.seconds,
                                   bool(args.trace)) for n in names}
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"workloads": results}
    print(json.dumps(result, sort_keys=True))
    ok = all(r["correct"] for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
