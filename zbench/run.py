#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 zbench/run.py --wire-rate EV_PER_S --workload NAME --seed N \
        --seconds S --trace 0|1

Builds the zbench driver from this checkout's sources into .bench_build/
(the first run configures CMake and compiles the library), runs it on the
named workload, and turns its raw report into the metrics BENCHMARK.json
names. The last line of standard output is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric (--trace 0) or every per_layer metric
(--trace 1); the line before it is a report with the host stamp, sample
counts and the error rate. `attempted` counts events offered and `failed`
the events dropped, rejected or lost in a failed ingest call.

Exit codes: 0 success; 1 a match set differed from the reference (the
result is printed with "correct": false); 2 build or usage error; 3 the
open-loop sender ran too far behind schedule for its latency to count;
4 the ledger did not reconcile with the wall time; 5 the driver failed.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "zbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "results")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print("zbench: " + msg, file=sys.stderr, flush=True)


def fail(code, msg):
    log(msg)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Build and host stamp
# ---------------------------------------------------------------------------

def run_build_step(cmd):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, check=False)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-6000:])
        fail(2, "build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "no ZStream source tree next to %s: nothing to benchmark" % HERE)
    if shutil.which("cmake") is None:
        fail(2, "cmake is not installed")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    run_build_step(["cmake", "--build", BUILD_DIR, "--target", "zbench",
                    "-j", str(jobs)])
    return os.path.join(BUILD_DIR, "zbench")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler():
    for path in glob.glob(os.path.join(BUILD_DIR, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        fields = {}
        with open(path) as f:
            for m in re.finditer(r'set\((CMAKE_CXX_COMPILER_(?:ID|VERSION)) "([^"]*)"\)',
                                 f.read()):
                fields[m.group(1)] = m.group(2)
        if fields:
            return "%s %s" % (fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                              fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    return "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds: identifies the code
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "cmake", "zbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def host_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler(),
        "commit": commit,
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# Reading the raw report
# ---------------------------------------------------------------------------

def series(doc, family, **labels):
    """Series of a registry family (the RenderJson layout) whose labels
    include `labels`."""
    fam = doc.get(family) or {}
    return [s for s in fam.get("series", [])
            if all(s["labels"].get(k) == v for k, v in labels.items())]


def total(doc, family, **labels):
    return sum(s.get("value", 0) for s in series(doc, family, **labels))


EXPLAIN_NODE = re.compile(
    r"^\s*(?P<label>\S.*?) in=(?P<inp>\d+) out=(?P<out>\d+)"
    r"(?: pairs=(?P<pairs>\d+))? buf=\d+"
    r"(?: time=(?P<time>[\d.]+)(?P<unit>s|ms|us))?$")
TIME_MS = {"s": 1e3, "ms": 1.0, "us": 1e-3}


def explain_counts(text):
    """Totals from EXPLAIN ANALYZE node rows (exec/node_profile.h)."""
    nodes = [m for m in map(EXPLAIN_NODE.match, text.splitlines()) if m]
    if not nodes:
        fail(5, "EXPLAIN ANALYZE has no node rows:\n" + text)
    leaves = [m for m in nodes if m["label"].startswith("LEAF")]
    operators = [m for m in nodes if not m["label"].startswith("LEAF")]
    pairs = sum(int(m["pairs"] or 0) for m in nodes)
    leaf_in = sum(int(m["inp"]) for m in leaves)
    return {
        "pairs_tried": pairs,
        "match_yield": int(nodes[0]["out"]) / pairs if pairs else 0.0,
        "assembly_ms": sum(float(m["time"]) * TIME_MS[m["unit"]]
                           for m in operators if m["time"]),
        "leaf_admit_ratio": (sum(int(m["out"]) for m in leaves) / leaf_in
                             if leaf_in else 0.0),
    }


def span(raw, name, field):
    entry = raw["ledger"]["by_name"].get(name)
    return entry[field] if entry else 0.0


def end_to_end(raw):
    untraced = [p["eps"] for p in raw["passes"] if not p["traced"]]
    peak = statistics.median(
        total(p["metrics"]["runtime"], "zstream_query_peak_bytes",
              query=raw["query"]) for p in raw["passes"])
    return {
        "throughput_eps": (statistics.median(untraced), "events/s"),
        "latency_p50_ms": (raw["latency"]["p50_ms"], "ms"),
        "latency_p99_ms": (raw["latency"]["p99_ms"], "ms"),
        "peak_state_mb": (peak / 1e6, "MB"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
    }


def per_layer(raw):
    layers = raw["layers"]
    explain = explain_counts(layers["explain_analyze"])
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p for p in raw["passes"] if not p["traced"]]
    untraced_eps = statistics.median(p["eps"] for p in untraced)
    traced_eps = statistics.median(p["eps"] for p in traced)
    first = traced[0]
    process_after = first["metrics"]["process"]
    process_before = first["process_before"]
    depth = [total(doc["runtime"], "zstream_shard_queue_depth")
             for doc in raw["scrapes"]]
    # The runtime's own latency histogram, from the passes that gave
    # latency_*: the open loop on the wire, untraced passes in-process.
    ol = raw.get("open_loop")
    docs = ol["metrics"] if ol else [p["metrics"] for p in untraced]
    reported = [s for doc in docs
                for s in series(doc["runtime"],
                                "zstream_detection_latency_seconds",
                                query=raw["query"])]
    exec_ns = layers["exec_ns_per_event"]

    def replan(family):
        return total(process_after, family) - total(process_before, family)

    return {
        "query.create_query_ms": (span(raw, "query.create_query", "p50_us") / 1e3, "ms"),
        "opt.build_plan_ms": (span(raw, "opt.build_plan", "p50_us") / 1e3, "ms"),
        "verify.verify_plan_ms": (span(raw, "verify.verify_plan", "p50_us") / 1e3, "ms"),
        "opt.plan_cost": (layers["plan_cost"], "cost"),
        "opt.replan_evaluations": (replan("zstream_replan_evaluations_total"), "count"),
        "opt.plan_switches": (replan("zstream_replan_switches_total"), "count"),
        "exec.ns_per_event": (exec_ns, "ns"),
        "exec.pairs_tried": (explain["pairs_tried"], "count"),
        "exec.match_yield": (explain["match_yield"], "ratio"),
        "exec.assembly_ms": (explain["assembly_ms"], "ms"),
        "exec.leaf_admit_ratio": (explain["leaf_admit_ratio"], "ratio"),
        "runtime.ingest_call_us_p50": (span(raw, "runtime.ingest_batch", "p50_us"), "us"),
        "runtime.ingest_call_us_p99": (span(raw, "runtime.ingest_batch", "p99_us"), "us"),
        "runtime.flush_ms": (span(raw, "runtime.flush", "p50_us") / 1e3, "ms"),
        "runtime.overhead_ratio": (untraced_eps / (1e9 / exec_ns), "ratio"),
        "runtime.queue_depth_max": (max(depth, default=0), "count"),
        "runtime.dropped": (sum(total(p["metrics"]["runtime"],
                                      "zstream_shard_events_dropped_total")
                                for p in raw["passes"]), "count"),
        "runtime.reported_latency_p50_ms": (
            statistics.median(s["p50"] for s in reported) * 1e3, "ms"),
        "runtime.reported_latency_p99_ms": (
            statistics.median(s["p99"] for s in reported) * 1e3, "ms"),
        "net.ingest_rtt_us_p50": (span(raw, "net.ingest", "p50_us"), "us"),
        "net.ingest_rtt_us_p99": (span(raw, "net.ingest", "p99_us"), "us"),
        "net.encode_ns_per_event": (layers["encode_ns_per_event"], "ns"),
        "net.decode_ns_per_event": (layers["decode_ns_per_event"], "ns"),
        "net.bytes_per_event": (layers["bytes_per_event"], "bytes"),
        "net.flush_ms": (span(raw, "net.flush", "p50_us") / 1e3, "ms"),
        "workload.send_lag_p99_ms": (ol["own_lag_p99_ms"] if ol else 0.0, "ms"),
        "workload.pooled_latency_p99_ms": (raw["latency"]["pooled_p99_ms"], "ms"),
        "obs.trace_overhead_ratio": (traced_eps / untraced_eps, "ratio"),
        "obs.trace_coverage_ratio": (raw["ledger"]["coverage"], "ratio"),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--wire-rate", type=float, required=True,
                   metavar="EV_PER_S",
                   help="fixed offered rate of the wire workload's open-loop "
                        "phase")
    return p.parse_args()


def main():
    args = parse_args()
    try:
        with open(SPEC_PATH) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read %s: %s" % (SPEC_PATH, e))
    # The driver rejects an unknown workload name (exit 2). It also knows
    # weblog_keys, which BENCHMARK.json leaves out (see README.md).
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(
        ROOT, ".bench_build", "traces",
        "%s-seed%d.trace.json" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--rate", str(args.wire_rate),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-file", trace_path]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(5, "driver exceeded %d s" % RUN_TIMEOUT_S)
    if r.returncode not in (0, 1) or not r.stdout.strip():
        fail(2 if r.returncode == 2 else 5,
             "driver exited with code %d" % r.returncode)
    raw = json.loads(r.stdout.strip().splitlines()[-1])
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    with open(stem + ".raw.json", "w") as f:
        json.dump(raw, f)

    # Lateness the sender caused itself (not the system blocking ingest)
    # must stay small against the latency it would otherwise inflate.
    ol = raw.get("open_loop")
    if ol:
        lag_limit = bounds["latency_p99_ms"] * raw["latency"]["p99_ms"]
        if ol["own_lag_p99_ms"] > lag_limit:
            fail(3, "open-loop phase invalid: the sender itself ran %.3f ms "
                 "behind schedule at p99 (median window), more than %.3f ms "
                 "(the latency_p99_ms bound times the measured p99), so its "
                 "latency would be the client's, not the server's"
                 % (ol["own_lag_p99_ms"], lag_limit))
    if args.trace:
        coverage = raw["ledger"]["coverage"]
        if abs(1.0 - coverage) > bounds["throughput_eps"]:
            fail(4, "ledger does not reconcile: layer spans cover %.4f of "
                 "the traced passes' wall time (bound %.2f)"
                 % (coverage, bounds["throughput_eps"]))
        metrics = per_layer(raw)
    else:
        metrics = end_to_end(raw)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_stamp(),
        "events_per_pass": raw["events"],
        "closed_loop_passes": len(raw["passes"]),
        "latency": {"phase": "open loop" if ol else "closed loop",
                    "samples": raw["latency"]["samples"],
                    "windows": raw["latency"]["windows"],
                    "pooled_p99_ms": raw["latency"]["pooled_p99_ms"]},
        "setup_samples": len(raw["setup_s"]),
        "reference_matches": raw["reference_matches"],
        "error_rate": raw["failed"] / raw["attempted"],
    }
    if ol:
        report["open_loop"] = {"rate_eps": ol["rate"], "passes": ol["passes"],
                               "duration_s": ol["duration_s"],
                               "behind_schedule_p99_ms": ol["lag_p99_ms"],
                               "sender_own_lag_p99_ms": ol["own_lag_p99_ms"]}
    if args.trace:
        report["ledger_self_ms_by_layer"] = raw["ledger"]["self_ms_by_layer"]
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
    result = {
        "correct": bool(raw["correct"]),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w") as f:
        json.dump({"report": report, "result": result}, f, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
