#!/usr/bin/env python3
"""Served-path layer ledger: build and run one workload.

Usage (from the root of a checkout):
    python3 ledger/run.py --workload <bulk-decode|random-access|ingest|all> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the ledger program (and the `ohd` library it links) with CMake into
$CARGO_TARGET_DIR/ledger, default .bench_build/ledger, then runs it.
--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1
prints every per-layer metric, checks the Chrome trace with
scripts/validate_trace.py and prints a per-layer self-time table computed
from it. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; with --workload all, one object mapping each
workload to such a result. Exits nonzero, without that line, when the build
or a run fails; exits nonzero with it when any output failed verification.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bulk-decode", "random-access", "ingest")
RUN_TIMEOUT_S = 170

# Self time per layer in the traced replay: each layer's call contains the
# call of the layer below it, for the same request.
SZ_SPANS = ("sz.parse", "sz.decode", "sz.range", "sz.quantize", "sz.encode",
            "sz.serialize")


def die(msg):
    print(f"ledger: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        die(f"{what} failed (exit {proc.returncode})")


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        die("the ohd sources are not beside the ledger directory")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "--target", "ledger", "-j", jobs],
              "cmake build")
    return os.path.join(build_dir, "ledger")


def self_time_table(trace_path):
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_req = {}
    for ev in events:
        by_req.setdefault(ev["args"]["req"], []).append(ev)
    rows = {"net": [], "service": [], "pipeline": [], "sz": [], "wire": []}
    for evs in by_req.values():
        dur = {}
        for ev in evs:
            dur[ev["name"]] = dur.get(ev["name"], 0.0) + ev["dur"] / 1e3
        if "net.wire" not in dur:
            continue
        sz = sum(dur.get(n, 0.0) for n in SZ_SPANS)
        rows["wire"].append(dur["net.wire"])
        rows["net"].append(dur["net.wire"] - dur["service.call"])
        rows["service"].append(dur["service.call"] - dur["pipeline.call"])
        rows["pipeline"].append(dur["pipeline.call"] - sz)
        rows["sz"].append(sz)
    if not rows["wire"]:
        die("trace holds no replayed request")
    wire_total = sum(rows["wire"])
    print(f"per-layer self time over {len(rows['wire'])} replayed requests "
          "(one worker, one request at a time; from the trace):")
    print(f"  {'layer':10s} {'total ms':>12s} {'share':>8s} {'p50 ms':>10s}")
    for layer in ("net", "service", "pipeline", "sz"):
        v = rows[layer]
        print(f"  {layer:10s} {sum(v):12.3f} {sum(v) / wire_total:8.1%} "
              f"{statistics.median(v):10.4f}")
    print(f"  {'wire':10s} {wire_total:12.3f} {1:8.1%} "
          f"{statistics.median(rows['wire']):10.4f}")
    print("  (a layer's self time is its call minus the call of the layer "
          "below; a negative value means its own cost is below the "
          "run-to-run noise of that call)")


def run_workload(exe, build_dir, workload, args, wanted):
    """Runs the ledger program on one workload; returns (result, correct)."""
    trace_path = os.path.join(build_dir, f"trace-{workload}-{args.seed}.json")
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        die(f"ledger printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        die(f"ledger printed no result (exit {proc.returncode})")

    correct = bool(result["correct"]) and proc.returncode == 0
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        die(f"ledger did not report {missing}")
    if args.trace:
        check = subprocess.run(
            [sys.executable, os.path.join("scripts", "validate_trace.py"),
             trace_path], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        print(check.stdout.strip())
        correct = correct and check.returncode == 0
        self_time_table(trace_path)

    return {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in wanted},
    }, correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    spec_path = "BENCHMARK.json"
    if not os.path.isfile(spec_path):
        die("run from the root of the checkout (BENCHMARK.json not found)")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "ledger")
    exe = build(build_dir)
    if args.workload != "all":
        out, correct = run_workload(exe, build_dir, args.workload, args, wanted)
    else:
        out, correct = {}, True
        for workload in WORKLOADS:
            out[workload], ok = run_workload(exe, build_dir, workload, args,
                                             wanted)
            correct = correct and ok
    print(json.dumps(out))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
