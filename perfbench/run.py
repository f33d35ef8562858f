#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench/wsbench
(CMake, Release) from the sources in the checkout into the directory
named by CARGO_TARGET_DIR (default .bench_build); later runs only
re-check the build. Seeds, offered rates, the SLO and the posting
codec come from perfbench/config.json.

setup_s is set up several times: the harness is started
SETUP_SAMPLES - 1 extra times in set-up-only mode, and the median over
those and the measured run is reported.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metrics are the end_to_end
(--trace 0) or per_layer (--trace 1) names of BENCHMARK.json. Build or
run errors exit non-zero without printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
SETUP_SAMPLES = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    """CARGO_TARGET_DIR when it lies inside the checkout, else .bench_build."""
    wanted = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if os.path.commonpath([wanted, ROOT]) != ROOT or wanted == ROOT:
        wanted = os.path.join(ROOT, ".bench_build")
    return wanted


def build(bdir):
    """Configure once, then (re)build the harness; return its path."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                    "wsbench"], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "wsbench")


def harness_args(cfg, args):
    params = dict(cfg["common"])
    params.update(cfg["workloads"][args.workload])
    params.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  default_seed=cfg["default_seed"])
    return ["--%s=%s" % (k, v) for k, v in params.items()]


def start(binary, argv, extra):
    """Run the harness once; return its stdout lines (raises on error)."""
    t0 = time.monotonic_ns()  # the harness reads the same steady clock
    proc = subprocess.run([binary] + argv + extra + ["--t0_ns=%d" % t0],
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "config.json")) as f:
        cfg = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in cfg["workloads"]:
        log("unknown workload %s" % args.workload)
        return 2

    bdir = build_dir()
    binary = build(bdir)
    argv = harness_args(cfg, args)
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        argv.append("--trace_out=%s" % os.path.join(
            bdir, "traces", "%s.seed%d.json" % (args.workload, args.seed)))
    else:
        argv.append("--trace_out=")

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            last = start(binary, argv, ["--setup_only=1"])[-1]
            setups.append(json.loads(last)["setup_s"])
    lines = start(binary, argv, ["--setup_only=0"])
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("metric %s missing or not in %s: %r" % (m["name"], m["unit"],
                                                        got))
            return 1
        metrics[m["name"]] = got
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        print("setup_s samples: %s" % ", ".join("%.4f" % s for s in setups))
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log("benchmark failed: %s" % e)
        sys.exit(1)
