#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
builds the irhint library and the benchmark binary from source (Release,
into $CARGO_TARGET_DIR or .bench_build/), runs one workload and passes its
output through; the last line of stdout is the JSON result.

Repeat mode:
    python3 perfbench/run.py --repeat 10 --seed 1 [--workload <name> ...]
runs each workload (all four by default) once per seed seed, seed+1, ...
and prints, for each end-to-end metric, the median, the quartiles and their
spread (q3 - q1) / median against the bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["rare_lookup", "wide_scan", "ranked_topk", "durable_ingest"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    tag = "%s-%d-%d-%d" % (workload, seed, trace, os.getpid())
    out_dir = os.path.join(build_dir(), "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "work-" + tag),
           "--report", os.path.join(out_dir, tag + ".json")]
    if trace:
        cmd += ["--spans", os.path.join(out_dir, tag + ".spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def repeat(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or WORKLOADS
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in workloads:
        values = {}
        shares = set()
        for i in range(args.repeat):
            code, stdout = run_once(binary, workload, args.seed + i, seconds, 0)
            result = last_json(stdout)
            if code != 0 or result is None or not result["correct"]:
                log("%s seed %d: run failed (exit %d)" %
                    (workload, args.seed + i, code))
                ok = False
                continue
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        ratios = sorted({f / a for f, a in shares})
        print("%s: %d runs, failed share %s" %
              (workload, args.repeat, ", ".join("%.6f" % r for r in ratios)))
        if len(ratios) > 1:
            ok = False
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = "ok" if bound is None or name == "setup_s" or \
                spread <= bound else "OVER"
            if verdict != "ok":
                ok = False
            print("  %-22s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f"
                  "  bound %s  %s" %
                  (name, med, q1, q3, spread, bound, verdict))
        sys.stdout.flush()
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed:", error)
        return 2
    if args.repeat > 0:
        return repeat(binary, args)
    if not args.workload or len(args.workload) != 1 or not args.seconds:
        log("a single run needs --workload <name> and --seconds <s>")
        return 2
    code, stdout = run_once(binary, args.workload[0], args.seed, args.seconds,
                            args.trace)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
