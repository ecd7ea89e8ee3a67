#!/usr/bin/env python3
"""Build and run the end-to-end GIR serving benchmark.

One run of one workload (what BENCHMARK.json's command does):

    python3 girbench/run.py --workload hot_d4 --seed 1 --seconds 10 --trace 0

Every BENCHMARK.json workload once, printing each end-to-end metric by
name and unit:

    python3 girbench/run.py --all --seconds 10

--workload also takes cold_d5 and write_mix, the closed-loop and
concurrent-write workloads that BENCHMARK.json leaves out (see README.md).

Run from the repository root. The benchmark binary is compiled from source into
$CARGO_TARGET_DIR/girbench (default .bench_build/girbench) on first use.
The last stdout line of a single run is its JSON result; the exit code
is non-zero when the build fails, an answer or durability check fails,
or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "girbench")


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns the binary path."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "--target", "girbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "girbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, spec, trace):
    """Problems with a run's JSON result against the BENCHMARK.json contract."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    section = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append("metrics %s, expected %s" % (sorted(got), sorted(want)))
    for name, m in got.items():
        if set(m) != {"value", "unit"}:
            problems.append("%s keys %s" % (name, sorted(m)))
        elif name in want and m["unit"] != want[name]:
            problems.append("%s unit %s, expected %s" % (name, m["unit"], want[name]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted %r" % result["attempted"])
    if not isinstance(result["failed"], int):
        problems.append("failed %r" % result["failed"])
    return problems


def run_once(binary, workload, seed, seconds, trace, out_dir, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    tag = "%s-%d-%d-%d" % (workload, seed, trace, os.getpid())
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace,
           "--workdir=" + os.path.join(out_dir, "work", tag)]
    if trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace_out=" + os.path.join(traces, "%s-seed%d.json" % (workload, seed)))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("girbench: %s timed out after %ds" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("girbench: no JSON result (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and print a table")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
        spec = load_spec()
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        print("girbench: build failed: %s" % e, file=sys.stderr)
        return 1
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.all:
        status = 0
        print("%-10s %-20s %16s  %s" % ("workload", "metric", "value", "unit"))
        for w in spec["workloads"]:
            code, result = run_once(binary, w["name"], args.seed, seconds, 0, out_dir,
                                    echo=False)
            if result is None or code != 0 or not result["correct"]:
                print("%-10s FAILED (exit %d)" % (w["name"], code))
                status = 1
                continue
            for name, m in result["metrics"].items():
                print("%-10s %-20s %16.4f  %s" % (w["name"], name, m["value"], m["unit"]))
        return status

    # Any workload the binary knows runs, including cold_d5 and write_mix,
    # which BENCHMARK.json leaves out (README.md says why); the binary
    # refuses an unknown name.
    if not args.workload:
        print("girbench: give --workload or --all", file=sys.stderr)
        return 2
    code, result = run_once(binary, args.workload, args.seed, seconds, args.trace, out_dir)
    if result is None:
        return code or 1
    problems = check_result(result, spec, args.trace)
    if problems:
        for p in problems:
            print("girbench: %s" % p, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
