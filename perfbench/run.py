#!/usr/bin/env python3
"""Runs one workload of the xqa benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload paper_groupby --seed N --reference

The second form prints the README's reference table (the paper's
explicit-vs-XQuery 1.0 ratio with rewrites off) instead of a result.

Run from the root of a checkout. Builds the xqa library and the harness
from source (Release, into $CARGO_TARGET_DIR or .bench_build), generates
the workload's inputs from the seed, runs the harness, and passes its
output through: the last line of standard output is the result object.
The exit code is the harness's (0 when every answer matched its reference);
on a build or set-up failure it is non-zero and no result is printed.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_groupby", "collection_olap", "ingest_mixed")
HERE = os.path.dirname(os.path.abspath(__file__))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       cwd=root, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   cwd=root, check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "xqa_perfbench")


def main(argv):
    parser = argparse.ArgumentParser(description="xqa benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("run.py: no xqa sources (src/CMakeLists.txt) under", root)
        return 2
    out_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    try:
        binary = build(root, os.path.join(out_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        log("run.py: build failed:", error)
        return 2

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    data_dir = os.path.join(out_root, "data", tag)
    work_dir = os.path.join(out_root, "work", tag)
    trace_dir = os.path.join(out_root, "traces")
    try:
        os.makedirs(work_dir)
        os.makedirs(trace_dir, exist_ok=True)
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--out", data_dir], check=True, stdout=sys.stderr)
        command = [binary, "--workload", args.workload, "--data", data_dir,
                   "--work", work_dir, "--seconds", str(args.seconds or 1),
                   "--trace", str(args.trace)]
        if args.reference:
            command += ["--reference", "1"]
        elif args.seconds <= 0:
            log("run.py: --seconds must be positive")
            return 2
        if args.trace:
            command += ["--trace-out", os.path.join(
                trace_dir, "%s-seed%d.spans.tsv" % (args.workload, args.seed))]
        try:
            result = subprocess.run(command, stdout=subprocess.PIPE,
                                    timeout=args.seconds + 150)
        except subprocess.TimeoutExpired:
            log("run.py: the harness did not finish in time")
            return 3
        sys.stdout.write(result.stdout.decode("utf-8"))
        sys.stdout.flush()
        return result.returncode
    except (OSError, subprocess.CalledProcessError) as error:
        log("run.py:", error)
        return 2
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
