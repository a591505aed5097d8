#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload serve_mix|tran_stscl|mc_yield \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test      # build and run the self-tests

Run from the root of a checkout. The benchmark and the platform
libraries it links are compiled from source into $CARGO_TARGET_DIR
(default .bench_build) on first use. Build output goes to stderr; the
last line of stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys


def build(build_dir, targets):
    here = os.path.dirname(os.path.abspath(__file__))
    # Configure until a generated build system exists (a failed
    # configure leaves a cache but no Makefile behind).
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", here, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets],
        stdout=sys.stderr, check=True)


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        if argv == ["--test"]:
            build(build_dir, ["perfbench_tests"])
            test = os.path.join(build_dir, "perfbench_tests")
            return subprocess.run(
                [test, "--root", os.getcwd(),
                 "--work-dir", os.path.join(build_dir, "work")]).returncode
        build(build_dir, ["perfbench"])
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run(
        [binary, *argv, "--root", os.getcwd(),
         "--work-dir", os.path.join(build_dir, "work")]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
