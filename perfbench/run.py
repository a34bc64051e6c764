#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload node-faasmem --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own that builds the simulator's packages
from the checkout's source. Everything the build and the run write goes under
.bench_build/ in the current directory: the Go build cache, the binary, and
the span and profile files of traced runs. The last line of standard output
is the JSON result; the human-readable report goes to standard error.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    module = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(module, "..", "go.mod")):
        print("perfbench: the simulator's source (../go.mod) is not beside the benchmark",
              file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "bin", "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=module, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        return built.returncode
    try:
        ran = subprocess.run([binary, *sys.argv[1:], "--out", os.path.join(build, "out")],
                             env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run: {err}", file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
