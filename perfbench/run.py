#!/usr/bin/env python3
"""Build perfbench from source, then run one workload.

Usage, from any directory:

    python3 perfbench/run.py --workload lookup-hot --seed 1 --seconds 10 --trace 0

Every argument is passed to the perfbench binary. The Go build cache,
the binary, the table files and the spans all live under .bench_build/
at the root of the checkout; nothing is written outside it. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "gotmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        # Go's telemetry counters and env file live under the user
        # config directory; keep them inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    return env


def main():
    out = os.path.join(BUILD, "perfbench")
    for d in ("gotmp", "config", "perfbench"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
