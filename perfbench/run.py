#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fluid-10m --seed 42 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see perfbench/README.md).
The binary, the Go build cache and the traced run's spans are kept under
.bench_build/perfbench in the current directory, so a run reads and writes
nothing outside the checkout. A failed build exits non-zero and prints no
result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        # The Go command keeps its env file and telemetry under the user
        # config directory; keep it inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
