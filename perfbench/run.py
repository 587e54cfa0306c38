#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload tables|sweep|scale --seed N --seconds S --trace 0|1

The Go build cache, the binary and the sweep scratch directories go under
$CARGO_TARGET_DIR (default .bench_build) inside the checkout; the go
command is kept off the network and out of the home directory. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        # go env and telemetry files live under the user config directory.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        TMPDIR=tmp,
        PERFBENCH_WORK=os.path.join(build, "perfbench"),
    )
    exe = os.path.join(build, "perfbench-bin")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", exe, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
