#!/usr/bin/env python3
"""Build and run dcluster's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cluster-disk-1k --seed 1 --seconds 20 --trace 0

The script builds the Go program in perfbench/ into .bench_build/ (with the
Go build cache, module cache, temporary build files and Go's own config kept
there too, so nothing is written outside the tree), then runs it with the
given arguments. The program's standard output passes through unchanged;
its last line is the JSON result. Build diagnostics go to standard error,
and a failed build exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=src, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    child = subprocess.Popen([binary] + sys.argv[1:], cwd=root)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
