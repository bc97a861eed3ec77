#!/usr/bin/env python3
"""Build the serving benchmark from source and run it.

Run from the repository root; every argument is passed to the benchmark:

    python3 servebench/run.py --workload call-short --seed 1 --seconds 35 --trace 0

The binary, the Go build cache and Go's temporary files all live under
.bench_build/ in the working directory, and module downloads are off, so
a run reads and writes nothing outside the checkout beyond the Go
toolchain itself. A failed build exits non-zero without a result line.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "servebench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return 1
    ran = subprocess.run([binary] + sys.argv[1:], cwd=root)
    return ran.returncode if ran.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
