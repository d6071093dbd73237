#!/usr/bin/env python3
"""Build the GitCite benchmark from source and run it.

    python3 perfbench/run.py --workload cite-read --seed 1 --seconds 12 --trace 0

Run from the root of a GitCite checkout. The benchmark is a Go module of its
own (perfbench/go.mod) that builds against the checkout's sources; the build
cache, the binary and every file a run writes stay under .bench_build/ in the
checkout. Arguments are passed through to the benchmark binary; the last line
it prints is the JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no GitCite module next to the benchmark (missing ../go.mod)", file=sys.stderr)
        return 2
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    exe = os.path.join(BUILD, "perfbench")
    built = subprocess.run([go, "build", "-o", exe, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return built.returncode
    work = os.path.join(BUILD, "work")
    return subprocess.run([exe, "-workdir", work] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
