#!/usr/bin/env python3
"""Build the perfbench Go program from this checkout and run it.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Go build cache, module cache and binary live in .bench_build at the
root of the checkout, so the benchmark reads and writes only inside it.
The program's standard output, whose last line is the JSON result, is
passed through unchanged.
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
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        HOME=os.path.join(BUILD, "home"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=go_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
