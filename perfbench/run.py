#!/usr/bin/env python3
"""Build and run the engine benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
simulator's libraries plus the benchmark program (perfbench/CMakeLists.txt)
into .bench_build/perfbench; later runs only rebuild what changed.  Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result object.  Any other option (--smoke, --expect FILE, --record FILE) is
passed through to the program; by default results are checked against
perfbench/expected/results.json.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "engine_bench")
EXPECT = os.path.join("perfbench", "expected", "results.json")


def build():
    """Configure (once) and build; exit non-zero without a result on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def commit():
    """The commit when run from a git checkout, else "none"."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def src_digest():
    """SHA-256 over the simulator's source tree: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: no simulator sources at %s/src\n" % ROOT)
        return 1
    build()
    args = list(argv)
    if "--expect" not in args:
        args += ["--expect", EXPECT]
    args += ["--commit", commit(), "--src-digest", src_digest()]
    proc = subprocess.run([BINARY] + args, cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
