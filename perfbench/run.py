#!/usr/bin/env python3
"""Builds and runs the end-to-end server benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first call configures and compiles the
library and the load generator (Release) into $CARGO_TARGET_DIR, or
.bench_build when unset; later calls only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero, printing no result, when the library sources are
missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found under " + ROOT)
    # Keeps the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True, env=env)
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, FileNotFoundError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
