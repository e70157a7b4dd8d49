#!/usr/bin/env python3
"""Builds and runs the paper-operation benchmark.

Run from the root of a checkout:

    python3 paperbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

The first run configures and compiles the fgad library and the benchmark
binary (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR/paperbench, or
.bench_build/paperbench when that variable is unset; later runs reuse the
build. Every other argument goes to the binary unchanged (see README.md).
The binary's last stdout line is the JSON result.

    python3 paperbench/run.py --write-spec   regenerates BENCHMARK.json
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "paperbench")


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    """Configures (once) and builds; returns the binary path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log)
        if rc != 0:
            return None, log
    jobs = str(max(1, os.cpu_count() or 1))
    rc = run_logged(["cmake", "--build", out, "--target", "paperbench",
                     "-j", jobs], log)
    if rc != 0:
        return None, log
    return os.path.join(out, "paperbench"), log


def main(argv):
    binary, log = build()
    if binary is None:
        sys.stderr.write("paperbench: build failed; see %s\n" % log)
        try:
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-20:]))
        except OSError:
            pass
        return 1
    if argv[:1] == ["--write-spec"]:
        spec = subprocess.run([binary, "--spec"], capture_output=True,
                              text=True, check=True).stdout
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(spec)
        return 0
    state = os.path.join(build_dir(), "state")
    return subprocess.run([binary, *argv, "--state-dir", state]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
