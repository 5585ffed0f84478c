#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload scale_1024 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src and
the staging harness in ../bench/common) into .bench_build/perfbench, or
into $CARGO_TARGET_DIR/perfbench when that is set; later calls rebuild only
what changed.  Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result.  The exit code is the benchmark's: 0 only when
every correctness check passed.  perfbench/README.md explains the metrics.
"""

import hashlib
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers under make included) and waits for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or str(REPO / ".bench_build")
    return pathlib.Path(base).resolve() / "perfbench"


def build(out):
    if not (out / "CMakeCache.txt").exists():
        rc = run(["cmake", "-S", str(HERE), "-B", str(out),
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            return rc
    jobs = str(min(os.cpu_count() or 1, 4))
    return run(["cmake", "--build", str(out), "-j", jobs],
               BUILD_TIMEOUT_S, stdout=sys.stderr)


def source_id():
    """The git commit when there is one, else a digest of the sources the
    benchmark compiles."""
    try:
        git = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and \
                pathlib.Path(lines[0]).resolve() == REPO:
            return "git-" + lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench/common", "perfbench"):
        for path in sorted((REPO / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(REPO)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main(argv):
    missing = [p for p in ("src/CMakeLists.txt", "bench/common/harness.cpp")
               if not (REPO / p).is_file()]
    if missing:
        print("perfbench: library sources missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    out = build_dir()
    rc = build(out)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc
    if argv == ["--self-test"]:
        return run([str(out / "perfbench_selftest")], RUN_TIMEOUT_S)
    sys.stdout.flush()
    return run([str(out / "perfbench"), *argv, "--out", str(out / "out"),
                "--source", source_id()], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
