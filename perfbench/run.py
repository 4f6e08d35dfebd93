#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload tv_events --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
benchmark driver (perfbench/CMakeLists.txt, which compiles the needed
libraries from ../src) under $CARGO_TARGET_DIR or .bench_build; later
calls only re-check the build. The driver's result object is the last
line of standard output; records, spans and scratch journals go to
<build dir>/perfbench-out.
"""
import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_root):
    bdir = os.path.join(build_root, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            if rc != 0:
                if cmd[1] == "-S":
                    # A failed configure must not leave a cache that skips it next time.
                    cache = os.path.join(bdir, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                fail("build step failed (%s); see %s" % (" ".join(cmd[:2]), log_path))
    exe = os.path.join(bdir, "perfbench")
    if not os.path.exists(exe):
        fail("build produced no driver")
    return bdir, exe


def source_revision():
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # Not a git checkout: identify the sources by content instead.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def compiler(bdir):
    cxx = "c++"
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
        out = subprocess.run([cxx, "--version"], capture_output=True, text=True, timeout=10)
        return out.stdout.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.SubprocessError):
        return cxx


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["tv_events", "hub_restart"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    bdir, exe = build(build_root)
    out_dir = os.path.join(build_root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    provenance = {
        "host_cores": os.cpu_count(),
        "build_type": "Release",
        "compiler": compiler(bdir),
        "git_rev": source_revision(),
    }
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--provenance", json.dumps(provenance)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("driver timed out after %d s" % RUN_TIMEOUT_S, 3)
    finally:
        # The driver's generator shares its process group; never leave one behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode, proc.returncode if proc.returncode > 0 else 3)


if __name__ == "__main__":
    main()
