#!/usr/bin/env python3
"""Build the llmp benchmark program in Release and run one workload.

    python3 perfbench/run.py --workload lib-64k --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory, as do the engine's spill files
and, with --trace 1, the span file traces/<workload>-seed<N>.csv. Build
output goes to stderr; the program's last stdout line is the result object.
"""
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("lib-64k", "serve-gen-64k")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    wanted = {"--workload": None, "--seed": None, "--seconds": None,
              "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in wanted:
            fail(f"unknown argument {flag!r}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        wanted[flag] = value
    if wanted["--workload"] not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    for flag in ("--seed", "--seconds"):
        if wanted[flag] is None or not wanted[flag].isdigit():
            fail(f"{flag} needs a whole number")
    if wanted["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return wanted


def source_digest(root):
    """sha256 over the program and benchmark sources, for the run record."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={source}\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "llmp_perfbench")


def main():
    args = parse_args(sys.argv[1:])
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "llmp.h")):
        fail("run from the repository root: src/llmp.h not found")
    out_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    binary = build(root, os.path.join(out_root, "perfbench"))
    traces = os.path.join(out_root, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary,
           "--workload", args["--workload"], "--seed", args["--seed"],
           "--seconds", args["--seconds"], "--trace", args["--trace"],
           "--spill-dir", os.path.join(out_root, "spill"),
           "--commit", git_commit(root),
           "--source-digest", source_digest(root)]
    if args["--trace"] == "1":
        cmd += ["--trace-out", os.path.join(
            traces, f"{args['--workload']}-seed{args['--seed']}.csv")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
