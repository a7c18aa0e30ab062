#!/usr/bin/env python3
"""Repository benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. Builds the library and the benchmark
binary from source into .bench_build/ (CMake, Release), then runs one
workload and passes its output through: the last line of stdout is the
result object. Exits non-zero without a result when the tree cannot be
built or the run fails.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense_fixed", "spe_elastic", "serve_mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def source_id():
    """git sha when the tree is a checkout, else a digest of the sources."""
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "none (source sha1 %s)" % digest.hexdigest()[:12]


def build(out):
    """Configures once and builds perfbench and sea_serve; returns paths."""
    tmp = os.path.join(out, "tmp")  # compiler temporaries stay in the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(out, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            r = subprocess.run(cmd, stdout=subprocess.DEVNULL, env=env)
            if r.returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                sys.exit("perfbench: cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        r = subprocess.run(["cmake", "--build", out, "--target", "perfbench", "sea_serve",
                            "-j", jobs], stdout=subprocess.DEVNULL, env=env)
        if r.returncode != 0:
            sys.exit("perfbench: build failed")
    return (os.path.join(out, "perfbench"), os.path.join(out, "sea", "tools", "sea_serve"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources next to the benchmark (expected ../src)")
    out = build_dir()
    perfbench, sea_serve = build(out)
    env = dict(os.environ, PERFBENCH_GIT_SHA=source_id())
    cmd = [perfbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out, "--sea-serve", sea_serve]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.exit("perfbench: the benchmark exited %d" % r.returncode)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
