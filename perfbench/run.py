#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper7 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a NanoMap source checkout. The first call configures
and builds perfbench/ (which compiles ../src) into .bench_build/perfbench
and runs the checker self-test once per new binary; later calls rebuild
only what changed. The benchmark's last stdout line is its JSON result.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper7", "defect_fabric", "serve_stream")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "a") as f:
        return subprocess.run(cmd, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT).returncode


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"{ROOT / 'src' / 'CMakeLists.txt'} not found: run from a NanoMap source checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    log.write_text("")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            sys.stderr.write(log.read_text()[-4000:])
            die("build failed", 1)
    binary = BUILD / "perfbench"
    stamp = BUILD / "self_test.ok"
    if not stamp.is_file() or stamp.stat().st_mtime < binary.stat().st_mtime:
        self_test(binary)
        stamp.write_text("ok\n")
    return binary


def self_test(binary):
    proc = subprocess.run([str(binary), "--self-test"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        die("checker self-test failed", 1)


def git_info():
    """(describe, dirty) of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown", "unknown"
        describe = git("describe", "--always", "--tags").stdout.strip() or "unknown"
        dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
        return describe, "1" if dirty else "0"
    except OSError:
        return "unknown", "unknown"


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    bench = json.loads(spec.read_text())
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.self_test:
        self_test(binary)
        return

    describe, dirty = git_info()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-describe", describe, "--git-dirty", dirty]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        die(f"benchmark exited with code {proc.returncode}", 1)

    result = json.loads(lines[-1])
    want = expected_metrics(bool(args.trace))
    if want is not None and list(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(f"metrics {list(result['metrics'])} do not match BENCHMARK.json {want}", 1)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
