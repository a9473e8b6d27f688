#!/usr/bin/env python3
"""Run one perfbench workload and print its record.

    python3 perfbench/run.py --workload book|sim|serve|fleet --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench (and
with it the ksw libraries and the kswsim CLI) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs the workload, and passes the
benchmark's output through. The last stdout line is the record:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). Build output goes to stderr. A traced run
also writes its spans to <build dir>/traces/<workload>-seed<N>.trace.jsonl,
readable with `kswsim trace summarize --in=FILE`.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170   # a run must end within 180 s
BUILD_TIMEOUT_S = 850  # the first run in a checkout builds, within 900 s
REQUIRED = ["CMakeLists.txt", "src/CMakeLists.txt", "apps/CMakeLists.txt",
            "manifests/paper.json", "docs/REPRODUCTION.md",
            "BENCHMARK.json"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a record names
    the code that produced it even where there is no git metadata."""
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "apps", "manifests", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                      stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")


def run(cmd):
    """Run the benchmark in its own process group; on timeout the whole
    group (fleet supervisor and workers included) is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    for name in REQUIRED:
        if not os.path.isfile(os.path.join(ROOT, name)):
            fail(f"missing {name}: run from a full checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)
    code, out = run([
        os.path.join(build_dir, "ksw_perfbench"),
        f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--root={ROOT}",
        f"--kswsim={os.path.join(build_dir, 'ksw', 'apps', 'kswsim')}",
        f"--out-dir={os.path.join(build_dir, 'traces')}",
        f"--git-sha={git_sha()}", f"--source-digest={source_digest()}",
    ])
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"{args.workload} exited with code {code}")
    record = json.loads(lines[-1])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(record["metrics"]) != {m["name"] for m in wanted}:
        print("\n".join(lines), file=sys.stderr)
        fail("record metrics do not match BENCHMARK.json")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
