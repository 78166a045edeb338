#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      (each workload of
                                                           BENCHMARK.json)
    python3 perfbench/run.py --selftest

Builds perfbench/ (and with it the repository's libraries, in Release)
into .bench_build/perfbench, runs the benchmark program, checks that its
result line carries exactly the metrics BENCHMARK.json declares, and
passes the program's output through. The last stdout line is the result JSON; nothing
is printed as a result when the build, the run or that check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
KNOBS = ("LIGHTNAS_FAST", "LIGHTNAS_PLAN", "LIGHTNAS_ISA")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no LightNAS sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return BUILD / target


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_result(line, trace):
    """The result line must name exactly the metrics BENCHMARK.json does."""
    spec = load_spec()
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}", 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"metrics {got} differ from BENCHMARK.json {wanted}", 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    knobs = [k for k in KNOBS if k in os.environ]
    if knobs:
        fail(f"{', '.join(knobs)} set; the benchmark measures defaults only")

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)]).returncode)
    if args.workload is None or args.seed is None:
        fail("--workload and --seed are required")

    binary = build("perfbench")
    workloads = ([w["name"] for w in load_spec()["workloads"]]
                 if args.workload == "all" else [args.workload])
    for workload in workloads:
        if len(workloads) > 1:
            print(f"== {workload}", flush=True)
        run_workload(binary, workload, args)


def run_workload(binary, workload, args):
    work = BUILD / "work" / f"{workload}-{args.seed}-{os.getpid()}"
    command = [str(binary), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", str(work),
               "--out-dir", str(BUILD / "traces"), "--commit", source_id()]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"perfbench exited with {run.returncode}", 1)
    check_result(run.stdout.rstrip("\n").split("\n")[-1], args.trace == "1")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
