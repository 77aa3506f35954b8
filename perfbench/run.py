#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-oneshot --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from ../src) into $CARGO_TARGET_DIR, default .bench_build, in an optimized
build.  Every run then executes the benchmark with ambient
AALWINES_SOLVER_THREADS and AALWINES_BENCH_* overrides removed and relays
its report.  The binary's last line holds every metric it computed;
BENCHMARK.json, the one list of metric names and units, decides which of
them make the result: every end_to_end metric with --trace 0 (a missing one
is an error), every per_layer metric with --trace 1 (0 where the workload
never enters the layer).

    python3 perfbench/run.py --make-expected paper|default

regenerates one reference verdict table in perfbench/expected/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are not next to perfbench/; run from a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench-release")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def clean_environment():
    return {
        key: value
        for key, value in os.environ.items()
        if key != "AALWINES_SOLVER_THREADS" and not key.startswith("AALWINES_BENCH_")
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-expected", choices=("paper", "default"))
    args = parser.parse_args()
    if not args.make_expected and not args.workload:
        parser.error("--workload is required")

    spec = load_spec()
    binary = build()
    env = clean_environment()
    if args.make_expected:
        out = os.path.join(HERE, "expected", f"{args.make_expected}.tsv")
        sys.exit(subprocess.run([binary, "--make-expected", args.make_expected, out],
                                env=env).returncode)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--data-dir", HERE]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"{args.workload} exited with code {done.returncode} and no result")
    computed = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    for name, value in computed["metrics"].items():
        print(f"# {name:<26} {value:16.6f} {units.get(name, '')}")
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name = metric["name"]
        if name not in computed["metrics"] and not args.trace:
            fail(f"{args.workload} measured no {name}")
        metrics[name] = {"value": computed["metrics"].get(name, 0), "unit": metric["unit"]}
    result = {key: computed[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
