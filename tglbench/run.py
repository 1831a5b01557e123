#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 tglbench/run.py --workload lp-email --seed 1 --seconds 25 --trace 0

The first call configures and builds tglbench (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. The tglbench binary then runs the workload and
prints its metrics, ending with the one-line JSON result. Each result is
also kept, with the host fingerprint, under <build dir>/results/.

    python3 tglbench/run.py compare A.json B.json

prints the per-metric ratio B/A of two kept results, and refuses when
they come from hosts with a different nproc or SIMD ISA.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "tglbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "tglbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(step, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "tglbench")


def run(args):
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as error:
        sys.exit(f"tglbench: build failed: {error}")
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", work],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    sys.stdout.write(proc.stdout)

    host = next(json.loads(line[5:]) for line in lines if line.startswith("host "))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "result": json.loads(lines[-1])}
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)


def compare(paths):
    a, b = (json.load(open(p)) for p in paths)
    for key in ("nproc", "isa"):
        if a["host"][key] != b["host"][key]:
            sys.exit(f"refusing to compare: {key} {a['host'][key]} vs "
                     f"{b['host'][key]} is a host change, not a code change")
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        if name in mb and ma[name]["value"]:
            ratio = mb[name]["value"] / ma[name]["value"]
            print(f"{name:32s} {ma[name]['value']:14.6g} -> "
                  f"{mb[name]['value']:14.6g} {ma[name]['unit']:6s} x{ratio:.3f}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare A.json B.json")
        compare(sys.argv[2:])
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lp-email", "nc-brain", "serve-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
