#!/usr/bin/env python3
"""The dyntrace benchmark: build the perfbench driver and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig7a_sweep --seed 42 --seconds 25 --trace 0

The first run configures and builds the driver, together with the dyntrace
libraries it links, into .bench_build/perfbench (Release).  The driver does
the measuring (see driver.cpp); this script checks its outputs, prints a
readable report, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones BENCHMARK.json lists,
with --trace 1 the per-layer ones.  Outputs are correct when every op
completed and, at the pinned seed, every healthy cell's trace digest, stats
digest and simulated seconds equal perfbench/pins.json.  The exit code is
non-zero when they are not.  metrics.json maps each per-layer metric to the
end-to-end metric it should move.

Other options:
    --size tiny     a few ranks per cell (the benchmark's own tests)
    --write-pins    record this run's healthy cells as the pins of its workload
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("fig7a_sweep", "instrument_scaleout", "trace_volume", "service_10k")
DRIVER_TIMEOUT_S = 170


def fail(message):
    """Stop without a result line."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dyntrace sources (src/) beside perfbench/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def source_digest():
    """sha256 over the sources the driver is built from (stands in for the
    commit when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    """HEAD's commit, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def check_pins(args, result, pins):
    """Failure messages for healthy cells that differ from the pins."""
    if args.size != "full" or args.seed != pins["seed"]:
        return []
    expected = pins["workloads"].get(args.workload)
    if expected is None:
        return [f"no pins for {args.workload}"]
    cells = {c["name"]: c for c in result["cells"] if c["healthy"]}
    failures = []
    for name, want in expected.items():
        got = cells.pop(name, None)
        if got is None:
            failures.append(f"{name}: pinned cell did not run")
        elif (got["trace_digest"], got["stats_digest"]) != (want["trace_digest"],
                                                          want["stats_digest"]):
            failures.append(f"{name}: digests {got['trace_digest']}/{got['stats_digest']} "
                            f"!= pinned {want['trace_digest']}/{want['stats_digest']}")
        elif abs(got["sim_s"] - want["sim_s"]) > 1e-9 * max(1.0, abs(want["sim_s"])):
            failures.append(f"{name}: {got['sim_s']} sim s != pinned {want['sim_s']}")
    failures += [f"{name}: cell has no pin" for name in sorted(cells)]
    return failures


def write_pins(args, result):
    with open(PINS) as f:
        pins = json.load(f)
    if args.seed != pins["seed"] or args.size != "full":
        fail(f"pins are taken at --seed {pins['seed']} --size full")
    pins["workloads"][args.workload] = {
        c["name"]: {k: c[k] for k in ("trace_digest", "stats_digest", "sim_s")}
        for c in result["cells"] if c["healthy"]
    }
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perfbench: pinned {len(pins['workloads'][args.workload])} cell(s) "
          f"of {args.workload}", file=sys.stderr)
    return pins


def print_report(args, result, stamp, failures):
    print(f"perfbench {args.workload}: seed {args.seed}, size {args.size}, "
          f"{result['passes']} untraced and {result['traced_passes']} traced pass(es)")
    print("  host: nproc {nproc}, {compiler}, {build_type} build, sim_threads 1".format(
        **result["env"]))
    print(f"  code: commit {stamp['commit'] or 'unknown (not a git checkout)'}, "
          f"source digest {stamp['source_digest']}")
    sections = [("end-to-end, median over warm untraced passes", result["end_to_end"]),
                ("end-to-end, this workload only", result["report"])]
    if args.trace == 1:
        sections.append(("per layer, traced passes", result["per_layer"]))
    for title, metrics in sections:
        if not metrics:
            continue
        print(f"  {title}:")
        for name, m in metrics.items():
            print(f"    {name:<26} {m['value']:>18.6f} {m['unit']:<7} {m['domain']}")
    attempted, failed = result["attempted"], result["failed"] + len(failures)
    print(f"    {'failed_frac':<26} {failed / max(attempted, 1):>18.6f} {'ratio':<7} "
          f"({failed} of {attempted} ops)")
    if result["spans"]:
        print(f"  spans: {os.path.relpath(result['spans'], ROOT)} ({result['span_count']} spans)")
    for line in result["errors"] + failures:
        print(f"  FAILED: {line}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(PINS) as f:
        pins = json.load(f)
    build()

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", OUT_DIR]
    # A full-size run makes at least three passes, whatever --seconds says,
    # and may overrun its budget by one pass.
    timeout_s = max(DRIVER_TIMEOUT_S, 3 * args.seconds + 60)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"the driver ran past {timeout_s} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"the driver exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    if args.write_pins:
        pins = write_pins(args, result)

    failures = check_pins(args, result, pins)
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    metrics = {}
    for spec in bench[kind]:
        m = result[kind].get(spec["name"])
        if m is None:
            failures.append(f"metric {spec['name']} missing")
        elif m["unit"] != spec["unit"]:
            failures.append(f"metric {spec['name']} in {m['unit']}, not {spec['unit']}")
        else:
            metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
            if kind == "end_to_end" and not m["value"] > 0:
                failures.append(f"metric {spec['name']} is {m['value']}")

    stamp = {"commit": commit(), "source_digest": source_digest()}
    print_report(args, result, stamp, failures)
    record = dict(result, stamp=stamp, pin_failures=failures, driver_exit=proc.returncode)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    attempted = max(1, result["attempted"])
    failed = min(attempted, result["failed"] + len(failures))
    correct = proc.returncode == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
