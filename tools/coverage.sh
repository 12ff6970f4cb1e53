#!/usr/bin/env bash
# Line coverage of src/: which lines does nothing run?
#
# Configures a --coverage -O0 build in its own directory, runs ctest, the
# CI bench-smoke commands, every example and README's dynprof_cli commands,
# then merges gcov's line counts per src/ file across every translation
# unit (a header's inline code counts as reached if any unit ran it) and
# prints each unreached line as file:line.  Two kinds of line do not
# count: DT_ASSERT and DT_PANIC statements and the panic handler itself
# (the arms a correct program never takes), and lines holding only a
# closing brace (lcov's "brace" filter: gcov charges a function's
# exception-unwind and after-noreturn epilogue blocks to its closing
# brace, so such a line reads 0 inside a function that ran).
#
# Usage, from anywhere:
#
#     tools/coverage.sh
#
# Builds in build-coverage/ at the repository root, writes
# build-coverage/coverage/report.txt (per-file counts plus every unreached
# line) and exits non-zero when more than 1% of the executable lines in
# src/ are unreached, or when any command it runs fails.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/build-coverage
out=$build/coverage
jobs=$(nproc)
gate_percent=1.0

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" > /dev/null
cmake --build "$build" -j "$jobs"

# Start from zero counts, so a rerun reports this run only.
find "$build" -name '*.gcda' -delete
rm -rf "$out"
mkdir -p "$out"

ctest --test-dir "$build" -j "$jobs" --output-on-failure

run() {
  echo "+ $*"
  "$@" > "$out/last.log" 2>&1 || { cat "$out/last.log"; exit 1; }
}
cli=$build/examples/dynprof_cli
bench=$build/bench

# CI's bench-smoke commands, from the repository root: multi_job finds its
# replayed job under examples/replay/ relative to the working directory.
cd "$root"
run "$bench/fig8b_confsync_stats" --reps 2
run "$bench/multi_job" --ranks 16 --scale 0.15 --json "$out/multijob.json"
run "$bench/fig7a_smg98" --scale 0.05 --max-cpus 4096
run "$bench/fig9_instrument_time" --scale 0.05 --max-cpus 4096
run "$bench/control_adaptive" --reps 2 --scale 0.15 --json "$out/control.json" --decisions
run "$bench/micro_sim_engine" --json "$out/sim.json"
run "$bench/micro_fault_overhead" --json "$out/fault.json"
run "$bench/micro_telemetry_overhead" --json "$out/telemetry.json" \
  --spans-json "$out/spans.json"
run "$bench/service_sessions" --sessions 1000 --json "$out/service.json"
run "$bench/micro_trace_v2" --reps 3 --json "$out/trace.json"

# Every example at its defaults.
for example in quickstart policy_compare hybrid_profiling adaptive_control dynamic_control; do
  run "$build/examples/$example"
done

# README's dynprof_cli commands.
cat > "$out/gray.plan" <<'PLAN'
seed 11
kill-daemon    node=2 at=126s
flap-daemon    node=5 period=300s downtime=150s from=128s
degrade-daemon node=6 factor=200 from=128s
PLAN
printf 'insert-file subset\nstart\nquit\n' > "$out/subset.dyn"
printf 'insert-file subset\nstart\nwait 5\ninsert-file subset\nquit\n' > "$out/gray.dyn"
run "$cli" smg98 --cpus 16 --script "$out/subset.dyn" --timefile "$out/t.txt" --timeline
run "$cli" smg98 --cpus 64 --scale 0.15 --script "$out/gray.dyn" --fault-plan "$out/gray.plan"
run "$cli" examples/replay/pingpong.trace --policy none
run "$cli" examples/replay/ring.trace --script "$out/subset.dyn"
run "$cli" smg98 --cpus 8 --script "$out/subset.dyn" \
  --telemetry=counters --telemetry-stats "$out/stats.json"
run "$cli" report "$out/stats.json"

# One gcov call per object directory (gcov run outside the build tree
# needs an absolute -o), JSON to stdout; the merge keeps src/ files only.
find "$build" -name '*.gcda' -printf '%h\n' | sort -u | while read -r dir; do
  (cd "$out" && gcov --json-format --stdout -o "$dir" "$dir"/*.gcda 2> /dev/null)
done > "$out/gcov.jsonl"

python3 - "$root" "$out" "$gate_percent" <<'PY'
import json, os, re, sys

root, out, gate = sys.argv[1], sys.argv[2], float(sys.argv[3])
src = os.path.join(root, "src") + os.sep

# (file, line) -> reached in any translation unit
lines = {}
with open(os.path.join(out, "gcov.jsonl")) as f:
    for record in f:
        record = record.strip()
        if not record:
            continue
        for entry in json.loads(record)["files"]:
            path = os.path.realpath(os.path.join(root, entry["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, root)
            for line in entry["lines"]:
                key = (rel, line["line_number"])
                lines[key] = lines.get(key, False) or line["count"] > 0


def excluded_lines(rel):
    """Brace-only lines, DT_ASSERT/DT_PANIC statements, the panic handler."""
    text = open(os.path.join(root, rel)).read().splitlines()
    skip = {n for n, line in enumerate(text, start=1) if line.strip() in ("}", "};")}
    depth = None  # paren depth inside an excluded statement
    in_panic_fn = False
    for number, line in enumerate(text, start=1):
        if re.search(r"\bvoid panic_impl\(", line):
            in_panic_fn = True
        if in_panic_fn:
            skip.add(number)
            if line.startswith("}"):
                in_panic_fn = False
            continue
        if depth is None and re.search(r"\bDT_(ASSERT|PANIC)\(", line):
            depth = 0
            line = line[re.search(r"\bDT_(ASSERT|PANIC)\(", line).start():]
        if depth is not None:
            skip.add(number)
            depth += line.count("(") - line.count(")")
            if depth <= 0 and ";" in line:
                depth = None
    return skip


files = sorted({rel for rel, _ in lines})
total = missed = 0
report = []
unreached = []
for rel in files:
    skip = excluded_lines(rel)
    mine = sorted((n, hit) for (r, n), hit in lines.items() if r == rel and n not in skip)
    file_missed = [n for n, hit in mine if not hit]
    total += len(mine)
    missed += len(file_missed)
    report.append(f"{rel}: {len(mine) - len(file_missed)}/{len(mine)} lines reached")
    unreached += [f"{rel}:{n}" for n in file_missed]

share = 100.0 * missed / total if total else 0.0
summary = (f"src: {missed} of {total} executable lines unreached ({share:.2f}%), "
           f"gate {gate:.1f}%")
with open(os.path.join(out, "report.txt"), "w") as f:
    f.write("\n".join(report + [""] + unreached + ["", summary]) + "\n")
print("\n".join(unreached))
print(summary)
sys.exit(1 if share > gate else 0)
PY
