#!/usr/bin/env bash
# Coverage of src/ in two views: what do the product drivers run, and what
# does nothing run at all?
#
# Configures a --coverage -O0 build in its own directory and runs the
# product drivers first: every bench at its defaults plus CI's bench-smoke
# cells, every example, and README's dynprof_cli commands.  It snapshots
# gcov's counts, then runs ctest and snapshots again.  Each snapshot merges
# gcov's line and function records per src/ file across every translation
# unit (a header's inline code counts as reached if any unit ran it).  Both
# views share one denominator: the lines and functions of the second
# snapshot, so a header function only a test instantiates counts as
# unreached by the product.
#
# Two kinds of line do not count: DT_ASSERT and DT_PANIC statements and the
# panic handler itself (the arms a correct program never takes), and lines
# holding only a closing brace (lcov's "brace" filter: gcov charges a
# function's exception-unwind and after-noreturn epilogue blocks to its
# closing brace, so such a line reads 0 inside a function that ran).
#
# gcc 12's gcov records no lines inside a coroutine body, only the ramp
# function's first and last line, so a coroutine nothing runs hides from
# the line counts.  The function records do see it (the ramp has an entry
# count), which is why the script also lists every src function never
# entered.
#
# Usage, from anywhere:
#
#     tools/coverage.sh
#
# Builds in build-coverage/ at the repository root and writes, under
# build-coverage/coverage/:
#   report.txt              per-file counts in both views, every line
#                           nothing reaches, and the summary
#   product-only.txt        lines only tests reach, grouped by function
#   functions-product.txt   src functions the product drivers never enter
#   functions-all.txt       src functions nothing enters
# Exits non-zero when any command it runs fails, or when a gate fails:
#   - more than 1% of src's executable lines are unreached by everything;
#   - the share unreached by the product drivers is above the committed
#     value below;
#   - the product drivers leave more functions unentered than committed;
#   - a function nothing enters is not on the committed list below.
# The committed values only ever fall: lower them when a change lets them.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/build-coverage
out=$build/coverage
jobs=$(nproc)
gate_percent=1.0
# Measured 1,031 of 6,222-6,225 lines (16.56-16.57%) and 176 functions; 18.90% and 224
# functions before the deletions that set them.
product_gate_percent=16.58
product_functions_gate=176
# Functions nothing enters, as "file name" (functions-all.txt without the
# line number): coroutine machinery a correct run never takes.
allowed_unentered=$(cat <<'LIST'
src/sim/coro.hpp dyntrace::sim::detail::PromiseBase::FinalAwaiter::await_resume() const
src/sim/engine.cpp dyntrace::sim::Engine::RootDriver::promise_type::unhandled_exception()
LIST
)

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" > /dev/null
cmake --build "$build" -j "$jobs"

# Start from zero counts, so a rerun reports this run only.
find "$build" -name '*.gcda' -delete
rm -rf "$out"
mkdir -p "$out"

run() {
  echo "+ $*"
  "$@" > "$out/last.log" 2>&1 || { cat "$out/last.log"; exit 1; }
}
cli=$build/examples/dynprof_cli
bench=$build/bench

# One gcov call per object directory (gcov run outside the build tree
# needs an absolute -o), JSON to stdout; the merge keeps src/ files only.
snapshot() {
  find "$build" -name '*.gcda' -printf '%h\n' | sort -u | while read -r dir; do
    (cd "$out" && gcov --json-format --stdout -o "$dir" "$dir"/*.gcda 2> /dev/null)
  done > "$1"
}

# Every bench at its defaults, from the repository root: multi_job finds
# its replayed job under examples/replay/ relative to the working directory.
cd "$root"
for name in ablation_confsync_algo ablation_filter_cost ablation_sync_protocol \
    ablation_trampoline control_adaptive fig4_timeline fig7a_smg98 fig7b_sppm \
    fig7c_sweep3d fig7d_umt98 fig8a_confsync_ibm fig8b_confsync_stats \
    fig8c_confsync_ia32 fig9_instrument_time micro_fault_overhead micro_sim_engine \
    micro_telemetry_overhead micro_trace_v2 multi_job service_sessions \
    table1_commands table2_apps table3_policies; do
  run "$bench/$name"
done
run "$bench/micro_benchmarks" --benchmark_min_time=0.01

# CI's bench-smoke cells.
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

snapshot "$out/gcov-product.jsonl"

ctest --test-dir "$build" -j "$jobs" --output-on-failure

snapshot "$out/gcov-all.jsonl"

printf '%s\n' "$allowed_unentered" > "$out/allowed-unentered.txt"
python3 - "$root" "$out" "$gate_percent" "$product_gate_percent" \
  "$product_functions_gate" <<'PY'
import json, os, re, sys

root, out = sys.argv[1], sys.argv[2]
gate, product_gate = float(sys.argv[3]), float(sys.argv[4])
product_functions_gate = int(sys.argv[5])
src = os.path.join(root, "src") + os.sep


def load(name):
    """(file, line) -> reached, and (file, start_line, start_column) ->
    [entered, name, end_line], merged over every translation unit and
    template instantiation."""
    lines, functions = {}, {}
    with open(os.path.join(out, name)) as f:
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
                for fn in entry["functions"]:
                    key = (rel, fn["start_line"], fn["start_column"])
                    slot = functions.setdefault(
                        key, [False, fn["demangled_name"], fn["end_line"]])
                    slot[0] = slot[0] or fn["execution_count"] > 0
    return lines, functions


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


product_lines, product_functions = load("gcov-product.jsonl")
all_lines, all_functions = load("gcov-all.jsonl")

files = sorted({rel for rel, _ in all_lines})
skips = {rel: excluded_lines(rel) for rel in files}
total = missed = product_missed = 0
report, unreached, test_only = [], [], []
for rel in files:
    mine = sorted((n, hit) for (r, n), hit in all_lines.items()
                  if r == rel and n not in skips[rel])
    file_missed = [n for n, hit in mine if not hit]
    file_product_missed = [n for n, _ in mine if not product_lines.get((rel, n), False)]
    total += len(mine)
    missed += len(file_missed)
    product_missed += len(file_product_missed)
    report.append(f"{rel}: {len(mine) - len(file_missed)}/{len(mine)} lines reached, "
                  f"{len(mine) - len(file_product_missed)} by the product")
    unreached += [f"{rel}:{n}" for n in file_missed]
    test_only += [(rel, n) for n, hit in mine
                  if hit and not product_lines.get((rel, n), False)]


def unentered(functions):
    return sorted((rel, line, name) for (rel, line, _), (entered, name, _) in functions.items()
                  if not entered and line not in skips.get(rel, ()))


all_unentered = unentered(all_functions)
product_unentered = unentered(
    {key: [product_functions.get(key, [False])[0], name, end]
     for key, (_, name, end) in all_functions.items()})


def innermost(rel, line):
    """The function whose source range most tightly holds a line."""
    best = None
    for (r, start, _), (_, name, end) in all_functions.items():
        if r == rel and start <= line <= end and (best is None or start >= best[0]):
            best = (start, name)
    return best


by_function = {}
for rel, n in test_only:
    start, name = innermost(rel, n) or (0, "(no function)")
    by_function.setdefault((rel, start, name), []).append(n)
with open(os.path.join(out, "product-only.txt"), "w") as f:
    for (rel, start, name), numbers in sorted(by_function.items()):
        f.write(f"{rel}:{start} {name}: {len(numbers)} line(s) only tests reach "
                f"({', '.join(map(str, numbers))})\n")
for name, listing in (("functions-product.txt", product_unentered),
                      ("functions-all.txt", all_unentered)):
    with open(os.path.join(out, name), "w") as f:
        f.writelines(f"{rel}:{line} {fn}\n" for rel, line, fn in listing)

allowed = {line.strip() for line in open(os.path.join(out, "allowed-unentered.txt"))
           if line.strip()}
unlisted = [f"{rel}:{line} {fn}" for rel, line, fn in all_unentered
            if f"{rel} {fn}" not in allowed]

share = 100.0 * missed / total if total else 0.0
product_share = 100.0 * product_missed / total if total else 0.0
summary = [
    f"src: {missed} of {total} executable lines unreached ({share:.2f}%), gate {gate:.1f}%",
    f"src: {product_missed} of {total} executable lines unreached by the product drivers "
    f"({product_share:.2f}%), gate {product_gate:.2f}%",
    f"src: {len(product_unentered)} functions the product drivers never enter "
    f"(functions-product.txt), gate {product_functions_gate}",
    f"src: {len(all_unentered)} functions nothing enters (functions-all.txt), "
    f"{len(unlisted)} not on the committed list",
]
with open(os.path.join(out, "report.txt"), "w") as f:
    f.write("\n".join(report + [""] + unreached + [""] + summary) + "\n")
print("\n".join(unreached))
if unlisted:
    print("functions nothing enters that the committed list does not name:")
    print("\n".join("  " + entry for entry in unlisted))
print("\n".join(summary))
failed = (share > gate or product_share > product_gate
          or len(product_unentered) > product_functions_gate or unlisted)
sys.exit(1 if failed else 0)
PY
