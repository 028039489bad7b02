#!/usr/bin/env bash
# Single entry point for every correctness gate in the repo:
#
#   1. tier1        Release build + full ctest suite        (build/)
#   2. asan-ubsan   ASan+UBSan build + full ctest suite     (build-asan/)
#   3. tsan         TSan build + common/core/dataflow/external/
#                   grid/service/stress test subset (`ctest -L`)
#                   (build-tsan/)
#   4. clang-tidy   tools/run_clang_tidy.sh over src/       (needs build/)
#   5. lint         tools/lint_invariants.py (+ self-test)
#   6. analyzer     tools/analyzer/: libclang AST checks (purity,
#                   memory-order, discarded-status, lock-across-wait)
#                   plus the fixture self-test            (needs build/)
#   7. thread-safety  clang -Wthread-safety -Werror build of the
#                   annotated targets                     (build-tsa/)
#   8. bench-gate   tools/bench_gate.sh: five perfbench runs per workload,
#                   medians vs BENCH_perfbench.json within BENCHMARK.json's
#                   bounds, plus bench_kernels vs BENCH_kernels.json.
#                   Builds .bench_build/ and build/. Run on an idle machine.
#
# Prints a per-stage summary table and exits non-zero if any stage failed.
# Stages that cannot run in this environment (e.g. no clang-tidy binary)
# report SKIP, not PASS.
#
# Usage:
#   tools/check.sh            # everything
#   tools/check.sh tier1 lint # just the named stages
#   JOBS=8 tools/check.sh     # override parallelism (default: nproc)
set -u

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
TSAN_LABELS='^(common|core|dataflow|external|grid|service|stress)$'

ALL_STAGES=(tier1 asan-ubsan tsan clang-tidy lint analyzer thread-safety bench-gate)
if [ $# -gt 0 ]; then
  STAGES=("$@")
else
  STAGES=("${ALL_STAGES[@]}")
fi

NAMES=()
RESULTS=()
TIMES=()
FAILED=0

log="$(mktemp -d)/stage.log"

record() {  # name result seconds
  NAMES+=("$1")
  RESULTS+=("$2")
  TIMES+=("$3")
  if [ "$2" = "FAIL" ]; then
    FAILED=1
  fi
}

run_stage() {  # name: runs stage_<name>, records result, echoes the log on failure
  local name="$1" rc=0 start end
  echo "==> stage: $name"
  start=$SECONDS
  "stage_${name//-/_}" > "$log" 2>&1 || rc=$?
  end=$SECONDS
  if [ $rc -eq 0 ]; then
    if grep -q "SKIPPED" "$log"; then
      record "$name" "SKIP" "$((end - start))"
      tail -2 "$log"
    else
      record "$name" "PASS" "$((end - start))"
    fi
  else
    record "$name" "FAIL" "$((end - start))"
    cat "$log"
  fi
}

stage_tier1() {
  cmake -B build -S . &&
  cmake --build build -j "$JOBS" &&
  ctest --test-dir build -j "$JOBS" --output-on-failure
}

stage_asan_ubsan() {
  cmake -B build-asan -S . -G Ninja -DDBSCOUT_SANITIZE=address,undefined &&
  cmake --build build-asan -j "$JOBS" --target tests/all &&
  ctest --test-dir build-asan -j "$JOBS" --output-on-failure
}

stage_tsan() {
  cmake -B build-tsan -S . -G Ninja -DDBSCOUT_SANITIZE=thread &&
  cmake --build build-tsan -j "$JOBS" --target tests/all &&
  ctest --test-dir build-tsan -j "$JOBS" --output-on-failure -L "$TSAN_LABELS"
}

stage_clang_tidy() {
  # Needs the tier1 build tree for compile_commands.json; configure it if
  # this stage runs standalone.
  if [ ! -f build/compile_commands.json ]; then
    cmake -B build -S . || return $?
  fi
  tools/run_clang_tidy.sh build
}

stage_lint() {
  python3 tools/lint_invariants.py --self-test &&
  python3 tools/lint_invariants.py --root .
}

stage_analyzer() {
  # Fixture self-test first (exit 77 = SKIP: no libclang bindings), then
  # the real tree. analyze.py prints its own SKIPPED line with exit 0.
  python3 tools/analyzer/selftest.py
  local rc=$?
  if [ $rc -eq 77 ]; then
    return 0  # the SKIPPED line is already in the log
  elif [ $rc -ne 0 ]; then
    return $rc
  fi
  if [ ! -f build/compile_commands.json ]; then
    cmake -B build -S . || return $?
  fi
  python3 tools/analyzer/analyze.py --build-dir build --root .
}

stage_thread_safety() {
  # Clang-only: the thread-safety annotations in src/common/thread_annotations.h
  # compile to nothing under gcc, so this stage needs a real clang.
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "thread-safety: SKIPPED (clang++ not found)"
    return 0
  fi
  CC=clang CXX=clang++ cmake -B build-tsa -S . -DDBSCOUT_THREAD_SAFETY=ON &&
  cmake --build build-tsa -j "$JOBS" --target \
    dbscout_common dbscout_grid dbscout_core dbscout_dataflow \
    dbscout_obs dbscout_service
}

stage_bench_gate() {
  # perfbench builds .bench_build/ itself; bench_kernels comes from the
  # tier1 build tree (configured if missing).
  tools/bench_gate.sh build
}

for s in "${STAGES[@]}"; do
  case "$s" in
    tier1|asan-ubsan|tsan|clang-tidy|lint|analyzer|thread-safety|bench-gate) run_stage "$s" ;;
    *)
      echo "check.sh: unknown stage '$s' (known: ${ALL_STAGES[*]})" >&2
      exit 2
      ;;
  esac
done

echo
echo "┌───────────────┬────────┬─────────┐"
printf "│ %-13s │ %-6s │ %7s │\n" "stage" "result" "seconds"
echo "├───────────────┼────────┼─────────┤"
for i in "${!NAMES[@]}"; do
  printf "│ %-13s │ %-6s │ %7s │\n" "${NAMES[$i]}" "${RESULTS[$i]}" "${TIMES[$i]}"
done
echo "└───────────────┴────────┴─────────┘"

exit $FAILED
