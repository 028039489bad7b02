#!/usr/bin/env bash
# Bench regression gate: five perfbench runs per BENCHMARK.json workload,
# medians compared against BENCH_perfbench.json with BENCHMARK.json's
# bounds, plus the medians of five bench_kernels runs against
# BENCH_kernels.json. The comparison and its self-test live in
# tools/bench_gate.py.
#
# Usage:
#   tools/bench_gate.sh [build-dir]           # gate; build-dir for bench_kernels
#   tools/bench_gate.sh --record [build-dir]  # rewrite BENCH_perfbench.json
#
# Exits non-zero on any regression. Run on an otherwise idle machine.
set -eu
cd "$(dirname "$0")/.."
exec python3 tools/bench_gate.py "$@"
