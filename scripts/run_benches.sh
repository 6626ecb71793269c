#!/usr/bin/env bash
# Runs the figure benchmarks and merges their JSON-lines output into a
# single well-formed JSON document (default: BENCH_baseline.json at the
# repo root) — the perf trajectory that optimisation PRs are measured
# against.
#
# Usage:
#   scripts/run_benches.sh                 # Figure 8/10/12 -> BENCH_baseline.json
#   scripts/run_benches.sh --all           # every built bench_* binary
#   BENCHES="bench_fig08_selectivity" scripts/run_benches.sh
#
# Knobs (environment):
#   BUILD_DIR      CMake build tree holding bin/bench_* (default: build)
#   OUT            output JSON path (default: BENCH_baseline.json)
#   ZS_BENCH_REPS  repetitions per measurement, forwarded to the binaries
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT=${OUT:-BENCH_baseline.json}
BIN_DIR="$BUILD_DIR/bin"

if [[ "${1:-}" == "--all" ]]; then
  BENCHES=$(cd "$BIN_DIR" && ls bench_* 2>/dev/null | sort)
else
  # The figure benches that anchor the perf trajectory (paper Figures
  # 8, 10 and 12): plan-shape throughput under selectivity sweeps, rate
  # skew, and the complex Query 6 regimes — plus the
  # observability-instrumentation overhead bound. Runtime and wire
  # overhead are measured end to end by zbench (runtime.overhead_ratio,
  # the stock_rally_wire workload).
  BENCHES=${BENCHES:-"bench_fig08_selectivity bench_fig10_rates bench_fig12_complex bench_obs_overhead"}
fi

for b in $BENCHES; do
  if [[ ! -x "$BIN_DIR/$b" ]]; then
    echo "error: $BIN_DIR/$b not built (run: cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

for b in $BENCHES; do
  echo "== running $b =="
  ZS_BENCH_JSON="$scratch/$b.jsonl" "$BIN_DIR/$b"
done

shopt -s nullglob
jsonl_files=("$scratch"/*.jsonl)
if [[ ${#jsonl_files[@]} -eq 0 ]]; then
  echo "error: no JSON records emitted (benches missing RecordResult calls?)" >&2
  exit 1
fi

{
  printf '{\n'
  printf '  "schema": "zstream-bench/v1",\n'
  printf '  "generated_by": "scripts/run_benches.sh",\n'
  printf '  "generated_at": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "host": "%s",\n' "$(uname -srm)"
  # Core count makes the 1-core scaling caveat machine-readable: shard
  # sweeps recorded with host_cores=1 only measure queue overhead.
  printf '  "host_cores": %s,\n' "$(nproc 2>/dev/null || echo 1)"
  printf '  "benches": "%s",\n' "$(echo $BENCHES | tr ' ' ',')"
  printf '  "results": [\n'
  cat "${jsonl_files[@]}" |
    awk 'NR > 1 { printf(",\n") } { printf("    %s", $0) } END { printf("\n") }'
  printf '  ]\n'
  printf '}\n'
} > "$OUT"

count=$(cat "${jsonl_files[@]}" | wc -l)
echo "wrote $OUT ($count measurements from: $BENCHES)"
