#!/usr/bin/env bash
# CI bench smoke: run every table bench in quick mode, then gate the
# emitted BENCH_*.json reports against the committed baseline.
#
# The benches run with tracing OFF (no Config::with_trace), so the
# table1 gate below doubles as the observability overhead check: if the
# trace-off instrumentation hooks cost anything measurable, the table1
# quick means drift past the threshold vs bench/baseline.json and this
# script fails.
#
# Usage: ci/check_bench.sh [threshold]   (default 0.25 = ±25%)
set -euo pipefail
. "$(dirname "$0")/lib.sh"

THRESHOLD="${1:-0.25}"

for table in table1 table2 table3 table5 layers; do
  section "bench $table (--quick)"
  cargo bench -p srr-bench --bench "$table" -- --quick
done

# BENCH_layers.json gates the cost ladder's scheduling rungs (us per
# visible op): a handoff that goes back to waking a parked thread every
# time costs about 4x and fails here.
cargo run --release -p srr-bench --bin check_bench -- \
  --threshold "$THRESHOLD" bench/baseline.json BENCH_table*.json BENCH_layers.json

# Produce a sample Chrome trace (uploaded as a CI artifact) and check it
# is well-formed enough to load in a viewer.
section "sample chrome trace"
srr trace barrier --tool queue --seed 3 --out trace_sample.json
grep -q '"traceEvents"' trace_sample.json
echo "trace_sample.json OK"
