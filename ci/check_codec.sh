#!/usr/bin/env bash
# CI codec smoke: lock the binary demo format down end to end.
#
#  1. Golden record→replay→diff suite: committed binary fixtures for
#     httpd + every hazard workload must replay clean and (for the
#     seed-deterministic workloads) match a fresh recording byte for
#     byte. Regenerate after an intentional format change with
#     UPDATE_GOLDEN=1 (see crates/apps/tests/demo_codec.rs).
#  2. Corruption battery: every truncation and single-bit flip of every
#     stream is a typed load error, never a panic.
#  3. Text-compat + conversion: pre-codec text fixtures still load
#     through auto-detect, and `srr demo convert` round-trips a live
#     recording text→bin→text with the store hashes unchanged.
#  4. Load-time validation: a text demo with a broken QUEUE invariant
#     makes `lint-demo` exit 2 naming QUEUE and `replay` exit 1 with the
#     typed error, before any run starts.
#  5. Exact desync diagnostics: an httpd text demo whose SYSCALL stream
#     keeps only its first 80% of records is still well-formed, and
#     `srr trace --ring 8` blames the end of the replay (`vs replayed
#     <end>`), not a tick the bounded rings forgot.
#  6. Throughput/size gate: the codec bench asserts binary loads ≥ 1.5×
#     faster than text and the deduplicating store shrinks the hazard
#     corpus ≥ 40%; the deterministic byte-count rows are then diffed
#     against bench/baseline.json.
#
# Usage: ci/check_codec.sh [threshold]   (default 0.25 = ±25%)
set -euo pipefail
. "$(dirname "$0")/lib.sh"

THRESHOLD="${1:-0.25}"

section "golden record→replay→diff suite"
cargo test -q -p srr-apps --test demo_codec

section "corruption battery + codec properties"
cargo test -q -p srr-replay --test corruption
cargo test -q -p srr-replay --test codec_properties

section "text-fixture compatibility"
cargo test -q -p srr-apps --test demo_compat

section "srr demo convert round trip"
DEMO_DIR="$(mktemp -d)"
TEXT_DIR="$(mktemp -d)"
BAD_DIR="$(mktemp -d)"
SHORT_DIR="$(mktemp -d)"
# lib.sh owns the EXIT trap for tmpfile(); extend it for the demo dirs.
trap 'rm -rf "$DEMO_DIR" "$TEXT_DIR" "$BAD_DIR" "$SHORT_DIR"; _ci_cleanup' EXIT
srr record client --tool queue --seed 5 --out "$DEMO_DIR" >/dev/null
HASHES="$(tmpfile)"
srr demo hash --demo "$DEMO_DIR" >"$HASHES"
[ -s "$HASHES" ] || fail "demo hash printed nothing"
srr demo convert --demo "$DEMO_DIR" --to text --out "$TEXT_DIR" 2>/dev/null
head -1 "$TEXT_DIR/HEADER" | grep -q 'tsan11rec-demo' ||
  fail "converted HEADER is not the text format"
srr demo convert --demo "$TEXT_DIR" --to bin 2>/dev/null
diff -u "$HASHES" <(srr demo hash --demo "$TEXT_DIR") ||
  fail "text→bin→text round trip changed the stream hashes"
srr lint-demo --demo "$TEXT_DIR" >/dev/null || fail "converted demo does not lint clean"
srr replay client --demo "$TEXT_DIR" >/dev/null || fail "converted demo does not replay"

section "invariant violations fail at load"
srr demo convert --demo "$DEMO_DIR" --to text --out "$BAD_DIR" 2>/dev/null
# One more thread whose first tick is 1: tick 1 is now claimed twice.
sed -i '/^first /s/$/ 1/' "$BAD_DIR/QUEUE"
ERR="$(tmpfile)"
OUT="$(tmpfile)"
status=0
srr lint-demo --demo "$BAD_DIR" >"$OUT" 2>"$ERR" || status=$?
[ "$status" -eq 2 ] || fail "lint-demo exited $status on a broken QUEUE (want 2)"
grep -q '^QUEUE entry [0-9]*: .*already scheduled' "$ERR" ||
  fail "lint-demo did not name the QUEUE violation: $(cat "$ERR")"
status=0
srr replay client --demo "$BAD_DIR" >"$OUT" 2>"$ERR" || status=$?
[ "$status" -eq 1 ] || fail "replay exited $status on a broken QUEUE (want 1)"
grep -q '^srr: loading demo: invalid demo: QUEUE entry ' "$ERR" ||
  fail "replay did not fail with the typed load error: $(cat "$ERR")"
[ ! -s "$OUT" ] || fail "replay started despite the invalid demo: $(cat "$OUT")"

section "short SYSCALL stream: exact desync diagnostics"
HTTPD_DIR="$SHORT_DIR/bin"
SHORT_TEXT="$SHORT_DIR/text"
srr record httpd --tool queue --seed 3 --out "$HTTPD_DIR" >/dev/null
srr demo convert --demo "$HTTPD_DIR" --to text --out "$SHORT_TEXT" 2>/dev/null
# Keep the first 80% of the SYSCALL records (each `syscall <index> ...`
# line plus its `buf` lines): still a valid demo, but replay runs out.
RECORDS="$(grep -c '^syscall ' "$SHORT_TEXT/SYSCALL")"
KEEP=$((RECORDS * 4 / 5))
awk -v keep="$KEEP" '$1 == "syscall" && $2 >= keep { exit } { print }' \
  "$SHORT_TEXT/SYSCALL" >"$SHORT_DIR/SYSCALL"
mv "$SHORT_DIR/SYSCALL" "$SHORT_TEXT/SYSCALL"
srr lint-demo --demo "$SHORT_TEXT" >/dev/null ||
  fail "a SYSCALL stream cut at a record boundary must lint clean"
TRACE_OUT="$(tmpfile)"
srr trace httpd --demo "$SHORT_TEXT" --ring 8 --out "$SHORT_DIR/trace.json" >"$TRACE_OUT"
grep -q 'syscall-underrun' "$TRACE_OUT" ||
  fail "short SYSCALL replay did not report syscall-underrun: $(tail -5 "$TRACE_OUT")"
grep -q 'vs replayed <end>' "$TRACE_OUT" ||
  fail "ring-size-dependent diagnosis: $(grep 'first schedule divergence' "$TRACE_OUT")"

section "bench codec (--quick) + baseline gate"
cargo bench -p srr-bench --bench codec -- --quick
cargo run --release -p srr-bench --bin check_bench -- \
  --threshold "$THRESHOLD" bench/baseline.json BENCH_codec.json

echo "codec smoke OK"
