#!/usr/bin/env bash
# CI recovery smoke for the durable pipeline: a segmented store with a torn
# WAL tail must open loss-free, and a checkpointed replay — including one
# killed mid-run — must resume into exactly the alert suffix the
# uninterrupted run produces, while a checkpoint cut short is refused
# (exit 2, no panic); and a store `saql serve` wrote from an
# out-of-order `--arrival` ingest must replay, checkpointed, in stored
# order — every event, the last checkpoint at the store's end.
# Complements the in-repo crash-injection proptest
# (tests/durability_crash_injection.rs) by exercising the real binary end
# to end.
#
# Usage: scripts/recovery_smoke.sh  (SAQL_BIN overrides the binary path)
set -euo pipefail

BIN=${SAQL_BIN:-target/release/saql}
TMP=$(mktemp -d)
trap 'kill ${spid:-} 2>/dev/null || true; rm -rf "$TMP"' EXIT

alerts() { grep '^\[ALERT ' "$1" > "$2" || true; }

fail() { echo "recovery smoke FAILED: $*" >&2; exit 1; }

echo "== simulate a store"
"$BIN" simulate --out "$TMP/trace.d" --minutes 30 --seed 7

echo "== tear the WAL tail mid-record"
wal="$TMP/trace.d/wal.saqlwal"
size=$(wc -c < "$wal")
truncate -s $((size - 7)) "$wal"

echo "== uninterrupted checkpointed run (recovers the torn tail on open)"
"$BIN" replay --store "$TMP/trace.d" --demo-queries \
    --checkpoint-dir "$TMP/ckpt-full" --checkpoint-every 500 > "$TMP/full.raw"
alerts "$TMP/full.raw" "$TMP/full.alerts"
[ -s "$TMP/full.alerts" ] || fail "uninterrupted run produced no alerts"
[ -f "$TMP/ckpt-full/checkpoint.saqlckp" ] || fail "no checkpoint written"

echo "== resume from the final cadence checkpoint"
"$BIN" replay --store "$TMP/trace.d" \
    --checkpoint-dir "$TMP/ckpt-full" --resume > "$TMP/resumed.raw"
grep -q "resuming" "$TMP/resumed.raw" || fail "resume did not restore the checkpoint"
alerts "$TMP/resumed.raw" "$TMP/resumed.alerts"
n=$(wc -l < "$TMP/resumed.alerts")
if [ "$n" -gt 0 ]; then
    tail -n "$n" "$TMP/full.alerts" | diff -u - "$TMP/resumed.alerts" \
        || fail "resumed alerts are not the uninterrupted run's suffix"
fi

echo "== a checkpoint cut by one byte is refused, not panicked on"
cp -r "$TMP/ckpt-full" "$TMP/ckpt-cut"
cut="$TMP/ckpt-cut/checkpoint.saqlckp"
truncate -s $(($(wc -c < "$cut") - 1)) "$cut"
status=0
"$BIN" replay --store "$TMP/trace.d" --checkpoint-dir "$TMP/ckpt-cut" --resume \
    > /dev/null 2> "$TMP/cut.err" || status=$?
[ "$status" -eq 2 ] || fail "resuming a cut checkpoint exited $status, not 2"
grep -q "corrupt checkpoint" "$TMP/cut.err" || fail "no corrupt-checkpoint error: $(cat "$TMP/cut.err")"
! grep -q "panicked" "$TMP/cut.err" || fail "resuming a cut checkpoint panicked"

echo "== kill a checkpointed replay mid-run, then resume"
"$BIN" replay --store "$TMP/trace.d" --demo-queries \
    --checkpoint-dir "$TMP/ckpt-kill" --checkpoint-every 200 > "$TMP/killed.raw" &
pid=$!
sleep 0.2
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
if [ -f "$TMP/ckpt-kill/checkpoint.saqlckp" ]; then
    "$BIN" replay --store "$TMP/trace.d" \
        --checkpoint-dir "$TMP/ckpt-kill" --resume > "$TMP/resumed2.raw"
    alerts "$TMP/resumed2.raw" "$TMP/resumed2.alerts"
    n=$(wc -l < "$TMP/resumed2.alerts")
    if [ "$n" -gt 0 ]; then
        tail -n "$n" "$TMP/full.alerts" | diff -u - "$TMP/resumed2.alerts" \
            || fail "post-kill resume diverges from the uninterrupted suffix"
    fi
    echo "   killed at a surviving checkpoint; resume matched the suffix"
else
    # The run finished (or died) before its first cadence checkpoint —
    # nothing to resume from; the uninterrupted-run checks above still
    # pinned resume exactness.
    echo "   run ended before the first checkpoint; kill variant skipped"
fi

echo "== serve an out-of-order arrival ingest, then replay its store checkpointed"
"$BIN" export --store "$TMP/trace.d" --out "$TMP/trace.jsonl" 2>/dev/null
half=$(($(wc -l < "$TMP/trace.jsonl") / 2))
# The second half first: every event of the first half arrives far behind
# the stream's high-water mark.
{ tail -n +$((half + 1)) "$TMP/trace.jsonl"; head -n "$half" "$TMP/trace.jsonl"; } \
    > "$TMP/swapped.jsonl"
"$BIN" serve --listen 127.0.0.1:0 --store "$TMP/served.d" --quiet 2> "$TMP/serve.err" &
spid=$!
addr=""
for _ in $(seq 100); do
    addr=$(sed -n 's/^\[serve\] listening on //p' "$TMP/serve.err")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || fail "serve did not start"
"$BIN" client ingest --addr "$addr" --file "$TMP/swapped.jsonl" --arrival --lossless > /dev/null
"$BIN" client ctl --addr "$addr" shutdown > /dev/null
wait "$spid"
stored=$(wc -l < "$TMP/swapped.jsonl")
"$BIN" replay --store "$TMP/served.d" --demo-queries \
    --checkpoint-dir "$TMP/ckpt-served" --checkpoint-every 1 > "$TMP/served.raw"
grep -q "^replayed $stored events" "$TMP/served.raw" \
    || fail "the checkpointed replay did not report all $stored stored events"
! grep -q "dropped late" "$TMP/served.raw" || fail "stored events were dropped as late"
grep -q "^last checkpoint at offset $stored " "$TMP/served.raw" \
    || fail "the last checkpoint is not at the store's end ($stored)"

echo "recovery smoke OK"
