#!/usr/bin/env bash
# CI pipeline smoke: a two-stage `|>` query replayed through the real
# binary must register every stage, fire both stage 1 and the correlated
# stage 2, and — checkpointed mid-run, killed, resumed — reproduce exactly
# the alert suffix of the uninterrupted run. Complements the in-repo
# differential proptest (tests/pipeline_differential.rs) by exercising the
# CLI end to end: stage splitting, wiring, cadence checkpoints stamped
# with adapter positions, and `--resume` rewiring.
#
# Usage: scripts/pipeline_smoke.sh  (SAQL_BIN overrides the binary path)
set -euo pipefail

BIN=${SAQL_BIN:-target/release/saql}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

alerts() { grep '^\[ALERT ' "$1" > "$2" || true; }

fail() { echo "pipeline smoke FAILED: $*" >&2; exit 1; }

# Tiered detection over the simulator's vocabulary: stage 1 summarizes
# write bursts per host in 10-minute windows; stage 2 fires when three or
# more distinct hosts burst inside 30 minutes.
cat > "$TMP/tiered.saql" <<'EOF'
proc p write ip i as evt #time(10 min)
state ss { writes := count() } group by evt.agentid
alert ss[0].writes >= 20
return evt.agentid as host, ss[0].writes as amount
|>
from #time(30 min)
state es { hosts := distinct_count(_in.agentid) }
alert es[0].hosts >= 3
return es[0].hosts as hosts
EOF

echo "== simulate a store"
"$BIN" simulate --out "$TMP/trace.d" --minutes 90 --clients 10 --seed 11

echo "== uninterrupted checkpointed pipeline run"
"$BIN" replay --store "$TMP/trace.d" --query "$TMP/tiered.saql" \
    --checkpoint-dir "$TMP/ckpt-full" --checkpoint-every 2000 > "$TMP/full.raw"
grep -q "2 queries" "$TMP/full.raw" \
    || fail "the |> source did not register as two stages"
alerts "$TMP/full.raw" "$TMP/full.alerts"
grep -q '^\[ALERT tiered\.s1 ' "$TMP/full.alerts" || fail "stage 1 never fired"
grep -q '^\[ALERT tiered ' "$TMP/full.alerts" \
    || fail "stage 2 never fired on the correlated burst"
[ -f "$TMP/ckpt-full/checkpoint.saqlckp" ] || fail "no checkpoint written"

echo "== resume from the final cadence checkpoint (rewires both stages)"
"$BIN" replay --store "$TMP/trace.d" \
    --checkpoint-dir "$TMP/ckpt-full" --resume > "$TMP/resumed.raw"
grep -q "resuming 2 queries" "$TMP/resumed.raw" \
    || fail "resume did not restore both pipeline stages"
alerts "$TMP/resumed.raw" "$TMP/resumed.alerts"
n=$(wc -l < "$TMP/resumed.alerts")
if [ "$n" -gt 0 ]; then
    tail -n "$n" "$TMP/full.alerts" | diff -u - "$TMP/resumed.alerts" \
        || fail "resumed alerts are not the uninterrupted run's suffix"
fi

echo "== kill a checkpointed pipeline replay mid-run, then resume"
"$BIN" replay --store "$TMP/trace.d" --query "$TMP/tiered.saql" \
    --checkpoint-dir "$TMP/ckpt-kill" --checkpoint-every 500 > "$TMP/killed.raw" &
pid=$!
sleep 0.06
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

echo "pipeline smoke OK"
