#!/bin/sh
# serve-smoke: build predtop-serve + predtop-replay, train a throwaway tiny
# model, bring the daemon up on an ephemeral port, answer one query through
# predtop-replay -smoke, read the query back from /metrics, check that
# predtop-train -load predicts what /predict answers, that a second stage of
# the same class is a memo hit with the same answer, answer a short
# 8-client replay, shut down cleanly, and check that the daemon's -metrics
# file holds access records and no second per-request record. Any failure —
# build, train, startup, query, a wrong counter, two predictions that
# differ, a wrong record, or a daemon that does not exit 0 on SIGTERM —
# fails the script, which is wired into `make ci` via the serve-smoke target.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
SERVE_PID=""

cleanup() {
    status=$?
    if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill -TERM "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
    exit $status
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building"
$GO build -o "$WORK/predtop-serve" ./cmd/predtop-serve
$GO build -o "$WORK/predtop-replay" ./cmd/predtop-replay
$GO build -o "$WORK/predtop-train" ./cmd/predtop-train

echo "serve-smoke: training a throwaway model"
mkdir -p "$WORK/models"
"$WORK/predtop-train" -bench GPT-3 -layers 4 -samples 10 -epochs 2 \
    -o "$WORK/models/smoke.predtop" -quiet

echo "serve-smoke: starting the daemon"
# Generous explicit objectives: the SLO machinery (tracker, /statusz, breach
# wiring) runs for real, but a slow CI box can never trip a breach and flake
# the gate. The incident dir proves the breach path stays quiet: it must be
# empty at shutdown. The sampled access records go to the -metrics file,
# where the record check at the end reads them.
"$WORK/predtop-serve" -models "$WORK/models" -listen 127.0.0.1:0 \
    -addrfile "$WORK/serve.addr" -quiet \
    -slo-p99 30s -slo-err 0.9 -incidents "$WORK/incidents" \
    -metrics "$WORK/serve.jsonl" &
SERVE_PID=$!

# Wait for the address file (the daemon writes it once it is serving).
i=0
while [ ! -s "$WORK/serve.addr" ]; do
    i=$((i+1))
    if [ $i -gt 100 ]; then
        echo "serve-smoke: daemon never wrote its address file" >&2
        exit 1
    fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "serve-smoke: daemon exited before serving" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$WORK/serve.addr")

echo "serve-smoke: querying http://$ADDR"
# -smoke fails on an unanswered query OR a daemon in SLO breach, and prints
# the scraped SLO verdict; require the verdict to actually be there. (No
# pipe into tee: plain sh would take the pipeline status from tee and mask a
# replay failure.)
"$WORK/predtop-replay" -smoke -url "http://$ADDR" -layers 4 > "$WORK/smoke.out"
cat "$WORK/smoke.out"
grep -q "slo ok" "$WORK/smoke.out" || {
    echo "serve-smoke: replay printed no SLO verdict" >&2
    exit 1
}

echo "serve-smoke: checking /metrics"
# One query so far: one memo miss, nobody left waiting for a forward slot.
curl -sf "http://$ADDR/metrics" > "$WORK/metrics.txt"
for want in "predtop_serve_queue_depth 0" "predtop_serve_cache_misses_total 1"; do
    grep -qx "$want" "$WORK/metrics.txt" || {
        echo "serve-smoke: /metrics lacks \"$want\"" >&2
        exit 1
    }
done

echo "serve-smoke: checking predtop-train -load against /predict"
# The two load-and-predict paths must give the same number, compared here at
# the tool's printed precision (µs). cmd/predtop-serve's TestServeLifecycle
# holds /predict's latency_s bit-equal to the tool's -load path.
"$WORK/predtop-train" -load "$WORK/models/smoke.predtop" -layers 4 -stage 1:3 \
    -quiet > "$WORK/p.out"
TOOL_MS=$(sed -n 's/.*: predicted \([0-9.]*\)ms$/\1/p' "$WORK/p.out")
predict() {
    curl -sf -X POST -H 'Content-Type: application/json' \
        -d "{\"bench\":\"GPT-3\",\"layers\":4,\"lo\":$1,\"hi\":$2}" "http://$ADDR/predict"
}
latency_ms() { sed -n 's/.*"latency_ms":\([^,}]*\).*/\1/p'; }
cache_hits() {
    curl -sf "http://$ADDR/metrics" | sed -n 's/^predtop_serve_cache_hits_total //p'
}
SERVE_RAW=$(predict 1 3 | latency_ms)
SERVE_MS=""
[ -z "$SERVE_RAW" ] || SERVE_MS=$(printf '%.3f' "$SERVE_RAW")
if [ -z "$TOOL_MS" ] || [ "$TOOL_MS" != "$SERVE_MS" ]; then
    echo "serve-smoke: predtop-train -load predicted \"$TOOL_MS\" ms, /predict answered \"$SERVE_MS\" ms" >&2
    exit 1
fi
echo "serve-smoke: both predict $TOOL_MS ms"

echo "serve-smoke: checking that [2,4) shares [1,3)'s memo entry"
# Both stages are two decoder layers, one stage class: the memo answers the
# second from the first's entry, with the same number, and counts a hit.
HITS0=$(cache_hits)
predict 2 4 > "$WORK/p24.json"
HITS1=$(cache_hits)
grep -q '"cached":true' "$WORK/p24.json" || {
    echo "serve-smoke: [2,4) was not a memo hit: $(cat "$WORK/p24.json")" >&2
    exit 1
}
if [ "$(latency_ms < "$WORK/p24.json")" != "$SERVE_RAW" ]; then
    echo "serve-smoke: [2,4) answered $(latency_ms < "$WORK/p24.json") ms, [1,3) $SERVE_RAW ms" >&2
    exit 1
fi
if [ -z "$HITS0" ] || [ "$HITS1" != $((HITS0 + 1)) ]; then
    echo "serve-smoke: predtop_serve_cache_hits_total went from \"$HITS0\" to \"$HITS1\", want one more" >&2
    exit 1
fi

echo "serve-smoke: replaying 200 queries from 8 clients"
# predtop-replay exits nonzero when any query failed.
"$WORK/predtop-replay" -url "http://$ADDR" -layers 4 -n 200 -c 8 -quiet

echo "serve-smoke: checking /statusz"
if ! curl -sf "http://$ADDR/statusz" | grep -q "state: ok"; then
    echo "serve-smoke: /statusz missing or not ok" >&2
    exit 1
fi

if [ -d "$WORK/incidents" ] && [ -n "$(ls -A "$WORK/incidents" 2>/dev/null)" ]; then
    echo "serve-smoke: unexpected incident bundle(s) under generous objectives" >&2
    exit 1
fi

echo "serve-smoke: shutting down"
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "serve-smoke: daemon exited nonzero on SIGTERM" >&2
    SERVE_PID=""
    exit 1
fi
SERVE_PID=""

echo "serve-smoke: checking the daemon's JSONL records"
# One record per request: the sampled access line. The unsampled "predict"
# event that used to sit beside it must not come back.
grep -q '"event":"access"' "$WORK/serve.jsonl" || {
    echo "serve-smoke: -metrics file has no access record" >&2
    exit 1
}
if grep -q '"event":"predict"' "$WORK/serve.jsonl"; then
    echo "serve-smoke: -metrics file holds a second per-request record (\"event\":\"predict\")" >&2
    exit 1
fi
echo "serve-smoke: ok"
