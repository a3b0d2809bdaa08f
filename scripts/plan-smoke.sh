#!/bin/sh
# plan-smoke: build predtop-plan, run the quick-preset GPT-3 planner with
# provenance reports and a what-if replay, then prove the observability
# contract end to end: the what-if diff prints, a written report carries the
# search and cost facts in their one home (its search and cost blocks; the
# -metrics JSONL holds records and no registry snapshot), the report JSON
# round-trips through -diff, and a second identical run reproduces every report
# byte-for-byte (reports are pure functions of the seed — no wall-clock, no
# map-order, no scheduling dependence, no core-count dependence: it runs on
# one core) and records a manifest with the same content address, whose plans
# are those reports whole. Any failure fails the script, which is wired into
# `make ci` via the plan-smoke target.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)

cleanup() {
    status=$?
    rm -rf "$WORK"
    exit $status
}
trap cleanup EXIT INT TERM

echo "plan-smoke: building"
$GO build -o "$WORK/predtop-plan" ./cmd/predtop-plan

echo "plan-smoke: planning with reports and a what-if replay"
"$WORK/predtop-plan" -preset quick -bench GPT-3 -quiet -metrics "$WORK/m.jsonl" \
    -report "$WORK/r1" -whatif "microbatches=32,internode-bw=x4" \
    -runledger "$WORK/L" > "$WORK/run1.out"

grep -q "what-if diff" "$WORK/run1.out" || {
    echo "plan-smoke: no what-if diff in the output" >&2
    exit 1
}
for v in alpa-full alpa-partial predtop-gcn predtop-gat predtop-tran; do
    for f in "$WORK/r1/gpt-3-$v.json" "$WORK/r1/gpt-3-$v.txt" "$WORK/r1/gpt-3-$v-whatif.json"; do
        if [ ! -s "$f" ]; then
            echo "plan-smoke: missing report $f" >&2
            exit 1
        fi
    done
done
grep -q '"fingerprint"' "$WORK/r1/gpt-3-predtop-tran.json" || {
    echo "plan-smoke: predictor report has no weight fingerprint" >&2
    exit 1
}

echo "plan-smoke: checking the search and cost facts of a written report"
for field in '"latency_lookups": [1-9]' '"latency_cache_misses": [1-9]'; do
    grep -q "$field" "$WORK/r1/gpt-3-predtop-tran.json" || {
        echo "plan-smoke: report gpt-3-predtop-tran.json has no nonzero $field" >&2
        exit 1
    }
done
grep -q '"event":"plan_run"' "$WORK/m.jsonl" || {
    echo "plan-smoke: -metrics file has no plan_run record" >&2
    exit 1
}
if grep -q '"event":"metrics"\|predtop_planner_' "$WORK/m.jsonl"; then
    echo "plan-smoke: a batch tool's -metrics file still carries a registry snapshot" >&2
    exit 1
fi
if grep -q encoding_cache_ "$WORK"/r1/*.json "$WORK/m.jsonl"; then
    echo "plan-smoke: a report still carries encoding_cache_ fields" >&2
    exit 1
fi

echo "plan-smoke: diffing baseline vs what-if reports"
"$WORK/predtop-plan" \
    -diff "$WORK/r1/gpt-3-predtop-tran.json,$WORK/r1/gpt-3-predtop-tran-whatif.json" \
    > "$WORK/diff.out"
grep -q "total" "$WORK/diff.out" || {
    echo "plan-smoke: -diff printed no totals" >&2
    exit 1
}

# One core this time, so the cmp and the shared run id below also cover
# GOMAXPROCS (the predictor trainings fan out across it).
echo "plan-smoke: re-running under GOMAXPROCS=1 for byte-identical reports"
GOMAXPROCS=1 "$WORK/predtop-plan" -preset quick -bench GPT-3 -quiet -report "$WORK/r2" \
    -whatif "microbatches=32,internode-bw=x4" -runledger "$WORK/L" > /dev/null
for f in "$WORK"/r1/*.json; do
    name=$(basename "$f")
    case "$name" in *-whatif.json) continue ;; esac
    if ! cmp -s "$f" "$WORK/r2/$name"; then
        echo "plan-smoke: report $name not byte-identical across runs" >&2
        exit 1
    fi
done

echo "plan-smoke: checking the recorded manifests"
# Same seed and config, so the second run collides on the first one's content
# address (<id>.json, <id>.1.json), and a recorded plan is the report itself:
# the first plan carries its stage list and cost block, not a summary.
MAN=$(ls "$WORK"/L/*.json | grep -v '\.1\.json$')
if [ "$(echo "$MAN" | wc -l)" != 1 ] || [ ! -e "${MAN%.json}.1.json" ]; then
    echo "plan-smoke: two same-seed runs did not share one run id:" "$WORK"/L/* >&2
    exit 1
fi
awk '/"plans": \[/ { in_plans = 1 }
     in_plans && /"cost": \{/ { cost = 1 }
     in_plans && /"stages": \[/ { stages = 1 }
     in_plans && /"pipeline": \{/ { exit }
     END { exit !(cost && stages) }' "$MAN" || {
    echo "plan-smoke: the manifest's first plan lacks its \"stages\" list or \"cost\" block" >&2
    exit 1
}

echo "plan-smoke: ok"
