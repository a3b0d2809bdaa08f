#!/bin/sh
# runs-smoke: build predtop-train, predtop-eval, predtop-plan, and
# predtop-runs, record real runs into a throwaway ledger, and prove the
# cross-run observability contract end to end: two same-seed training runs
# share one content address with byte-identical canonical sections, the eval
# manifest carries every MRE cell and count of its table and the
# error-attribution snapshot, the diff renders it, the
# regression sentinel passes a run against its own baseline and trips on a
# family whose attribution MRE grew, and a plan manifest holds its plans'
# whole reports, on whose Eqn-4 total the sentinel still trips. Any failure fails the script, which is wired into `make ci`
# via the runs-smoke target.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)

cleanup() {
    status=$?
    rm -rf "$WORK"
    exit $status
}
trap cleanup EXIT INT TERM

echo "runs-smoke: building"
$GO build -o "$WORK/predtop-train" ./cmd/predtop-train
$GO build -o "$WORK/predtop-eval" ./cmd/predtop-eval
$GO build -o "$WORK/predtop-plan" ./cmd/predtop-plan
$GO build -o "$WORK/predtop-runs" ./cmd/predtop-runs

LEDGER="$WORK/runs"

echo "runs-smoke: recording two same-seed training runs"
"$WORK/predtop-train" -bench GPT-3 -layers 4 -samples 10 -epochs 2 -seed 7 \
    -o "$WORK/m1.predtop" -runledger "$LEDGER" -quiet
"$WORK/predtop-train" -bench GPT-3 -layers 4 -samples 10 -epochs 2 -seed 7 \
    -o "$WORK/m2.predtop" -runledger "$LEDGER" -quiet

echo "runs-smoke: recording a quick eval run"
"$WORK/predtop-eval" -preset quick -bench GPT-3 -platform 1 -seed 7 \
    -runledger "$LEDGER" -quiet > /dev/null

"$WORK/predtop-runs" -dir "$LEDGER" list > "$WORK/list.out"
cat "$WORK/list.out"
trains=$(grep -c predtop-train "$WORK/list.out" || true)
if [ "$trains" != 2 ]; then
    echo "runs-smoke: expected 2 training runs in the ledger, saw $trains" >&2
    exit 1
fi
grep -q predtop-eval "$WORK/list.out" || {
    echo "runs-smoke: eval run missing from the ledger" >&2
    exit 1
}

echo "runs-smoke: checking the eval manifest records its tables"
# EXPERIMENTS.md is rendered from such manifests (TestExperimentsRendered):
# every number the report prints must be a canonical metric. The quick grid
# on Platform 1 is 2 fractions x 3 scenarios, so 18 MRE cells (one per model)
# and 6 held-out counts, plus the table's spec and stage-class counts.
EVAL=$(grep -l '"tool": "predtop-eval"' "$LEDGER"/*.json)
mres=$(grep -cE '"mre_gpt-3_p1_f[0-9]+_m[0-9]c[0-9]_(gcn|gat|tran)": ' "$EVAL" || true)
tests=$(grep -cE '"tests_gpt-3_p1_f[0-9]+_m[0-9]c[0-9]": ' "$EVAL" || true)
if [ "$mres" != 18 ] || [ "$tests" != 6 ]; then
    echo "runs-smoke: eval manifest holds $mres MRE cells and $tests held-out counts, want 18 and 6" >&2
    exit 1
fi
for key in win_rate specs classes; do
    grep -q "\"${key}_gpt-3_p1\": " "$EVAL" || {
        echo "runs-smoke: eval manifest lacks ${key}_gpt-3_p1" >&2
        exit 1
    }
done

echo "runs-smoke: checking same-seed canonical sections are byte-identical"
# The two training runs collide on one content address: the first takes
# <id>.json, the rerun <id>.1.json. Their canonical sections must agree to
# the byte (that is what the id hashes) — cmp, not a numeric tolerance.
# The baseline mark column is blank here, so awk sees RUN as $1 and TOOL
# as $2 on every row.
ID=$(awk '$2 == "predtop-train" { print $1; exit }' "$WORK/list.out")
case "$ID" in
    *.*) echo "runs-smoke: first training run is a .N rerun ($ID)?" >&2; exit 1 ;;
esac
if [ ! -e "$LEDGER/$ID.1.json" ]; then
    echo "runs-smoke: rerun $ID.1.json missing — same seed hashed to a different id" >&2
    exit 1
fi
"$WORK/predtop-runs" -dir "$LEDGER" show -canonical "$ID" > "$WORK/c1.json"
"$WORK/predtop-runs" -dir "$LEDGER" show -canonical "$ID.1" > "$WORK/c2.json"
if ! cmp -s "$WORK/c1.json" "$WORK/c2.json"; then
    echo "runs-smoke: canonical sections differ across same-seed reruns" >&2
    exit 1
fi

echo "runs-smoke: diffing the reruns"
"$WORK/predtop-runs" -dir "$LEDGER" diff "$ID" "$ID.1" > "$WORK/diff.out"
grep -q "canonical sections: identical" "$WORK/diff.out" || {
    echo "runs-smoke: diff did not report identical canonical sections" >&2
    exit 1
}
grep -q "error attribution" "$WORK/diff.out" || {
    echo "runs-smoke: diff rendered no error-attribution breakdown" >&2
    exit 1
}
for axis in op nodes depth; do
    awk -v a="$axis" '$2 == a { found = 1 } END { exit !found }' "$WORK/diff.out" || {
        echo "runs-smoke: attribution breakdown missing the $axis axis" >&2
        exit 1
    }
done

echo "runs-smoke: gating the eval run against its own baseline"
"$WORK/predtop-runs" -dir "$LEDGER" baseline latest > /dev/null
"$WORK/predtop-runs" -dir "$LEDGER" diff -gate > "$WORK/gate.out"
grep -q "gate: ok" "$WORK/gate.out" || {
    echo "runs-smoke: sentinel did not report ok on identical runs" >&2
    exit 1
}

echo "runs-smoke: gating an eval run with a raised family MRE"
# The eval manifest with 10 points added to the Tran family's held-out MRE
# (the first "mre_pct" after its attribution label): the MRE gate reads each
# family's attribution, so the sentinel must name Tran and exit nonzero.
awk '/"attribution": \{/ { attr = 1 }
     attr && /"Tran": \{/ { fam = 1 }
     fam && !raised && /"mre_pct": / {
         v = $2; sub(/,$/, "", v)
         sub(/"mre_pct": .*/, "\"mre_pct\": " v + 10 ",")
         raised = 1
     }
     { print }
     END { exit !raised }' "$EVAL" > "$WORK/raised.json"
if "$WORK/predtop-runs" -dir "$LEDGER" diff -gate "$EVAL" "$WORK/raised.json" > "$WORK/raise.out" 2> "$WORK/raise.err"; then
    echo "runs-smoke: sentinel passed an eval run whose Tran MRE grew 10 points" >&2
    exit 1
fi
grep -q "gate: attribution Tran: " "$WORK/raise.err" || {
    echo "runs-smoke: sentinel failed without naming the Tran family:" >&2
    cat "$WORK/raise.err" >&2
    exit 1
}

echo "runs-smoke: recording a quick plan run"
# Its own ledger, so "latest" and the pinned baseline above stay what they are.
PLANS="$WORK/plans"
"$WORK/predtop-plan" -preset quick -bench GPT-3 -runledger "$PLANS" -quiet > /dev/null
"$WORK/predtop-runs" -dir "$PLANS" show -canonical > "$WORK/plan.json"
# A recorded plan is the report itself (what TestExperimentsRendered renders
# Fig 10 from):
# the first one carries its stage list and cost block.
awk '/"plans": \[/ { in_plans = 1 }
     in_plans && /"cost": \{/ { cost = 1 }
     in_plans && /"stages": \[/ { stages = 1 }
     in_plans && /"pipeline": \{/ { exit }
     END { exit !(cost && stages) }' "$WORK/plan.json" || {
    echo "runs-smoke: the plan manifest's first plan lacks its \"stages\" list or \"cost\" block" >&2
    exit 1
}

echo "runs-smoke: gating a plan run with a grown Eqn-4 total"
# The same manifest with the digits 1000 put in front of its first plan's
# pipeline total (the first "total" key of the file): the sentinel must name
# plan 0 and exit nonzero.
MAN=$(ls "$PLANS"/*.json)
awk '!grown && /"total": / { sub(/"total": /, "\"total\": 1000"); grown = 1 } { print }' "$MAN" > "$WORK/grown.json"
if "$WORK/predtop-runs" -dir "$PLANS" diff -gate "$MAN" "$WORK/grown.json" > "$WORK/trip.out" 2> "$WORK/trip.err"; then
    echo "runs-smoke: sentinel passed a plan whose Eqn-4 total grew" >&2
    exit 1
fi
grep -q "gate: plan 0 " "$WORK/trip.err" || {
    echo "runs-smoke: sentinel failed without naming plan 0:" >&2
    cat "$WORK/trip.err" >&2
    exit 1
}

echo "runs-smoke: ok"
