# Tier-1 gate: everything `make ci` runs must stay green.
GO ?= go
GOFMT ?= gofmt

.PHONY: ci fmt vet build test nosimd rungs bench-module race bench serve-smoke plan-smoke runs-smoke cover ledger-check staticcheck loc

ci: fmt vet staticcheck build test nosimd rungs bench-module race serve-smoke plan-smoke runs-smoke cover ledger-check

# gofmt must be a no-op on the whole tree; offenders are listed so the gate
# fails with the file names.
fmt:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The arm64 pass type-checks the build without the amd64 assembly
# (simd_other.go's stubs).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# staticcheck runs whenever a copy is available offline (PATH binary, or a
# module-cache version via `go run` with GOPROXY=off); otherwise it skips
# with a notice so air-gapped machines keep a green gate. Findings fail ci.
staticcheck:
	GO="$(GO)" sh scripts/staticcheck.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# nosimd holds the scalar kernels to the same literals as the AVX2 ones: the
# golden bits and plans, predtop-train's golden run, and every bitwise /
# invariance / worker-invariance test of the numeric stack and of its callers
# (the MRE grid, the planner's providers and what-if, the daemon's forward),
# rerun with the assembly switched off for the whole process by the nosimd
# build tag (the tests themselves toggle SetSIMD only inside a few
# functions). Not -short: the MRE grid's worker-invariance check skips in
# short mode. The same set runs again under GODEBUG=cpu.fma=off, with the
# kernels on and off: that turns off math.Exp's fused path and math.FMA's
# instruction, and no bit may move, because every exp and fractional pow is
# xmath's and math.FMA is exactly rounded either way. The go command keys its
# test cache on both the tags and GODEBUG, so no line replays another's
# results.
NOSIMD_RUN = 'TestGoldenBits|TestGoldenPlans|TestTrainGoldenAndDeterministic|Bitwise|Invarian'
NOSIMD_PKGS = . ./internal/tensor ./internal/ag ./internal/graphnn ./internal/predictor \
	./internal/experiments ./internal/planner ./internal/serve ./cmd/predtop-train
nosimd:
	$(GO) test -tags nosimd -run $(NOSIMD_RUN) $(NOSIMD_PKGS)
	GODEBUG=cpu.fma=off $(GO) test -run $(NOSIMD_RUN) $(NOSIMD_PKGS)
	GODEBUG=cpu.fma=off $(GO) test -tags nosimd -run $(NOSIMD_RUN) $(NOSIMD_PKGS)

# rungs runs every kernel benchmark of the numeric stack once
# (BenchmarkAttention, BenchmarkLinear, the softmax rung), so a rung that
# panics on a shape fails the gate instead of the next measurement session.
# One iteration each: a smoke run, not a measurement.
rungs:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/nn ./internal/tensor

# bench/ is its own module (`replace predtop => ../`), so `go build ./...` and
# `go test ./...` above never see it. Vetting and testing it here is the
# compile-time guard that a change to the facade or to the allow-listed
# internal/ packages has not broken the frozen benchmark's call surface.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The race pass runs in -short mode: it still exercises the concurrent
# paths — training's per-graph minibatch and evaluation tapes,
# batched prediction, the serving daemon, and the experiment grids —
# including the training-record tests (TestTrainHistory and the traced rows
# of the bitwise-determinism table), the labeler's
# per-mesh fan-out under Alpa-Full (TestFullProfilingWorkerInvariant) and
# under the ground truth (TestEvaluateAndWhatIfWorkerInvariant), the
# flight-recorder panic-injection tests in
# internal/parallel and internal/obs, and the concurrent ring-buffer writes —
# but drops the slow grid regenerations.
race:
	$(GO) test -race -short ./internal/...

# serve-smoke boots the serving stack for real: build the daemon and load
# driver, train a throwaway model, serve it on an ephemeral port, answer one
# query, and shut down cleanly. Nonzero exit on any failure.
serve-smoke:
	GO="$(GO)" sh scripts/serve-smoke.sh

# plan-smoke exercises the planner observability stack for real: quick-preset
# planning with provenance reports and a what-if replay, a -diff over the
# emitted report files, and a byte-identical-report check across three runs of
# the same seed, the second on one core, the third with three workers. Nonzero
# exit on any failure.
plan-smoke:
	GO="$(GO)" sh scripts/plan-smoke.sh

# runs-smoke exercises the run ledger for real: record two same-seed training
# runs plus a quick eval into a throwaway ledger, prove the canonical
# sections byte-identical (cmp, not tolerance), render the error-attribution
# diff, and pass the regression sentinel against a pinned baseline. Nonzero
# exit on any failure.
runs-smoke:
	GO="$(GO)" sh scripts/runs-smoke.sh

# loc prints non-test Go lines per internal package, the total for the
# numeric stack (tensor, ag, nn, graphnn, predictor) with the line count of
# its AVX2 assembly (tensor/simd_amd64.s, outside that total) beside it, the
# total for the tool layer (cmd/ plus internal/cli), all non-test Go outside
# bench/, the facade's
# line count, the metric families and JSONL record types of docs/METRICS.md,
# the number of cmd/ tools and the flags they declare themselves (the eight
# shared ones are internal/cli's) — the numbers design-debt issues are sized
# and accepted by.
loc:
	@for d in internal/*/; do \
		printf '%6d  %s\n' "$$(ls $$d*.go | grep -v _test.go | xargs cat | wc -l)" "$$d"; \
	done
	@printf '%6d  numeric stack (tensor ag nn graphnn predictor)\n' \
		"$$(ls internal/tensor/*.go internal/ag/*.go internal/nn/*.go internal/graphnn/*.go internal/predictor/*.go | grep -v _test.go | xargs cat | wc -l)"
	@printf '%6d  numeric stack assembly (internal/tensor/simd_amd64.s)\n' \
		"$$(wc -l < internal/tensor/simd_amd64.s)"
	@printf '%6d  tool layer (cmd internal/cli)\n' \
		"$$(ls cmd/*/*.go internal/cli/*.go | grep -v _test.go | xargs cat | wc -l)"
	@printf '%6d  non-test Go outside bench/\n' \
		"$$(git ls-files '*.go' | grep -v -e '^bench/' -e '_test\.go$$' | xargs cat | wc -l)"
	@printf '%6d  predtop.go\n' "$$(wc -l < predtop.go)"
	@printf '%6d  metric families (docs/METRICS.md)\n' "$$(grep -c '^| `predtop_' docs/METRICS.md)"
	@printf '%6d  JSONL record types (docs/METRICS.md)\n' "$$(grep -c '^| `[a-z_]*` | `' docs/METRICS.md)"
	@printf '%6d  tools (cmd/)\n' "$$(ls -d cmd/*/ | wc -l)"
	@printf '%6d  flag declarations (cmd/)\n' \
		"$$(ls cmd/*/*.go | grep -v _test.go | xargs grep -hoE '[a-zA-Z]+\.(String|Bool|Int|Int64|Float64|Duration)\("' | wc -l)"

# cover prints per-package statement coverage (-short: same scope as the
# race pass). Informational — the leading '-' keeps a coverage-run hiccup
# from failing ci, whose gating `test` target already catches real failures.
cover:
	-$(GO) test -short -cover ./...

# ledger-check reports on the local run ledger (runs/): lists recorded runs
# and, when a baseline is pinned, renders the sentinel diff against the
# latest run. Informational by design — the script always exits 0, so ci
# stays green on a checkout with no recorded runs.
ledger-check:
	GO="$(GO)" sh scripts/ledger-check.sh

# bench answers "is this commit faster": the repo benchmark (bench/ +
# BENCHMARK.json — five workloads, medians over repeated runs, bit-exact
# output checks, the per-layer ladder). Run the script directly to pass
# arguments, e.g. `bash bench/run.sh --workload train`. The paper-artifact
# metrics (MRE, win rate, degradation) are the root package's benchmarks:
# go test -bench 'Table|Fig|Ablation' -benchtime=1x -run '^$$' .
bench:
	bash bench/run.sh
