# Targets mirror the CI jobs (.github/workflows/ci.yml).

GO ?= go

# Pinned analysis-tool versions — CI runs these targets, so the Makefile
# is the single source of truth for both.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# Duration per fuzz target in the `fuzz` smoke target.
FUZZTIME ?= 30s

.PHONY: all build vet analyze analyze-sarif analyze-budget audit test race lint bench bench-json bench-check fuzz chaos chaos-full crash crash-full serve-test serve-soak full

all: build vet analyze test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## analyze: the repo-specific analyzer suite (internal/lint) run through
## the `go vet -vettool` protocol, exactly as CI runs it, followed by
## the suppression audit (stale //lint:allow directives fail the build).
analyze:
	$(GO) build -o bin/simquerylint ./cmd/simquerylint
	$(GO) vet -vettool=$(abspath bin/simquerylint) ./...
	bin/simquerylint -source . -audit

## analyze-sarif: standalone whole-module scan rendered as SARIF 2.1.0
## (lint.sarif in the repo root — CI uploads it as an artifact).
ANALYZE_SARIF_OUT ?= lint.sarif
analyze-sarif:
	$(GO) build -o bin/simquerylint ./cmd/simquerylint
	bin/simquerylint -source . -sarif $(ANALYZE_SARIF_OUT)
	@echo "wrote $(ANALYZE_SARIF_OUT)"

## analyze-budget: `make analyze` under a wall-clock ceiling. The
## interprocedural analyzers (call graph + fixpoint summaries) must stay
## cheap enough to run on every PR; the nightly job fails when the whole
## suite takes longer than ANALYZE_BUDGET_SECS.
ANALYZE_BUDGET_SECS ?= 120
analyze-budget:
	@start=$$(date +%s); \
	$(MAKE) analyze || exit $$?; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "make analyze took $${elapsed}s (budget $(ANALYZE_BUDGET_SECS)s)"; \
	if [ $$elapsed -gt $(ANALYZE_BUDGET_SECS) ]; then \
		echo "analyzer runtime budget exceeded"; exit 1; fi

## audit: report //lint:allow directives that no longer suppress any
## finding. Stale suppressions are bugs-in-waiting: they hide nothing
## today and mask a real finding tomorrow.
audit:
	$(GO) build -o bin/simquerylint ./cmd/simquerylint
	bin/simquerylint -source . -audit

## test: the CI test job (short mode — slow simulations skipped).
test:
	$(GO) test -short ./...

## race: the CI race-detector gate for the concurrent engine.
race:
	$(GO) test -race -short ./...

## lint: gofmt cleanliness + pinned staticcheck (installed on demand).
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi
	@command -v staticcheck >/dev/null 2>&1 || \
		$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	staticcheck ./...

## bench: benchmark smoke — every benchmark once. This is the single
## definition of the smoke invocation; both the nightly CI job and the
## `full` target run it through this target rather than repeating the
## command line.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

## bench-json: run the tracked benchmark set (vectorized kernels vs
## scalar reference, candidate filtering, end-to-end k-NN pages/query,
## concurrent engine vs sequential driver queries/sec, the engine's miss
## path on file-backed replicas, page decoding, and the write path: one
## R*-tree insertion in 2-d and 10-d, one durable batch of 45 inserts,
## 5 deletes and a Commit — on a bare R*-tree and on a core.Index)
## at a fixed iteration count with the deterministic in-repo seeds, and
## render the output as a schema-versioned JSON report via cmd/benchjson.
## Each row carries the median and the run-to-run spread of its -count
## runs. BENCH_JSON_OUT defaults to BENCH_<utc-date>.json in the repo root.
BENCH_JSON_TIME  ?= 20000x
BENCH_JSON_COUNT ?= 5
BENCH_JSON_OUT   ?= BENCH_$(shell date -u +%F).json
# The PR 25 report also carries the parent commit's ingest rows as
# `…/at=parent-ed0b08b`; bench-check lists them as missing from a new
# report (informational) until the baseline moves on.
BENCH_BASELINE   ?= BENCH_2026-10-15-pr25.json
BENCH_JSON_SET    = 'BenchmarkKernels|BenchmarkKNN|BenchmarkMakeCandidates|BenchmarkEngineThroughput|BenchmarkEngineMissPath|BenchmarkPageDecode|BenchmarkRStarInsert2D|BenchmarkRStarInsert10D|BenchmarkDurableIngest'
bench-json:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run xxx -bench $(BENCH_JSON_SET) -benchtime=$(BENCH_JSON_TIME) \
		-count=$(BENCH_JSON_COUNT) -benchmem . ./internal/query/ | tee bin/bench.out
	bin/benchjson parse -o $(BENCH_JSON_OUT) bin/bench.out
	@echo "wrote $(BENCH_JSON_OUT)"

## bench-check: benchstat-style comparison of the current report against
## the newest committed report. Fails when a tracked benchmark's median
## allocs/op rises by more than 10% — allocation counts repeat run to
## run, so a rise is a code change — or when its allocs/op differ by more
## than 2% between the new report's own -count runs (each row records its
## run-to-run spread): an allocation that depends on timing is a finding.
## A 10% ns/op regression only warns (GitHub annotations under Actions):
## CI-runner noise must not gate merges.
bench-check:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	bin/benchjson compare -threshold 10 $(BENCH_BASELINE) $(BENCH_JSON_OUT)

## fuzz: run each fuzz target for FUZZTIME (committed seed corpora under
## testdata/fuzz already run during plain `go test`).
fuzz:
	$(GO) test -fuzz=FuzzPageCodec -fuzztime=$(FUZZTIME) ./internal/pagestore/
	$(GO) test -fuzz=FuzzWALRecord -fuzztime=$(FUZZTIME) ./internal/pagestore/
	$(GO) test -fuzz=FuzzGeomMetrics -fuzztime=$(FUZZTIME) ./internal/geom/
	$(GO) test -fuzz=FuzzRTreeOps -fuzztime=$(FUZZTIME) ./internal/rtree/

## chaos: the fault-injection suite under the race detector — injector
## determinism, degraded-mode engine reads, simulator fail-stop, mirror
## routing and query validation. Short mode trims the seeded sweeps for
## the PR CI job; `chaos-full` runs every seed (the nightly job).
CHAOS_RUN = 'Chaos|Fault|PickMirror|Mirrored|RAID0|BatchError|FetchBatch|TraceTerminal|Validat|Injector|FailStop|DeadOnArrival|Transient|Spike|Reader|ErrData'
chaos:
	$(GO) test -race -short -run $(CHAOS_RUN) ./internal/fault/ ./internal/exec/ ./internal/simarray/ ./internal/query/

chaos-full:
	$(GO) test -race -run $(CHAOS_RUN) ./internal/fault/ ./internal/exec/ ./internal/simarray/ ./internal/query/

## crash: the crash-recovery torture suite under the race detector —
## kill the durable store at programmed fsyncs, reboot from exactly the
## bytes that were durable, and require a consistent committed tree,
## plus the WAL / superblock / durable-store unit tests around it.
## Short mode samples the kill points (the PR CI job); `crash-full`
## kills at every sync point in the schedule (the nightly job).
CRASH_RUN = 'CrashRecovery|DurableStore|FileStore|FileBacked|IndexDurable|WAL'
crash:
	$(GO) test -race -short -run $(CRASH_RUN) ./internal/pagestore/ ./internal/exec/ ./internal/core/

crash-full:
	$(GO) test -race -run $(CRASH_RUN) ./internal/pagestore/ ./internal/exec/ ./internal/core/

## serve-test: the network query service integration suite under the
## race detector — N concurrent HTTP clients bit-identical to the
## sequential driver, scripted load shedding, per-tenant quota
## exhaustion, graceful-shutdown drain, and the real-engine saturation
## scenario. The PR CI server job runs this target.
serve-test:
	$(GO) test -race -run 'Server|Serve|Tenant|DebugServer|Coalesce' ./internal/server/ ./internal/obs/ ./internal/exec/

## serve-soak: the nightly serving soak — a sustained storm of HTTP
## clients against a real spiked engine with quotas and admission
## control live, ending in a graceful drain (SERVE_SOAK gates the
## 30-second run).
serve-soak:
	SERVE_SOAK=1 $(GO) test -race -run TestServeSoak -v ./internal/server/

## full: everything the manually-dispatched nightly job runs.
## govulncheck needs network access to the vuln DB, so it is skipped
## (with a notice) when the pinned binary cannot be installed.
full:
	$(GO) test ./...
	$(GO) test -race ./...
	$(MAKE) analyze
	$(MAKE) chaos-full
	$(MAKE) crash-full
	$(MAKE) serve-test
	$(MAKE) serve-soak
	$(MAKE) bench
	OBS_OVERHEAD=1 $(GO) test -run TestObservedOverhead -v .
	$(GO) test -run xxx -bench 'BenchmarkEngineThroughput/engine-workers=10x2$$|BenchmarkEngineObserved' -benchtime 2s .
	$(MAKE) fuzz FUZZTIME=10s
	@if command -v govulncheck >/dev/null 2>&1 || \
		$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION); then \
		govulncheck ./...; \
	else \
		echo "govulncheck unavailable (offline?); skipping"; \
	fi
