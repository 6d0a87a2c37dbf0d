# Targets mirror the CI jobs (.github/workflows/ci.yml).

GO ?= go

# Pinned analysis-tool versions — CI runs these targets, so the Makefile
# is the single source of truth for both.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# Duration per fuzz target in the `fuzz` smoke target.
FUZZTIME ?= 30s

.PHONY: all build vet test flake race lockrank mutate lint bench bench-json bench-check bench-pair fuzz chaos chaos-full crash crash-full serve-test serve-soak full

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## test: the CI test job (short mode — slow simulations skipped).
test:
	$(GO) test -short ./...

## flake: tier-1 (the whole suite) FLAKE_COUNT times over while a second
## process loads the box with the knn-mem benchmark, so that a test
## whose verdict depends on timing fails here rather than once in a
## while on a PR. The load runs until the tests end; its results go to
## bin/flake-load. The nightly CI job runs it.
FLAKE_COUNT ?= 3
flake:
	$(GO) build ./...
	@mkdir -p bin
	@sh bench/run.sh -workload knn-mem -trace 0 -repeat 1000 -out bin/flake-load >bin/flake-load.log 2>&1 & load=$$!; \
	$(GO) test -count=$(FLAKE_COUNT) ./...; status=$$?; \
	kill $$load 2>/dev/null; wait $$load 2>/dev/null; exit $$status

## race: the CI race-detector gate for the concurrent engine.
race:
	$(GO) test -race -short ./...

## lockrank: lock order, checked where the locks are taken. Under the
## lockrank tag every product mutex (internal/lockrank) panics when a
## goroutine takes it while holding one of equal or higher rank. Vet
## type-checks the tagged half; the tests are the packages that take
## ranked locks.
LOCKRANK_PKGS = ./internal/pagestore ./internal/core ./internal/exec ./internal/bufferpool \
	./internal/rtree ./internal/obs ./internal/fault ./internal/server
lockrank:
	$(GO) vet -tags lockrank ./...
	$(GO) test -race -short -tags lockrank ./internal/lockrank $(LOCKRANK_PKGS)

## mutate: the recorded mutations (internal/mutate). Each row puts one
## defect back into a copy of the module — a race, a stall, a leak, a
## wrong answer, a lost write, a dropped storage error — and requires
## its check (a test, `make crash` or `go vet`) to fail with the row's
## substring; a row whose check passes, or whose fragment no longer
## occurs exactly once, fails. The copy sits at one fixed path under the
## temp dir, so the build cache serves every package a row leaves
## unchanged: run one at a time. Budget: 30 minutes on a 2-core box
## (-timeout fails a run past it). The nightly CI job runs it. A change
## that deletes a check adds the row that shows what still catches the
## check's class.
mutate:
	$(GO) test -tags mutate -timeout 30m -v -run TestMutations ./internal/mutate

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
## R*-tree insertion in 2-d and 10-d, one insertion into knn-file's
## declustered 8-d tree, one durable batch of 45 inserts,
## 5 deletes and a Commit — on a bare R*-tree and on a core.Index, and
## one POST /v1/knn through the server's handler over a real engine,
## the hedge delay a hedged read looks up (cached p99 vs a histogram
## snapshot per call), and exec.New over the 8-d miss-path tree in
## memory and file mode with the heap the engine keeps, and the reopen
## of a durable core.Index of ingest-mixed's shape with a WAL tail) at
## a fixed iteration count with
## the deterministic in-repo seeds, and render the output as a
## schema-versioned JSON report via cmd/benchjson. BenchmarkKernels runs
## in an invocation of its own at a fixed 0.5 s a row: a kernel row
## takes microseconds, so a fixed iteration count gave 10–20 ms samples
## that the box's load moved by tens of percent. BenchmarkEngineNew
## builds a whole engine per op — ten replica files written and synced
## in file mode — and BenchmarkIndexReopen recovers a whole index per
## op, so both run at their own, smaller iteration count.
## Each row carries the median and the run-to-run spread of its -count
## runs. BENCH_JSON_OUT defaults to BENCH_<utc-date>.json in the repo root.
BENCH_JSON_TIME  ?= 20000x
BENCH_JSON_COUNT ?= 5
BENCH_JSON_OUT   ?= BENCH_$(shell date -u +%F).json
BENCH_JSON_NEW_TIME ?= 20x
# The baseline report also carries the parent commit's EngineThroughput
# and KNNCRSS rows as `…/at=parent-dd77e38`, and the change's as
# `…/at=change-rounds`, five rounds measured alternately; bench-check
# lists them as missing from a new report (informational) until the
# baseline moves on.
BENCH_BASELINE   ?= BENCH_2026-10-19-pr50.json
BENCH_JSON_SET    = 'BenchmarkKNN|BenchmarkMakeCandidates|BenchmarkEngineThroughput|BenchmarkEngineMissPath|BenchmarkPageDecode|BenchmarkRStarInsert2D|BenchmarkRStarInsert10D|BenchmarkDeclusteredInsert8D|BenchmarkDurableIngest|BenchmarkServerKNN|BenchmarkHedgeDelay'
BENCH_JSON_NEW_SET = 'BenchmarkEngineNew|BenchmarkIndexReopen'
bench-json:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run xxx -bench $(BENCH_JSON_SET) -benchtime=$(BENCH_JSON_TIME) \
		-count=$(BENCH_JSON_COUNT) -benchmem . ./internal/query/ ./internal/server/ ./internal/exec/ | tee bin/bench.out
	$(GO) test -run xxx -bench BenchmarkKernels -benchtime=0.5s \
		-count=$(BENCH_JSON_COUNT) -benchmem . | tee -a bin/bench.out
	$(GO) test -run xxx -bench $(BENCH_JSON_NEW_SET) -benchtime=$(BENCH_JSON_NEW_TIME) \
		-count=$(BENCH_JSON_COUNT) -benchmem ./internal/exec/ . | tee -a bin/bench.out
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

## bench-pair: BENCHMARK.json's comparison, run by hand. BASE (a git
## revision) is checked out in a git worktree under bin/bench-pair/src,
## both sides' ./bench are built once, and PAIRS pairs of runs of
## WORKLOAD alternate which side runs first (odd pairs base first). Each
## run is `bench -workload WORKLOAD -trace 0 -repeat 1`, the base's in
## its own checkout; its result.json becomes run-NN.json in
## bin/bench-pair/base or bin/bench-pair/change (the working tree).
## It ends with `bench -compare base change` and removes the worktree.
## An A/A run, BASE=HEAD on a clean tree, is the tool's own check: any
## verdict but "same" there is the box's noise, not a change.
BASE     ?= HEAD
WORKLOAD ?= knn-mem
PAIRS    ?= 10
PAIR_DIR  = bin/bench-pair
bench-pair:
	rm -rf $(PAIR_DIR)
	git worktree prune
	mkdir -p $(PAIR_DIR)/base $(PAIR_DIR)/change
	git worktree add --detach $(PAIR_DIR)/src $(BASE)
	set -e; dir=$$(pwd)/$(PAIR_DIR); \
	trap 'git worktree remove --force $(PAIR_DIR)/src' EXIT; \
	(cd $$dir/src && GOTOOLCHAIN=local $(GO) build -o $$dir/base.bin ./bench); \
	GOTOOLCHAIN=local $(GO) build -o $$dir/change.bin ./bench; \
	run() { \
		if [ $$1 = base ]; then (cd $$dir/src && $$dir/base.bin -workload $(WORKLOAD) -trace 0 -repeat 1 -out $$dir/out-base); \
		else $$dir/change.bin -workload $(WORKLOAD) -trace 0 -repeat 1 -out $$dir/out-change; fi; \
		mv $$dir/out-$$1/result.json $$dir/$$1/run-$$2.json; \
	}; \
	i=1; while [ $$i -le $(PAIRS) ]; do \
		n=$$(printf %02d $$i); \
		if [ $$((i % 2)) -eq 1 ]; then run base $$n; run change $$n; else run change $$n; run base $$n; fi; \
		i=$$((i + 1)); \
	done; \
	$$dir/change.bin -compare $$dir/base $$dir/change

## fuzz: run each fuzz target for FUZZTIME (committed seed corpora under
## testdata/fuzz already run during plain `go test`).
fuzz:
	$(GO) test -fuzz=FuzzPageCodec -fuzztime=$(FUZZTIME) ./internal/pagestore/
	$(GO) test -fuzz=FuzzWALRecord -fuzztime=$(FUZZTIME) ./internal/pagestore/
	$(GO) test -fuzz=FuzzRecordTable -fuzztime=$(FUZZTIME) ./internal/pagestore/
	$(GO) test -fuzz=FuzzGeomMetrics -fuzztime=$(FUZZTIME) ./internal/geom/
	$(GO) test -fuzz=FuzzPointKernel -fuzztime=$(FUZZTIME) ./internal/geom/
	$(GO) test -fuzz=FuzzRTreeOps -fuzztime=$(FUZZTIME) ./internal/rtree/
	$(GO) test -fuzz=FuzzKNNRequest -fuzztime=$(FUZZTIME) ./internal/server/

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
## plus the WAL / record-table / durable-store unit tests around it
## (a Commit whose WAL sync fails must publish nothing) and the fault
## sweep, which fails each file operation of the same schedule once and
## requires the error returned and the last commit recovered. At each kill
## every file keeps a seeded FIFO prefix of its un-synced writes, the
## frontier one possibly torn, and the kill runs twice more with every
## other file keeping all of them and none: a write, sync or publish
## out of order fails here. Short mode runs every fourth kill point (the
## PR CI job); `crash-full` kills at every sync point in the schedule
## (the nightly job).
CRASH_RUN = 'CrashRecovery|FaultSweep|DurableStore|FileStore|FileBacked|IndexDurable|WAL'
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
