# FaaSMem reproduction — common targets.

GO ?= go

.PHONY: all build test vet bench bench-json cover fuzz-smoke experiments experiments-quick examples trace-demo attrib-demo clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full test log, as recorded in test_output.txt.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Tier-1 figure/table benchmarks plus the page-engine and event-engine
# micro-benches, snapshotted as machine-readable JSON (the CI perf artifact;
# see cmd/benchjson). One run feeds three artifacts: the raw log
# (bench_gate.txt, which records allocs/op for the regression gate), the JSON
# snapshot, and a per-bench speedup table against the latest committed
# BENCH_*.json printed to stderr.
BENCH_GATE = Fig|Table|BarrierInsert|PucketOffloadScan|HarnessParallelFanout|DisabledSpans|DisabledTimeline|DisabledExemplars|PoolDensity|MemnodeOffload|MergeLookup|EngineSchedule|EngineTimerWheel|SharedRegionMap|DAGPipeline|PucketRollback|TouchSpans|OffloadPages|FaultBatch|TimeseriesAdd
bench-json:
	$(GO) test -run='^$$' -bench='$(BENCH_GATE)' -benchmem . 2>&1 | tee bench_gate.txt | $(GO) run ./cmd/benchjson -baseline BENCH_BASELINE.json -latest 'BENCH_*.json' -allocs-gate 10 -o BENCH_5.json
	@echo "wrote BENCH_5.json (raw log with allocs/op: bench_gate.txt)"

# Total statement coverage, gated against the committed baseline floor
# (COVERAGE_BASELINE.txt, the seed repo's coverage; CI enforces the same).
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | grep -o '[0-9.]*%' | tr -d '%'); \
	floor=$$(cat COVERAGE_BASELINE.txt); \
	echo "total statement coverage: $$total% (baseline floor: $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t >= f) }' || { echo "below baseline"; exit 1; }

# 30s of native fuzzing per target — the same smoke CI runs. Corpus seeds
# live under each package's testdata/fuzz/ and replay in plain `go test`.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzEngineVsReference$$' -fuzztime=$(FUZZTIME) ./internal/simtime
	$(GO) test -run='^$$' -fuzz='^FuzzDifferentialOps$$'  -fuzztime=$(FUZZTIME) ./internal/mglru
	$(GO) test -run='^$$' -fuzz='^FuzzSpaceDifferential$$' -fuzztime=$(FUZZTIME) ./internal/pagemem
	$(GO) test -run='^$$' -fuzz='^FuzzPlan$$'              -fuzztime=$(FUZZTIME) ./internal/faultinject
	$(GO) test -run='^$$' -fuzz='^FuzzReadAzureCSV$$'      -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzReadTraceJSON$$'     -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzReadProfiles$$'      -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run='^$$' -fuzz='^FuzzWorkflowDAG$$'       -fuzztime=$(FUZZTIME) ./internal/faas
	$(GO) test -run='^$$' -fuzz='^FuzzMergeDomains$$'      -fuzztime=$(FUZZTIME) ./internal/memnode

# Regenerate every figure/table at paper scale (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -seed 42 | tee experiments_full.txt

experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Figures + machine-readable rows.
results:
	$(GO) run ./cmd/experiments -seed 42 -json results -svg results

# Record a 3-function run and export a Perfetto-loadable trace.
trace-demo:
	$(GO) run ./examples/tracing faasmem-trace.json

# Side-by-side latency attribution under relaxed vs. pressured memory, plus
# an exported span file for cmd/faasmem-stat.
attrib-demo:
	$(GO) run ./examples/attribution faasmem-spans.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mlinference
	$(GO) run ./examples/webservice
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/rack
	$(GO) run ./examples/sweep > /dev/null
	$(GO) run ./examples/attribution

clean:
	rm -rf results test_output.txt bench_output.txt coverage.out faasmem-trace.json faasmem-spans.json attrib_quick.txt timeline_quick.txt
