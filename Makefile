# Development targets for the lvp repository.
#
# `make check` is the full local gate: build, static checks (vet + gofmt),
# tests, the race-detector pass, and every standalone gate below (check-perf,
# check-zoo, check-obs, check-serve, check-vlt2, check-stream, check-bench).
# CI runs exactly `make check`, so each gate runs once. `make race-full`
# includes the golden serial-vs-parallel render, which is expensive under
# the detector.

GO ?= go

.PHONY: all build check test vet race race-full fuzz bench bench-obs bench-stream check-bench check-stream check-perf check-zoo check-obs serve check-serve check-vlt2 verify clean

all: build

build:
	$(GO) build ./...
	$(GO) build -o bin/lvpd ./cmd/lvpd

test:
	$(GO) test ./...

# Static checks: go vet plus a gofmt cleanliness gate (fails listing any
# file that gofmt would rewrite).
vet:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

check: build vet test race check-perf check-zoo check-obs check-serve check-vlt2 check-stream check-bench

# Race-detector pass over every package. -short skips the golden
# double-render (TestGoldenSerialVsParallel), which the detector slows by an
# order of magnitude; all concurrency unit tests (internal/par, internal/obs,
# the suite cache paths, the cheap golden repeat) still run under the
# detector.
race:
	$(GO) test -race -short ./...

# Full race pass including the golden serial-vs-parallel gate (narrowed to
# a representative experiment subset under the detector — see
# internal/exp/golden_test.go). The timeout margin covers small machines.
race-full:
	$(GO) test -race -timeout 30m ./...

# Short fuzz sessions over the input surfaces: the VLT2 trace reader (never
# panics; accepted input round-trips under both codecs and odd block
# sizes), the lvpd job-spec decoder (decode → validate → cells never
# panics; accepted specs stay in bounds and round-trip to the same cells),
# and the two-level predictor's Lookup/Update contract against its map-based
# reference. A 3 s minimize budget keeps each session fuzzing: Go's 60 s
# default would spend a 30 s session minimizing its first new input.
fuzz:
	$(GO) test -fuzz='FuzzVLT2RoundTrip$$' -fuzztime=30s -fuzzminimizetime=3s ./internal/trace/
	$(GO) test -fuzz='FuzzJobSpec$$' -fuzztime=30s -fuzzminimizetime=3s ./internal/serve/
	$(GO) test -fuzz='FuzzTwoLevelDifferential$$' -fuzztime=30s -fuzzminimizetime=3s ./internal/lvp/

# Experiment-engine benchmarks: compare ExpAllSerial vs ExpAllParallel for
# the worker-pool speedup.
bench:
	$(GO) test -run xxx -bench 'BenchmarkExpAll' -benchtime 2x .

# Observability overhead benchmarks: AnnotateSimple vs the nil-tracer and
# disabled-channel variants must agree within noise (<5%); see
# OBSERVABILITY.md.
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkAnnotate' -benchtime 2s -count 3 .

# Streaming-layer benchmarks: the VLT2 reader's batched decode
# (VLT2DecodeBatch), and the gen→annotate→sim cell streamed vs in memory
# (StreamPipeline vs MemPipeline).
bench-stream:
	$(GO) test -run xxx -bench 'VLT2DecodeBatch|StreamPipeline|MemPipeline' -benchtime 1s ./internal/trace/ ./internal/exp/

# Repo-benchmark self-test (see perfbench/README.md), run standalone
# (uncached): every workload at tiny size, its metric names and units
# against BENCHMARK.json, and a perturbed output digest that must fail.
# perfbench is its own module, so `go test ./...` never compiles it; this is
# the gate that builds it against the APIs it calls.
check-bench:
	cd perfbench && $(GO) test -count=1 .

# Streaming memory/identity gate, run standalone (uncached): the
# allocation-regression tests (0 allocs/record on the trace reader, VLT2
# writer and LVP hot paths), the 10M-record peak-RSS bound on the
# Writer2 → file → IndexedReader stream, and the per-workload differential
# between the streamed and in-memory pipelines.
check-stream:
	$(GO) test -count=1 -run 'AllocFree|TestStreamRSS|TestStreamDifferential|TestAnnotatorMatchesAnnotate' ./internal/trace/ ./internal/lvp/ ./internal/exp/

# Hot-path identity and allocation gates, run standalone (uncached): the
# randomized CVU differential against the linear-scan reference (states,
# stats, and eviction victims must be decision-identical), the batched
# decode/annotate differentials, the SlabReader span/batch contract, and the
# 0-allocs/record gates on the steady-state CVU and batch paths.
check-perf:
	$(GO) test -count=1 -run 'TestCVUDifferential|TestCVUInvalidateAddrBoundaries|TestCVUInsertRefresh|TestCVUOpsAllocFree|NextBatch|TestSlabReader|TestRecordBatch' ./internal/lvp/ ./internal/trace/ ./internal/vm/

# Predictor-zoo gate, run standalone (uncached): the randomized two-level
# differential against the map-based reference (predictions, confidence
# state, and replacement victims must be decision-identical), the
# tagged/set-associative LVPT property tests (alias freedom, LRU victim
# order, 0-allocs gates), the stride edge cases, the checked-in zoosweep
# golden table, serial-vs-parallel byte identity, and the served-vs-direct
# zoo-cell identity — the concurrent sweep tests under the race detector.
check-zoo:
	$(GO) test -count=1 -run 'TwoLevel|Assoc|Tagged|Stride|Family|MeasureZoo|TestZoo' ./internal/lvp/ ./internal/exp/
	$(GO) test -race -count=1 -run 'TestZoo' ./internal/exp/ ./internal/serve/

# Serving-telemetry gate, run standalone (uncached): the disabled-path
# overhead contract (0 allocs/op for histogram Observe and scope-less span
# calls, tracer two-compares-when-off), Prometheus exposition conformance
# (parse-back, cumulative buckets, label escaping), the span-channel golden
# schema, the timeline endpoint e2e, and the tracing-on byte-identity gate —
# then the concurrency tests again under the race detector.
check-obs:
	$(GO) test -count=1 -run 'Histogram|Span|Prometheus|Timeline|AccessLog|RequestID|TracingOn|Publish|BucketBounds|BucketIndex|FlightRecorder' ./internal/obs/ ./internal/serve/
	$(GO) test -race -count=1 -run 'TestHistogramConcurrent|TestSpanConcurrent|TestConcurrentPublish|TestTracingOnIdentity' ./internal/obs/ ./internal/serve/

# VLT2 block-codec gate, run standalone (uncached): the encoding
# differential (records, annotation bytes, and all three machine models'
# stats byte-identical across codecs and block sizes), the hostile-input
# table (truncated blocks, corrupted checksums, lying header lengths,
# overlapping index entries, retired codec bytes — clean errors, never
# panics), the checked-in fuzz corpus seeds, the random-seek property test,
# the 0-allocs/record gates on the VLT2 batch paths, and the vltconv tests
# (flate → raw record identity, VLT1 and in-place conversion refused) —
# then the seek property again under the race detector.
check-vlt2:
	$(GO) test -count=1 -run 'TestVLT2|FuzzVLT2' ./internal/trace/
	$(GO) test -count=1 -run 'TestFormatDifferential' ./internal/exp/
	$(GO) test -count=1 ./cmd/vltconv/
	$(GO) test -race -count=1 -short -run 'TestVLT2SeekProperty' ./internal/trace/

# Run the experiment daemon locally (see SERVING.md for the API).
serve:
	$(GO) run ./cmd/lvpd -addr :8347

# Serving-layer gate, run standalone (uncached) under the race detector:
# the lvpd job manager, HTTP API, and client — byte-identity, drain,
# backpressure, cancellation, spec validation, the readiness body and the
# jittered-backoff bounds — plus the content-addressed result store (LRU,
# disk persistence, and the restart-hit acceptance test: a repeat job after
# a restart computes nothing and streams the same bytes).
check-serve:
	$(GO) test -race -count=1 ./internal/serve/ ./internal/dist/ ./client/

verify: check

clean:
	$(GO) clean ./...
	rm -rf bin
