GO ?= go

.PHONY: build test vet race verify bench bench-regress bench-baseline trace soak

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -timeout 25m ./...

# verify is the CI gate: compile everything, lint (also for arm64, which
# builds the pure-Go GEMM microkernel instead of the amd64 assembly), and
# run the full test suite under the race detector. The explicit -timeout
# covers the whole-zoo accuracy sweeps (goldens, fusion cross-checks, dtype
# budgets), which exceed Go's default 10m per-package budget under the
# race scheduler when packages contend for CPU.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	$(GO) test -race -timeout 25m ./...

# bench runs the runtime + ops benchmarks (session hot path, pooled
# kernels, per-kernel conv comparisons, dispatch overhead), archives them
# as BENCH_runtime.json, and fails if the steady-state serial session run
# regresses above zero allocations per op, or a SqueezeNet@64 session run
# above 110.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 20x ./internal/runtime ./internal/ops | tee bench.out
	$(GO) run ./cmd/bench2json -in bench.out -out BENCH_runtime.json -maxallocs 'BenchmarkSessionRun=0,BenchmarkZooSessionRun=110'

# bench-regress guards the serving hot path's wall clock: it re-runs the
# gated benchmarks (best of -count 3) and compares against the committed
# BENCH_baseline.json, failing on a >15% ns/op regression. The comparison
# skips itself with a warning when the baseline was recorded on a
# different CPU. After an intentional performance change, refresh the
# baseline with `make bench-baseline` and commit it.
GATED_BENCH  = BenchmarkSessionRun$$|BenchmarkConv2DInto$$|BenchmarkDenseInto$$
GATED_NAMES  = BenchmarkSessionRun,BenchmarkConv2DInto,BenchmarkDenseInto

bench-regress:
	$(GO) test -run '^$$' -bench '$(GATED_BENCH)' -benchmem -benchtime 200x -count 3 ./internal/runtime ./internal/ops | tee bench_regress.out
	$(GO) run ./cmd/bench2json -in bench_regress.out -out '' -baseline BENCH_baseline.json -maxregress 15 -gated '$(GATED_NAMES)'

bench-baseline:
	$(GO) test -run '^$$' -bench '$(GATED_BENCH)' -benchmem -benchtime 200x -count 3 ./internal/runtime ./internal/ops | tee bench_regress.out
	$(GO) run ./cmd/bench2json -in bench_regress.out -out BENCH_baseline.json

# soak hammers the fault-tolerant runtime: 500 session runs with seeded
# random fault injection (transient kernels, queue hangs, device loss,
# memory pressure) under the race detector, alternating serial and
# concurrent schedulers, asserting bit-identical outputs and no
# goroutine leaks throughout. The batched soak pushes the same seeded
# faults through the request-coalescing front-end (gather/batched
# run/scatter, per-request degradation on batch faults, pool Close).
# The fleet soak serves the same seeded load across three device
# replicas, kills one a third of the way in and heals it at two thirds,
# asserting zero non-deadline failures, bit-identical outputs and that
# the healed device serves again.
soak:
	UNIGPU_SOAK_RUNS=500 $(GO) test -race -run 'TestFaultSoak|TestBatchedFaultSoak|TestFleetSoak' -count=1 -v ./internal/runtime

# trace produces a sample Chrome trace + metrics dump from a quick run.
trace:
	$(GO) run ./cmd/unigpu-run -model SqueezeNet1.0 -size 64 -trace trace.json -metrics
