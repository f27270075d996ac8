# Build, test and verification entry points. `make check` is the tier-1
# gate; `make race` runs the concurrency-sensitive packages (the core
# pipeline, the serving subsystem and the public facade) under the race
# detector, which is how the Train-once/Infer-concurrently and serving
# identity contracts are enforced. `make serve-smoke` boots the real
# server binary and drives it with loadgen. `make bench` and
# `make bench-serve` refresh the tracked perf-trajectory artifacts
# BENCH_micro.json and BENCH_serve.json.

# bash for pipefail in the bench recipe.
SHELL := /bin/bash

GO ?= go
# Repetitions per benchmark; raise (e.g. BENCH_COUNT=10) for benchstat
# confidence intervals.
BENCH_COUNT ?= 5

.PHONY: all vet build test race check chaos bench bench-serve serve-smoke ingest-smoke

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector slows the core suite ~10-15x, far past go test's
# default 10-minute timeout, hence the explicit -timeout.
race:
	$(GO) test -race -timeout 90m ./internal/core/... ./internal/serve/... .

check: vet build test race

# End-to-end smoke of the serving subsystem: synthesize a trace, train a
# model, boot `friendseeker serve`, probe it and replay load with loadgen.
serve-smoke:
	bash scripts/serve_smoke.sh

# End-to-end smoke of the online ingestion loop: train on a time-split
# base corpus, stream the tail into POST /v1/checkins while loadgen keeps
# reading, and assert the drift-triggered retrain hot-swaps a new model.
ingest-smoke:
	bash scripts/ingest_smoke.sh

# Chaos acceptance: replay a fixed-seed load schedule against the serving
# stack with a seeded fault-injection schedule active (corrupt model
# artifacts and failed table builds on the swap path, failed check-in
# writes) and assert the failure-hardening invariants — every answer
# byte-identical to direct Infer of the model it names, last-known-good
# survives failed swaps, faulted writes apply nothing, every request is
# answered. Fully deterministic; see internal/serve/chaos_test.go and
# DESIGN.md "Failure model".
chaos:
	$(GO) test -run 'TestChaosAcceptance' -count=1 -timeout 10m ./internal/serve/

# Micro-benchmarks of the batched scoring kernels plus the end-to-end
# attack. The raw text stays benchstat-comparable (it is echoed as it
# runs); the aggregated result is persisted as BENCH_micro.json so the
# perf trajectory is a tracked artifact.
bench:
	set -euo pipefail; tmp=$$(mktemp); trap "rm -f $$tmp" EXIT; \
	$(GO) test -run '^$$' -bench 'BenchmarkMatMulKernels|BenchmarkEncodeBatch|BenchmarkSVMPredictBatch|BenchmarkKNNPredictBatch' \
		-benchmem -count=$(BENCH_COUNT) \
		./internal/tensor ./internal/nn ./internal/svm ./internal/knn | tee $$tmp; \
	$(GO) test -run '^$$' -bench 'BenchmarkEndToEndAttack' -benchmem -count=$(BENCH_COUNT) -timeout 60m . | tee -a $$tmp; \
	$(GO) run ./cmd/benchjson < $$tmp > BENCH_micro.json; \
	echo "wrote BENCH_micro.json"

# Fixed-seed serving benchmark: replay a deterministic open-loop sweep
# schedule against a freshly trained tiny-world server and persist the
# SLO report as BENCH_serve.json (gated at -20% goodput vs the
# checked-in baseline; see scripts/bench_serve.sh).
bench-serve:
	bash scripts/bench_serve.sh
