GO ?= go

.PHONY: all build test examples bench-test fuzz-smoke race race-pools race-metrics vet fmt-check chaos pool-chaos characterize golden trace-smoke metrics-smoke bench bench-gate cover-pool clean

# Benchmark artifact for this PR and the committed baseline it is gated
# against (previous PR's numbers).
BENCH_OUT      ?= BENCH_10.json
BENCH_BASELINE ?= BENCH_9.json

all: vet fmt-check build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Run every example end to end, so an example that builds but fails at
# runtime fails here.
examples:
	@for ex in examples/*/; do \
		echo "== $$ex"; $(GO) run ./$$ex || exit 1; \
	done

# Run the benchmark harness's own tests. bench/ is a separate module, so
# the root `go test ./...` does not reach them.
bench-test:
	cd bench && $(GO) test ./...

# Fuzz each target for FUZZTIME (10s by default) on top of its seed
# corpus: a short per-change exploration of the kernel's event order, the
# trace reader, the allocator, the ARQ's dense transaction table and the
# axis FIFO ring.
FUZZTIME ?= 10s
FUZZ_TARGETS = FuzzKernelOrder:./internal/sim \
	FuzzTraceReader:./internal/trace \
	FuzzAllocatorOps:./internal/pool \
	FuzzARQResponseStream:./internal/tfnic \
	FuzzFIFO:./internal/axis

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		echo "== $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Run the link-fault chaos harness (nonzero exit on invariant violations).
chaos:
	$(GO) run ./cmd/chaos -failover

# Run the N×M pool chaos campaign: region churn + lender crash/restore
# under the deadline+ARQ stack, audited (nonzero exit on violations).
pool-chaos:
	$(GO) run ./cmd/chaos -pool

# Coverage floor for the pooling and observability layers: the cluster
# node graph, the pool allocator/policies, and the metrics plane must
# stay >= 80% covered by their own tests.
cover-pool:
	@for pkg in ./internal/cluster ./internal/pool ./internal/metricsplane ./internal/metricsplane/monitor; do \
		$(GO) test -coverprofile=/tmp/cover.out $$pkg >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=/tmp/cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg coverage: $$pct%"; \
		ok=$$(awk -v p="$$pct" 'BEGIN {print (p >= 80.0) ? 1 : 0}'); \
		if [ "$$ok" != 1 ]; then echo "$$pkg below the 80% floor"; exit 1; fi; \
	done

# Run the sim/core/obs benchmarks with allocation stats and record them as
# a machine-diffable JSON artifact (uploaded by CI).
bench:
	$(GO) test -run '^$$' -bench . -benchmem \
		./internal/sim ./internal/core ./internal/obs > bench.out
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT) < bench.out
	@rm -f bench.out

# Allocation-regression gate: rerun the benchmarks and fail if any of them
# regressed >20% in ns/op or grew allocs/op at all vs the committed baseline.
bench-gate:
	$(GO) test -run '^$$' -bench . -benchmem \
		./internal/sim ./internal/core ./internal/obs > bench.out
	$(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) -gate < bench.out > /dev/null
	@rm -f bench.out

# Race-check the pool-heavy packages: pooled transactions and free-listed
# continuations must stay data-race-free under concurrent sweep workers.
race-pools:
	$(GO) test -race ./internal/sim ./internal/cluster ./internal/pool \
		./internal/fabric ./internal/tfnic ./internal/ocapi \
		./internal/control ./internal/memport \
		./internal/workloads/kvstore ./internal/core

# Race-check the metrics plane: an 8-worker pool sweep writes every
# instrument while the exposition endpoint is scraped concurrently.
race-metrics:
	$(GO) test -race ./internal/metricsplane/...

# Regenerate every figure/table CSV under results/, plus report.txt
# (characterize's stdout).
characterize:
	$(GO) run ./cmd/characterize -out results > results/report.txt

# Golden check: regenerate every CSV and report.txt into a temporary
# directory and fail unless it is byte-identical to the committed results/.
golden:
	@tmp=$$(mktemp -d); \
	if ! $(GO) run ./cmd/characterize -out $$tmp > $$tmp/report.txt; then \
		rm -rf $$tmp; exit 1; fi; \
	diff -r results $$tmp; rc=$$?; rm -rf $$tmp; exit $$rc

# Smoke-test span tracing: a tiny traced STREAM run must emit valid
# Chrome-trace JSON and a nonempty per-stage breakdown.
trace-smoke:
	$(GO) run ./cmd/tfsim -workload stream -elements 4096 \
		-trace /tmp/thymesim-trace.json | tee /tmp/thymesim-trace.out
	grep -q '"traceEvents"' /tmp/thymesim-trace.json
	grep -q 'end_to_end' /tmp/thymesim-trace.out
	grep -q 'valid JSON' /tmp/thymesim-trace.out

# Smoke-test the live run monitor: build characterize, run the
# pool-contention sweep with -serve, scrape /metrics mid-run, and
# validate the exposition with the in-repo parser.
metrics-smoke:
	$(GO) test -run TestMetricsServeSmoke -v ./cmd/characterize

clean:
	$(GO) clean ./...
