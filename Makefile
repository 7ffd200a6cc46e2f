GO ?= go

.PHONY: all build test examples bench-test fuzz-smoke race race-pools race-metrics vet fmt-check chaos characterize golden determinism trace-smoke metrics-smoke cover-pool deadcode clean

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
# trace reader, the allocator, the ARQ's dense transaction table, the
# axis FIFO ring, the experiment options' validation, the testbed
# config's validation and the fault schedule's validation and replay.
FUZZTIME ?= 10s
FUZZ_TARGETS = FuzzKernelOrder:./internal/sim \
	FuzzTraceReader:./internal/trace \
	FuzzAllocatorOps:./internal/pool \
	FuzzARQResponseStream:./internal/tfnic \
	FuzzFIFO:./internal/axis \
	FuzzOptionsValidate:./internal/core \
	FuzzConfigValidate:./internal/cluster \
	FuzzScheduleValidate:./internal/inject

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

# Run the chaos gate CI runs: the link-fault harness with the dead-link
# failover, the scheduled lender-fault campaign and the N×M pool churn
# campaign, each audited by cluster.Pool.Audit (nonzero exit on any
# violation).
chaos:
	$(GO) run ./cmd/chaos -failover -schedule -pool

# Coverage floor for the pooling and observability layers: the cluster
# node graph, the pool allocator/policies, and the metrics plane must
# stay >= 80% covered by their own tests.
cover-pool:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; trap 'exit 1' HUP INT TERM; \
	for pkg in ./internal/cluster ./internal/pool ./internal/metricsplane ./internal/metricsplane/monitor; do \
		$(GO) test -coverprofile=$$tmp/cover.out $$pkg >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=$$tmp/cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg coverage: $$pct%"; \
		ok=$$(awk -v p="$$pct" 'BEGIN {print (p >= 80.0) ? 1 : 0}'); \
		if [ "$$ok" != 1 ]; then echo "$$pkg below the 80% floor"; exit 1; fi; \
	done

# Dead-code ratchet: type-check every non-test package (stdlib go/types),
# walk references from every main package, bench/ and examples/, and fail
# on an unreachable declaration missing from testdata/deadcode_allow.txt or
# on a stale entry there. Behind a build tag so `go test ./...` skips it.
deadcode:
	$(GO) test -tags deadcode -run '^TestDeadCode$$' -count=1 .

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

# Parallel sweep determinism: each listed experiment must write
# byte-identical CSVs and stdout at -j 1 and -j 8. The list is every
# experiment whose sweep takes a cost hint (so -j 8 dispatches its points
# largest first while -j 1 runs them in index order), plus validation and
# breaker-recovery.
DETERMINISM_EXPERIMENTS = validation table1 fig5 mcbn mcln pool pool-contention breaker-recovery

determinism:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; trap 'exit 1' HUP INT TERM; \
	$(GO) build -o $$tmp/characterize ./cmd/characterize || exit 1; \
	for e in $(DETERMINISM_EXPERIMENTS); do \
		for j in 1 8; do \
			mkdir $$tmp/$$e-j$$j && \
			$$tmp/characterize -experiment $$e -j $$j -out $$tmp/$$e-j$$j > $$tmp/$$e-j$$j/report.txt || exit 1; \
		done; \
		diff -r $$tmp/$$e-j1 $$tmp/$$e-j8 || exit 1; \
		echo "== $$e: -j 1 and -j 8 byte-identical"; \
	done

# Smoke-test span tracing: a tiny traced STREAM run must emit valid
# Chrome-trace JSON and a nonempty per-stage breakdown. The same run with
# -metrics-ndjson must stream windowed time series: the injector backlog,
# link utilization and the tracer's stage rollups.
trace-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; trap 'exit 1' HUP INT TERM; \
	set -e; \
	$(GO) run ./cmd/tfsim -workload stream -elements 4096 \
		-trace $$tmp/trace.json | tee $$tmp/trace.out; \
	grep -q '"traceEvents"' $$tmp/trace.json; \
	grep -q 'end_to_end' $$tmp/trace.out; \
	grep -q 'valid JSON' $$tmp/trace.out; \
	$(GO) run ./cmd/tfsim -workload stream -elements 4096 \
		-trace $$tmp/trace.json -metrics-ndjson $$tmp/windows.ndjson; \
	grep -q '"thymesim_nic_injector_backlog"' $$tmp/windows.ndjson; \
	grep -q '"thymesim_link_utilization"' $$tmp/windows.ndjson; \
	grep -q '"thymesim_stage_time_us_total"' $$tmp/windows.ndjson

# Smoke-test the live run monitor: build characterize, run the
# pool-contention sweep with -serve, scrape /metrics mid-run, and
# validate the exposition with the in-repo parser.
metrics-smoke:
	$(GO) test -run TestMetricsServeSmoke -v ./cmd/characterize

clean:
	$(GO) clean ./...
