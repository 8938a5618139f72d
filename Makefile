# Development targets for d2dhb. Everything is stdlib-only Go; no external
# tools beyond the Go toolchain are required.

GO ?= go

.PHONY: all build vet lint test race bubble bench bench-build repro examples load chaos cluster-smoke fuzz cover fmt clean

all: build vet lint test bench-build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full static-analysis gate: go vet, gofmt cleanliness, and the project
# suite (cmd/d2dvet) enforcing determinism, lock/IO hygiene, concurrency
# shutdown/leak discipline and wire-protocol invariants. -unused-allows
# also fails the build on stale //lint:allow directives, so suppressions
# cannot outlive the finding they justified.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/d2dvet -unused-allows ./...

test:
	$(GO) test ./...

# The benchmark is a module of its own (bench/go.mod) importing internal/*,
# so the root `go test ./...` never compiles it: build and test it here so
# an internal API change that breaks it fails tier-1 CI, not the bench run.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# The live stack's timing and relay chaos tests in synthetic time (Go >=
# 1.24): each runs only in a testing/synctest bubble over faultnet's
# in-memory network, at the paper's 270 s period and 300 s expiry, with
# exact counts at named virtual instants; a chaos test's seeded fault
# schedule runs on the bubble's clock. The load generator's fleet, replay
# and trunk redial tests run there too: 100-UE fleets of Table I's apps at
# speed-up 1 for virtual hours, each run ending off the 10 ms send grid,
# and the live goldens (TestLiveGolden) pin each run's timeline digest.
# The faultnet test checks that a pipe deadline fires on the bubble's
# clock. The list is internal/stacktest/bubble_tests.txt, one name a line:
# a plain `go test` runs the same tests through stacktest.Bubble, as a
# child `go test` with GOEXPERIMENT=synctest, and this target runs them
# directly, under the race detector and twice.
BUBBLE_TESTS := ^($(shell paste -sd'|' internal/stacktest/bubble_tests.txt))$$

bubble:
	GOEXPERIMENT=synctest $(GO) test -race -count=2 -run '$(BUBBLE_TESTS)' ./internal/session ./internal/relaynet ./internal/faultnet ./internal/loadgen

# The paper's evaluation as benchmarks: one sub-benchmark of
# BenchmarkEvaluation per entry of experiments.Evaluation, the list
# d2dbench prints and TestEvaluationGolden pins.
bench:
	$(GO) test -run '^$$' -bench Evaluation -benchmem ./internal/experiments

# Print every paper table/figure with paper-vs-measured comparisons.
repro:
	$(GO) run ./cmd/d2dbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/crowd
	$(GO) run ./examples/mobility
	$(GO) run ./examples/multiapp
	$(GO) run ./examples/liveproto

# Short open-loop capacity run against the real stack over loopback.
load:
	$(GO) run ./cmd/d2dload -ues 1000 -relays 2 -duration 5s -speedup 200

# Chaos suite: the fault-injection layer plus the real stack driven through
# scripted failure scenarios, race-checked — including the rolling-restart
# cycle over a live 3-shard cluster and the record/replay parity loop. The
# relay's and the load generator's chaos tests that run only in the bubble
# run here through their child go test (Go >= 1.24), under -race too.
chaos:
	$(GO) test -race -count=1 -v ./internal/faultnet
	$(GO) test -race -count=1 -v -run 'Chaos|Fallback|Backoff' ./internal/relaynet
	$(GO) test -race -count=1 -v -run 'Chaos' ./internal/loadgen

# Cluster smoke: 3-shard d2dcluster, /readyz drain gating, trunked load
# through the router with a shard hard-killed mid-run; asserts zero lost
# heartbeats and an advanced ring epoch.
cluster-smoke:
	scripts/cluster_smoke.sh

# Coverage-guided fuzz smoke: the wire-format decoder, the event kernel
# checked against its container/heap reference model, and the trace codec
# (decode must error or round-trip bit-identically).
fuzz:
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=30s ./internal/hbproto
	$(GO) test -fuzz=FuzzFrameReaderStream -fuzztime=30s ./internal/hbproto
	$(GO) test -fuzz=FuzzKernelVsHeapModel -fuzztime=30s ./internal/simtime
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/rec
	$(GO) test -fuzz=FuzzTileMergeVsSequential -fuzztime=30s ./internal/experiments

# Coverage gate: writes the module coverprofile (CI uploads coverage.out and
# the -func summary as artifacts) and fails if a gated package drops below
# the floor its test suite established. It builds the tests with
# GOEXPERIMENT=synctest (Go >= 1.24), so the live stack's timing tests run
# in this process, in the bubble, and count; the child runner of a plain
# build (stacktest.Bubble) is left out by its build tag. Floors trail the measured values
# (sched 98.3%, relaynet 86.6%, cluster 78.2%, loadgen 80.5%) slightly so
# unrelated churn doesn't flap the gate; raise them when the suites grow.
# rec (94.5%) and lint (91.3%) carry ≥85% floors.
# simtime (97.4%) and geo (87.5%) gate the tile-sharding kernel
# (TileGroup/Agenda/TileGrid); trace (96.0%) gates the keyed merge and
# the closed kind table.
# device (90.8%) is the one UE/relay state machine both city kernels run.
# session (95.5%) is the live clients' connection, uplink and send-driver
# core; inflight (100.0%) is the one in-flight table and loss rule, which the
# simulated UE and every live client keep.
# energy (98.4%) is the ledger every device of both kernels charges.
# faultnet (92.0%) is the fault schedule and the in-memory network the
# bubble runs the live stack on.
# experiments (90.6%), core (88.9%), hbproto (93.6%) and d2dbench (79.5%)
# gate the paper's evaluation: its pair and crowd measurements and the one
# list of its runs, the relay-plus-UEs builder, the frame codec and the
# CLI that prints the list.
COVER_FLOORS := internal/experiments:90 internal/core:88 internal/hbproto:93 cmd/d2dbench:79 internal/faultnet:92 internal/energy:95 internal/session:92 internal/inflight:96 internal/device:84 internal/sched:95 internal/relaynet:82 internal/cluster:74 internal/loadgen:76 internal/rec:90 internal/lint:88 internal/simtime:95 internal/geo:84 internal/trace:94

cover:
	GOEXPERIMENT=synctest $(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@set -e; for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$(GOEXPERIMENT=synctest $(GO) test -cover ./$$pkg | \
			awk '{for(i=1;i<=NF;i++) if($$i=="coverage:"){sub(/%/,"",$$(i+1)); print $$(i+1)}}'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; exit 1; fi; \
		echo "$$pkg coverage $$pct% (floor $$floor%)"; \
		if [ "$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN{print (p+0 >= f+0) ? 1 : 0}')" != 1 ]; then \
			echo "FAIL: $$pkg coverage $$pct% fell below the $$floor% floor"; exit 1; \
		fi; \
	done

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
