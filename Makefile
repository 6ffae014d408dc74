.PHONY: build test microbench vet fmt-check inline-check lint fuzz cover e2e chaos

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# Fails listing every file gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# Fails naming every function on the checked-in hot-path list
# (scripts/inline_hotpath.txt) that the compiler no longer inlines.
inline-check:
	./scripts/inlinecheck.sh

# Short native-fuzzing smoke over the cell-key round-trip property and
# the snapshot codec (mutated checkpoint bytes must decode with
# matching CRCs or fail with a typed error — never panic or over-
# allocate); a counterexample fails the run and is minimized into
# testdata/fuzz as a permanent regression case.
fuzz:
	go test -run '^$$' -fuzz FuzzEncodeDecodeCell -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz FuzzSnapshotRoundTrip -fuzztime 10s ./internal/snapshot
	go test -run '^$$' -fuzz FuzzScoreStateRoundTrip -fuzztime 10s ./internal/stream

# lint = gofmt cleanliness + vet + the hot-path inlining guard + the
# repo's godoc discipline (every exported symbol in internal/ and cmd/
# must carry a doc comment, see cmd/doccheck) + the fuzz smoke run.
lint: fmt-check vet inline-check fuzz
	go run ./cmd/doccheck ./internal ./cmd

# Coverage gate: fails when internal/... test coverage drops below the
# checked-in threshold (scripts/coverage_threshold.txt).
cover:
	./scripts/coverage.sh

# spotd crash-recovery e2e: builds the daemon binary, streams into it,
# SIGKILLs it mid-stream, restarts over the same data directory and
# replays — recovered verdicts must match the uninterrupted oracle bit
# for bit; the SIGTERM variant must drain, checkpoint every
# acknowledged point and exit 0.
e2e:
	go test -count=1 -run 'TestE2E' -v ./cmd/spotd

# Replication chaos drill, under the race detector: a primary+standby
# spotd pair streams a labeled workload while the harness SIGKILLs
# processes (promote + restart per the failover runbook), severs the
# replication link through a proxy, and corrupts every Nth shipped
# snapshot on the wire. Every verdict must match an uninterrupted
# oracle at the tick the server reports, every call must return a
# verdict or typed error (never hang), and no standby may accept a
# generation that regresses one it holds. CHAOS_ROUNDS overrides the
# default 20 randomized rounds.
chaos:
	go test -race -count=1 -run 'TestChaosFailover' -v ./cmd/spotd

# Hot-path microbenchmarks: the open-addressed cell table vs its
# map-backed oracle (internal/core), the detector's point/batch
# ingestion paths and its d=20/50/100 × 1/4/8-shard throughput grid
# (internal/stream), with allocation reporting. The -run filter also
# executes the zero-allocs gates, so a steady-state allocation on the
# hot path fails the target. Override BENCHTIME (e.g. BENCHTIME=1x)
# for a smoke run in CI.
BENCHTIME ?= 1s
microbench:
	go test -run 'ZeroAllocs' -bench 'PCSTable|ProcessPoint|ProcessBatch|Detector' -benchmem -benchtime $(BENCHTIME) ./internal/core ./internal/stream
