# Development entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GEOLINT := $(CURDIR)/bin/geolint

.PHONY: all build test check race churn tilecache lint escapecheck escapebaseline fuzz bench bench-e2e bench-e2e-quick coverage-served clean

all: build lint test

build:
	go build ./...

test:
	go test ./...

# check runs the test suite with the geoselcheck runtime assertions
# compiled in (internal/invariant); release builds carry none of them.
check:
	go test -tags geoselcheck ./...

race:
	go test -race ./internal/... .

# churn runs the snapshot-isolation suite — sessions navigating while
# the live store ingests and compacts — under the race detector with the
# runtime invariants compiled in.
churn:
	go test -race -tags geoselcheck -run 'Churn|Compaction' -count=1 ./internal/livestore ./internal/isos ./internal/tilecache

# tilecache runs the tile-grain cache suite — stitched-serving property
# tests with the runtime invariants on, then the invalidation churn test
# under the race detector. Cold-vs-warm serving is measured end to end
# by `make bench-e2e` (workloads viewport_warm and mixed_live).
tilecache:
	go test -tags geoselcheck ./internal/tilecache
	go test -race -run Churn -count=1 ./internal/tilecache

# lint runs the stock vet checks, the project's own analyzers
# (tools/geolint) through the go vet driver, and the hot-path escape
# check (see escapecheck) as CI's lint job runs it.
lint: $(GEOLINT)
	go vet ./...
	go vet -vettool=$(GEOLINT) ./...
	go run ./tools/escapediff -strict

$(GEOLINT): FORCE
	go build -o $(GEOLINT) ./tools/geolint

FORCE:

# escapecheck diffs the compiler's escape analysis over the hot-path
# packages against the committed baseline; new heap escapes inside
# //geolint:hotpath functions fail. escapebaseline regenerates the
# baseline after a reviewed change (or a toolchain upgrade).
escapecheck:
	go run ./tools/escapediff

escapebaseline:
	go run ./tools/escapediff -update

# A -fuzz pattern must match exactly one target in its package, hence
# the anchors where several targets share one.
fuzz:
	go test -run=NONE -fuzz=FuzzDeriveConsistency -fuzztime=10s ./internal/isos
	go test -run=NONE -fuzz=FuzzRowSums -fuzztime=10s ./internal/sim
	go test -run=NONE -fuzz=FuzzRowCosine -fuzztime=10s ./internal/sim
	go test -run=NONE -fuzz=FuzzResidualWalk -fuzztime=10s ./internal/core
	go test -run=NONE -fuzz=FuzzAppendObjectJSON -fuzztime=10s ./internal/geodata
	go test -run=NONE -fuzz='^FuzzDecodeTile$$' -fuzztime=10s ./internal/tilecache
	go test -run=NONE -fuzz='^FuzzStitchMerge$$' -fuzztime=10s ./internal/tilecache
	go test -run=NONE -fuzz=FuzzRequestBodies -fuzztime=10s ./internal/server
	go test -run=NONE -fuzz='^FuzzRegionOrder$$' -fuzztime=10s ./internal/livestore
	go test -run=NONE -fuzz='^FuzzReadCSV$$' -fuzztime=10s ./internal/dataset
	go test -run=NONE -fuzz='^FuzzReadJSONL$$' -fuzztime=10s ./internal/dataset
	go test -run=NONE -fuzz='^FuzzReadBinary$$' -fuzztime=10s ./internal/dataset
	go test -run=NONE -fuzz='^FuzzReadAuto$$' -fuzztime=10s ./internal/dataset
	go test -run=NONE -fuzz='^FuzzTokenize$$' -fuzztime=10s ./internal/textsim
	go test -run=NONE -fuzz='^FuzzFromText$$' -fuzztime=10s ./internal/textsim
	go test -run=NONE -fuzz='^FuzzSample$$' -fuzztime=10s ./internal/sampling

# bench runs the in-process benchmarks of the serving path: a cold
# select, a served select through SelectRegion that reports gc/op, and
# a grid region query (core), a prefetch bound pass (prefetch), a
# warm /select (server) and warm viewports served from every P through
# the tile cache's one lock (tilecache). Run the served select with
# -cpu 1 as well: on 2 Ps the idle P absorbs the collector's mark work
# and hides it from ns/op. CI's test job runs every in-process benchmark
# once (-benchtime=1x) so none can rot — these, the live store's commit and
# ingest benchmarks (livestore), the load path's snapshot read (dataset)
# and per-text vector build (textsim), and the root package's
# per-exhibit benchmarks.
bench:
	go test -run=NONE -bench=. -benchmem ./internal/core ./internal/prefetch
	go test -run=NONE -bench=WarmSelectHandler -benchmem ./internal/server
	go test -run=NONE -bench=WarmSelectParallel -benchmem -cpu 1,2 ./internal/tilecache

# bench-e2e runs the end-to-end benchmark BENCHMARK.json declares: the
# real geoselserver under closed-loop HTTP load, four workloads, one
# JSON line of metrics at the end (bench/README.md). bench-e2e-quick is
# its shrunk smoke shape.
bench-e2e:
	go run ./bench

bench-e2e-quick:
	go run ./bench -quick

# coverage-served builds the server, the CLIs and the examples with
# coverage, runs each of them (bench -quick drives the server), and
# lists every function no program ran. It fails on one that
# tools/served/allow.txt does not explain, and on an entry whose
# function is gone (DESIGN §6.4).
coverage-served:
	sh tools/served/coverage.sh

clean:
	rm -rf bin
