GO ?= go
GOFMT ?= gofmt
FUZZTIME ?= 10s

.PHONY: all build vet fmt test race check benchcheck golden bench experiments fuzz simcheck cover profile

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# race runs the suite twice under the race detector, so a race that
# shows on one pass in two is still caught.
race:
	$(GO) test -race -count=2 ./...

# check is the CI gate: everything must compile, vet and gofmt clean;
# the suite must pass once without the race detector (cover, the only
# pass where the allocation guards run: they skip under -race) and
# twice with it; then the benchmark module must build, vet and test
# clean against this tree and match its fingerprint pins (benchcheck).
check: build vet fmt cover race benchcheck

benchcheck:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./... && bash bench/run.sh -check

# golden rewrites the whole golden record under testdata/golden from
# the current code: experiment renderings, simcheck sweep reports,
# shrimpsim scenario lines and telemetry snapshots. The tests compare
# against it byte for byte; review `git diff testdata/golden` line by
# line. The packages are listed because `go test ./... -update` fails in
# any package whose test binary has no -update flag.
GOLDEN_PKGS = . ./cmd/shrimpsim ./examples/... ./internal/experiments ./internal/simcheck

golden:
	$(GO) test -count=1 $(GOLDEN_PKGS) -update

# bench runs every experiment and records the machine-readable headline
# metrics (bandwidth, latency percentiles, delivery counts) in
# BENCH_udma.json at the repo root for regression tracking.
bench:
	$(GO) run ./cmd/shrimpsim -exp all -json BENCH_udma.json

experiments:
	$(GO) run ./cmd/shrimpsim -exp all

# profile captures pprof artifacts from the parallel-core experiment
# (e14): the hot window loop, barrier merge and worker fan-out.
# Inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/shrimpsim -exp e14 -cpuprofile cpu.pprof -memprofile mem.pprof

# fuzz gives each native fuzz target a short budget (override with
# FUZZTIME=5m for a longer soak). Each target must be fuzzed alone:
# `go test -fuzz` accepts a single match per package.
fuzz:
	$(GO) test ./internal/addr -run FuzzProxyAddr -fuzz FuzzProxyAddr -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nic -run FuzzNIPTLookup -fuzz FuzzNIPTLookup -fuzztime $(FUZZTIME)

# simcheck runs the deterministic simulation checker's full seed sweep
# plus the broken-kernel detection tests.
simcheck:
	$(GO) test ./internal/simcheck -v

# cover writes a whole-repo coverage profile and prints the per-package
# function summary (CI uploads cover.out as an artifact).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
