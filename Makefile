GO ?= go
GOFMT ?= gofmt
FUZZTIME ?= 10s

.PHONY: all build vet fmt test race check benchcheck golden bench experiments faults lossy serve mesh churn chaos fuzz simcheck cover profile

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
	$(GO) run ./cmd/udmabench -json BENCH_udma.json

experiments:
	$(GO) run ./cmd/udmabench

# profile captures pprof artifacts from the parallel-core experiment
# (e14): the hot window loop, barrier merge and worker fan-out.
# Inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/udmabench -exp e14 -cpuprofile cpu.pprof -memprofile mem.pprof

faults:
	$(GO) run ./cmd/shrimpsim -scenario faults

# lossy runs the lossy-wire sweep (E13): seeded drop/corrupt/dup/
# reorder against the NIC's reliable delivery protocol, plus a rerun and
# a 4-worker run whose rendered tables must match bit-exactly.
lossy:
	$(GO) run ./cmd/shrimpsim -scenario lossy

# serve runs the open-loop serving trial: seeded Poisson arrivals at a
# fixed offered rate, SLO readout, and a bit-exactness proof (same-seed
# rerun plus a 4-worker run must reproduce the fingerprint).
serve:
	$(GO) run ./cmd/shrimpsim -scenario serve

# mesh runs the routed-fabric incast scenario on the 64-node mesh:
# throttled links vs ample links, hot-link occupancy, and the
# bit-exactness proof (rerun plus a different worker count must
# reproduce the fingerprint). Try -topology torus via shrimpsim directly.
mesh:
	$(GO) run ./cmd/shrimpsim -scenario incast -nodes 64 -topology mesh

# churn runs the connection-churn trial: short-lived flows (one NIPT
# entry each) against a bounded on-board NIPT cache, with idle
# reliability state reclaimed at barriers, plus the same bit-exactness
# proof as serve.
churn:
	$(GO) run ./cmd/shrimpsim -scenario churn

# chaos runs the crash–restart trial: a seeded node crash schedule
# against the open-loop serving workload, with the availability readout
# (downtime, dip depth, time-to-recover) and the same bit-exactness
# proof as serve.
chaos:
	$(GO) run ./cmd/shrimpsim -scenario chaos

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
