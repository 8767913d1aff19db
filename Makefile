# Tier-1 verification entry point. `make check` is what CI and every PR
# must keep green: formatting, vet, build, tests, and the race detector
# over the concurrent experiment engine.

GO ?= go

.PHONY: check fmt vet lint build test bench-module race bench bench-ab soak dist-soak fuzz cover loc

check: fmt vet lint build test bench-module race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" ; echo "$$out" ; exit 1 ; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. CI pins STATICCHECK_VERSION and runs with
# LINT_STRICT=1 so a missing binary fails the job; locally an absent
# staticcheck degrades to a warning (the repo must build offline).
STATICCHECK_VERSION ?= 2025.1.1

lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	elif [ "$(LINT_STRICT)" = "1" ]; then \
		echo "lint: staticcheck not on PATH (want $(STATICCHECK_VERSION));" \
		     "go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)" ; \
		exit 1 ; \
	else \
		echo "lint: staticcheck not on PATH; skipping (LINT_STRICT=1 to fail)" ; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository benchmark (bench/, BENCHMARK.json) is a Go module of its
# own importing edgealloc/internal/... through a replace, so ./... above
# never compiles it. Vet it and run its ~4 s self-test here, so a change
# to the types it drives (core.Options, StepDiag, ShardHost, WarmState,
# the serve API) breaks tier-1 and not the next benchmark run.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The experiment engine runs (case, rep, algorithm) units on a worker
# pool; every test runs under the race detector to keep it honest. The
# detector slows the solver-heavy packages 10-25x (internal/core takes
# ~6 min on a 2-vCPU container — ~15 s plain — with its eleven slowest
# tests under t.Parallel(); what is left is mostly the FISTA reference
# runs the property tests compare against: the structured paths they check
# solve with the Newton inner solver and finish in a fraction of that), so
# give each package far more than the 10m default before go test declares
# a hang.
race:
	$(GO) test -race -timeout 60m ./...

# Differential fuzzing against the paper-conformance oracle (DESIGN.md
# §8). Each target runs for FUZZTIME on top of the committed seed corpora
# under testdata/fuzz; plain `make test` replays the seeds only. The
# targets are discovered, not listed: every Fuzz* function `go test -list`
# finds in a package of ./... . go test accepts one fuzz target per
# invocation, hence the loop; it runs every target whatever the earlier
# ones did and fails at the end, naming the ones that failed, so one red
# target does not hide the others.
FUZZTIME ?= 30s

fuzz:
	@failed=""; \
	for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg) || { failed="$$failed $$pkg"; continue; }; \
		for target in $$(echo "$$targets" | grep '^Fuzz'); do \
			echo "== $$target ($(FUZZTIME)) =="; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg \
				|| failed="$$failed $$target"; \
		done; \
	done; \
	if [ -n "$$failed" ]; then echo "fuzz: failed:$$failed"; exit 1; fi

# Non-test Go lines outside bench/ in the files git tracks: the size every
# change reports (ROADMAP). Stage new files first; untracked ones are not
# counted.
loc:
	@git ls-files -z '*.go' ':(exclude)*_test.go' ':(exclude)bench' | xargs -0 cat | wc -l

# Coverage with per-package floors on the guarantee-bearing packages
# (scripts/cover.sh; floors recorded in DESIGN.md §8).
cover:
	./scripts/cover.sh

# Solver micro-kernels, one served slot and a finished run's certificate
# (ns/op, B/op, allocs/op);
# compare two runs with benchstat. Their allocs/op or bytes/op are pinned
# in tier-1 by TestHotPathAllocs;
# what a slot costs end to end is `bash bench/run.sh`.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/perf/

# The repository benchmark, A/B: PARENT and CHANGE (default HEAD) checked
# out into temporary git worktrees, `bash bench/run.sh` alternated between
# them for PAIRS pairs, then medians, the parent's IQR, pair wins and
# whether cost_per_slot / certified_ratio matched bit for bit
# (scripts/bench_ab.sh). Commit the change first; keep the machine idle.
CHANGE ?= HEAD
WORKLOAD ?= rome_exact
SEED ?= 1
RUN_SECONDS ?= 16
PAIRS ?= 10

bench-ab:
	@test -n "$(PARENT)" || { echo "bench-ab: set PARENT=<rev>"; exit 2; }
	./scripts/bench_ab.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(RUN_SECONDS) \
		--pairs $(PAIRS) $(PARENT) $(CHANGE)

# Race-detector soak of the serving tier: sustained concurrent
# slot-advance / snapshot / TTL-eviction / drain traffic under -race.
# SOAK_ITERS bounds the iteration budget (CI uses a short one).
SOAK_ITERS ?= 3

soak:
	$(GO) test -race -timeout 20m -run 'TestServeSoak' -count $(SOAK_ITERS) ./internal/serve/

# Distributed-shard soak: real edgeshard worker processes behind the
# shardrpc transport, with a kill -9 / restart chaos loop running while
# the race-instrumented TestDistSoak drives full horizons through them
# and pins the result against the in-process reference
# (scripts/dist_soak.sh; log in dist-soak.log).
dist-soak:
	./scripts/dist_soak.sh
