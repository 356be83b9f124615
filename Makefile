GO ?= go

.PHONY: build vet test race race-smoke smoke baseline bench-json daemon-smoke bench profile fuzz fuzz-smoke cover doc-check ci

build:
	$(GO) build ./...

# The benchmark is its own module (repro/benchmark), invisible to the root
# ./...; vetting it compiles it against the daemon/store/campaign/bench
# APIs it imports, so an API break fails here, not at benchmark time.
# gofmt -l then lists every Go file of both modules (benchmark/ included,
# .bench_build/ skipped) that gofmt would change; any listed file fails.
vet:
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...
	@unformatted=$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$(find . -path ./.bench_build -prune -o -name '*.go' -print)); \
		if [ -n "$$unformatted" ]; then echo "gofmt: unformatted Go files:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short farm-parallel smoke under the race detector: the tests that fan
# real sweep points across multi-worker farms (bench sections, the
# per-report run memo, chaos variant triples, magazine stats counters,
# the shared mem chunk free list), so any cross-engine data race on
# shared state fails fast without the cost of `make race`. It also runs
# the engine's coroutine hand-off tests (panics, Stop, fast-yield and
# stream equivalence), where Run and every proc share state across
# goroutine stacks.
race-smoke:
	$(GO) test -race -count=1 \
		-run 'Farm|RunSuite|RunMemo|PointSeed|MagazineStatsRace|ChunkPoolRace|Fig1Extended|ParallelHost|Campaign|Tenant|Store|Daemon|Coroutine|FastYieldEquivalence|StreamMatchesPerEntrySchedule' \
		./internal/bench/ ./internal/chaos/ ./internal/iova/ ./internal/shadow/ ./internal/campaign/ ./internal/tenant/ ./internal/store/ ./internal/daemon/ ./internal/mem/ ./internal/sim/

# The CI gates, each defined once in ci/gates.json: a committed baseline
# and the run (a daemon.RunSpec) that must reproduce it. The paper
# figures at a 1 ms window, the many-core Figure 1 extension at 2 ms, and
# the chaos, attack-campaign and hostile-tenant suites at seed 1.
# benchdiff runs every gate in-process on one farm and compares each with
# its baseline exactly (relative tolerance 1e-9, float noise only):
# simulations are deterministic, so identical code passes and any model
# change fails, naming every moved metric and flipped claim.
smoke:
	$(GO) run ./cmd/benchdiff ci/gates.json

# Regenerate the baselines whose gate fails (run after an intentional
# change to the cost model, a scenario, a payload or a scheme; review
# `git diff ci/` before committing). A passing gate's file is untouched.
baseline:
	$(GO) run ./cmd/benchdiff -write ci/gates.json

# Host-side scale benchmark artifact: engine dispatch ns/op at 16/64/128
# procs plus wall time and allocs/op for the 16/64/128-core strict-RX
# simulation points. Host-dependent (never gated); committed each PR as
# BENCH_scale.json so the dispatch/allocation trend is tracked in-repo.
bench-json:
	$(GO) run ./cmd/scalebench -json BENCH_scale.json

# Daemon smoke: start a simd on a fresh store, serve every gate of
# ci/gates.json through it (benchdiff -watch, the exact gate rule),
# require the warm memoized path to be >= 5x faster than a cold compute,
# and SIGTERM mid-flight to assert the graceful drain (doc/DAEMON.md).
daemon-smoke:
	sh ci/daemon-smoke.sh

# Host-side microbenchmarks of the simulation substrate (scheduler fence
# path, page store, DMA translation, IOVA allocators), of machine setup
# (posting an RX ring per design) and of one warm daemon request (a
# store hit over the unix socket). Results are host-dependent — they are
# written to bench-host.txt for eyeballing, not gated.
bench:
	$(GO) test -run '^$$' -bench . -benchmem \
		./internal/sim/ ./internal/mem/ ./internal/iommu/ ./internal/iova/ ./internal/bench/ \
		./internal/daemon/ | tee bench-host.txt

# Profile the smoke workload: writes cpu.prof and mem.prof to /tmp.
# Inspect with: go tool pprof -http=: /tmp/cpu.prof
profile:
	$(GO) run ./cmd/reproduce -window 1 -skip-sensitivity \
		-cpuprofile /tmp/cpu.prof -memprofile /tmp/mem.prof > /dev/null
	@echo "wrote /tmp/cpu.prof /tmp/mem.prof"

# Native coverage-guided fuzzing, every target: IOMMU translation vs. a
# model page table and mem access vs. a model byte store (both seeded
# from dmafuzz-generated corpora), the page-indexed table vs. a Go map,
# the shadow pool's IOVA metadata decoder, the KV server's request
# decoder, the daemon's request decoder plus RunSpec.Normalize, the
# client's reply reader (FuzzReply: a hostile header line or length), the
# result store's entry reader, and device-side DMA traces through every
# protection backend under dmafuzz's oracles (FuzzDeviceDMA; Go minimizes
# each new input, at a few dozen execs/s, hence its short
# -fuzzminimizetime). Short budgets — this is a smoke pass; raise
# -fuzztime for a longer campaign.
fuzz:
	$(GO) test ./internal/iommu/ -run '^$$' -fuzz '^FuzzTranslate$$' -fuzztime 10s
	$(GO) test ./internal/mem/ -run '^$$' -fuzz '^FuzzAccess$$' -fuzztime 10s
	$(GO) test ./internal/mem/ -run '^$$' -fuzz '^FuzzPageMap$$' -fuzztime 10s
	$(GO) test ./internal/shadow/ -run '^$$' -fuzz '^FuzzIOVADecode$$' -fuzztime 10s
	$(GO) test ./internal/kv/ -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 10s
	$(GO) test ./internal/daemon/ -run '^$$' -fuzz '^FuzzRequest$$' -fuzztime 10s
	$(GO) test ./internal/daemon/ -run '^$$' -fuzz '^FuzzReply$$' -fuzztime 10s
	$(GO) test ./internal/store/ -run '^$$' -fuzz '^FuzzStoreGet$$' -fuzztime 10s
	$(GO) test ./internal/dmafuzz/ -run '^$$' -fuzz '^FuzzDeviceDMA$$' -fuzztime 10s -fuzzminimizetime 5s

# The security oracle's line for a stale-IOVA write on a backend with no
# declared window: the canaries below must print it, so a dmafuzz that
# fails for any other reason (a misspelled backend) does not count.
STALE_WRITE = security: [0-9]* stale-IOVA device writes reached OS memory

# Deterministic differential-fuzzing smoke for CI (~10 s): fixed seeds
# through every backend and all three oracle families, a byte-identical
# determinism check, and two canaries that the harness still catches a
# reintroduced stale window: strict unmap skipping invalidation
# (skipinval), and copy-degraded's spill unmaps skipping it
# (spillnoinval).
fuzz-smoke:
	$(GO) run ./cmd/dmafuzz -seed 1 -n 500 > /dev/null
	$(GO) run ./cmd/dmafuzz -seed 2 -n 500 > /dev/null
	$(GO) run ./cmd/dmafuzz -seed 3 -n 300 -alloc-fail-every 7 > /dev/null
	$(GO) run ./cmd/dmafuzz -seed 1 -n 500 -json > /tmp/dmafuzz-a.json
	$(GO) run ./cmd/dmafuzz -seed 1 -n 500 -json > /tmp/dmafuzz-b.json
	cmp /tmp/dmafuzz-a.json /tmp/dmafuzz-b.json
	@$(GO) run ./cmd/dmafuzz -seed 1 -n 200 -backends strict \
		-inject-bug skipinval -no-minimize 2>&1 > /dev/null | grep '$(STALE_WRITE)' > /dev/null || \
		{ echo "fuzz-smoke: reintroduced skipinval bug NOT caught"; exit 1; }
	@$(GO) run ./cmd/dmafuzz -seed 1 -n 200 -backends copy-degraded \
		-inject-bug spillnoinval -no-minimize 2>&1 > /dev/null | grep '$(STALE_WRITE)' > /dev/null || \
		{ echo "fuzz-smoke: reintroduced spillnoinval bug NOT caught"; exit 1; }
	@echo "fuzz-smoke: oracles pass on fixed seeds; both injected bugs caught"

# Coverage gate: total statement coverage must not drop below the
# committed floor in ci/coverage-baseline.txt. Raise the floor when
# coverage improves; never lower it to make CI pass. It runs every test,
# so it is also ci's non-race test run: on failure it prints the output
# of the failing packages.
cover:
	@$(GO) test -count=1 -coverprofile=/tmp/coverage.out ./... > /tmp/coverage.log 2>&1 || \
		{ grep -Ev '^ok |coverage: 0\.0% of statements$$' /tmp/coverage.log; exit 1; }
	@total=$$($(GO) tool cover -func=/tmp/coverage.out | tail -1 | awk '{gsub(/%/,""); print $$3}'); \
	floor=$$(cat ci/coverage-baseline.txt); \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { \
		if (t+0 < f+0) { printf "coverage gate: %.1f%% < baseline %.1f%%\n", t, f; exit 1 } \
		printf "coverage gate: %.1f%% >= baseline %.1f%%\n", t, f }'

# Documentation gate: every relative markdown link must resolve and every
# internal/ package must carry a package comment (see ci/doccheck).
doc-check:
	$(GO) run ./ci/doccheck

# Each test runs once: cover runs every test that `test` would, and race
# every test that race-smoke would, so neither of those two is listed.
ci: vet race smoke daemon-smoke fuzz-smoke cover doc-check
