GO ?= go

.PHONY: build vet test race race-smoke smoke baseline scale-smoke scale-baseline bench-json chaos-smoke chaos-baseline attack-smoke attack-baseline tenant-smoke tenant-baseline daemon-smoke bench profile fuzz fuzz-smoke cover doc-check ci

build:
	$(GO) build ./...

# The benchmark is its own module (repro/benchmark), invisible to the root
# ./...; vetting it compiles it against the daemon/store/campaign/bench
# APIs it imports, so an API break fails here, not at benchmark time.
vet:
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...

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

# Fast end-to-end check: regenerate the full evaluation at a 1 ms window,
# write the machine-readable artifact, and gate it against the committed
# baseline. Per-point simulations are deterministic, so identical code
# must diff clean (exit 0); a regression or who-wins flip fails the make.
smoke:
	$(GO) run ./cmd/reproduce -window 1 -skip-sensitivity -json /tmp/BENCH_smoke.json > /dev/null
	$(GO) run ./cmd/benchdiff ci/baseline.json /tmp/BENCH_smoke.json

# Regenerate the committed baseline (run after an intentional change to
# the cost model or experiments; review the diff before committing).
baseline:
	$(GO) run ./cmd/reproduce -window 1 -skip-sensitivity -json ci/baseline.json > /dev/null

# Many-core scale gate: regenerate the Figure 1 extension (six systems x
# {1,4,16,64,128} cores, farmed) and diff it against the committed scale
# baseline. Simulated metrics are deterministic at any -parallel, so
# identical code must diff clean; only the farm.* host stats may differ
# (diff-exempt).
scale-smoke:
	$(GO) run ./cmd/reproduce -window 2 -skip-sensitivity -experiment fig1ext -json /tmp/SCALE_smoke.json > /dev/null
	$(GO) run ./cmd/benchdiff ci/scale-baseline.json /tmp/SCALE_smoke.json

# Regenerate the committed scale baseline (after an intentional change to
# the cost model or the fig1ext experiment; review the diff first).
scale-baseline:
	$(GO) run ./cmd/reproduce -window 2 -skip-sensitivity -experiment fig1ext -json ci/scale-baseline.json > /dev/null

# Host-side scale benchmark artifact: engine dispatch ns/op at 16/64/128
# procs plus wall time and allocs/op for the 16/64/128-core strict-RX
# simulation points. Host-dependent (never gated); committed each PR as
# BENCH_scale.json so the dispatch/allocation trend is tracked in-repo.
bench-json:
	$(GO) run ./cmd/scalebench -json BENCH_scale.json

# Resilience smoke: run the fault-injection scenarios (fault storm, IOVA
# scan, queue stall, pool squeeze) at fixed seed and gate the artifact
# against the committed chaos baseline, exactly like `smoke` does for the
# paper figures. Catches regressions in containment (goodput under
# attack), quarantine behaviour, and graceful-degradation accounting.
chaos-smoke:
	$(GO) run ./cmd/chaosbench -seed 1 -q -json /tmp/CHAOS_smoke.json
	$(GO) run ./cmd/benchdiff ci/chaos-baseline.json /tmp/CHAOS_smoke.json

# Regenerate the committed chaos baseline (after an intentional change to
# the scenarios, policies, or cost model; review the diff first).
chaos-baseline:
	$(GO) run ./cmd/chaosbench -seed 1 -q -json ci/chaos-baseline.json

# Attack-campaign smoke: run every payload in the malicious-device
# library against every protection backend at fixed seed and gate the
# success-matrix artifact against the committed attack baseline. Any
# cell flip — a defense newly broken or newly effective — fails the
# build and must be investigated, not re-baselined away.
attack-smoke:
	$(GO) run ./cmd/attackbench -seed 1 -q -json /tmp/ATTACK_smoke.json
	$(GO) run ./cmd/benchdiff ci/attack-baseline.json /tmp/ATTACK_smoke.json

# Regenerate the committed attack baseline (only after an intentional,
# reviewed change to a payload or a protection model).
attack-baseline:
	$(GO) run ./cmd/attackbench -seed 1 -q -json ci/attack-baseline.json

# Multi-tenant datapath smoke: run the hostile-tenant isolation matrix
# (3 attacks x 3 schemes) and the isolation-vs-throughput sweep (up to
# 1024 tenant queues) at fixed seed and gate the artifact against the
# committed tenant baseline. An isolation-cell flip — a scheme newly
# breached or newly containing — or goodput drift fails the build.
tenant-smoke:
	$(GO) run ./cmd/tenantbench -seed 1 -q -json /tmp/TENANT_smoke.json
	$(GO) run ./cmd/benchdiff ci/tenant-baseline.json /tmp/TENANT_smoke.json

# Regenerate the committed tenant baseline (only after an intentional,
# reviewed change to a scheme, a hostile program, or the cost model).
tenant-baseline:
	$(GO) run ./cmd/tenantbench -seed 1 -q -json ci/tenant-baseline.json

# Daemon smoke: start a simd on a fresh store, serve every baseline
# suite through it (benchdiff -watch; 0 drift vs the committed gates),
# require the warm memoized path to be >= 5x faster than a cold compute,
# and SIGTERM mid-flight to assert the graceful drain (doc/DAEMON.md).
daemon-smoke:
	sh ci/daemon-smoke.sh

# Host-side microbenchmarks of the simulation substrate (scheduler fence
# path, page store, DMA translation, IOVA allocators) and of machine setup
# (posting an RX ring per design). Results are host-dependent — they are
# written to bench-host.txt for eyeballing, not gated.
bench:
	$(GO) test -run '^$$' -bench . -benchmem \
		./internal/sim/ ./internal/mem/ ./internal/iommu/ ./internal/iova/ ./internal/bench/ | tee bench-host.txt

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
# decoder, the daemon's request decoder plus RunSpec.Normalize, and the
# result store's entry reader. Short budgets — this is a smoke pass;
# raise -fuzztime for a longer campaign.
fuzz:
	$(GO) test ./internal/iommu/ -run '^$$' -fuzz '^FuzzTranslate$$' -fuzztime 10s
	$(GO) test ./internal/mem/ -run '^$$' -fuzz '^FuzzAccess$$' -fuzztime 10s
	$(GO) test ./internal/mem/ -run '^$$' -fuzz '^FuzzPageMap$$' -fuzztime 10s
	$(GO) test ./internal/shadow/ -run '^$$' -fuzz '^FuzzIOVADecode$$' -fuzztime 10s
	$(GO) test ./internal/kv/ -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 10s
	$(GO) test ./internal/daemon/ -run '^$$' -fuzz '^FuzzRequest$$' -fuzztime 10s
	$(GO) test ./internal/store/ -run '^$$' -fuzz '^FuzzStoreGet$$' -fuzztime 10s

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
ci: vet race smoke scale-smoke chaos-smoke attack-smoke tenant-smoke daemon-smoke fuzz-smoke cover doc-check
