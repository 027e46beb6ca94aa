GO ?= go

.PHONY: check chaos chaos-scenarios chaos-search chaos-topology build test vet lint bench bench-smoke fuzz-smoke

# Pinned so CI runs reproduce: bump deliberately, not via a floating tag.
STATICCHECK_VERSION ?= 2024.1.1

# Per-target budget for the fuzz smoke run.
FUZZ_TIME ?= 15s

## check: the full gate — vet, build, and the whole suite under the race
## detector (includes the crash-recovery smoke tests alongside everything else),
## then vet and test the benchmark module, which compiles against the
## repository's packages but is a module of its own.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## chaos: the fault-injection + crash chaos suite (fixed seeds 1-5): exact
## collectives under drop/corrupt/jitter/stall, deterministic traces, flap
## healing, dead-node timeouts, resource-pressure runs under capped trigger
## lists (complete exactly or return a watchdog diagnosis — never hang), the
## NIC reliability and trigger-fault property tests, the crash-restart
## matrix: mid-collective crashes with epoch-fenced rejoin, heartbeat
## membership convergence, and recoverable Jacobi reintegration — the
## partition matrix: clean and asymmetric cuts, gray links under static vs
## adaptive RTO, split-brain refusal, and mid-collective heal rejoin — and
## the SDC matrix: silent wire/buffer/reducer corruption caught by the e2e
## checksum and claim chain, with blame-driven permanent quarantine and
## exact sums over the post-quarantine membership — and the straggler
## matrix: fail-slow GPU/cmd/DMA classes under hedged collectives, with
## progress-based Slow verdicts, ring bypass of confirmed stragglers,
## recovery/rejoin, and exact sums over the responsive membership.
chaos:
	$(GO) test -race -v -run 'TestChaos|TestReliable|TestAllreduceTimeout|TestAllreduceRingHeal|TestBroadcastHeal|TestBroadcastTimeout|TestRelaxedSyncRace|TestTriggerWriteLoss|TestCrash|TestRecoverable|TestRestartEpoch|TestStaleSrc|TestCancelTriggered|TestMarkPeerCrashed|TestSuite|TestPeerDead|TestPartition|TestDoubleCrash|TestAdaptiveRTO|TestLinkHealth|TestMatrixClassifies|TestSymmetricCut|TestHealReturns|TestSDC|TestQuarantineIsPermanent|TestSlow|TestStraggler|TestHedged' ./internal/collective/ ./internal/nic/ ./internal/health/ ./internal/workloads/jacobi/

## chaos-scenarios: the composed correlated-failure matrix under the race
## detector — every backend x chaos seeds 1-5 x {rack-crash+cut,
## gray+straggler, restart-storm} completes exactly at zero audit
## violations, plus scenario determinism (byte-identical reruns,
## zero-config bit-for-bit), the scenario flag grammar, and the
## seeded double-fire / stale-delivery auditor regressions.
chaos-scenarios:
	$(GO) test -race -v -count=1 -run 'TestScenario|TestApplyScenario|TestAuditor|TestChaosScenario|TestChaosSearch|TestSampledScenarios' ./internal/collective/ ./internal/fault/ ./internal/config/ ./internal/nic/ ./internal/bench/

## chaos-topology: the fat-tree failure-domain matrix under the race
## detector at full scale (CHAOS_TOPOLOGY_FULL=1: every backend x chaos
## seeds 1-5 x {spine-kill, pod-cut, incast-storm} at 64 nodes) plus the
## fabric unit suite: spine/trunk kill rerouting, named Unrouteable
## diagnoses, credit/ECN bounds, hop conservation under kills,
## deterministic replay, and the zero-config bit-for-bit guarantee. The 256-node
## pod-scale smoke runs without -race (wall-clock, not correctness).
chaos-topology:
	CHAOS_TOPOLOGY_FULL=1 $(GO) test -race -v -count=1 -timeout 60m -run 'TestFatTree|TestTopologyChaosMatrix' ./internal/collective/ ./internal/network/
	CHAOS_TOPOLOGY_FULL=1 $(GO) test -v -count=1 -timeout 30m -run 'TestTopologyChaos256Smoke' ./internal/collective/

## chaos-search: a budgeted shrinking chaos search per seeded protocol bug —
## each must be found, minimized, and emitted as a replayable -scenario-*
## flag line; the honest search must come back clean. CI runs this nightly
## and uploads the reproducer output.
chaos-search:
	$(GO) run ./cmd/gputn-bench -exp chaossearch -chaos-seed 42 -chaos-trials 4
	$(GO) run ./cmd/gputn-bench -exp chaossearch -chaos-seed 42 -chaos-trials 4 -chaos-inject doublefire

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

## lint: gofmt (fails on any file it would rewrite), vet, and staticcheck
## at a pinned version. Fetches staticcheck, so it needs network — CI runs
## it; local `make check` stays offline-friendly.
lint:
	@unformatted=$$(gofmt -l ./cmd ./internal ./examples); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

## bench: the full simulator perf run (events/sec, allocs/event, wall time
## per experiment); refreshes the BENCH_sim.json baseline at the repo root.
bench:
	$(GO) run ./cmd/gputn-bench -exp perf -perf-preset full -bench-out BENCH_sim.json

## bench-smoke: the reduced perf run CI uses — compares against the
## committed BENCH_sim.json baseline first (failing on >30% events/sec
## regression), then overwrites it with the fresh smoke report.
bench-smoke:
	$(GO) run ./cmd/gputn-bench -exp perf -perf-preset smoke -bench-baseline BENCH_sim.json -bench-out BENCH_sim.json

## fuzz-smoke: every committed Fuzz* target under the actual fuzzer for
## FUZZ_TIME each — plain `go test` only replays their seed corpora. The
## engine allows one -fuzz pattern per invocation, so targets run serially.
## The target list is discovered from the tree, so a new Fuzz* function is
## picked up without touching this file.
fuzz-smoke:
	@set -e; \
	grep -rlE '^func Fuzz' --include='*_test.go' internal | sort | while read -r file; do \
		dir=$$(dirname "$$file"); \
		grep -hoE '^func Fuzz[A-Za-z0-9_]*' "$$file" | sed 's/^func //' | while read -r target; do \
			echo "==> $$target ./$$dir/"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZ_TIME) "./$$dir/" || exit 1; \
		done || exit 1; \
	done
