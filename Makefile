# Repro build/test entry points. `make check` is the full gate: static
# analysis, a clean build, the test suite under the race detector, and
# schema validation of the checked-in perf baseline.

GO ?= go

.PHONY: all build test vet staticcheck race check bench bench-snapshot snapshot-check bench-smoke bench-tenants tenant-smoke bench-drift drift-smoke timeline-smoke scale-smoke bench-scale bench-fleet fleet-smoke wallclock

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Runs staticcheck when it is on PATH and skips (loudly) when it is not:
# dev containers without network access cannot `go install` it, but CI does
# and must not skip.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

check: vet staticcheck build race snapshot-check tenant-smoke drift-smoke timeline-smoke scale-smoke fleet-smoke

bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ . ./internal/bench/ ./internal/sim/

# Regenerate the checked-in perf baseline after an intentional timing change.
bench-snapshot:
	$(GO) run ./cmd/offloadbench bench-snapshot -o BENCH_fig13.json
	$(GO) test -run TestCheckedInBenchSnapshotValid ./internal/bench/

# Validate the checked-in baseline's schema and pinned timings.
snapshot-check:
	$(GO) test -run 'TestCheckedInBenchSnapshotValid|TestFig13SnapshotMatchesPinnedGuards' ./internal/bench/

# Perf smoke: allocation budgets on the event core and proxy-loop hot paths, the
# serial-vs-parallel determinism guard, and a byte-level diff of a
# parallel-runner snapshot against the checked-in baseline.
bench-smoke:
	$(GO) test -run 'AllocFree|AllocBudget|TestSweepSerialParallelIdentical|TestCheckedInWallclockValid' -v ./internal/sim/ ./internal/span/ ./internal/core/ ./internal/bench/
	$(GO) run ./cmd/offloadbench bench-snapshot -parallel 4 -o .bench_fig13.parallel.json
	cmp BENCH_fig13.json .bench_fig13.parallel.json
	rm -f .bench_fig13.parallel.json

# Regenerate the checked-in multi-tenant crossover baseline after an
# intentional timing or scheduling change.
bench-tenants:
	$(GO) run ./cmd/offloadbench bench-tenants -o BENCH_tenants.json
	$(GO) test -run TestCheckedInTenantsSnapshotValid ./internal/bench/

# Tenant smoke: validate the checked-in crossover baseline and prove the
# shared-fabric sweep (latency-bound foreground + background bulk jobs on
# one proxy worker per DPU) renders byte-identically serial vs parallel.
tenant-smoke:
	$(GO) test -run 'TestCheckedInTenantsSnapshotValid|TestTenantsSweepParallelIdentical' ./internal/bench/
	$(GO) run ./cmd/offloadbench tenants -parallel 1 > .tenants.p1.out
	$(GO) run ./cmd/offloadbench tenants -parallel 4 > .tenants.p4.out
	cmp .tenants.p1.out .tenants.p4.out
	rm -f .tenants.p1.out .tenants.p4.out

# Regenerate the checked-in mid-run-drift baseline (feedback-policy
# re-route vs frozen Measuring) after an intentional behaviour change.
bench-drift:
	$(GO) run ./cmd/offloadbench bench-drift -o BENCH_drift.json
	$(GO) test -run TestCheckedInDriftSnapshotValid ./internal/bench/

# Drift smoke: validate the checked-in drift baseline (which asserts the
# re-route claim: frozen measure degrades >= 1.5x post-arrival while
# feedback re-probes and ties host-direct) and prove the drift figure
# renders byte-identically serial vs parallel.
drift-smoke:
	$(GO) test -run 'TestCheckedInDriftSnapshotValid|TestSplitDriftWindows' ./internal/bench/
	$(GO) test -run TestDriftFigureDeterministicAcrossParallelism ./internal/figures/

# Timeline smoke: the flight-recorder zero-overhead guards (a live and a
# nil recorder both reproduce the pinned fig13 timings bit for bit), then
# the timeline subcommand at -parallel 1 vs 4 with every export — time
# series JSONL/Prometheus, per-policy Chrome traces, and the rendered
# drift-attribution table (paths stripped) — compared byte for byte.
timeline-smoke:
	$(GO) test -run 'TestTimelineRecorderMatchesFig13Exactly|TestTimelineNilRecorderMatchesFig13Exactly|TestTimelineSweepParallelIdentical' ./internal/bench/
	$(GO) run ./cmd/offloadbench timeline -iters 16 -parallel 1 -o .timeline.p1 > .timeline.p1.out
	$(GO) run ./cmd/offloadbench timeline -iters 16 -parallel 4 -o .timeline.p4 > .timeline.p4.out
	cmp .timeline.p1.jsonl .timeline.p4.jsonl
	cmp .timeline.p1.prom .timeline.p4.prom
	cmp .timeline.p1.measure.trace.json .timeline.p4.measure.trace.json
	cmp .timeline.p1.feedback.trace.json .timeline.p4.feedback.trace.json
	grep -v '^timeseries: \|^trace: ' .timeline.p1.out > .timeline.p1.tbl
	grep -v '^timeseries: \|^trace: ' .timeline.p4.out > .timeline.p4.tbl
	cmp .timeline.p1.tbl .timeline.p4.tbl
	rm -f .timeline.p1.* .timeline.p4.*

# Scale smoke: the sharded-kernel determinism guards (full fig13 snapshot
# bytes at -shards {0,2,4} vs serial), schema validation of the checked-in
# 1024-rank baseline, then a reduced 256-rank scale run at -shards 4 vs
# serial, byte-compared — the two-sided guard at the scale shape itself.
scale-smoke:
	$(GO) test -run 'TestSharded|TestCheckedInScaleSnapshotValid' ./internal/sim/ ./internal/bench/
	$(GO) run ./cmd/offloadbench scale -maxranks 256 -shards 1 -o .scale.s1.json > .scale.s1.out
	$(GO) run ./cmd/offloadbench scale -maxranks 256 -shards 4 -o .scale.s4.json > .scale.s4.out
	cmp .scale.s1.json .scale.s4.json
	rm -f .scale.s1.json .scale.s4.json .scale.s1.out .scale.s4.out

# Regenerate the checked-in 1024-rank scaling baseline after an intentional
# timing change (a few minutes of wall clock: the 1024-rank alltoall posts
# ~1M RDMA writes per iteration).
bench-scale:
	$(GO) run ./cmd/offloadbench scale -shards 0 -o BENCH_scale.json
	$(GO) test -run TestCheckedInScaleSnapshotValid ./internal/bench/

# Regenerate the checked-in mixed-fleet crossover baseline (homogeneous
# bf2 == fig13 guard + capability-aware-beats-blind margin) after an
# intentional timing or policy change.
bench-fleet:
	$(GO) run ./cmd/offloadbench bench-fleet -o BENCH_fleet.json
	$(GO) test -run TestCheckedInFleetSnapshotValid ./internal/bench/

# Fleet smoke: validate the checked-in mixed-fleet baseline (homogeneity +
# crossover claims) and prove bench-fleet regenerates it byte for byte —
# the fleet bench is deterministic, so any diff is a real change that must
# be committed deliberately via `make bench-fleet`.
fleet-smoke:
	$(GO) test -run 'TestCheckedInFleetSnapshotValid|TestFleetValidateRejects|TestNoRawPortConstantsOutsideDevice' ./internal/bench/ ./internal/device/
	$(GO) run ./cmd/offloadbench bench-fleet -o .fleet.json > .fleet.out
	cmp BENCH_fleet.json .fleet.json
	rm -f .fleet.json .fleet.out

# Re-record the wall-clock baseline (serial vs parallel fig13 sweep) on
# this host. Host-dependent: commit only from a representative machine.
wallclock:
	$(GO) run ./cmd/offloadbench wallclock -o BENCH_wallclock.json
