# Tier-1 verification targets. `make check` is the full CI gate;
# `make lint` and `make race` run the two project-specific slices on
# their own.

GO ?= go

.PHONY: check lint lint-json race mutants build test fmt profile-encode profile-decode profile-park chaos fuzz overload autoscale audit oracle oracle-diff experiments

check:
	./scripts/check.sh

# Where an encode spends its CPU, by function, on one core under the CPU
# profiler: first the encode the upload runs (BenchmarkEncodeUploadRung:
# Speed 2, hardware restrictions, two-pass), then the other whole-frame
# benchmarks of internal/codec, where Speed 0 has nearly all the samples.
# The next optimization of the upload starts from the first table.
profile-encode:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	for bench in 'BenchmarkEncodeUploadRung 10x' 'BenchmarkEncode(Frame|Speeds) 2x'; do \
		set -- $$bench && \
		$(GO) test -run '^$$' -bench "$$1" -benchtime "$$2" -cpu 1 \
			-o "$$d/codec.test" -cpuprofile "$$d/cpu.prof" ./internal/codec && \
		$(GO) tool pprof -top -nodecount=15 "$$d/codec.test" "$$d/cpu.prof" || exit 1; \
	done

# Where a decode spends its CPU, the same way: BenchmarkDecodePlayback
# decodes the streams of the benchmark's playback_decode workload (a
# three-rung VP9-class ladder and a two-tile H.264-class stream) on one
# core under the CPU profiler. The table keeps only the samples under
# DecodeSequence, in percent of them: the streams' encode is setup. The
# range decoder's decision inlines into entropy.Sink.Bool, so it shows
# as bits.(*Decoder).Decide (inline), not as a GetBool frame; motion
# compensation shows under motion.samplePlanes, luma through SampleInto,
# both chroma planes through one SamplePair; predictions are sampled
# into the frame, so no copy of them shows at all.
profile-decode:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) test -run '^$$' -bench 'BenchmarkDecodePlayback' -benchtime 40x -cpu 1 \
		-o "$$d/codec.test" -cpuprofile "$$d/cpu.prof" ./internal/codec && \
	$(GO) tool pprof -top -focus=DecodeSequence -relative_percentages -nodecount=15 "$$d/codec.test" "$$d/cpu.prof"

# Where the control plane spends its CPU, the same way, one table per
# park at seed 1: BenchmarkParkSteady runs the benchmark's park_steady
# workload (2,000 workers, flat arrivals), BenchmarkParkOverload its
# park_overload (twelve workers, the queue pinned at its bound), each on
# one core under the CPU profiler, building each cluster and its
# arrivals untimed. A table keeps only the samples under RunUntil, in
# percent of them; the ns/op and allocs/op are the before/after rows of
# a control-plane change.
profile-park:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	for bench in 'BenchmarkParkSteady 15x' 'BenchmarkParkOverload 40x'; do \
		set -- $$bench && \
		$(GO) test -run '^$$' -bench "$$1\$$" -benchtime "$$2" -cpu 1 \
			-o "$$d/cluster.test" -cpuprofile "$$d/cpu.prof" ./internal/cluster && \
		$(GO) tool pprof -top -focus=RunUntil -relative_percentages -nodecount=15 "$$d/cluster.test" "$$d/cpu.prof" || exit 1; \
	done

lint:
	$(GO) run ./cmd/vculint ./...

# Machine-readable lint report, same shape CI uploads from check.sh
# (diagnostics plus the load and per-rule timing envelope).
lint-json:
	$(GO) run ./cmd/vculint -json -timing ./... >lint_report.json

# The gate's -race step: the tests that start goroutines (the list and
# the reason for each entry are in the script).
race:
	./scripts/race.sh

# Mutation yield of the gate: every mutants/*.patch applied to a copy of
# REF (default HEAD), which step kills it and in how many seconds. Says
# what each lint rule, test and race run is in the gate for; ~15
# minutes, not part of check.
mutants:
	./scripts/mutants.sh $(REF)

# Long-schedule deterministic chaos run (§4.4 fault lifecycle): more
# videos, faults and host crashes than the tier-1 variant, under -race,
# printing the invariant summary (watchdog fires, hedges, repair cycle,
# failure classes).
chaos:
	CHAOS_LONG=1 $(GO) test -race -v -run 'TestChaos' ./internal/cluster

# Long deterministic overload game-day: the 2× demand spike over a
# chaos schedule repeated across several brownout/recovery cycles,
# under -race, plus the fleetsim goodput and fleet-loss curves. The
# tier-1 gate runs the single-cycle variant.
overload:
	OVERLOAD_LONG=1 $(GO) test -race -v -run 'TestOverload|TestAdmission|TestBrownout|TestHedgeGuard|TestLiveDeadline|TestRegionSheds' ./internal/cluster
	$(GO) test -race -v -run 'TestGoodput|TestSLOVs|TestOverloadCurves' ./internal/fleetsim

# Autoscaling verification: the controller-interaction game-day (the
# autoscaler and the brownout ladder sharing the backlog signal without
# oscillating), the capacity-model units and the sched resize
# primitives under -race, plus the fleetsim cost-vs-SLO frontier. The
# tier-1 gate runs the game-day and determinism check in its test steps.
autoscale:
	$(GO) test -race -v -run 'TestAutoscale|TestCapacityModel|TestPredictedQueue|TestRequiredWorkers|TestBrownoutHolds|TestRebalanceStands|TestDrainBeforeRemove|TestCancelDrain|TestActivateAfterRetire|TestScaleFromZero|TestStaleRelease|TestCapacityTransition|TestShrinkOfWarming|TestSchedulerMatchesModel|TestReadmitDuringDrain|TestWarmupBelongs|TestLifecycle|TestIllegalTransitions' ./internal/cluster ./internal/sched
	$(GO) test -race -v -run 'TestCostVsSLOFrontier|TestFrontierDeterministic' ./internal/fleetsim

# Silent-corruption defense verification: the audit game-day (an
# intermittent corrupter demoted, convicted and recalled with zero
# false convictions), the hedge-laundering regression, the container
# chunk-checksum tamper tests, all under -race, plus the fleetsim
# escapes-vs-audit-budget frontier. The tier-1 gate runs the game-day
# and determinism check in its test steps.
audit:
	$(GO) test -race -v -run 'TestAudit|TestConvictionUnder|TestHedgeDoesNotLaunderCorruption|TestIntermittent|TestExtendedCheck|TestRegionAuditRollUp|TestAccumulateAuditStats' ./internal/cluster ./internal/vcu
	$(GO) test -race -v -run 'TestChunkChecksum' ./internal/container
	$(GO) test -race -v -run 'TestEscapesVsAuditBudgetFrontier|TestAuditFrontierDeterministic' ./internal/fleetsim

# Seed-exact outputs of the whole system (benchmark park and pixel
# workloads at seeds 1-3, fleetsim tables, failure drill) on stdout: run
# it on two commits and diff to show a refactor or an optimization
# changed no behaviour and no bitstream byte. Not part of check.
oracle:
	./scripts/oracle.sh

# The same on REF (default HEAD~1, a `git archive` copy) and on the
# working tree, diffed; fails on any difference.
oracle-diff:
	./scripts/oracle-diff.sh $(REF)

# Every producer EXPERIMENTS.md names, in table order: each recorded
# number is printed by exactly one of these command lines. Under a
# minute, most of it the Figure 7, Figure 10 and ablation encodes.
experiments:
	$(GO) run ./cmd/vbench -table1
	$(GO) test -run '^$$' -bench 'Table1_MOTvsSOT$$' -benchtime 1x .
	$(GO) run ./cmd/vbench -rd -frames 12
	$(GO) test -run '^$$' -bench 'Figure8_ProductionThroughput$$' -benchtime 1x .
	$(GO) run ./cmd/fleetsim -fig8 -fig9a -fig9b -fig9c -fig10
	$(GO) test -run '^$$' -bench 'Figure10_BitrateTuning$$' -benchtime 1x .
	$(GO) run ./cmd/balance
	$(GO) run ./examples/failuredrill
	$(GO) test -run 'TestRealPixelsIntegrityChecksCatchRealCorruption$$' -count 1 -v ./internal/cluster
	$(GO) run ./cmd/fleetsim -overload
	$(GO) run ./cmd/fleetsim -autoscale
	$(GO) run ./cmd/fleetsim -audit
	$(GO) run ./examples/livestream
	$(GO) run ./examples/cloudgaming
	$(GO) test -run '^$$' -bench 'Encode_Profiles$$' .
	$(GO) run ./cmd/workload
	$(GO) test -run '^$$' -bench 'Ablation' -benchtime 1x .

# Extended fuzzing of the four targets the gate smokes for 4s each:
# decoder, container reader, transform kernels against their scalar
# twins, range decoder against its bit-serial twin; and of the
# coefficient walk's reader against the loops it replaced and the
# deblocking lanes against the scalar filter, whose seeds `go test`
# runs. FUZZTIME is per target.
FUZZTIME ?= 2m

fuzz:
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) -run=NONE ./internal/codec
	$(GO) test -fuzz='^FuzzContainer$$' -fuzztime=$(FUZZTIME) -run=NONE ./internal/container
	$(GO) test -fuzz='^FuzzTransformMatchesScalar$$' -fuzztime=$(FUZZTIME) -run=NONE ./internal/codec/transform
	$(GO) test -fuzz='^FuzzBoolDecoderMatchesBitSerial$$' -fuzztime=$(FUZZTIME) -run=NONE ./internal/bits
	$(GO) test -fuzz='^FuzzCoeffSyntax$$' -fuzztime=$(FUZZTIME) -run=NONE ./internal/codec/entropy
	$(GO) test -fuzz='^FuzzDeblockMatchesScalar$$' -fuzztime=$(FUZZTIME) -run=NONE ./internal/codec/filter

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	gofmt -w .
