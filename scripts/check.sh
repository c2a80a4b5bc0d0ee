#!/bin/sh
# Repository check: vet, build, race-enabled tests, the steady-state
# allocation guards (BenchmarkBuildJKPooled and BenchmarkBuildJKSemiDirect
# must report 0 allocs/op — enforced in-suite by TestSteadyStateBuildAllocs
# and TestSemiDirectReplayAllocs, surfaced here for inspection), an
# explicit package-level race pass over the Fock execution core and the
# steal runtime (every placement's bitwise pins: dist == single-rank,
# steal == static under noise, rank-fault recovery, spill-warm == donor,
# the semi-direct cache and the allocation guards) and over the
# hfxd job service (its concurrency criteria: >= 8 parallel jobs, queue
# backpressure, drain, no goroutine leak), the hfxd end-to-end smoke test,
# and — first, while the guest is rested — the Fock bench regression gate:
# a fresh scripts/bench_fock.sh run (fastest of five per configuration, as
# the baseline was recorded) must not regress semi-direct ns/op by >20%,
# nor the d-shell replay's (BenchmarkBuildJKSemiDirect631Gs), the direct
# pooled build's or the served one-thread direct build's
# (BenchmarkDirectBuild) ns/op, any ERI class's ns/primquartet,
# the PBE0 XC integration's / tabulation's ns/op, any analytic-gradient
# row's ns/op (whole build and per phase) or a served trajectory's outer
# step (BenchmarkSessionStep) by >25% (and the d-shell replay and XC
# integration must stay at 0 allocs/op), against the committed
# BENCH_fock.json baseline. BenchmarkE5OnNodeThreading runs once.
# The ERI kernel gets a package-level race pass (naive-reference sweep, R
# programs == recurrence, batched Boys == scalar bitwise, alloc guard) and
# the cost model's measured 2x band run alone without the detector. The mprt
# runtime gets its own race pass (the collectives), a model gate
# (TestMeasuredStepsMatchModel fails when the measured collective step
# counters diverge from the bgq machine-model prediction), and a 4-rank
# hfxscale d1 smoke run (expD1 itself aborts on model divergence).
# The checkpoint layer gets a race pass over every fault-injected resume
# path plus a real SIGKILL crash-restart smoke (scripts/smoke_ckpt.sh)
# that diffs the resumed run's final-state hash against an
# uninterrupted reference. The fleet router and workload generator get
# their own race pass (routing policies, typed failover, trace replay),
# and a seeded-replay determinism smoke: the same c1 workload replayed
# twice must print identical per-SLO-class counts and digests.
# The tiered store gets a race pass (torn tails, corrupt-CRC skips,
# concurrent get/put/promote), a SIGKILL kill-and-restart smoke
# (scripts/smoke_store.sh: the repeated job must be a disk-warm hit with
# zero Fock builds on the restarted daemon), and a fast bench_store.sh
# run whose in-run gates enforce the tier latency ordering, the bitwise
# ERI spill round trip, and the shared-store fleet hit-ratio gain.
# The calibrated admission/routing seams get a race pass and the full
# w1 gate run: stealing must beat static measured balance under >=20%
# mispredicts plus a straggler rank (median of three builds per arm),
# every arm must stay bitwise identical, and over the settled builds the
# calibrated prediction error must stay within 1.75x of the raw cost
# model's.
# The RESPA multiple-time-step layer gets a race pass (the k-sweep drift
# gates, bitwise resume on and between outer boundaries, the cross-step
# session's warm-start/invalidation tests and its analytic forces against
# cold finite differences, the hfxd trajectory job),
# a SIGKILL crash-restart smoke over a k=2 campaign (scripts/smoke_mts.sh,
# resume must land bitwise on the uninterrupted reference), and the full
# m1 gate run: the k=4 drift must stay within the committed k^2 bound of
# the k=1 baseline, the warm/cold SCF-iteration ratio must undercut the
# committed reuse factor, and the in-process mid-cycle crash/resume must
# be bitwise identical.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...

# Fock bench regression gate against the committed baseline. It runs
# first: the baseline is recorded on a rested guest, and the minutes of
# race passes below leave this one running up to 1.6x slower.
fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT
scripts/bench_fock.sh "$fresh"
# extract NAME FIELD FILE prints FIELD of benchmark NAME in a
# bench_fock.sh output file.
extract() {
	sed -n 's|.*"'"$1"'": {.*"'"$2"'": \([0-9.e+]*\).*|\1|p' "$3"
}
# gate NAME FIELD PERCENT: the fresh run's FIELD of benchmark NAME must
# not exceed the committed baseline's by more than PERCENT.
gate() {
	base="$(extract "$1" "$2" BENCH_fock.json)"
	new="$(extract "$1" "$2" "$fresh")"
	test -n "$base" && test -n "$new"
	awk -v name="$1 $2" -v pct="$3" -v base="$base" -v new="$new" 'BEGIN {
		if (new > (1 + pct / 100) * base) {
			printf "FAIL: %s regressed: %.4g vs baseline %.4g (>%d%%)\n", name, new, base, pct
			exit 1
		}
		printf "%s: %.4g vs baseline %.4g (ok)\n", name, new, base
	}'
}
gate BenchmarkBuildJKSemiDirect ns_per_op 20
gate BenchmarkBuildJKPooled ns_per_op 25
# The replay on (H2O)2/6-31G*, one thread: the J/K digestion of d blocks;
# allocation-free like the other replay.
gate BenchmarkBuildJKSemiDirect631Gs ns_per_op 25
test "$(extract BenchmarkBuildJKSemiDirect631Gs allocs_per_op "$fresh")" = 0
# The served direct build, (H2O)3/STO-3G and (H2O)2/6-31G*, one thread;
# allocation-free like the pooled build.
for row in $(sed -n 's|.*"\(BenchmarkDirectBuild/[A-Za-z0-9-]*\)".*|\1|p' BENCH_fock.json); do
	gate "$row" ns_per_op 25
	test "$(extract "$row" allocs_per_op "$fresh")" = 0
done
for class in $(sed -n 's|.*"\(BenchmarkERIClass/[a-z]*\)".*|\1|p' BENCH_fock.json); do
	gate "$class" ns_per_primquartet 25
done
# XC rows: one PBE0 integration per SCF iteration and the once-per-geometry
# tabulation. A steady-state Integrate owns all its scratch, so the fresh
# run's allocs/op column must read 0.
for row in $(sed -n -e 's|.*"\(BenchmarkIntegratePBE0/[A-Za-z0-9]*\)".*|\1|p' \
	-e 's|.*"\(BenchmarkXCTabulate/[A-Za-z0-9]*\)".*|\1|p' BENCH_fock.json); do
	gate "$row" ns_per_op 25
	case "$row" in BenchmarkIntegratePBE0/*) test "$(extract "$row" allocs_per_op "$fresh")" = 0 ;; esac
done
# Analytic gradient rows: the whole build on warm objects and its phases
# (ERI-derivative contraction, XC pass with and without the ∇∇φ
# tabulation, one-electron terms) on LiH, H2O and (H2O)2.
for row in $(sed -n 's|.*"\(BenchmarkGradient/[A-Za-z0-9/-]*\)".*|\1|p' BENCH_fock.json); do
	gate "$row" ns_per_op 25
done
# Session-step rows: one outer step of a served trajectory (warm-started
# SCF + analytic gradient) on LiH and (H2O)2 / PBE0.
for row in $(sed -n 's|.*"\(BenchmarkSessionStep/[A-Za-z0-9/-]*\)".*|\1|p' BENCH_fock.json); do
	gate "$row" ns_per_op 25
done

go test -race ./...
# The Fock execution core (every placement: pool, rank-distributed,
# stealing) and the steal runtime under the race detector, explicitly.
go test -race -count=1 ./internal/hfx/ ./internal/steal/
# Alloc guards: one iteration is enough — the benchmarks fail themselves
# on warm-cache misses, and the allocs/op column must read 0.
go test ./internal/hfx/ -run '^$' -bench 'BenchmarkBuildJK(Pooled|SemiDirect)$' -benchtime 1x
# E5 times a thread-count sweep of real builds by hand (a testing.Benchmark
# nested in a running benchmark deadlocks); one iteration here keeps the
# experiment from hanging unnoticed.
go test -run '^$' -bench 'BenchmarkE5' -benchtime 1x .
go test -race -count=1 ./internal/server/ ./internal/trace/
# ERI kernel: the whole integrals, boys and qpx packages under the race
# detector (naive-reference sweep ssss..dddd, R programs == recurrence,
# batched Boys == scalar bitwise, warm-Scratch alloc guard). Its per-class
# micro-benchmark ran in the Fock gate above, where the allocs/op column
# must read 0.
go test -race -count=1 ./internal/integrals/ ./internal/boys/ ./internal/qpx/
# The cost model's measured-vs-predicted 2x band is opt-in (wall-clock,
# and the race detector distorts the kernel's cost shape): run it here,
# alone on the CPUs.
HFXMD_TIMED_TESTS=1 go test -count=1 ./internal/hfx/ -run 'TestCostModelTracksKernel'
# mprt runtime: race pass over the collectives and the torus embedding.
go test -race -count=1 ./internal/mprt/ ./internal/torus/
# Model gate: measured collective steps must equal the bgq machine-model
# prediction for both schedules on every tested world size.
go test -count=1 ./internal/mprt/ -run 'TestMeasuredStepsMatchModel'
# 4-rank distributed scaling smoke: expD1 log.Fatals if the measured
# step counters diverge from the model.
go run ./cmd/hfxscale -exp d1 -d1-ranks 1,4 -d1-waters 1
scripts/smoke_hfxd.sh
# Checkpoint/restart: race pass over the durability layer and the hfxd
# job-journal boot replay (the bitwise resume tests run with ./internal/md/
# below).
go test -race -count=1 ./internal/ckpt/
go test -race -count=1 ./internal/server/ -run 'TestJobJournal|TestServerRestoresJournaledJobsOnBoot|TestServerJournalsLiveJobs'
# Crash-restart smoke: SIGKILL a checkpointed aimd run, resume it, and
# require the resumed final state hash to equal the uninterrupted
# reference — bitwise.
scripts/smoke_ckpt.sh

# Fleet router + workload generator: race pass over the routing
# policies, typed draining/busy failover, the client retry loop, and
# both replay modes.
go test -race -count=1 ./internal/fleet/ ./internal/workload/
go test -race -count=1 ./internal/server/ -run 'TestClientDrainingErrorTyped|TestClientSubmitRetryWaitsOutBusy|TestRetryAfterIncludesInflightWork|TestCacheHitIDsDistinctFromJournaledJobIDs'
# Seeded-replay determinism smoke: two independent c1 runs (serial
# replays only) must agree on every per-class count and digest line.
rep1="$(mktemp)"; rep2="$(mktemp)"
go run ./cmd/hfxscale -exp c1 -c1-events 12 -c1-live=false | grep '^replay-digest' > "$rep1"
go run ./cmd/hfxscale -exp c1 -c1-events 12 -c1-live=false | grep '^replay-digest' > "$rep2"
diff "$rep1" "$rep2"
test -s "$rep1"
rm -f "$rep1" "$rep2"

# Tiered store: race pass over the crash-safety tests (torn active tail,
# corrupt-CRC record skip, concurrent get/put/promote churn), the server
# integration (restart disk-warm hit, ERI spill/warm, prefix density
# seeding, store/journal dir validation), and the shared-store fleet pin.
go test -race -count=1 ./internal/store/
go test -race -count=1 ./internal/server/ -run 'TestStoreDir|TestRestartAnswersFromDisk|TestERISpillWarms|TestPrefixDensity|TestDensityChains|TestCacheByteBudget'
go test -race -count=1 ./internal/fleet/ -run 'TestClusterSharedStore'
# SIGKILL kill-and-restart smoke: disk-warm hit, zero Fock builds.
scripts/smoke_store.sh
# Store bench (fast mode): the run fails itself if any acceptance gate
# (tier ordering, bitwise spill warm, fleet hit-ratio gain) breaks.
store_json="$(mktemp)"
S1_FAST=1 scripts/bench_store.sh "$store_json"
rm -f "$store_json"

# Work stealing beyond the core: race pass over the pathological Balance
# property tests and the calibrated admission/routing seams in the
# server and fleet.
go test -race -count=1 ./internal/sched/
go test -race -count=1 ./internal/server/ -run 'TestPriceRequestCalibrated|TestServerCalibrated|TestRetryAfterUsesCalibratedCosts|TestServerCalibratorPersists'
go test -race -count=1 ./internal/fleet/ -run 'TestFleetPriceMemo|TestFleetRoutingShifts'
# W1 gate run: aborts itself if any arm's J/K checksum diverges, if
# stealing fails to beat the static measured balance on the >=20%
# mispredict + straggler row, or if the calibrated error over builds
# 3..8 exceeds 1.75x the raw model's (the default model is fitted; see
# the header of cmd/hfxscale/stealbench.go for the margin).
w1_json="$(mktemp)"
go run ./cmd/hfxscale -exp w1 -w1-out "$w1_json"
rm -f "$w1_json"

# Trajectories: race pass over the integrator (drift across k, bitwise
# resume on and between outer boundaries under every fault mode, split
# fingerprint rejection), the md layer (the k = 1 resume and step-error
# tests, predictor warm start, pair-list invalidation bound, analytic
# forces == cold finite differences, the typed refusal of an unconverged
# SCF, the per-evaluation allocation guard), the relaxer on analytic
# forces, and the hfxd trajectory job (streamed steps, cancel-names-step,
# journal replay).
go test -race -count=1 ./internal/respa/
go test -race -count=1 ./internal/md/ ./internal/opt/
go test -race -count=1 ./internal/ckpt/ -run 'TestRespa|TestPlainStateImageUnchanged'
go test -race -count=1 ./internal/server/ -run 'TestServerTrajectory'
# SIGKILL crash-restart smoke over a k=2 campaign: the resumed run's
# final state hash must equal the uninterrupted reference — bitwise.
scripts/smoke_mts.sh
# M1 gate run: aborts itself if the k=4 drift breaks the k^2 bound (or
# the absolute ceiling), if the warm/cold SCF-iteration ratio misses
# the committed reuse factor, or if the mid-cycle crash/resume is not
# bitwise identical to the uninterrupted reference.
m1_json="$(mktemp)"
scripts/bench_mts.sh "$m1_json"
rm -f "$m1_json"
