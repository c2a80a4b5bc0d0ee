#!/bin/sh
# Repository check, in this order:
#
#  1. go vet and go build.
#  2. The Fock bench regression gate, first, while the guest is rested: a
#     fresh scripts/bench_fock.sh run (fastest of five per configuration,
#     as the baseline was recorded) against the committed BENCH_fock.json.
#     Semi-direct ns/op may not regress by >20%; the d-shell replay, the
#     direct pooled build, every served one-thread direct build, every ERI
#     class's ns/primquartet, every XC row, every analytic-gradient row
#     and every served trajectory step by >25%. The d-shell replay, the
#     direct builds and the XC integration must stay at 0 allocs/op.
#  3. One race pass over every package: every bitwise pin, fault-injected
#     resume, concurrency criterion and model gate of the tier-1 suite.
#  4. Every fuzz target of every package for 10 s each, discovered with
#     go test -list, so a new Fuzz* function is fuzzed without an edit here.
#  5. The slow suite, alone on the CPUs and without the race detector,
#     which distorts costs: every HFXMD_TIMED_TESTS wall-clock gate (the
#     cost model within 2x of the kernel, stealing recovering balance
#     under a straggler, the density table's build time), the
#     steady-state allocation guards BenchmarkBuildJKPooled and
#     BenchmarkBuildJKSemiDirect (0 allocs/op; the tests enforce it too),
#     and every experiment benchmark BenchmarkE1…E8 once, so the
#     experiment index cannot rot unnoticed.
#  6. Four end-to-end smokes through the real binaries: the hfxd job
#     service, SIGKILL crash-restart of a checkpointed aimd run and of a
#     k=2 RESPA campaign (the resumed final state must match the
#     uninterrupted reference bitwise), and SIGKILL restart of a
#     store-backed hfxd (the repeated job is a disk-tier hit with zero
#     Fock builds).
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

go test -race -count=1 ./...

for pkg in $(go list ./...); do
	for f in $(go test -list '^Fuzz' "$pkg" | sed -n '/^Fuzz/p'); do
		go test -run '^$' -fuzz "^$f\$" -fuzztime 10s "$pkg"
	done
done

# The slow suite: one iteration of each benchmark is enough, since they
# fail themselves on warm-cache misses and the allocs/op column must read
# 0. The BenchmarkE* experiments (about two minutes on 2 vCPUs, most of it
# E8's peroxide dynamics) run once each so none can break unnoticed.
HFXMD_TIMED_TESTS=1 go test -count=1 -p 1 \
	-bench 'BenchmarkBuildJK(Pooled|SemiDirect)$|BenchmarkE[0-9]' -benchtime 1x \
	. ./internal/hfx/ ./internal/dft/

scripts/smoke_hfxd.sh
scripts/smoke_ckpt.sh
scripts/smoke_mts.sh
scripts/smoke_store.sh
