#!/bin/sh
# Repository check, in this order:
#
#  1. go vet, gofmt (no file may need formatting) and go build.
#  2. The Fock perf gate, scripts/bench_pair.sh: every Fock-build, ERI
#     class, prep, XC, analytic-gradient and session-step benchmark row of the
#     script's default base (the merge-base with main, or HEAD^ on a
#     clean main) against the working tree, as ten alternating
#     pairs of prebuilt test binaries. It fails on any row whose median
#     is more than 20% (BenchmarkBuildJKSemiDirect) or 25% (every other
#     row) above the base's and that was slower in at least nine of ten
#     pairs. The change's counts (quartets, primitive quartets, skip and
#     hit ratios, allocs/op, SCF iterations and XC passes per step, live
#     grid share) must then equal the committed BENCH_fock.json exactly;
#     the builds, the replays, the kernel classes and the XC rows read
#     0 allocs/op there.
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
#     experiment index cannot rot unnoticed: each is the one regenerator
#     of its table.
#  6. Three end-to-end smokes through the real binaries: the hfxd job
#     service; SIGKILL crash-restart of a checkpointed aimd run at k=1
#     and of a k=2 RESPA campaign (each resumed final state must match
#     its uninterrupted reference bitwise), then a store-seeded aimd
#     rerun; and SIGKILL restart of a store-backed hfxd (the repeated job
#     is a disk-tier hit with zero Fock builds).
set -eux

cd "$(dirname "$0")/.."

go vet ./...
test -z "$(gofmt -l .)"
go build ./...

# The Fock perf gate (step 2 above).
counts="$(mktemp)"
trap 'rm -f "$counts"' EXIT
scripts/bench_pair.sh '' "$counts"
diff BENCH_fock.json "$counts"

go test -race -count=1 ./...

for pkg in $(go list ./...); do
	for f in $(go test -list '^Fuzz' "$pkg" | sed -n '/^Fuzz/p'); do
		go test -run '^$' -fuzz "^$f\$" -fuzztime 10s "$pkg"
	done
done

# The slow suite: one iteration of each benchmark is enough, since they
# fail themselves on warm-cache misses and the allocs/op column must read
# 0. The BenchmarkE* experiments (about two and a half minutes on 2 vCPUs:
# E8's two benchmarks take most of it, E1–E3's shared strong-scaling study
# about 35 s) run once each so none can break unnoticed.
HFXMD_TIMED_TESTS=1 go test -count=1 -p 1 \
	-bench 'BenchmarkBuildJK(Pooled|SemiDirect)$|BenchmarkE[0-9]' -benchtime 1x \
	. ./internal/hfx/ ./internal/dft/

scripts/smoke_hfxd.sh
scripts/smoke_ckpt.sh
scripts/smoke_store.sh
