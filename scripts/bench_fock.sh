#!/bin/sh
# Benchmark the Fock-build configurations — direct pooled, warm
# semi-direct (full ERI cache replay, on (H2O)4/STO-3G and, one thread, on
# (H2O)2/6-31G*) — the served one-thread direct build with its
# primitive-level screening, the ERI kernel per angular-momentum class, the
# PBE0 XC integration per SCF iteration with its once-per-geometry
# tabulation, the analytic gradient build whole and by phase, and one outer
# step of a served trajectory (md.Session.Forces on consecutive geometries),
# and emit BENCH_fock.json: ns/op, quartets computed per build, cache hit
# ratio and allocs/op per configuration; ns/op, primitive quartets
# evaluated per build, their skip ratio and allocs/op per direct-build row;
# ns per primitive quartet and allocs/op per class; ns/op, ns per grid point and allocs/op per XC row;
# ns/op and allocs/op per gradient row; ns/op, SCF iterations, XC table
# passes, live share of the grid and allocs/op per session-step row. Each
# is run COUNT times and the fastest run
# is the one recorded: the guest drifts by up to 1.6x with its neighbours'
# load, and the minimum is the estimate least moved by it. This file is the
# committed bench baseline; scripts/check.sh fails when the semi-direct
# ns/op regresses >20%, or the d-shell replay, the direct pooled build, any
# direct-build row, any kernel class, any XC row, any gradient row or any session-step row
# >25%, against it.
#
# Usage: scripts/bench_fock.sh [output.json]
# BENCHTIME overrides -benchtime (default 3x), COUNT overrides -count
# (default 5), STEPS the session steps timed per run (default 24x, one
# period of the benchmark's path, so the iteration counts repeat exactly).
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_fock.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test ./internal/hfx/ -run '^$' \
	-bench 'BenchmarkBuildJK(Pooled|SemiDirect|SemiDirect631Gs)$' \
	-benchtime "${BENCHTIME:-3x}" -count "${COUNT:-5}" | tee "$raw"
# The served direct build (one thread) with its primitive-level screening.
go test ./internal/hfx/ -run '^$' -bench 'BenchmarkDirectBuild' -cpu 1 \
	-benchtime "${DIRECTTIME:-10x}" -count "${COUNT:-5}" | tee -a "$raw"
go test ./internal/integrals/ -run '^$' -bench 'BenchmarkERIClass' \
	-benchtime "${CLASSTIME:-0.2s}" -count "${COUNT:-5}" | tee -a "$raw"
# -cpu 1: with two workers on a shared two-CPU guest the XC rows read
# anywhere between the one- and the two-thread time.
go test ./internal/dft/ -run '^$' -bench 'Benchmark(IntegratePBE0|XCTabulate)' -cpu 1 \
	-benchtime "${CLASSTIME:-0.2s}" -count "${COUNT:-5}" | tee -a "$raw"
# The gradient of a converged SCF on warm objects, by phase (see
# BenchmarkGradient); one builder thread, as in the served AIMD step.
go test ./internal/scf/ -run '^$' -bench 'BenchmarkGradient' -cpu 1 \
	-benchtime "${CLASSTIME:-0.2s}" -count "${COUNT:-5}" | tee -a "$raw"

# One outer step of a trajectory on a warm session, builder on one thread.
go test ./internal/md/ -run '^$' -bench 'BenchmarkSessionStep' -cpu 1 \
	-benchtime "${STEPS:-24x}" -count "${COUNT:-5}" | tee -a "$raw"

awk '
/^Benchmark(BuildJK|DirectBuild|ERIClass|IntegratePBE0|XCTabulate|Gradient|SessionStep)/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	ns = "null"; q = "null"; hr = "null"; al = "null"; pq = "null"; pp = "null"
	si = "null"; xp = "null"; lr = "null"; pe = "null"; sr = "null"
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op")          ns = $i
		if ($(i+1) == "quartets/op")    q  = $i
		if ($(i+1) == "hitratio")       hr = $i
		if ($(i+1) == "allocs/op")      al = $i
		if ($(i+1) == "ns/primquartet") pq = $i
		if ($(i+1) == "ns/point")       pp = $i
		if ($(i+1) == "scf-iters/step") si = $i
		if ($(i+1) == "xc-passes/step") xp = $i
		if ($(i+1) == "live-ratio")     lr = $i
		if ($(i+1) == "primquartets/op") pe = $i
		if ($(i+1) == "skipratio")      sr = $i
	}
	if (!(name in idx)) idx[name] = ++n
	else if (ns + 0 >= best[name]) next
	best[name] = ns + 0
	if (name ~ /ERIClass/)
		lines[idx[name]] = sprintf("  \"%s\": {\"ns_per_primquartet\": %s, \"allocs_per_op\": %s}", name, pq, al)
	else if (name ~ /IntegratePBE0|XCTabulate/)
		lines[idx[name]] = sprintf("  \"%s\": {\"ns_per_op\": %s, \"ns_per_point\": %s, \"allocs_per_op\": %s}", name, ns, pp, al)
	else if (name ~ /SessionStep/)
		lines[idx[name]] = sprintf("  \"%s\": {\"ns_per_op\": %s, \"scf_iters_per_step\": %s, \"xc_passes_per_step\": %s, \"live_ratio\": %s, \"allocs_per_op\": %s}", name, ns, si, xp, lr, al)
	else if (name ~ /DirectBuild/)
		lines[idx[name]] = sprintf("  \"%s\": {\"ns_per_op\": %s, \"primquartets_per_op\": %s, \"prim_skip_ratio\": %s, \"allocs_per_op\": %s}", name, ns, pe, sr, al)
	else if (name ~ /Gradient/)
		lines[idx[name]] = sprintf("  \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, al)
	else
		lines[idx[name]] = sprintf("  \"%s\": {\"ns_per_op\": %s, \"quartets_per_op\": %s, \"cache_hit_ratio\": %s, \"allocs_per_op\": %s}", name, ns, q, hr, al)
}
END {
	if (n == 0) { print "bench_fock: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
	print "{"
	for (i = 1; i <= n; i++) printf "%s%s\n", lines[i], (i < n ? "," : "")
	print "}"
}' "$raw" > "$out"

echo "wrote $out"
