#!/bin/sh
# The Fock perf gate: every Fock-build, ERI-kernel, prep (pair tables and
# pair list), one-electron, XC, analytic-gradient and session-step benchmark row of a
# base revision against the working tree, as alternating runs of prebuilt
# test binaries. The guest drifts by
# up to 1.6x with its neighbours' load; running the two sides of a row
# back to back, in alternating order, puts both under the same drift, so
# no wall-clock baseline is committed anywhere.
#
# The base side is built from `git archive` of the revision into a
# temporary directory, the change side from the working tree. Per row the
# script prints the median and quartiles of both sides (ns per primitive
# quartet for the ERI classes, ns/op for the rest), the ratio of the
# medians (base over change: above 1 is a speed-up), the pairs in which
# the change was slower, the quartiles of the per-pair ratios (base over
# change within each pair) and a verdict:
#   worse       the change's median is above the base's by more than the
#               row's band (20% for BenchmarkBuildJKSemiDirect, 25% for
#               every other row) and the change was slower in at least
#               nine tenths of the pairs;
#   unresolved  over the band without that majority: printed, not failed;
#   ok          otherwise.
# The script exits 1 if any row is worse.
#
# Given an output path, it also writes there the change side's
# machine-independent columns in BENCH_fock.json's format: quartets and
# primitive quartets per build, the primitive skip ratio, the ERI-cache
# hit ratio, allocs/op, SCF iterations and XC passes per session step and
# the live share of the grid. scripts/check.sh requires the file to equal
# the committed BENCH_fock.json.
#
# Usage: scripts/bench_pair.sh [base-rev [counts.json]]
# An absent or empty base-rev defaults to the merge-base of HEAD and main,
# or to HEAD^ when that merge-base is HEAD itself and the working tree
# has no change against it (the change is already committed on main).
# The script prints the base it used and how it chose it. N sets the
# number of pairs (default 10; one pair takes about 30 s on 2 vCPUs).
#
# An A/A check is `scripts/bench_pair.sh REV` run from a clean checkout
# of REV: both sides are then the same tree, so every difference between
# them is noise. Each row's ratio of medians and its per-pair ratio
# quartiles are that row's A/A spread, and a row that reads worse is a
# false alarm of the gate.
set -eu
cd "$(dirname "$0")/.."
if [ -n "${1:-}" ]; then
	base="$1" why="given"
else
	base="$(git merge-base HEAD main)" why="the merge-base of HEAD and main"
	if [ "$base" = "$(git rev-parse HEAD)" ] && git diff --quiet HEAD; then
		base="HEAD^" why="HEAD^, since HEAD is the merge-base with main and the tree is clean"
	fi
fi
base="$(git rev-parse "$base")"
echo "base: $base ($why)" >&2
out="${2:-}"
pairs="${N:-10}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
for side in base change; do
	src=.
	test "$side" = base && src="$tmp/base"
	for pkg in hfx integrals screen dft scf md; do
		# -trimpath: identical code builds identical binaries on both sides.
		(cd "$src" && go test -c -trimpath -o "$tmp/$side-$pkg.test" "./internal/$pkg/")
	done
done

# bench SIDE PKG ARGS... runs SIDE's test binary of PKG from that side's
# package directory.
bench() {
	dir=. bin="$tmp/$1-$2.test" pkg="$2"
	test "$1" = base && dir="$tmp/base"
	shift 2
	(cd "$dir/internal/$pkg" && "$bin" -test.run '^$' -test.timeout 10m "$@" </dev/null)
}
# extract SIDE PAIR turns a run's output into "t row side pair time" and
# "c row side pair column value" lines.
extract() {
	awk -v side="$1" -v pair="$2" '
	BEGIN {
		col["quartets/op"] = "quartets_per_op"; col["primquartets/op"] = "primquartets_per_op"
		col["skipratio"] = "prim_skip_ratio"; col["hitratio"] = "cache_hit_ratio"
		col["allocs/op"] = "allocs_per_op"; col["scf-iters/step"] = "scf_iters_per_step"
		col["xc-passes/step"] = "xc_passes_per_step"; col["live-ratio"] = "live_ratio"
	}
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		for (i = 2; i < NF; i++) {
			if ($(i+1) == (name ~ /ERIClass/ ? "ns/primquartet" : "ns/op")) print "t", name, side, pair, $i
			else if ($(i+1) in col) print "c", name, side, pair, col[$(i+1)], $i
		}
	}'
}
# Each pair runs every benchmark invocation below on both sides back to
# back. Every row runs at the -benchtime and -cpu its numbers are read at:
# -cpu 1 is the served one-thread build, and on the XC rows it also keeps
# two workers on a shared two-CPU guest from reading anywhere between the
# one- and the two-thread time; 24 session steps are one period of the
# benchmark's path, so its counts repeat exactly.
: >"$tmp/rows"
i=1
while [ "$i" -le "$pairs" ]; do
	# Alternate which side runs first, so neither always follows the other.
	if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
	while read -r pkg args; do
		for side in $order; do
			# $args is split on purpose: one word per flag, no spaces within.
			bench "$side" "$pkg" $args >"$tmp/out" 2>&1 || { cat "$tmp/out" >&2; exit 1; }
			extract "$side" "$i" <"$tmp/out" >>"$tmp/rows"
		done
	done <<'ROWS'
hfx -test.bench BenchmarkBuildJK(Pooled|SemiDirect|SemiDirect631Gs)$ -test.benchtime 3x
hfx -test.bench BenchmarkDirectBuild -test.cpu 1 -test.benchtime 10x
integrals -test.bench BenchmarkERIClass -test.benchtime 0.2s
integrals -test.bench Benchmark(PairTables|OneElectron)$ -test.cpu 1
screen -test.bench BenchmarkBuildPairListThreads1 -test.cpu 1
dft -test.bench Benchmark(IntegratePBE0|XCTabulate) -test.cpu 1 -test.benchtime 0.2s
scf -test.bench BenchmarkGradient -test.cpu 1 -test.benchtime 0.2s
md -test.bench BenchmarkSessionStep -test.cpu 1 -test.benchtime 24x
ROWS
	echo "pair $i of $pairs done" >&2
	i=$((i + 1))
done

# allocs/op is written as the fewest of the change's runs: the runtime
# allocates on its own now and then (a select or WaitGroup wait that finds
# the sudog cache emptied by a garbage collection), which only ever adds.
# Every other column is written only when it reads the same in every run.
if [ -n "$out" ]; then
	awk -v pairs="$pairs" '$3 != "change" { next }
	!($2 in row) { row[$2] = ++n; name[n] = $2 }
	$1 == "c" {
		k = $2 SUBSEP $5
		if (!(k in val)) { val[k] = $6; cols[$2] = cols[$2] " " $5 }
		else if ($5 == "allocs_per_op") { if ($6 + 0 < val[k] + 0) val[k] = $6 }
		else if (val[k] != $6) varies[k] = 1
		runs[k]++
	}
	END {
		print "{"
		for (r = 1; r <= n; r++) {
			line = ""
			m = split(cols[name[r]], c, " ")
			for (j = 1; j <= m; j++) {
				k = name[r] SUBSEP c[j]
				if (runs[k] == pairs && !(k in varies))
					line = line (line == "" ? "" : ", ") "\"" c[j] "\": " val[k]
			}
			printf "  \"%s\": {%s}%s\n", name[r], line, (r < n ? "," : "")
		}
		print "}"
	}' "$tmp/rows" >"$out"
fi

printf '%-40s %30s %30s %7s %6s %23s %s\n' row "base p25/p50/p75" "change p25/p50/p75" ratio slower "pair ratio p25/p50/p75" verdict
awk '$1 == "t"' "$tmp/rows" | sort -k2,2 -k3,3 -k5,5g | awk '
function q(side, f,   n, x) {
	n = cnt[side]
	x = f * (n - 1) + 1
	return v[side, int(x)] + (x - int(x)) * (v[side, int(x) + 1] - v[side, int(x)])
}
function flush(   b, c, slower, p, band, verdict, i, t) {
	if (row == "") return
	if (!cnt["base"] || !cnt["change"]) { printf "%-40s only on one side\n", row; return }
	slower = 0
	# The per-pair ratios, insertion-sorted into v["ratio", 1..n].
	cnt["ratio"] = 0
	for (p in bv) if (p in cv) {
		t = bv[p] / cv[p]
		for (i = ++cnt["ratio"]; i > 1 && v["ratio", i - 1] > t; i--) v["ratio", i] = v["ratio", i - 1]
		v["ratio", i] = t
		if (cv[p] > bv[p]) slower++
	}
	b = q("base", 0.5); c = q("change", 0.5)
	band = row == "BenchmarkBuildJKSemiDirect" ? 20 : 25
	verdict = "ok"
	if (c > (1 + band / 100) * b) verdict = 10 * slower >= 9 * cnt["base"] ? "worse" : "unresolved"
	if (verdict == "worse") failed = 1
	printf "%-40s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %7.3f %3d/%-2d %7.3f/%7.3f/%7.3f %s\n", row,
		q("base", 0.25), b, q("base", 0.75), q("change", 0.25), c, q("change", 0.75),
		b / c, slower, cnt["base"], q("ratio", 0.25), q("ratio", 0.5), q("ratio", 0.75), verdict
}
$2 != row { flush(); row = $2; delete cnt; delete v; delete bv; delete cv }
{
	v[$3, ++cnt[$3]] = $5
	if ($3 == "base") bv[$4] = $5; else cv[$4] = $5
}
END { flush(); exit failed }'
