#!/bin/sh
# Paired kernel benchmark: the ERI class rows (ns per primitive quartet),
# the served one-thread direct builds and the analytic-gradient rows
# (ns/op) of a base revision against the working tree, as alternating
# runs of prebuilt test binaries. The guest drifts by up to 1.6x with its
# neighbours' load over minutes; alternating the two sides run by run puts
# both under the same drift, and the per-row wins count how often the
# change was faster in its own pair.
#
# The base side is built from `git archive` of the revision into a
# temporary directory, the change side from the working tree. Per row the
# script prints the median and quartiles of both sides, the ratio of the
# medians (base over change: above 1 is a speed-up) and the pairs won.
#
# Usage: scripts/bench_pair.sh [base-rev]
# base-rev defaults to the merge-base of HEAD and main; N sets the number
# of pairs (default 5). Each row runs at the -benchtime bench_fock.sh
# records it at.
set -eu
cd "$(dirname "$0")/.."
base="$(git rev-parse "${1:-$(git merge-base HEAD main)}")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
for side in base change; do
	src=.
	test "$side" = base && src="$tmp/base"
	for pkg in integrals hfx scf; do
		(cd "$src" && go test -c -o "$tmp/$side-$pkg.test" "./internal/$pkg/")
	done
done

# run SIDE runs SIDE's binaries on every row; extract SIDE PAIR turns
# their output into "row side pair value" lines.
run() {
	(cd internal/integrals && "$tmp/$1-integrals.test" -test.run '^$' \
		-test.bench 'BenchmarkERIClass' -test.benchtime 0.2s)
	(cd internal/hfx && "$tmp/$1-hfx.test" -test.run '^$' \
		-test.bench 'BenchmarkDirectBuild' -test.cpu 1 -test.benchtime 10x)
	(cd internal/scf && "$tmp/$1-scf.test" -test.run '^$' \
		-test.bench 'BenchmarkGradient' -test.cpu 1 -test.benchtime 0.2s)
}
extract() {
	awk -v side="$1" -v pair="$2" '/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		for (i = 2; i < NF; i++) {
			if (name ~ /ERIClass/ && $(i+1) == "ns/primquartet") print name, side, pair, $i
			if (name !~ /ERIClass/ && $(i+1) == "ns/op") print name, side, pair, $i
		}
	}'
}
: >"$tmp/rows"
i=1
while [ "$i" -le "${N:-5}" ]; do
	# Alternate which side runs first, so neither always follows the other.
	if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
	for side in $order; do
		run "$side" | extract "$side" "$i" >>"$tmp/rows"
	done
	echo "pair $i of ${N:-5} done" >&2
	i=$((i + 1))
done

printf '%-40s %30s %30s %7s %5s\n' row "base p25/p50/p75" "change p25/p50/p75" ratio wins
sort -k1,1 -k2,2 -k4,4g "$tmp/rows" | awk '
function q(side, f,   n, x) {
	n = cnt[side]
	x = f * (n - 1) + 1
	return v[side, int(x)] + (x - int(x)) * (v[side, int(x) + 1] - v[side, int(x)])
}
function flush(   b, c, wins, p) {
	if (row == "") return
	wins = 0
	for (p in bv) if ((p in cv) && cv[p] < bv[p]) wins++
	b = q("base", 0.5); c = q("change", 0.5)
	printf "%-40s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %7.3f %2d/%d\n", row,
		q("base", 0.25), b, q("base", 0.75), q("change", 0.25), c, q("change", 0.75),
		b / c, wins, cnt["base"]
}
$1 != row { flush(); row = $1; delete cnt; delete v; delete bv; delete cv }
{
	v[$2, ++cnt[$2]] = $4
	if ($2 == "base") bv[$3] = $4; else cv[$3] = $4
}
END { flush() }'
