#!/bin/sh
# Crash-restart smoke test for the checkpoint layer, end to end through
# the real binary, on two trajectories: plain velocity Verlet (k = 1) and
# a multiple-time-step RESPA campaign (k = 2: full SCF surface every 2nd
# step, spring reference between, so the restore point generally lands
# *between* outer boundaries, the harder case). Each starts a
# checkpointed aimd run, SIGKILLs it mid-run (a real kill, not an
# injected fault), resumes from the directory it left behind, and
# requires the resumed run's finalStateSha256 — a hash of the complete
# final MD state — to equal that of an uninterrupted reference run.
# Bitwise, or the smoke fails. The resumed run's first steps[] record must
# lie past its restore point (resumedFromStep).
# Then the warm-started -store-dir path, without a kill: a second run on
# the store the first one filled must seed its first SCF from it, fall
# back to a cold SCF nowhere, and end on the first run's potential to
# SCF tolerance.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/aimd" ./cmd/aimd

sha() { sed -n 's/.*"finalStateSha256": "\([0-9a-f]*\)".*/\1/p' "$1"; }

# A cold h2 step with analytic forces takes well under a millisecond:
# enough steps that the victim still runs when its first rollover lands
# (at k = 2, 200 outer steps are 400 inner ones).
for RUN in "-steps 2000 -dt 0.4" "-steps 200 -k 2 -dt 0.25"; do
	ARGS="-system h2 $RUN -temp 300 -seed 7"
	rm -rf "$tmp/ck"

	# Reference: the same trajectory, never interrupted, no checkpointing.
	"$tmp/aimd" $ARGS -json > "$tmp/ref.json"
	ref_sha="$(sha "$tmp/ref.json")"
	test -n "$ref_sha"

	# Victim: checkpointed run, killed once a second segment file exists —
	# the first rollover is durable.
	"$tmp/aimd" $ARGS -ckpt-dir "$tmp/ck" -ckpt-every 10 > "$tmp/victim.log" 2>&1 &
	pid=$!
	i=0
	while [ "$(ls "$tmp/ck"/step-*.wal 2>/dev/null | wc -l)" -lt 2 ]; do
		i=$((i + 1))
		if [ "$i" -gt 600 ]; then
			echo "smoke_ckpt: $RUN: no second segment appeared before the run ended" >&2
			exit 1
		fi
		if ! kill -0 "$pid" 2>/dev/null; then
			echo "smoke_ckpt: $RUN: victim finished before it could be killed" >&2
			exit 1
		fi
		sleep 0.05
	done
	kill -KILL "$pid"
	wait "$pid" 2>/dev/null || true

	# Resume: must report a restore point and finish with the reference hash.
	"$tmp/aimd" $ARGS -ckpt-dir "$tmp/ck" -ckpt-every 10 -resume -json > "$tmp/resumed.json"
	res_sha="$(sha "$tmp/resumed.json")"
	from="$(sed -n 's/.*"resumedFromStep": \([0-9]*\).*/\1/p' "$tmp/resumed.json")"

	test -n "$from" || { echo "smoke_ckpt: $RUN: resumed run reports no restore point" >&2; exit 1; }
	# Its step records are the steps it completed: the restore point's
	# frame, re-emitted on an outer boundary, is not one of them.
	first="$(sed -n '/^ *"step": /{s/[^0-9]//g;p;q;}' "$tmp/resumed.json")"
	if [ -z "$first" ] || [ "$first" -le "$from" ]; then
		echo "smoke_ckpt: FAIL: $RUN: resumed from step $from, first step record '$first'" >&2
		exit 1
	fi
	if [ "$res_sha" != "$ref_sha" ]; then
		echo "smoke_ckpt: FAIL: $RUN: resumed final state $res_sha != reference $ref_sha" >&2
		exit 1
	fi
	echo "smoke_ckpt: ok — $RUN: killed at >= inner step $from, resumed to the end, final state $ref_sha"
done

# Store-seeded runs: "store: S store seeds, W predictor warm starts,
# F fallbacks (DIR)" and the last frame's E_pot.
"$tmp/aimd" -system h2 -steps 20 -store-dir "$tmp/st" > "$tmp/st1.log"
"$tmp/aimd" -system h2 -steps 20 -store-dir "$tmp/st" > "$tmp/st2.log"
field() { sed -n 's/^store: \([0-9]*\) store seeds, [0-9]* predictor warm starts, \([0-9]*\) fallbacks.*/\'"$2"'/p' "$1"; }
epot() { awk '$1 == 20 { print $3 }' "$1"; }
seeds="$(field "$tmp/st2.log" 1)"
fallbacks="$(field "$tmp/st2.log" 2)"
e1="$(epot "$tmp/st1.log")"
e2="$(epot "$tmp/st2.log")"
test -n "$seeds" && test -n "$fallbacks" && test -n "$e1" && test -n "$e2" ||
	{ echo "smoke_ckpt: store run printed no store line or final frame" >&2; exit 1; }
if [ "$seeds" -lt 1 ] || [ "$fallbacks" -ne 0 ]; then
	echo "smoke_ckpt: FAIL: second store run: $seeds store seeds, $fallbacks fallbacks" >&2
	exit 1
fi
awk -v a="$e1" -v b="$e2" 'BEGIN { d = a - b; if (d < 0) d = -d; exit !(d < 1e-6) }' ||
	{ echo "smoke_ckpt: FAIL: store-seeded final E_pot $e2 vs first run $e1" >&2; exit 1; }
echo "smoke_ckpt: ok — store-seeded rerun: $seeds store seed, 0 fallbacks, final E_pot $e2 (first run $e1)"
