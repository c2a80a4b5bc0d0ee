#!/bin/sh
# Crash-restart smoke test for RESPA trajectories, end to end through
# the real binary: start a checkpointed multiple-time-step aimd run
# (-k 2: full SCF surface every 2nd step, spring reference between),
# SIGKILL it mid-campaign (a real kill, not an injected fault), resume
# from the directory it left behind — the restore point generally lands
# *between* outer boundaries, the harder case — and require the resumed
# run's finalStateSha256 to equal that of an uninterrupted reference
# run. Bitwise, or the smoke fails.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/aimd" ./cmd/aimd

STEPS=200 # outer steps: 400 inner at k=2
ARGS="-system h2 -steps $STEPS -k 2 -dt 0.25 -temp 300 -seed 7"

# Reference: the same trajectory, never interrupted, no checkpointing.
"$tmp/aimd" $ARGS -json > "$tmp/ref.json"

sha() { sed -n 's/.*"finalStateSha256": "\([0-9a-f]*\)".*/\1/p' "$1"; }
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
		echo "smoke_mts: no second segment appeared before the run ended" >&2
		exit 1
	fi
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "smoke_mts: victim finished before it could be killed" >&2
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

test -n "$from" || { echo "smoke_mts: resumed run reports no restore point" >&2; exit 1; }
if [ "$res_sha" != "$ref_sha" ]; then
	echo "smoke_mts: FAIL: resumed final state $res_sha != reference $ref_sha" >&2
	exit 1
fi
echo "smoke_mts: ok — killed at >= inner step $from, resumed to $STEPS outer steps, final state $ref_sha"
