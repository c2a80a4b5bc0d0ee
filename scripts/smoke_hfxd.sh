#!/bin/sh
# End-to-end smoke test for the hfxd job service: boot the daemon on a
# random port, submit the same water/STO-3G SCF job twice, assert the
# second submission is answered from the result cache, and check that
# SIGTERM drains cleanly. With curl available it first posts two requests
# that must be 400s, a malformed cluster size (nwater -1) and a 193-atom
# inline geometry, one past the bound; the checks after them show the
# server kept serving; after the cache checks it posts a two-rank buildjk,
# which must come back done on 2 ranks, and a two-step h2 trajectory,
# which must come back done on one pair-list build.
#
# Needs only a POSIX shell + go; uses hfxd's own client mode instead of
# curl/jq so it runs anywhere the toolchain does.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM

go build -o "$tmp/hfxd" ./cmd/hfxd

"$tmp/hfxd" -addr 127.0.0.1:0 -workers 2 >"$tmp/hfxd.log" 2>&1 &
pid=$!

# The first stdout line is the handshake: "hfxd: listening on http://ADDR (...)".
url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's/^hfxd: listening on \(http:\/\/[^ ]*\).*/\1/p' "$tmp/hfxd.log")
    [ -n "$url" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "hfxd died on startup:"; cat "$tmp/hfxd.log"; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo "no handshake from hfxd:"; cat "$tmp/hfxd.log"; exit 1; }
echo "smoke: server at $url"

# A malformed cluster size is rejected at validation (skipped when curl
# is unavailable).
if command -v curl >/dev/null 2>&1; then
    code=$(curl -s -o "$tmp/bad.json" -w '%{http_code}' -H 'Content-Type: application/json' \
        -d '{"kind":"screen","system":"watercluster","nwater":-1}' "$url/v1/jobs") || true
    [ "$code" = 400 ] || {
        echo "nwater -1 answered $code, want 400:"; cat "$tmp/bad.json" "$tmp/hfxd.log" 2>/dev/null; exit 1; }
    # An inline geometry one atom past the 192-atom bound: hydrogens on a
    # 2 Å lattice, the newlines escaped for JSON.
    xyz=$(awk 'BEGIN { printf "193\\nlattice\\n"
        for (i = 0; i < 193; i++) printf "H %d %d %d\\n", 2 * (i % 6), 2 * (int(i / 6) % 6), 2 * int(i / 36) }')
    code=$(curl -s -o "$tmp/bad.json" -w '%{http_code}' -H 'Content-Type: application/json' \
        -d "{\"kind\":\"screen\",\"xyz\":\"$xyz\"}" "$url/v1/jobs") || true
    [ "$code" = 400 ] || {
        echo "a 193-atom xyz answered $code, want 400:"; cat "$tmp/bad.json" "$tmp/hfxd.log" 2>/dev/null; exit 1; }
fi

"$tmp/hfxd" -submit -url "$url" -system water -basis STO-3G >"$tmp/first.json"
grep -q '"state": "done"' "$tmp/first.json"
grep -q '"cacheHit": false' "$tmp/first.json"
grep -q '"converged": true' "$tmp/first.json"

"$tmp/hfxd" -submit -url "$url" -system water -basis STO-3G >"$tmp/second.json"
grep -q '"state": "done"' "$tmp/second.json"
grep -q '"cacheHit": true' "$tmp/second.json" || {
    echo "second identical job was not a cache hit:"; cat "$tmp/second.json"; exit 1; }

# The energies must agree exactly: the hit is the stored payload.
e1=$(sed -n 's/.*"energy": \([^,]*\),.*/\1/p' "$tmp/first.json" | head -1)
e2=$(sed -n 's/.*"energy": \([^,]*\),.*/\1/p' "$tmp/second.json" | head -1)
[ "$e1" = "$e2" ] || { echo "cache returned a different energy: $e1 vs $e2"; exit 1; }

# /metrics must report the hit and the derived queue and cache gauges
# (skipped when curl is unavailable).
if command -v curl >/dev/null 2>&1; then
    metrics=$(curl -s "$url/metrics?format=json")
    echo "$metrics" | grep -q '"cache.hits": 1' || {
        echo "metrics do not show the cache hit:"; echo "$metrics"; exit 1; }
    echo "$metrics" | grep -q '"jobs.executed": 1' || {
        echo "cache hit should not have executed a second job:"; echo "$metrics"; exit 1; }
    # The derived gauges, read from the queue and the store at publish
    # time: nothing queued, and two entries (the result and the SCF's
    # converged prefix density).
    echo "$metrics" | grep -q '"jobs.queued": 0' || {
        echo "metrics do not show an empty queue:"; echo "$metrics"; exit 1; }
    echo "$metrics" | grep -q '"cache.entries": 2' || {
        echo "metrics do not show the result and its density in the cache:"; echo "$metrics"; exit 1; }
    # A two-rank buildjk: the distributed placement is built on admission's
    # pricing through the same construction as a one-rank builder.
    code=$(curl -s -o "$tmp/ranks.json" -w '%{http_code}' -H 'Content-Type: application/json' \
        -d '{"kind":"buildjk","system":"water","ranks":2}' "$url/v1/jobs") || true
    { [ "$code" = 200 ] && grep -q '"state": "done"' "$tmp/ranks.json" && grep -q '"ranks": 2' "$tmp/ranks.json"; } || {
        echo "a ranks 2 buildjk answered $code:"; cat "$tmp/ranks.json" "$tmp/hfxd.log"; exit 1; }
    # A two-step h2 trajectory: its session runs on the builder admission
    # screened and priced, so its one pair-list build is that one.
    code=$(curl -s -o "$tmp/traj.json" -w '%{http_code}' -H 'Content-Type: application/json' \
        -d '{"kind":"trajectory","system":"h2","maxSteps":2}' "$url/v1/jobs") || true
    { [ "$code" = 200 ] && grep -q '"state": "done"' "$tmp/traj.json" && grep -q '"pairListBuilds": 1,' "$tmp/traj.json"; } || {
        echo "an h2 trajectory answered $code:"; cat "$tmp/traj.json" "$tmp/hfxd.log"; exit 1; }
fi

# Graceful drain: SIGTERM, then the process must exit cleanly.
kill -TERM "$pid"
for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
    echo "hfxd did not drain after SIGTERM:"; cat "$tmp/hfxd.log"; exit 1
fi
wait "$pid" 2>/dev/null || true
grep -q "drained cleanly" "$tmp/hfxd.log" || {
    echo "drain was not clean:"; cat "$tmp/hfxd.log"; exit 1; }

echo "smoke: OK (cache hit verified, clean drain)"
