#!/bin/sh
# daemon-smoke: end-to-end gate for the simd daemon (doc/DAEMON.md).
#
# Builds simd/simctl/benchdiff, starts a daemon on a fresh store, runs
# every gate of ci/gates.json THROUGH the daemon and compares each
# artifact exactly with its committed baseline (the daemon path must be
# observationally identical to the one-shot tools), checks that a warm
# memoized re-run is at least 5x faster than the cold compute, and
# finally SIGTERMs the daemon mid-flight to assert the graceful drain:
# the in-flight request completes and the process exits 0.
set -eu

GO="${GO:-go}"
BIN="$(mktemp -d /tmp/daemon-smoke.XXXXXX)"
SOCK="$BIN/simd.sock"
STORE="$BIN/store"
trap 'kill "$SIMD_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

$GO build -o "$BIN/simd" ./cmd/simd
$GO build -o "$BIN/simctl" ./cmd/simctl
$GO build -o "$BIN/benchdiff" ./cmd/benchdiff
$GO build -o "$BIN/reproduce" ./cmd/reproduce

"$BIN/simd" -socket "$SOCK" -store "$STORE" -q 2>"$BIN/simd.log" &
SIMD_PID=$!
"$BIN/simctl" wait -socket "$SOCK" -timeout 30s > /dev/null

# Gate 1: every gate of ci/gates.json, served by the daemon, compares
# exactly with its committed baseline.
"$BIN/benchdiff" -watch -count 1 -socket "$SOCK" ci/gates.json

# Gate 2: cold vs warm. The suite above already computed the reproduce
# artifact, so a fresh request must be a pure store hit — require >= 5x
# over the cold compute (in practice it is orders of magnitude).
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
t0=$(now_ms)
"$BIN/simctl" run -socket "$SOCK" -tool reproduce -window 1 \
	-skip-sensitivity -no-cache -q > /dev/null
cold_ms=$(( $(now_ms) - t0 ))
t0=$(now_ms)
"$BIN/reproduce" -daemon "$SOCK" -window 1 \
	-skip-sensitivity -json "$BIN/warm.json" > /dev/null
warm_ms=$(( $(now_ms) - t0 ))
[ "$warm_ms" -lt 1 ] && warm_ms=1
speedup=$((cold_ms / warm_ms))
echo "daemon-smoke: cold ${cold_ms}ms, warm memoized ${warm_ms}ms (${speedup}x)"
if [ "$speedup" -lt 5 ]; then
	echo "daemon-smoke: warm path only ${speedup}x faster than cold (need >= 5x)" >&2
	exit 1
fi

# The memoized artifact must byte-match a second request for the same spec.
"$BIN/reproduce" -daemon "$SOCK" -window 1 -skip-sensitivity -json "$BIN/warm2.json" > /dev/null
cmp "$BIN/warm.json" "$BIN/warm2.json"

# Gate 3: graceful drain. Start a slow run, SIGTERM the daemon while it
# is in flight, and require (a) the request completes successfully and
# (b) the daemon exits 0 after draining.
"$BIN/simctl" run -socket "$SOCK" -tool chaosbench -seed 7 -window 4 \
	-no-cache -q > "$BIN/drain.json" &
RUN_PID=$!
sleep 0.3
kill -TERM "$SIMD_PID"
if ! wait "$RUN_PID"; then
	echo "daemon-smoke: in-flight request failed during drain" >&2
	exit 1
fi
if ! wait "$SIMD_PID"; then
	echo "daemon-smoke: daemon did not exit cleanly on SIGTERM" >&2
	exit 1
fi
[ -s "$BIN/drain.json" ] || { echo "daemon-smoke: drained artifact is empty" >&2; exit 1; }

echo "daemon-smoke: all gates 0-drift through the daemon; warm path ${speedup}x; drain clean"
