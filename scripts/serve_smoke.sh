#!/usr/bin/env bash
# serve-smoke: boot the sscl-serve daemon, drive the wire protocol end
# to end, and gate the elaboration cache (docs/SERVE.md). One cold
# submission of the deck must miss the cache, and each of five
# byte-identical resubmissions must hit the elab tier with a payload
# byte-identical to the cold one. The daemon's METRICS JSON must then
# count exactly that: serve.cache.miss == 1, serve.cache.hit.elab == 5
# and serve.jobs.ok == 6.
#
# Every check is an exact count, so the verdict does not depend on
# machine load. The cold/warm latency ratio (the daemon's p95/p50 over
# these six jobs) is printed as information only; perfbench's serve_mix
# workload tracks cold and warm latency (perfbench/README.md).
#
# usage: serve_smoke.sh <sscl-serve binary> <deck.sp>
set -euo pipefail

BIN=${1:?usage: serve_smoke.sh <sscl-serve> <deck.sp>}
DECK=${2:?usage: serve_smoke.sh <sscl-serve> <deck.sp>}
WARM_RUNS=5

WORK=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

"$BIN" --port 0 --port-file "$WORK/port" --jobs 2 \
  >"$WORK/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 100); do
  [ -s "$WORK/port" ] && break
  kill -0 "$SERVER_PID" || { cat "$WORK/server.log"; exit 1; }
  sleep 0.1
done
PORT=$(cat "$WORK/port")
echo "serve-smoke: daemon on port $PORT (pid $SERVER_PID)"

"$BIN" --connect "$PORT" --command PING | grep -qx 'PONG' \
  || { echo "serve-smoke: PING failed"; exit 1; }

# Cold: first sight of the deck runs the full front end.
"$BIN" --connect "$PORT" "$DECK" >"$WORK/cold.txt"
grep -qx 'CACHE cold' "$WORK/cold.txt" \
  || { echo "serve-smoke: first submission was not a cache miss"; exit 1; }

# Warm: byte-identical resubmissions must hit the elab tier, and the
# payload (everything but the QUEUED/BEGIN/CACHE/END envelope) must be
# byte-identical to the cold reply.
grep -Ev '^(QUEUED|BEGIN|CACHE|BUSY|END)' "$WORK/cold.txt" >"$WORK/cold.payload"
for i in $(seq "$WARM_RUNS"); do
  "$BIN" --connect "$PORT" "$DECK" >"$WORK/warm.txt"
  grep -qx 'CACHE elab' "$WORK/warm.txt" \
    || { echo "serve-smoke: warm submission $i missed the cache"; exit 1; }
  grep -Ev '^(QUEUED|BEGIN|CACHE|BUSY|END)' "$WORK/warm.txt" >"$WORK/warm.payload"
  cmp "$WORK/cold.payload" "$WORK/warm.payload" \
    || { echo "serve-smoke: warm payload differs from cold"; exit 1; }
done

"$BIN" --connect "$PORT" --command METRICS >"$WORK/metrics.txt"
JSON=$(grep '^METRICS ' "$WORK/metrics.txt" | cut -d' ' -f2-)
echo "serve-smoke: $JSON"

# metric <name>: the integer value of a counter in the METRICS JSON.
metric() {
  sed -n "s/.*\"${1//./\\.}\":\([0-9]*\).*/\1/p" <<<"$JSON"
}
expect_metric() {
  local got
  got=$(metric "$1")
  [ "$got" = "$2" ] \
    || { echo "serve-smoke: expected $1 == $2, got '$got'"; exit 1; }
}
expect_metric serve.cache.miss 1
expect_metric serve.cache.hit.elab "$WARM_RUNS"
expect_metric serve.jobs.ok $((WARM_RUNS + 1))

P50=$(sed -n 's/.*"serve\.latency\.p50_ms":\([0-9.eE+-]*\).*/\1/p' <<<"$JSON")
P95=$(sed -n 's/.*"serve\.latency\.p95_ms":\([0-9.eE+-]*\).*/\1/p' <<<"$JSON")
awk -v cold="$P95" -v warm="$P50" 'BEGIN {
  ratio = warm > 0 ? cold / warm : 0;
  printf "serve-smoke: cold %.3f ms, warm %.3f ms -> %.1fx (information only)\n",
         cold, warm, ratio;
}'

"$BIN" --connect "$PORT" --command SHUTDOWN >/dev/null
wait "$SERVER_PID"
echo "serve-smoke: OK"
