#!/usr/bin/env bash
# End-to-end smoke test of the network serving layer, as run by CI:
# launches zstream_server on an ephemeral port (with the HTTP metrics
# side port), creates a stream and the tier-1 rising-triple query
# through zstream_cli, replays the deterministic stock workload over
# the wire, and asserts the exact match count (seed 42, 20000 events,
# 16 symbols -> 64105 matches, the same set the in-process runtime
# produces — see tests/net_test.cc for the full match-set equality
# assertion). Along the way it scrapes /metrics and /healthz before and
# after the replay, asserting the Prometheus document is present and
# the ingest counter is monotone, checks the registry-backed `stats`
# totals line and the `stats --watch` ticker, and renders EXPLAIN
# ANALYZE over the wire. The server runs with --trace-sample 1 so the
# smoke also asserts GET /trace serves a non-empty chrome://tracing
# document after the replay.
#
# Usage: scripts/net_smoke.sh [BUILD_DIR]    (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${1:-${BUILD_DIR:-build}}
BIN="$BUILD_DIR/bin"
EXPECT_MATCHES=64105

for tool in zstream_server zstream_cli; do
  if [[ ! -x "$BIN/$tool" ]]; then
    echo "error: $BIN/$tool not built (run: cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done

log=$(mktemp)
"$BIN/zstream_server" --port 0 --shards 2 --metrics-port 0 \
  --trace-sample 1 >"$log" 2>&1 &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true; rm -f "$log"' EXIT

# Wait for the listening lines and parse the ephemeral ports from them.
port=""
metrics_port=""
for _ in $(seq 1 50); do
  port=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$log")
  metrics_port=$(sed -n 's/.*metrics on http:\/\/[0-9.]*:\([0-9]*\).*/\1/p' "$log")
  [[ -n "$port" && -n "$metrics_port" ]] && break
  sleep 0.1
done
if [[ -z "$port" || -z "$metrics_port" ]]; then
  echo "error: server did not start:" >&2
  cat "$log" >&2
  exit 1
fi
echo "== zstream_server up on port $port (metrics on $metrics_port) =="

# Extracts one unlabeled counter value from a Prometheus document.
prom_value() {  # prom_value DOC NAME
  printf '%s\n' "$1" | awk -v name="$2" '$1 == name { print $2 }'
}

"$BIN/zstream_cli" --port "$port" exec \
  "CREATE STREAM stock (id INT, name STRING, price DOUBLE, volume INT, ts INT)" \
  "CREATE QUERY rally ON stock AS PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name AND A.price < B.price AND B.price < C.price WITHIN 100" \
  "SHOW PLAN rally"

echo "== metrics before replay =="
if command -v curl >/dev/null; then
  http_get() { curl -sf "http://127.0.0.1:$metrics_port$1"; }
  [[ "$(http_get /healthz)" == "ok" ]] || {
    echo "error: /healthz did not answer ok" >&2; exit 1; }
else
  # No curl on this host: scrape the same registry over the wire.
  http_get() { "$BIN/zstream_cli" --port "$port" metrics; }
  echo "(curl not found; skipping /healthz, scraping over the wire)"
fi
before=$(http_get /metrics)
case "$before" in
  *'# TYPE zstream_events_ingested_total counter'*) ;;
  *) echo "error: /metrics is not Prometheus text:" >&2
     printf '%s\n' "$before" | head -5 >&2; exit 1 ;;
esac
ingested_before=$(prom_value "$before" zstream_events_ingested_total)

echo "== replaying stock workload over the wire =="
"$BIN/zstream_cli" --port "$port" replay stock --stream stock \
  --events 20000 --symbols 16 --expect "rally=$EXPECT_MATCHES"

echo "== stats (registry totals) =="
stats=$("$BIN/zstream_cli" --port "$port" stats)
echo "$stats"
case "$stats" in
  *'events_ingested=20000 '*) ;;
  *) echo "error: stats did not report 20000 ingested events" >&2; exit 1 ;;
esac

echo "== stats --watch (delta ticker) =="
watch=$("$BIN/zstream_cli" --port "$port" stats --watch --ticks 2 \
  --interval-ms 100)
printf '%s\n' "$watch"
ticks=$(printf '%s\n' "$watch" | grep -cE '^ *[0-9]+\.[0-9]s ' || true)
if [[ "$ticks" -ne 2 ]]; then
  echo "error: stats --watch --ticks 2 printed $ticks tick lines" >&2
  exit 1
fi

echo "== metrics after replay (monotonicity) =="
after=$(http_get /metrics)
ingested_after=$(prom_value "$after" zstream_events_ingested_total)
matches_after=$(prom_value "$after" zstream_matches_total)
if [[ -z "$ingested_after" || "$ingested_after" -lt "$((ingested_before + 20000))" ]]; then
  echo "error: ingest counter not monotone over replay" \
       "(before=$ingested_before after=$ingested_after)" >&2
  exit 1
fi
if [[ -z "$matches_after" || "$matches_after" -ne "$EXPECT_MATCHES" ]]; then
  echo "error: zstream_matches_total=$matches_after, wanted $EXPECT_MATCHES" >&2
  exit 1
fi
echo "ingested $ingested_before -> $ingested_after, matches $matches_after"

# The JSON rendering and the wire path serve the same registry.
case "$("$BIN/zstream_cli" --port "$port" metrics --json)" in
  '{'*'"runtime"'*) ;;
  *) echo "error: metrics --json did not return the JSON document" >&2
     exit 1 ;;
esac

echo "== GET /trace (chrome://tracing export) =="
if command -v curl >/dev/null; then
  trace_doc=$(http_get /trace)
else
  # Same document over the framed protocol (kTraceRequest).
  trace_doc=$("$BIN/zstream_cli" --port "$port" trace)
fi
case "$trace_doc" in
  *'"traceEvents"'*'"ph"'*) ;;
  *) echo "error: /trace did not serve a non-empty trace document:" >&2
     printf '%s\n' "$trace_doc" | head -3 >&2; exit 1 ;;
esac
echo "trace document: ${#trace_doc} bytes"

echo "== EXPLAIN ANALYZE over the wire =="
analyze=$("$BIN/zstream_cli" --port "$port" exec "EXPLAIN ANALYZE rally")
printf '%s\n' "$analyze"
case "$analyze" in
  *"matches=$EXPECT_MATCHES"*) ;;
  *) echo "error: EXPLAIN ANALYZE did not report matches=$EXPECT_MATCHES" >&2
     exit 1 ;;
esac

kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
echo "== net smoke OK (rally=$EXPECT_MATCHES matches over TCP) =="
