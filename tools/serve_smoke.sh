#!/usr/bin/env bash
# End-to-end smoke for the detection service: boots dbscout_serve on an
# ephemeral port, ingests a generated shape dataset through dbscout_client,
# checks that stats report outliers, probes a far-away point, scrapes the
# METRICS endpoint twice (Prometheus text format, monotone counters),
# ingests the same dataset written as CSV into a second collection (same
# outliers), then shuts the server down with SIGTERM and verifies a clean
# exit. A second
# durable leg ingests into a --data-dir server, kill -9s it, checks the
# WAL with wal_inspect, restarts over the same directory, and asserts the
# stats (live, epoch, outliers, core, cells) and a probe query are
# unchanged. It then ingests the dataset again into the recovered server
# (ids continue at the recovered epoch, so the epoch doubles) and repeats
# the kill -9 / wal_inspect / restart / compare cycle. A TTL leg boots a
# durable --ttl-seconds=1 server, ingests once, and waits for the apply
# loop's timer passes to expire the whole window (the expire row must
# count every point and some distance computations); a by-id QUERY of
# the expired id 0 answers NotFound; after a kill -9 and a restart the
# window is still empty at the same epoch and id 0 still answers NotFound.
#
# Before all of this, a server started with the misspelt --data_dir must
# exit with usage (status 2) without printing its listening banner.
#
# usage: tools/serve_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
DBSCOUT="$BUILD_DIR/tools/dbscout"
SERVE="$BUILD_DIR/tools/dbscout_serve"
CLIENT="$BUILD_DIR/tools/dbscout_client"
for bin in "$DBSCOUT" "$SERVE" "$CLIENT"; do
  [[ -x "$bin" ]] || { echo "missing binary: $bin (build first)"; exit 1; }
done

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== generate dataset"
"$DBSCOUT" generate --dataset=blobs --n=2000 --contamination=0.02 \
  --seed=11 --output="$WORK/blobs.dbsc"

echo "== misspelt flag: exit 2 before binding"
# --data_dir is not --data-dir: serving in memory instead would lose every
# acknowledged ingest on restart, so the server must refuse to start.
TYPO_STATUS=0
timeout 10 "$SERVE" --eps=0.7 --min-pts=5 --data_dir="$WORK/typo" \
  >"$WORK/serve_typo.log" 2>&1 || TYPO_STATUS=$?
[[ "$TYPO_STATUS" -eq 2 ]] \
  || { echo "FAIL: --data_dir exit status $TYPO_STATUS, want 2"; cat "$WORK/serve_typo.log"; exit 1; }
if grep -q "listening on" "$WORK/serve_typo.log"; then
  echo "FAIL: server with --data_dir printed a listening banner"; exit 1
fi

echo "== boot server"
# --slow-request-ms=0 logs every request as "slow" so the tracing leg can
# assert the slow-request log carries the same trace id the client prints.
"$SERVE" --eps=0.7 --min-pts=5 --port=0 --slow-request-ms=0 \
  >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "$WORK/serve.log")"
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log"; exit 1; }
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "server never reported its port"; exit 1; }
echo "   port=$PORT"

echo "== ingest"
"$CLIENT" --port="$PORT" --collection=smoke --ingest="$WORK/blobs.dbsc"

echo "== stats"
STATS="$("$CLIENT" --port="$PORT" --collection=smoke --stats | head -1)"
echo "   $STATS"
grep -q "points=2000" <<<"$STATS" || { echo "FAIL: expected points=2000"; exit 1; }
OUTLIERS="$(sed -n 's/.*outliers=\([0-9]*\).*/\1/p' <<<"$STATS")"
[[ "$OUTLIERS" -gt 0 ]] || { echo "FAIL: expected outliers > 0"; exit 1; }
[[ "$OUTLIERS" -lt 200 ]] || { echo "FAIL: implausible outlier count $OUTLIERS"; exit 1; }

echo "== probe a far-away point (must be an outlier)"
PROBE="$("$CLIENT" --port="$PORT" --collection=smoke --query=1000,1000 --score)"
echo "   $PROBE"
grep -q "kind=outlier" <<<"$PROBE" || { echo "FAIL: far probe not an outlier"; exit 1; }

echo "== metrics scrape (Prometheus text format)"
scrape_counter() {  # scrape_counter FILE LINE_PREFIX -> integer value
  sed -n "s/^$2 \([0-9][0-9]*\)$/\1/p" "$1"
}
"$CLIENT" --port="$PORT" --metrics >"$WORK/metrics1.txt"
grep -q '^# HELP dbscout_ingest_points_total ' "$WORK/metrics1.txt" \
  || { echo "FAIL: missing HELP line"; cat "$WORK/metrics1.txt"; exit 1; }
grep -q '^# TYPE dbscout_ingest_points_total counter$' "$WORK/metrics1.txt" \
  || { echo "FAIL: missing TYPE line"; exit 1; }
grep -q '^dbscout_request_seconds_bucket{.*le="+Inf"} ' "$WORK/metrics1.txt" \
  || { echo "FAIL: missing +Inf histogram bucket"; exit 1; }
POINTS1="$(scrape_counter "$WORK/metrics1.txt" dbscout_ingest_points_total)"
[[ "$POINTS1" -eq 2000 ]] \
  || { echo "FAIL: ingest_points_total=$POINTS1, want 2000"; exit 1; }
QUERIES1="$(scrape_counter "$WORK/metrics1.txt" \
  'dbscout_request_seconds_count{verb="query"}')"
[[ "$QUERIES1" -ge 1 ]] || { echo "FAIL: no query latency samples"; exit 1; }

echo "== second scrape: counters must be monotone non-decreasing"
"$CLIENT" --port="$PORT" --collection=smoke --query=1000,1000 >/dev/null
"$CLIENT" --port="$PORT" --metrics >"$WORK/metrics2.txt"
POINTS2="$(scrape_counter "$WORK/metrics2.txt" dbscout_ingest_points_total)"
QUERIES2="$(scrape_counter "$WORK/metrics2.txt" \
  'dbscout_request_seconds_count{verb="query"}')"
[[ "$POINTS2" -ge "$POINTS1" ]] \
  || { echo "FAIL: ingest_points_total went backwards ($POINTS1 -> $POINTS2)"; exit 1; }
[[ "$QUERIES2" -gt "$QUERIES1" ]] \
  || { echo "FAIL: query count did not advance ($QUERIES1 -> $QUERIES2)"; exit 1; }
echo "   ingest_points_total=$POINTS2 query_count=$QUERIES1->$QUERIES2"

echo "== tracing: stamped ingest, trace dump, slow-request log"
TRACED="$("$CLIENT" --port="$PORT" --collection=smoke --trace \
  --ingest="$WORK/blobs.dbsc")"
echo "   $TRACED"
TRACE_ID="$(sed -n 's/.* trace=\([0-9a-f]\{16\}\).*/\1/p' <<<"$TRACED")"
[[ -n "$TRACE_ID" ]] || { echo "FAIL: traced ingest printed no trace id"; exit 1; }
"$CLIENT" --port="$PORT" --trace-dump --trace-id="$TRACE_ID" \
  >"$WORK/trace.json" 2>"$WORK/trace.err"
[[ -s "$WORK/trace.json" ]] || { echo "FAIL: empty trace dump"; exit 1; }
for span in ingest frame_decode queue_wait snapshot_publish; do
  grep -q "\"name\":\"$span\"" "$WORK/trace.json" \
    || { echo "FAIL: trace dump missing $span span"; cat "$WORK/trace.json"; exit 1; }
done
grep -q "\"$TRACE_ID\"" "$WORK/trace.json" \
  || { echo "FAIL: trace dump lacks the request's trace id"; exit 1; }
grep -q "slow request.*trace=$TRACE_ID" "$WORK/serve.log" \
  || { echo "FAIL: slow-request log has no line for trace=$TRACE_ID"; exit 1; }
echo "   trace=$TRACE_ID spans + slow-request log line ok"

echo "== health: running server must be ready"
HEALTH="$("$CLIENT" --port="$PORT" --health)"
echo "   $HEALTH"
grep -q "state=ready" <<<"$HEALTH" || { echo "FAIL: server not ready"; exit 1; }

echo "== CSV ingest: a .csv path is CSV for generate and the client alike"
"$DBSCOUT" generate --dataset=blobs --n=2000 --contamination=0.02 \
  --seed=11 --output="$WORK/blobs.csv"
"$CLIENT" --port="$PORT" --collection=smoke-csv --ingest="$WORK/blobs.csv"
CSTATS="$("$CLIENT" --port="$PORT" --collection=smoke-csv --stats | head -1)"
echo "   $CSTATS"
grep -q "points=2000" <<<"$CSTATS" || { echo "FAIL: CSV ingest: expected points=2000"; exit 1; }
[[ "$(sed -n 's/.*outliers=\([0-9]*\).*/\1/p' <<<"$CSTATS")" -eq "$OUTLIERS" ]] \
  || { echo "FAIL: CSV ingest found other outliers than the DBSC one ($OUTLIERS)"; exit 1; }

echo "== durability: ingest, kill -9, restart over the same --data-dir"
WAL_INSPECT="$BUILD_DIR/tools/wal_inspect"
[[ -x "$WAL_INSPECT" ]] || { echo "missing binary: $WAL_INSPECT"; exit 1; }
DATA_DIR="$WORK/data"
DURABLE_PID=""
cleanup_durable() {
  [[ -n "$DURABLE_PID" ]] && kill -9 "$DURABLE_PID" 2>/dev/null || true
}
trap 'cleanup_durable; cleanup' EXIT

wait_port() {  # wait_port LOGFILE PID -> port on stdout
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "$1")"
    [[ -n "$port" ]] && { echo "$port"; return 0; }
    kill -0 "$2" 2>/dev/null || { cat "$1" >&2; return 1; }
    sleep 0.1
  done
  echo "server never reported its port" >&2
  return 1
}

"$SERVE" --eps=0.7 --min-pts=5 --port=0 --data-dir="$DATA_DIR" \
  --wal-fsync=interval >"$WORK/serve_durable1.log" 2>&1 &
DURABLE_PID=$!
DPORT="$(wait_port "$WORK/serve_durable1.log" "$DURABLE_PID")"
echo "   port=$DPORT"
"$CLIENT" --port="$DPORT" --collection=smoke --ingest="$WORK/blobs.dbsc"
DSTATS1="$("$CLIENT" --port="$DPORT" --collection=smoke --stats | head -1)"
DPROBE1="$("$CLIENT" --port="$DPORT" --collection=smoke --query=1000,1000)"
echo "   before kill: $DSTATS1"

crash_and_restart() {  # crash_and_restart LOGFILE: kill -9, inspect, reboot
  kill -9 "$DURABLE_PID"
  wait "$DURABLE_PID" 2>/dev/null || true
  DURABLE_PID=""
  echo "== wal_inspect after kill -9 (torn tail ok, corruption is not)"
  "$WAL_INSPECT" --quiet "$DATA_DIR" \
    || { echo "FAIL: wal_inspect found corruption"; exit 1; }
  "$SERVE" --eps=0.7 --min-pts=5 --port=0 --data-dir="$DATA_DIR" \
    --wal-fsync=interval >"$1" 2>&1 &
  DURABLE_PID=$!
  DPORT="$(wait_port "$1" "$DURABLE_PID")" \
    || { echo "FAIL: restart after kill -9 did not come up"; exit 1; }
  echo "   restarted port=$DPORT"
}

crash_and_restart "$WORK/serve_durable2.log"
DSTATS2="$("$CLIENT" --port="$DPORT" --collection=smoke --stats | head -1)"
DPROBE2="$("$CLIENT" --port="$DPORT" --collection=smoke --query=1000,1000)"
echo "   after restart: $DSTATS2"

stat_field() {  # stat_field LINE NAME -> value
  sed -n "s/.*$2=\([0-9][0-9]*\).*/\1/p" <<<"$1"
}
# Recovery rebuilds the one detector from the live rows, so its core and
# occupied-cell counts come back exactly too.
same_stats() {  # same_stats BEFORE AFTER: live/epoch/outliers/core/cells agree
  local field before after
  for field in live epoch outliers core cells; do
    before="$(stat_field "$1" "$field")"
    after="$(stat_field "$2" "$field")"
    [[ -n "$before" && "$before" -eq "$after" ]] \
      || { echo "FAIL: $field changed across restart ($before -> $after)"; exit 1; }
  done
}
same_stats "$DSTATS1" "$DSTATS2"
grep -q "kind=outlier" <<<"$DPROBE2" \
  || { echo "FAIL: far probe after restart not an outlier"; exit 1; }
[[ "$DPROBE1" == "$DPROBE2" ]] \
  || { echo "FAIL: probe answer changed across restart ($DPROBE1 -> $DPROBE2)"; exit 1; }

echo "== durability: ingest after recovery, kill -9, restart again"
EPOCH1="$(stat_field "$DSTATS1" epoch)"
"$CLIENT" --port="$DPORT" --collection=smoke --ingest="$WORK/blobs.dbsc"
DSTATS3="$("$CLIENT" --port="$DPORT" --collection=smoke --stats | head -1)"
echo "   after post-recovery ingest: $DSTATS3"
EPOCH3="$(stat_field "$DSTATS3" epoch)"
[[ "$EPOCH3" -eq $((2 * EPOCH1)) ]] \
  || { echo "FAIL: post-recovery ingest epoch $EPOCH3, want $((2 * EPOCH1))"; exit 1; }
crash_and_restart "$WORK/serve_durable3.log"
DSTATS4="$("$CLIENT" --port="$DPORT" --collection=smoke --stats | head -1)"
echo "   after restart: $DSTATS4"
same_stats "$DSTATS3" "$DSTATS4"

echo "== health across recovery: not-ready while replaying, then ready"
# Grow the WAL so the next crash recovery is long enough to observe: the
# server accepts connections before replay finishes (HEALTH answers
# not-ready/recovering; collection verbs are unavailable), and prints its
# banner only once it is ready.
for i in $(seq 1 25); do
  "$CLIENT" --port="$DPORT" --collection="bulk$i" \
    --ingest="$WORK/blobs.dbsc" >/dev/null
done
kill -9 "$DURABLE_PID"
wait "$DURABLE_PID" 2>/dev/null || true
DURABLE_PID=""

# A fixed port chosen up front lets us poll HEALTH before the banner
# (with --port=0 the port is only known after recovery completes).
FPORT="$(python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()')"
"$SERVE" --eps=0.7 --min-pts=5 --port="$FPORT" --data-dir="$DATA_DIR" \
  --wal-fsync=interval >"$WORK/serve_durable4.log" 2>&1 &
DURABLE_PID=$!
SAW_NOTREADY=0
READY=0
for _ in $(seq 1 300); do
  H="$("$CLIENT" --port="$FPORT" --health 2>/dev/null)" || { sleep 0.05; continue; }
  if grep -q "state=not-ready" <<<"$H"; then
    grep -q "recovery=recovering" <<<"$H" \
      || { echo "FAIL: not-ready without recovering: $H"; exit 1; }
    SAW_NOTREADY=1
  elif grep -q "state=ready" <<<"$H"; then
    READY=1
    break
  fi
done
[[ "$READY" -eq 1 ]] || { echo "FAIL: server never became ready"; exit 1; }
[[ "$SAW_NOTREADY" -eq 1 ]] \
  || { echo "FAIL: never observed the not-ready recovery window"; exit 1; }
echo "   observed not-ready/recovering, then ready on port $FPORT"

kill -9 "$DURABLE_PID"
wait "$DURABLE_PID" 2>/dev/null || true
DURABLE_PID=""

echo "== TTL window: timer-driven expiry over TCP, kill -9, restart"
TTL_DIR="$WORK/ttl"
boot_ttl() {  # boot_ttl LOGFILE: durable server with a 1 s window
  "$SERVE" --eps=0.7 --min-pts=5 --port=0 --data-dir="$TTL_DIR" \
    --ttl-seconds=1 >"$1" 2>&1 &
  DURABLE_PID=$!
  TPORT="$(wait_port "$1" "$DURABLE_PID")" \
    || { echo "FAIL: TTL server did not come up"; exit 1; }
}
expect_expired() {  # expect_expired WHEN: id 0 is NotFound, no outliers left
  local out
  if out="$("$CLIENT" --port="$TPORT" --collection=ttl --query-id=0 2>&1)"; then
    echo "FAIL: expired id 0 answered $out $1"; exit 1
  fi
  grep -q "NotFound" <<<"$out" \
    || { echo "FAIL: expired id 0 $1: $out"; exit 1; }
  echo "   query-id=0 $1: $out"
  out="$("$CLIENT" --port="$TPORT" --collection=ttl --snapshot)"
  [[ "$(stat_field "$out" outliers)" -eq 0 ]] \
    || { echo "FAIL: expired window still counts outliers $1: $out"; exit 1; }
  echo "   snapshot $1: $out"
}
boot_ttl "$WORK/serve_ttl1.log"
"$CLIENT" --port="$TPORT" --collection=ttl --ingest="$WORK/blobs.dbsc"
# Nothing else is sent, so only the apply loop's 100 ms timer passes can
# expire the window.
TSTATS=""
for _ in $(seq 1 50); do
  TSTATS="$("$CLIENT" --port="$TPORT" --collection=ttl --stats)"
  TLINE="$(head -1 <<<"$TSTATS")"
  [[ "$(stat_field "$TLINE" live)" -eq 0 &&
     "$(stat_field "$TLINE" window-begin)" -eq "$(stat_field "$TLINE" epoch)" ]] \
    && break
  sleep 0.1
done
echo "   $TLINE"
TEPOCH="$(stat_field "$TLINE" epoch)"
[[ "$TEPOCH" -gt 0 && "$(stat_field "$TLINE" live)" -eq 0 &&
   "$(stat_field "$TLINE" window-begin)" -eq "$TEPOCH" ]] \
  || { echo "FAIL: window did not expire within 5 s: $TLINE"; exit 1; }
EXPIRE_ROW="$(grep '^phase expire ' <<<"$TSTATS")" \
  || { echo "FAIL: no expire row in STATS"; echo "$TSTATS"; exit 1; }
echo "   $EXPIRE_ROW"
[[ "$(stat_field "$EXPIRE_ROW" records)" -eq "$TEPOCH" ]] \
  || { echo "FAIL: expire row records != epoch $TEPOCH"; exit 1; }
[[ "$(stat_field "$EXPIRE_ROW" dist-comps)" -gt 0 ]] \
  || { echo "FAIL: expire row counts no distance computations"; exit 1; }
expect_expired "before kill -9"
kill -9 "$DURABLE_PID"
wait "$DURABLE_PID" 2>/dev/null || true
DURABLE_PID=""
"$WAL_INSPECT" --quiet "$TTL_DIR" \
  || { echo "FAIL: wal_inspect found corruption in the TTL log"; exit 1; }
boot_ttl "$WORK/serve_ttl2.log"
TLINE2="$("$CLIENT" --port="$TPORT" --collection=ttl --stats | head -1)"
echo "   after restart: $TLINE2"
for field in epoch window-begin live; do
  [[ "$(stat_field "$TLINE2" "$field")" -eq "$(stat_field "$TLINE" "$field")" ]] \
    || { echo "FAIL: $field changed across the TTL restart"; exit 1; }
done
expect_expired "after restart"
kill -9 "$DURABLE_PID"
wait "$DURABLE_PID" 2>/dev/null || true
DURABLE_PID=""

echo "== graceful shutdown"
kill -TERM "$SERVER_PID"
EXIT_CODE=0
wait "$SERVER_PID" || EXIT_CODE=$?
SERVER_PID=""
[[ "$EXIT_CODE" -eq 0 ]] || { echo "FAIL: server exit code $EXIT_CODE"; cat "$WORK/serve.log"; exit 1; }

echo "PASS: serve smoke ok ($OUTLIERS outliers)"
