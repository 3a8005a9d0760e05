#!/bin/bash
# live_fleet_smoke.sh — end-to-end smoke of the live fleet over real
# processes and real sockets:
#
#   honeynet -checkpoint  ->  fleet.snap
#   webmaild -snapshot -partition {0,1}   (two shard processes)
#   webmaild -router -shards a,b          (the partition-aware front)
#   loadgen  -addr router -qps ...        (deterministic attacker replay)
#
# Gates: loadgen exits 0 (zero protocol errors / timeouts), the
# serving-latency section with a p99 column is rendered, achieved
# throughput is at least LIVEFLEET_MIN_QPS (default 5000 req/s), and
# all three daemons drain cleanly on SIGTERM.
#
# The 5000 req/s gate assumes the 4-vCPU CI runner; on smaller dev
# boxes override LIVEFLEET_MIN_QPS (the offered rate is open-loop, so
# a slow box degrades achieved throughput, never correctness).
#
# Tunables (env): LIVEFLEET_QPS (offered rate, default 7000),
# LIVEFLEET_MIN_QPS (gate, default 5000), LIVEFLEET_CONNS (default 32),
# LIVEFLEET_VISITS (per-conn attacker visits, default 240).
set -euo pipefail

QPS=${LIVEFLEET_QPS:-7000}
MIN_QPS=${LIVEFLEET_MIN_QPS:-5000}
CONNS=${LIVEFLEET_CONNS:-32}
VISITS=${LIVEFLEET_VISITS:-240}

PORT_SHARD0=18125
PORT_SHARD1=18126
PORT_ROUTER=18124

tmp=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

wait_port() { # host:port — poll until something listens (10s cap)
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/${1%:*}/${1#*:}") 2>/dev/null; then
            exec 3>&- 3<&-
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: nothing listening on $1" >&2
    return 1
}

echo "== build"
go build -o "$tmp/webmaild" ./cmd/webmaild
go build -o "$tmp/loadgen" ./cmd/loadgen
go build -o "$tmp/honeynet" ./cmd/honeynet

echo "== checkpoint (post-setup fleet state)"
"$tmp/honeynet" -days 1 -checkpoint "$tmp/fleet.snap" -experiment overview >/dev/null 2>&1
test -s "$tmp/fleet.snap"

echo "== boot 2 shards from the checkpoint"
# -abuse=false: the shards run on a static virtual clock, so the
# send-rate window never slides and sustained spam replay would trip
# the detector by design rather than by fault.
"$tmp/webmaild" -addr "127.0.0.1:$PORT_SHARD0" -snapshot "$tmp/fleet.snap" \
    -partition 0 -partitions 2 -abuse=false -creds "$tmp/creds0.txt" >"$tmp/shard0.log" &
pids="$pids $!"; shard0=$!
"$tmp/webmaild" -addr "127.0.0.1:$PORT_SHARD1" -snapshot "$tmp/fleet.snap" \
    -partition 1 -partitions 2 -abuse=false -creds "$tmp/creds1.txt" >"$tmp/shard1.log" &
pids="$pids $!"; shard1=$!
wait_port "127.0.0.1:$PORT_SHARD0"
wait_port "127.0.0.1:$PORT_SHARD1"
cat "$tmp/creds0.txt" "$tmp/creds1.txt" > "$tmp/creds.txt"
echo "   $(wc -l < "$tmp/creds.txt") accounts across 2 shards"

echo "== front them with the router (health prober on)"
# An explicit -health-interval keeps the throughput gate honest: the
# 5000 req/s floor must hold with shard health probing running.
"$tmp/webmaild" -router -addr "127.0.0.1:$PORT_ROUTER" \
    -shards "127.0.0.1:$PORT_SHARD0,127.0.0.1:$PORT_SHARD1" \
    -health-interval 200ms >"$tmp/router.log" &
pids="$pids $!"; router=$!
wait_port "127.0.0.1:$PORT_ROUTER"

echo "== loadgen: $CONNS conns, $VISITS visits/conn, offered $QPS qps"
# loadgen exits non-zero on any protocol error or timeout — that exit
# code is the primary gate.
"$tmp/loadgen" -addr "127.0.0.1:$PORT_ROUTER" -creds "$tmp/creds.txt" \
    -qps "$QPS" -conns "$CONNS" -visits "$VISITS" -seed 1 -mailbox 5 -list-limit 25 \
    -label "2 shards via router" | tee "$tmp/loadgen.txt"

echo "== gate: rendered latency section"
grep -q 'Serving latency (live fleet)' "$tmp/loadgen.txt"
grep -q 'p99' "$tmp/loadgen.txt"

echo "== gate: achieved throughput >= $MIN_QPS req/s"
awk -v min="$MIN_QPS" '
    /^achieved / {
        seen = 1
        if ($2 + 0 < min) { printf "FAIL: achieved %s req/s < %s\n", $2, min; exit 1 }
        printf "OK: achieved %s req/s (gate %s)\n", $2, min
    }
    END { if (!seen) { print "FAIL: no achieved-throughput line"; exit 1 } }
' "$tmp/loadgen.txt"

echo "== graceful drain (SIGTERM all three)"
kill -TERM "$router" "$shard0" "$shard1"
for p in $router $shard0 $shard1; do
    if ! wait "$p"; then
        echo "FAIL: pid $p did not exit cleanly on SIGTERM" >&2
        exit 1
    fi
done
pids=""
grep -q 'shut down' "$tmp/router.log"
grep -q 'shut down' "$tmp/shard0.log"
grep -q 'shut down' "$tmp/shard1.log"

echo "live-fleet smoke: PASS"
