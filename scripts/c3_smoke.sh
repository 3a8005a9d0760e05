#!/bin/bash
# c3_smoke.sh — end-to-end smoke of the C3 credential-checking service
# over a real process and real sockets:
#
#   honeynet -checkpoint   ->  fleet.snap     (a fleet with decoy creds)
#   c3d -snapshot -synthetic N                (the k-anonymity index)
#   c3d -replay                               (deterministic query replay)
#
# Gates: the index reports every snapshot credential plus the synthetic
# fill, the replayer exits 0 (zero protocol errors / timeouts), the
# serving-latency section renders, achieved throughput is at least
# C3_MIN_QPS (default 5000 req/s — the ISSUE acceptance bar), and the
# daemon drains cleanly on SIGTERM. A second, open-loop replay at a
# fixed 8000 req/s runs the paced schedule against the daemon; it is
# gated on its exit code and its rendered latency section, not on
# throughput.
#
# The 5000 req/s gate assumes the 4-vCPU CI runner; on smaller dev
# boxes override C3_MIN_QPS (the replay is closed-loop by default, so
# a slow box degrades achieved throughput, never correctness).
#
# Tunables (env): C3_MIN_QPS (gate, default 5000), C3_SYNTHETIC
# (synthetic fill size, default 200000), C3_QUERIES (replay volume,
# default 20000), C3_CONNS (default 16).
set -euo pipefail

MIN_QPS=${C3_MIN_QPS:-5000}
SYNTHETIC=${C3_SYNTHETIC:-200000}
QUERIES=${C3_QUERIES:-20000}
CONNS=${C3_CONNS:-16}

PORT_C3=18133

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
go build -o "$tmp/c3d" ./cmd/c3d
go build -o "$tmp/honeynet" ./cmd/honeynet

echo "== checkpoint (a fleet whose decoy credentials feed the index)"
"$tmp/honeynet" -days 1 -checkpoint "$tmp/fleet.snap" -experiment overview >/dev/null 2>&1
test -s "$tmp/fleet.snap"

echo "== boot c3d: snapshot credentials + $SYNTHETIC synthetic"
"$tmp/c3d" -addr "127.0.0.1:$PORT_C3" -snapshot "$tmp/fleet.snap" \
    -synthetic "$SYNTHETIC" -seed 1 >"$tmp/c3d.log" &
pids="$pids $!"; c3d=$!
wait_port "127.0.0.1:$PORT_C3"
grep -q "indexed .* credentials from .*fleet.snap" "$tmp/c3d.log"
grep -q "indexed $SYNTHETIC synthetic credentials" "$tmp/c3d.log"
grep -q "c3d listening" "$tmp/c3d.log"
sed -n 's/^c3d listening/   /p' "$tmp/c3d.log"

echo "== replay: $QUERIES range queries over $CONNS conns"
# The replayer exits non-zero on any protocol error or timeout — that
# exit code is the primary gate.
"$tmp/c3d" -replay -addr "127.0.0.1:$PORT_C3" -queries "$QUERIES" \
    -conns "$CONNS" -seed 1 -label "c3 smoke" | tee "$tmp/replay.txt"

echo "== gate: rendered latency section"
grep -q 'p99' "$tmp/replay.txt"

echo "== gate: achieved throughput >= $MIN_QPS req/s"
awk -v min="$MIN_QPS" '
    /^achieved / {
        seen = 1
        if ($2 + 0 < min) { printf "FAIL: achieved %s req/s < %s\n", $2, min; exit 1 }
        printf "OK: achieved %s req/s (gate %s)\n", $2, min
    }
    END { if (!seen) { print "FAIL: no achieved-throughput line"; exit 1 } }
' "$tmp/replay.txt"

echo "== open-loop replay: 20000 range queries at 8000 req/s over $CONNS conns"
"$tmp/c3d" -replay -addr "127.0.0.1:$PORT_C3" -qps 8000 -queries 20000 \
    -conns "$CONNS" -seed 1 -label "c3 open loop" | tee "$tmp/open.txt"
grep -q 'p99' "$tmp/open.txt"

echo "== graceful drain (SIGTERM)"
kill -TERM "$c3d"
if ! wait "$c3d"; then
    echo "FAIL: c3d did not exit cleanly on SIGTERM" >&2
    exit 1
fi
pids=""
grep -q 'draining' "$tmp/c3d.log"
grep -q 'shut down' "$tmp/c3d.log"

echo "c3 smoke: PASS"
