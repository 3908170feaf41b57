#!/usr/bin/env bash
# Black-box smoke test for the copartd control plane: boot the daemon
# with the admission API on loopback and a mirrored resctrl tree, drive
# add/reweight/remove and a snapshot round-trip with curl, watch the
# admitted app's control group come and go, scrape /metrics, then shut
# down gracefully with SIGTERM. Fails on any unexpected status code, a
# missing or lingering control group, a missing metric, a
# non-deterministic snapshot replay, or a dirty exit.
#
# Run directly or via `make smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
DPID=""
cleanup() {
    [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

GO=${GO:-go}
$GO build -o "$TMP/copartd" ./cmd/copartd
$GO build -o "$TMP/snap2test" ./cmd/snap2test

# -pace throttles the simulated control loop to real time so the daemon
# stays up while curl drives it; -duration is effectively "until TERM".
"$TMP/copartd" -mix H-Both -apps 3 -duration 24h -seed 1 -pace 20ms \
    -listen 127.0.0.1:0 -resctrl "$TMP/tree" >"$TMP/copartd.log" 2>&1 &
DPID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#^control plane listening on http://##p' "$TMP/copartd.log" | head -1)
    [ -n "$ADDR" ] && break
    if ! kill -0 "$DPID" 2>/dev/null; then
        echo "FAIL: copartd exited during startup:"
        cat "$TMP/copartd.log"
        exit 1
    fi
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "FAIL: copartd never announced its listen address"
    cat "$TMP/copartd.log"
    exit 1
fi
BASE="http://$ADDR"
echo "copartd up at $BASE"

# req METHOD PATH WANT_STATUS [JSON_BODY] — run one request, keep the
# body in $TMP/resp, fail loudly on a status mismatch.
req() {
    local method=$1 path=$2 want=$3 body=${4:-}
    local args=(-sS -o "$TMP/resp" -w '%{http_code}' -X "$method")
    [ -n "$body" ] && args+=(-H 'Content-Type: application/json' -d "$body")
    local code
    code=$(curl "${args[@]}" "$BASE$path")
    if [ "$code" != "$want" ]; then
        echo "FAIL: $method $path -> $code, want $want"
        cat "$TMP/resp"
        exit 1
    fi
    echo "ok: $method $path -> $code"
}

req GET /healthz 200

# /readyz stays 503 until the first profiling pass completes.
for _ in $(seq 1 200); do
    code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")
    [ "$code" = 200 ] && break
    sleep 0.1
done
req GET /readyz 200

# group WANT — poll up to 5s for the smoke guest's control group in the
# mirrored tree to be present (WANT=yes) or gone (WANT=no).
group() {
    local want=$1 have=no
    for _ in $(seq 1 50); do
        if [ -d "$TMP/tree/smoke" ]; then have=yes; else have=no; fi
        [ "$have" = "$want" ] && { echo "ok: control group smoke present=$want"; return; }
        sleep 0.1
    done
    echo "FAIL: control group $TMP/tree/smoke present=$have after 5s, want $want"
    ls "$TMP/tree"
    exit 1
}

# Admission lifecycle: admit a 1-core guest, reweight it, confirm it is
# visible, then negative-path checks.
req POST /apps 201 '{"name":"smoke","benchmark":"EP","cores":1,"weight":2.0}'
group yes
req PATCH /apps/smoke 200 '{"weight":1.5}'
# /apps serves the per-period mirror, so the admitted guest appears
# once the controller has re-profiled and reported — poll for it.
seen=""
for _ in $(seq 1 300); do
    if curl -s "$BASE/apps" | grep -q '"smoke"'; then
        seen=yes
        break
    fi
    sleep 0.1
done
[ -n "$seen" ] || { echo "FAIL: admitted app never appeared in /apps"; curl -s "$BASE/apps"; exit 1; }
echo "ok: admitted app visible in /apps"
req POST /apps 409 '{"name":"smoke","benchmark":"EP","cores":1}'
req POST /apps 400 '{"name":"bad","benchmark":"NOPE"}'
req DELETE /apps/ghost 404

# Snapshot round-trip: the served snapshot must parse and replay
# deterministically (snap2test -check replays it twice and compares).
req GET /snapshot 200
cp "$TMP/resp" "$TMP/snap.json"
"$TMP/snap2test" -snapshot "$TMP/snap.json" -duration 30s -check

req DELETE /apps/smoke 200
group no

req GET /metrics 200
for metric in \
    'copart_admission_ops_total{op="add",outcome="ok"} 1' \
    'copart_admission_ops_total{op="remove",outcome="ok"} 1' \
    'copart_admission_ops_total{op="reweight",outcome="ok"} 1' \
    'copart_snapshots_total 1' \
    'copart_periods_total' \
    'copart_controller_degraded 0'; do
    if ! grep -qF "$metric" "$TMP/resp"; then
        echo "FAIL: /metrics missing: $metric"
        cat "$TMP/resp"
        exit 1
    fi
done
echo "ok: /metrics carries admission, snapshot, and health series"

# Graceful drain: TERM must finish the period, restore default
# schemata, and exit 0.
kill -TERM "$DPID"
status=0
wait "$DPID" || status=$?
DPID=""
if [ "$status" != 0 ]; then
    echo "FAIL: copartd exited $status after SIGTERM"
    cat "$TMP/copartd.log"
    exit 1
fi
grep -q "default allocations restored" "$TMP/copartd.log" || {
    echo "FAIL: drain did not restore default allocations"
    tail "$TMP/copartd.log"
    exit 1
}
echo "ok: graceful drain (exit 0, default allocations restored)"
echo "PASS: copartd control-plane smoke"
