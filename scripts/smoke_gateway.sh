#!/bin/sh
# End-to-end smoke for the HTTP front door: boot a real cmd/gateway
# process on a free port with an admin plane on another, require 200 on
# an authenticated search, 401 without a token, 404 for an internal-state
# path on the public port, 200 from the admin plane's /stats, and a
# clean exit-0 drain on SIGTERM. Uses only go + standard POSIX tools.
set -eu

workdir="$(mktemp -d)"
logfile="$workdir/gateway.log"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/gateway" ./cmd/gateway
"$workdir/gateway" -addr 127.0.0.1:0 -admin 127.0.0.1:0 \
    -tokens "dev,reader" >"$logfile" 2>&1 &
pid=$!

# The banners print both bound addresses, the admin plane's first.
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's|.*serving on http://\([^ ]*\).*|\1|p' "$logfile")"
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "gateway died:"; cat "$logfile"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "gateway never printed its address:"; cat "$logfile"; exit 1; }
admin="$(sed -n 's|.*admin plane on http://\([^ ]*\).*|\1|p' "$logfile")"
[ -n "$admin" ] || { echo "gateway never printed its admin address:"; cat "$logfile"; exit 1; }

fetch_status() {
    # fetch_status <expected> <curl args...>
    expect="$1"; shift
    status="$(curl -s -o /dev/null -w '%{http_code}' "$@")"
    if [ "$status" != "$expect" ]; then
        echo "smoke: got $status, want $expect for: $*"
        cat "$logfile"
        exit 1
    fi
}

fetch_status 200 -X POST -H "Authorization: Bearer dev" \
    -H "X-Budget-Ms: 5000" -d '{"query":"vintage cars"}' "http://$addr/v1/search"
fetch_status 401 -X POST -d '{"query":"vintage cars"}' "http://$addr/v1/search"
fetch_status 404 -H "Authorization: Bearer dev" "http://$addr/v1/admin/stats"
fetch_status 200 "http://$admin/stats"

# The search response must actually carry experts JSON.
body="$(curl -s -X POST -H "Authorization: Bearer dev" \
    -d '{"query":"vintage cars"}' "http://$addr/v1/search")"
case "$body" in
    *'"experts":'*) ;;
    *) echo "smoke: search body lacks experts: $body"; exit 1 ;;
esac

kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "smoke: gateway did not drain"; cat "$logfile"; exit 1; }
    sleep 0.1
done
wait "$pid" || { echo "smoke: gateway exited non-zero"; cat "$logfile"; exit 1; }
grep -q "drained, bye" "$logfile" || { echo "smoke: drain not narrated"; cat "$logfile"; exit 1; }
trap 'rm -rf "$workdir"' EXIT
echo "smoke-gateway: ok (addr $addr)"
