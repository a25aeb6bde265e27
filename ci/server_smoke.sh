#!/usr/bin/env bash
# End-to-end smoke test for the ktgd serving layer (docs/server.md).
#
#   1. start `ktg serve` on an ephemeral port (--port 0 --port-file),
#   2. drive it with `ktg loadgen --check` for a few seconds — the
#      differential check makes any wrong response a hard failure,
#   3. drive a short `--mode anytime --check` leg: every complete
#      response must equal a serial, unbudgeted anytime run,
#   4. assert the loadgen reports show completed work and no errors,
#      and validate report + metrics sidecar structurally with
#      tools/schema_validate (the shared obs/schema_check validators),
#   5. SIGTERM the server and assert a clean drain: exit code 0 and a
#      schema-valid ktg.metrics.v1 sidecar.
#
# Usage: ci/server_smoke.sh [path-to-ktg-binary]   (default: build/tools/ktg)

set -euo pipefail

KTG="${1:-build/tools/ktg}"
test -x "$KTG" || { echo "server_smoke: no binary at $KTG" >&2; exit 1; }
VALIDATE="$(dirname "$KTG")/schema_validate"
test -x "$VALIDATE" || { echo "server_smoke: no schema_validate next to $KTG" >&2; exit 1; }

WORK="$(mktemp -d)"
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

PORT_FILE="$WORK/ktgd.port"
METRICS="$WORK/ktgd.metrics.json"
REPORT="$WORK/loadgen.json"

"$KTG" serve --preset gowalla --scale 0.05 --port 0 \
  --port-file "$PORT_FILE" --workers 2 --cache-mb 16 \
  --metrics-json "$METRICS" &
SERVER_PID=$!

# The port file is written only once the listener is up.
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died" >&2; exit 1; }
  sleep 0.1
done
test -s "$PORT_FILE" || { echo "server never wrote port file" >&2; exit 1; }
echo "ktgd up on port $(cat "$PORT_FILE")"

"$KTG" loadgen --preset gowalla --scale 0.05 --port-file "$PORT_FILE" \
  --duration 5 --connections 4 --check | tee "$REPORT"

python3 - "$REPORT" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert doc["schema"] == "ktg.loadgen.v1", doc.get("schema")
assert doc["completed"] > 0, doc
assert doc["errors"] == 0, doc
assert doc["checked"] > 0, doc
assert doc["mismatches"] == 0, doc
print(f"loadgen: {doc['completed']} completed, {doc['qps']:.0f} qps")
EOF

tail -n 1 "$REPORT" > "$WORK/loadgen.report.json"
"$VALIDATE" "$WORK/loadgen.report.json"

# Anytime leg: per-request "mode":"anytime" rides the same wire. Its tie
# representatives differ from exact's, so the oracle runs anytime too.
ANYTIME_REPORT="$WORK/loadgen.anytime.json"
"$KTG" loadgen --preset gowalla --scale 0.05 --port-file "$PORT_FILE" \
  --duration 3 --connections 2 --mode anytime --check | tee "$ANYTIME_REPORT"

python3 - "$ANYTIME_REPORT" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert doc["schema"] == "ktg.loadgen.v1", doc.get("schema")
assert doc["completed"] > 0, doc
assert doc["errors"] == 0, doc
assert doc["checked"] > 0, doc
assert doc["mismatches"] == 0, doc
print(f"anytime: {doc['completed']} completed, {doc['checked']} checked")
EOF

tail -n 1 "$ANYTIME_REPORT" > "$WORK/loadgen.anytime.report.json"
"$VALIDATE" "$WORK/loadgen.anytime.report.json"

# Clean shutdown: drain, flush the metrics sidecar, exit 0.
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
test "$STATUS" -eq 0 || { echo "server exited $STATUS" >&2; exit 1; }

python3 - "$METRICS" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "ktg.metrics.v1", doc.get("schema")
assert doc["counters"].get("server.completed", 0) > 0, doc["counters"]
print(f"sidecar: server.completed={doc['counters']['server.completed']:.0f}")
EOF

"$VALIDATE" "$METRICS"

# Keep the sidecars around for artifact upload when CI asks for it.
if [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$SMOKE_ARTIFACT_DIR"
  cp "$METRICS" "$SMOKE_ARTIFACT_DIR/ktgd.metrics.json"
  cp "$WORK/loadgen.report.json" "$SMOKE_ARTIFACT_DIR/loadgen.report.json"
  cp "$WORK/loadgen.anytime.report.json" \
     "$SMOKE_ARTIFACT_DIR/loadgen.anytime.report.json"
fi

echo "server smoke OK"
