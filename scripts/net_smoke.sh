#!/usr/bin/env bash
# Networked-serve smoke: the byte-determinism acceptance gate for the net
# subsystem. Replays tests/fixtures/serve_session.jsonl through
#
#   1. one pqs_serve --listen worker, directly, and
#   2. a pqs_router sharding the same fixture across FOUR workers,
#
# and requires the client-visible result streams to be byte-identical —
# submission-ordered release in the session emitter and the router's
# in-order flush are exactly what make a shard fleet transparent at fixed
# seeds. Also asserts the fixture's known shape: 7 results (one of the eight
# requests carries an invalid spec and is answered by an error ack).
#
# On top of the determinism gate, the observability ops are probed against
# both deployments: `metrics` must answer with a well-formed registry
# snapshot (counters/gauges/histograms; fleet-merged with worker counts on
# the router) and `trace` must return the span timeline of a job submitted
# on the same connection.
#
# Usage: scripts/net_smoke.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."
build="${1:-build}"
serve="${build}/tools/pqs_serve"
router="${build}/tools/pqs_router"
loadgen="${build}/tools/pqs_loadgen"
fixture="tests/fixtures/serve_session.jsonl"
out="$(mktemp -d)"
pids=()

cleanup() {
  for pid in "${pids[@]:-}"; do
    kill "${pid}" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "${out}"
}
trap cleanup EXIT

# Ephemeral base port, offset into the dynamic range by PID to keep
# concurrent CI shards from colliding.
base=$(( 20000 + ($$ % 20000) ))

# Probe the observability ops against a live endpoint: submit one job on a
# fresh connection, then require `trace` to return that job's span timeline
# and `metrics` to return a well-formed registry snapshot. $2 names the
# deployment ("direct" | "router") — the router's metrics event must carry
# the fleet scope (role/workers) on top of the merged snapshot.
probe_obs_ops() {
  python3 - "$1" "$2" <<'PY'
import json, socket, sys

hostport, mode = sys.argv[1], sys.argv[2]
host, port = hostport.rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=30)
reader = sock.makefile("r", encoding="utf-8")

def send(obj):
    sock.sendall((json.dumps(obj) + "\n").encode())

def next_event():
    line = reader.readline()
    assert line, "connection closed while expecting an event"
    return json.loads(line)

# Distinct from every fixture spec: a result-cache hit is answered without
# re-running the job, so it mints no trace — the probe needs a fresh run.
spec = {"algorithm": "grk", "n_items": 4096, "n_blocks": 4,
        "marked": [1234], "seed": 90210}
send({"op": "submit", "id": "obs-probe", "spec": spec})
ack = next_event()
assert ack["event"] == "accepted", ack
while True:
    event = next_event()
    if event["event"] == "result":
        assert event["id"] == "obs-probe", event
        break

send({"op": "trace", "id": "obs-probe"})
trace = next_event()
assert trace["event"] == "trace", trace
assert trace["id"] == "obs-probe", trace
spans = trace["trace"]["spans"]
names = [s["name"] for s in spans]
assert "submit" in names and "finish.done" in names, names
assert trace["trace"]["trace_id"] >= 1, trace

send({"op": "metrics", "id": "obs-metrics"})
metrics = next_event()
assert metrics["event"] == "metrics", metrics
snapshot = metrics["metrics"]
for key in ("counters", "gauges", "histograms"):
    assert key in snapshot, (key, sorted(snapshot))
assert snapshot["counters"]["service.submitted"] >= 1, snapshot["counters"]
assert snapshot["histograms"]["latency.exec_ns"]["count"] >= 1
if mode == "router":
    assert metrics["role"] == "router", metrics
    assert metrics["workers"] == 4, metrics
    assert metrics["workers_answering"] == 4, metrics

sock.close()
print(f"obs probe ({mode}): trace has {len(spans)} spans; "
      f"metrics snapshot well-formed")
PY
}

echo "== direct: one worker =="
"${serve}" --listen "127.0.0.1:$((base))" --threads 2 \
  2>"${out}/serve_direct.log" &
pids+=($!)
"${loadgen}" --connect "127.0.0.1:$((base))" --fixture "${fixture}" \
  > "${out}/direct.jsonl"
probe_obs_ops "127.0.0.1:$((base))" direct

echo "== routed: pqs_router over four workers =="
workers=""
for w in 1 2 3 4; do
  "${serve}" --listen "127.0.0.1:$((base + w))" --threads 2 \
    2>"${out}/serve_w${w}.log" &
  pids+=($!)
  workers="${workers}${workers:+,}127.0.0.1:$((base + w))"
done
"${router}" --listen "127.0.0.1:$((base + 5))" --workers "${workers}" \
  2>"${out}/router.log" &
pids+=($!)
"${loadgen}" --connect "127.0.0.1:$((base + 5))" --fixture "${fixture}" \
  > "${out}/routed.jsonl"
probe_obs_ops "127.0.0.1:$((base + 5))" router

echo "== verdict =="
test "$(wc -l < "${out}/direct.jsonl")" = 7
diff "${out}/direct.jsonl" "${out}/routed.jsonl"
echo "net_smoke: result stream byte-identical, 1 direct worker vs router + 4 workers"
