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
# Last, a rejection-parity probe sends the same script of bad lines to one
# more worker directly and through a 1-worker router, both at
# --inflight-per-conn 1: malformed JSON, an unknown op, `trace` without an
# id, bad specs, an unknown cancel, a duplicate in-flight id and an over-cap
# submit (both with bad specs). Every ack must match in event kind and id,
# overloaded reasons must match, and error messages must match once any
# `PQS_CHECK failed: (...) at file:line — ` prefix is stripped.
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

# Send one script of request lines to each endpoint and require the two
# ack streams to agree (see the header for what "agree" means).
probe_rejection_parity() {
  python3 - "$1" "$2" <<'PY'
import json, re, socket, sys, time

# Runs for minutes unless cancelled: keeps "long" in flight for the
# duplicate-id and over-cap lines.
long_spec = {"algorithm": "noisy", "n_items": 16384, "n_blocks": 4,
             "marked": [5], "noise": "depolarizing", "noise_p": 1e-4,
             "shots": 1000000, "seed": 3}
bad_blocks = {"algorithm": "grk", "n_items": 4096, "n_blocks": 3,
              "marked": [2731]}
script = [
    'not json',
    '{"op":"frobnicate","id":"x"}',
    '{"op":"trace"}',
    json.dumps({"op": "submit", "id": "nope", "spec": {"algorithm": "nope"}}),
    json.dumps({"op": "submit", "id": "k3", "spec": bad_blocks}),
    '{"op":"cancel","id":"ghost"}',
    json.dumps({"op": "submit", "id": "long", "spec": long_spec}),
    json.dumps({"op": "submit", "id": "long", "spec": {"algorithm": "nope"}}),
    json.dumps({"op": "submit", "id": "over", "spec": {"algorithm": "nope"}}),
    '{"op":"cancel","id":"long"}',
]
prefix = re.compile(r"^PQS_CHECK failed: \(.*\) at \S+:\d+ — ")

def run(hostport):
    host, port = hostport.rsplit(":", 1)
    for attempt in range(100):  # the endpoint was started just now
        try:
            sock = socket.create_connection((host, int(port)), timeout=30)
            break
        except ConnectionRefusedError:
            time.sleep(0.1)
    else:
        sys.exit(f"cannot connect to {hostport}")
    reader = sock.makefile("r", encoding="utf-8")
    acks, results = [], []
    for line in script:
        sock.sendall((line + "\n").encode())
        while True:
            event = json.loads(reader.readline())
            if event["event"] != "result":
                acks.append(event)
                break
            results.append(event)
    while not results:  # the cancelled "long"
        results.append(json.loads(reader.readline()))
    sock.close()
    return acks, results

def shape(event):
    kept = {"event": event["event"], "id": event.get("id")}
    if event["event"] == "error":
        kept["message"] = prefix.sub("", event["message"])
    if event["event"] == "overloaded":
        kept["reason"] = event["reason"]
    return kept

direct_acks, direct_results = run(sys.argv[1])
routed_acks, routed_results = run(sys.argv[2])
for line, direct, routed in zip(script, direct_acks, routed_acks):
    assert shape(direct) == shape(routed), (line, direct, routed)
kinds = [a["event"] for a in direct_acks]
assert kinds == ["error"] * 6 + ["accepted", "error", "overloaded",
                                 "cancelling"], kinds
for results in (direct_results, routed_results):
    assert [(r["id"], r["status"]) for r in results] == [
        ("long", "cancelled")], results
print(f"rejection parity: {len(script)} acks match, direct worker vs router")
PY
}

echo "== parity: a worker and a 1-worker router, both at --inflight-per-conn 1 =="
"${serve}" --listen "127.0.0.1:$((base + 6))" --threads 2 \
  --inflight-per-conn 1 2>"${out}/serve_parity.log" &
pids+=($!)
"${router}" --listen "127.0.0.1:$((base + 7))" \
  --workers "127.0.0.1:$((base + 6))" --inflight-per-conn 1 \
  2>"${out}/router_parity.log" &
pids+=($!)
probe_rejection_parity "127.0.0.1:$((base + 6))" "127.0.0.1:$((base + 7))"

echo "== verdict =="
test "$(wc -l < "${out}/direct.jsonl")" = 7
diff "${out}/direct.jsonl" "${out}/routed.jsonl"
echo "net_smoke: result stream byte-identical, 1 direct worker vs router + 4 workers"
