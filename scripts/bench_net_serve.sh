#!/usr/bin/env bash
# net_serve scaling bench: drive a 64-client loadgen replay against
#   1. a single pqs_serve worker, and
#   2. a pqs_router sharding across N workers,
# and print the two JSON summaries (throughput, latency percentiles). The
# workload draws from a unique-key working set sized ABOVE one worker's
# result-LRU capacity but WITHIN the fleet's aggregate capacity, so the
# scaling story measured here is the one the router actually sells:
# shard-local caches growing linearly with worker count. Single-machine
# runs on few cores understate CPU scaling; the cache-capacity effect is
# what survives that, and BENCH_qsim.json records the core count so the
# numbers stay honest.
#
# Every server binds 127.0.0.1:0 and reports its port (scripts/start_server.sh).
#
# Usage: scripts/bench_net_serve.sh [build-dir] [workers] [clients] [requests] [unique_keys] [cache] [n_items] [window]
set -eu
cd "$(dirname "$0")/.."
. scripts/start_server.sh
build="${1:-build}"
n_workers="${2:-4}"
clients="${3:-64}"
requests="${4:-100000}"
unique_keys="${5:-2048}"
cache="${6:-640}"  # per-worker result-LRU capacity: keys > cache, keys <= N*cache
n_items="${7:-16384}"  # sized so one execution costs ~1.4 ms: misses must hurt
window="${8:-4}"   # shallow per-client pipeline: keeps total inflight (clients
                   # x window) far below unique_keys, so concurrent duplicate
                   # submits (which the service would coalesce into one
                   # execution even without a cache) stay rare and the
                   # single-worker run is honestly eviction-bound
serve="${build}/tools/pqs_serve"
router="${build}/tools/pqs_router"
loadgen="${build}/tools/pqs_loadgen"
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

echo "== 1 worker, direct ==" >&2
start_server "${out}/serve_direct.log" "${serve}" --threads 2 \
  --result-cache "${cache}" --max-connections 256
"${loadgen}" --connect "${listen_addr}" --clients "${clients}" \
  --requests "${requests}" --unique-keys "${unique_keys}" \
  --n-items "${n_items}" --inflight-per-conn "${window}"

echo "== ${n_workers} workers behind pqs_router ==" >&2
workers=""
for w in $(seq 1 "${n_workers}"); do
  start_server "${out}/serve_w${w}.log" "${serve}" --threads 2 \
    --result-cache "${cache}" --max-connections 256
  workers="${workers}${workers:+,}${listen_addr}"
done
start_server "${out}/router.log" "${router}" --workers "${workers}" \
  --max-connections 256
"${loadgen}" --connect "${listen_addr}" \
  --clients "${clients}" --requests "${requests}" \
  --unique-keys "${unique_keys}" --n-items "${n_items}" --inflight-per-conn "${window}"
