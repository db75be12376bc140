#include "service/flags.h"

#include <cstdint>

#include "common/check.h"

namespace pqs::service {

ServiceOptions parse_service_flags(Cli& cli, unsigned default_threads,
                                   std::size_t default_queue_depth) {
  ServiceOptions options;
  const auto threads = cli.get_int(
      "threads", static_cast<std::int64_t>(default_threads),
      "service worker threads executing jobs");
  PQS_CHECK_MSG(threads >= 1, "--threads must be >= 1");
  options.threads = static_cast<unsigned>(threads);
  const auto depth = cli.get_int(
      "queue-depth", static_cast<std::int64_t>(default_queue_depth),
      "bounded job-queue capacity (submits beyond it are rejected)");
  PQS_CHECK_MSG(depth >= 1, "--queue-depth must be >= 1");
  options.queue_capacity = static_cast<std::size_t>(depth);
  const auto result_cache = cli.get_int(
      "result-cache",
      static_cast<std::int64_t>(options.result_cache_capacity),
      "completed reports kept in the result LRU (per process — sharding "
      "multiplies the fleet's aggregate cache)");
  PQS_CHECK_MSG(result_cache >= 1, "--result-cache must be >= 1");
  options.result_cache_capacity = static_cast<std::size_t>(result_cache);
  const auto trace_ring = cli.get_int(
      "trace-ring", 1,
      "request tracing for the `trace` op: 0 turns it off, any other value "
      "on (no ring of traces is kept; each connection keeps its own jobs')");
  PQS_CHECK_MSG(trace_ring >= 0, "--trace-ring must be >= 0");
  options.trace.enabled = trace_ring != 0;
  const auto slow_ms = cli.get_int(
      "slow-ms", 0,
      "slow-request threshold in milliseconds: traced jobs at or over it "
      "are counted and logged to stderr (0 = off)");
  PQS_CHECK_MSG(slow_ms >= 0, "--slow-ms must be >= 0");
  options.trace.slow_request_ns =
      static_cast<std::uint64_t>(slow_ms) * 1000000ULL;
  return options;
}

NetOptions parse_net_flags(Cli& cli, std::string default_listen,
                           std::size_t default_max_connections,
                           std::size_t default_inflight_per_conn) {
  NetOptions options;
  options.listen = cli.get_string(
      "listen", default_listen,
      "TCP listen address host:port (port 0 picks an ephemeral port; empty "
      "keeps the JSONL-on-stdin process shape)");
  const auto max_connections = cli.get_int(
      "max-connections", static_cast<std::int64_t>(default_max_connections),
      "most concurrent TCP connections admitted; beyond it a connection "
      "gets one `overloaded` event and is closed");
  PQS_CHECK_MSG(max_connections >= 1, "--max-connections must be >= 1");
  options.max_connections = static_cast<std::size_t>(max_connections);
  const auto inflight = cli.get_int(
      "inflight-per-conn",
      static_cast<std::int64_t>(default_inflight_per_conn),
      "most unanswered submits per connection, rejected with an "
      "`overloaded` event beyond it (0 = unbounded)");
  PQS_CHECK_MSG(inflight >= 0, "--inflight-per-conn must be >= 0");
  options.inflight_per_conn = static_cast<std::size_t>(inflight);
  return options;
}

JournalOptions parse_journal_flags(Cli& cli) {
  JournalOptions options;
  options.path = cli.get_string(
      "journal", "",
      "write-ahead journal path: accepted jobs are durable before they are "
      "acked, and unfinished ones replay at the next start (empty = no "
      "journal)");
  const std::string sync = cli.get_string(
      "journal-sync", std::string(to_string(options.sync)),
      "journal fsync policy: none (process-death safe; power loss may lose "
      "the tail) | always (fsync per record)");
  options.sync = parse_journal_sync(sync);
  return options;
}

}  // namespace pqs::service
