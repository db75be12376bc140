// pqs_serve — the JSONL front-end of pqs::Service, over stdin or TCP.
//
// Reads one request object per line, streams one event object per line.
// Without --listen it speaks on stdin/stdout (the original process shape);
// with --listen host:port it becomes a network worker: every admitted
// connection runs its own protocol session over the one shared Service, so
// coalescing and the result LRU span clients. Both transports parse every
// line with net::parse_request_header — the parser pqs_router admits
// through too. See src/net/session.h for the full protocol contract.
//
//   requests
//     {"op":"submit","id":"a","spec":{"algorithm":"grk","n_items":4096,...}}
//     {"op":"submit","id":"b","spec":{...},"priority":5}
//     {"op":"cancel","id":"a"}
//     {"op":"stats","id":"s"}
//     {"op":"metrics","id":"m"}
//     {"op":"trace","id":"a"}
//
//   events
//     {"event":"accepted","id":"a"}                        immediate ack
//     {"event":"overloaded","id":"a","reason":"..."}       admission reject
//     {"event":"cancelling","id":"a"}                      cancel ack
//     {"event":"result","id":"a","status":"done","report":{...}}
//     {"event":"result","id":"a","status":"cancelled"}
//     {"event":"result","id":"a","status":"failed","error":"..."}
//     {"event":"stats","id":"s","isa":...,"counters":{...},"latency_ns":...}
//                                          projection of the registry
//     {"event":"metrics","id":"m","isa":...,"metrics":{...}}  full registry
//     {"event":"trace","id":"a","trace":{"spans":[...],...}}  span timeline
//     {"event":"error","message":"..."}                    bad request line
//
// Result events are emitted in SUBMISSION order, and the report payload
// zeroes the wall-clock timing fields unless --timing is passed — together
// that makes the stream of result lines a deterministic function of the
// request file at fixed seeds, which CI diffs byte-for-byte (including
// across shard fleets: see tools/pqs_router.cpp).
//
// With --journal <path> the service becomes restart-safe: every accepted
// job is durable on disk before its ack, and a start replays the jobs a
// previous process left unfinished — through the ordinary coalescing
// submit path — before accepting new traffic. --journal-sync picks the
// fsync policy (see src/service/journal.h for the durability contract).
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "net/server.h"
#include "net/session.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qsim/isa.h"
#include "service/flags.h"
#include "service/journal.h"
#include "service/service.h"

namespace {

using namespace pqs;

/// stdin/stdout mode: one session, drain on EOF (the pipe is done but the
/// reader still wants every result it was promised). A stop signal keeps
/// its default action: main unblocks it, so it terminates the process.
int run_stdio(Service& service, const net::SessionOptions& session_options,
              const sigset_t& stop_signals) {
  pthread_sigmask(SIG_UNBLOCK, &stop_signals, nullptr);
  net::Session session(
      service,
      [](const std::string& line) {
        std::cout << line << "\n" << std::flush;
        return static_cast<bool>(std::cout);
      },
      session_options);
  std::string line;
  while (std::getline(std::cin, line)) {
    session.handle_line(line);
  }
  session.drain();
  return 0;
}

/// TCP mode: serve until SIGINT/SIGTERM.
int run_listen(Service& service, const service::NetOptions& net_options,
               const net::SessionOptions& session_options,
               const sigset_t& stop_signals) {
  net::NetServerOptions options;
  options.listen = net::parse_hostport(net_options.listen);
  options.max_connections = net_options.max_connections;
  options.session = session_options;
  options.metrics = &obs::MetricsRegistry::global();
  net::NetServer server(service, options);
  server.start();
  std::cerr << "pqs_serve: listening on " << options.listen.host << ":"
            << server.port() << "\n";

  int signal = 0;
  sigwait(&stop_signals, &signal);
  std::cerr << "pqs_serve: shutting down\n";
  server.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // SIGINT/SIGTERM stay blocked in every thread (threads inherit the mask
  // of the one that starts them); only main takes them, by sigwait in TCP
  // mode: a stop signal handled on a worker thread would leave main asleep.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  Cli cli(argc, argv);
  ServiceOptions options = service::parse_service_flags(cli);
  const service::NetOptions net_options = service::parse_net_flags(cli);
  const service::JournalOptions journal_options =
      service::parse_journal_flags(cli);
  net::SessionOptions session_options;
  session_options.with_timing = cli.get_bool(
      "timing", false,
      "emit real queue/plan/exec timing in result payloads (off keeps the "
      "output byte-deterministic at fixed seeds)");
  session_options.inflight_limit = net_options.inflight_per_conn;
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();

  // One process, one registry: service, planner, journal, and the TCP
  // front door all register here, so a single `metrics` op answers for
  // the whole worker (and the router can merge workers fleet-wide).
  options.metrics = &obs::MetricsRegistry::global();

  // Restart protocol step 1: merge + rotate any pre-crash journal history
  // and open the fresh journal BEFORE the Service exists, so the very
  // first accepted job already lands in it.
  RecoveredJournal recovered;
  if (!journal_options.path.empty()) {
    Journal::Opened opened =
        Journal::recover_and_open(journal_options.path, journal_options.sync);
    options.journal = std::move(opened.journal);
    recovered = std::move(opened.recovered);
    options.journal->bind_metrics(obs::MetricsRegistry::global());
    for (const std::string& warning : recovered.warnings) {
      std::cerr << "pqs_serve: journal: " << warning << "\n";
    }
  }

  Service service(options);
  // Slow requests hit stderr with their full span timeline — the
  // threshold is --slow-ms (off by default; the counter still exists).
  service.trace_store().set_slow_sink(
      &obs::MetricsRegistry::global(), [](const obs::Trace& trace) {
        std::cerr << "pqs_serve: slow request " << trace.to_json().dump()
                  << "\n";
      });
  std::cerr << "pqs_serve: " << options.threads << " worker(s), queue depth "
            << options.queue_capacity << ", kernel ISA "
            << qsim::isa_name(qsim::active_isa()) << "; "
            << (net_options.listen.empty() ? "reading JSONL from stdin"
                                           : "JSONL over TCP")
            << "\n";

  // Steps 2–3: resubmit everything the previous process left unfinished
  // (before any traffic — new submits of equal specs coalesce onto the
  // replays), make the fresh accepted records durable, drop the history.
  std::vector<JobHandle> replay_handles;
  if (options.journal) {
    service::ReplayOutcome outcome = service::replay_pending(
        service, recovered.pending, &obs::MetricsRegistry::global());
    options.journal->sync();
    Journal::finish_recovery(journal_options.path);
    for (const std::string& warning : outcome.warnings) {
      std::cerr << "pqs_serve: journal: " << warning << "\n";
    }
    std::cerr << "pqs_serve: journal \"" << journal_options.path << "\" (sync="
              << to_string(journal_options.sync) << "): " << recovered.completed
              << " completed record(s), " << outcome.resubmitted
              << " unfinished job(s) replayed, " << outcome.skipped
              << " skipped\n";
    replay_handles = std::move(outcome.handles);
  }

  int rc;
  if (net_options.listen.empty()) {
    rc = run_stdio(service, session_options, stop_signals);
    // One-shot pipe mode finishes what the journal promised: replayed jobs
    // complete (and land their markers) before exit. TCP mode skips this —
    // SIGTERM means stop NOW; interrupted replays stay pending on disk and
    // simply replay again next start.
    for (const JobHandle& handle : replay_handles) {
      handle.wait();
    }
  } else {
    rc = run_listen(service, net_options, session_options, stop_signals);
  }
  return rc;
}
