// pqs_router — canonical-key sharding across a fleet of pqs_serve workers.
//
//   clients ──TCP──▶ pqs_router ──TCP──▶ pqs_serve --listen (worker 0)
//                              ├──TCP──▶ pqs_serve --listen (worker 1)
//                              └──TCP──▶ ...
//
// Every submit is hashed on api::canonicalize(spec).key and forwarded to
// the owning worker (net/shard.h), so requests that would coalesce — and
// result LRU entries — stay shard-local: the fleet's aggregate cache
// capacity grows linearly with worker count, with no cross-node cache
// protocol.
//
// The router keeps the session protocol contract intact from the client's
// point of view:
//
//   * each request is answered by exactly one synchronous ack (the router
//     forwards the owning worker's ack verbatim, or answers locally for
//     stats and for requests it rejects itself: malformed lines, duplicate
//     ids, its own inflight cap, bad specs);
//   * a rejected line gets the ack a worker would give: the router admits
//     through the worker's own code — net::parse_request_header, then
//     net::submit_refusal (duplicate id, inflight cap), then
//     api::canonicalize (Service::submit's spec check) — and builds its
//     error events with the net/session.h builder;
//   * result events are released in SUBMISSION order across workers — the
//     router holds a worker's result line until every earlier submit's
//     result is out, so at fixed seeds the client-visible result stream is
//     byte-identical to a single direct worker (CI diffs exactly that);
//   * a dropped client tears down its per-client worker connections, so the
//     workers' sessions abort and cancel exactly that client's jobs;
//   * the router is the fleet's telemetry scope: a `metrics` op fans out to
//     every worker and answers ONE merged registry snapshot — counters sum
//     exactly, histograms merge bucket-wise (obs::merge_snapshots) — and a
//     `trace` op routes to the worker that owns the job's timeline.
//
// Per client connection the router dials every worker once (per-client
// links, not shared multiplexing) — that is what makes the abort semantics
// and ack pairing trivial: on one link, acks answer forwarded requests in
// FIFO order, depth at most one because the client loop waits for each ack
// before reading its next request line.
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/serialize.h"
#include "common/check.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/thread_annotations.h"
#include "net/server.h"
#include "net/session.h"
#include "net/shard.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "service/flags.h"

namespace {

using namespace pqs;
using net::error_event;
using net::Request;

/// One client connection's view of the fleet: a link per worker, submission
/// ordering, and the ack pairing state. Single mutex; client writes happen
/// under it so result release order is exactly flush order.
class ClientRoute {
 public:
  ClientRoute(net::Socket& client, const std::vector<net::Addr>& workers,
              std::size_t inflight_limit)
      : client_(client), inflight_limit_(inflight_limit) {
    links_.reserve(workers.size());
    for (const net::Addr& addr : workers) {
      links_.push_back(std::make_unique<Link>());
      links_.back()->socket =
          net::connect_with_retry(addr, std::chrono::milliseconds(2000));
    }
    for (std::size_t w = 0; w < links_.size(); ++w) {
      links_[w]->reader = std::thread([this, w] { reader_loop(w); });
    }
  }

  ~ClientRoute() {
    for (auto& link : links_) {
      link->socket.shutdown_both();  // workers see EOF -> abort our jobs
    }
    for (auto& link : links_) {
      if (link->reader.joinable()) {
        link->reader.join();
      }
    }
  }

  /// The client loop: one request line in, one ack out, until EOF.
  void run() {
    net::LineReader reader(client_);
    std::string line;
    while (reader.next_line(line)) {
      handle_line(line);
    }
  }

 private:
  struct Link {
    net::Socket socket;
    std::thread reader;
    /// Non-result worker events, FIFO — acks for our forwarded requests.
    std::deque<std::string> acks;
    bool dead = false;
  };

  void handle_line(const std::string& line) {
    if (line.empty()) {
      return;
    }
    try {
      // The worker's own header parser: same ops, same id rules, same
      // messages, so a routed client cannot tell the router from a worker.
      const Json request = Json::parse(line);
      const Request header = net::parse_request_header(request);
      switch (header.op) {
        case Request::Op::kSubmit:
          handle_submit(line, request, header.id);
          break;
        case Request::Op::kCancel:
          handle_cancel(line, header.id);
          break;
        case Request::Op::kStats: {
          Json event = Json::make_object();
          event["event"] = "stats";
          if (!header.id.empty()) {
            event["id"] = header.id;
          }
          event["role"] = "router";
          event["workers"] = std::uint64_t{links_.size()};
          LockGuard lock(mutex_);
          write_locked(event.dump());
          break;
        }
        case Request::Op::kMetrics:
          handle_metrics(header.id);
          break;
        case Request::Op::kTrace:
          handle_trace(line, header.id);
          break;
      }
    } catch (const std::exception& e) {
      LockGuard lock(mutex_);
      write_locked(error_event(wire_message(e)).dump());
    }
  }

  void handle_submit(const std::string& line, const Json& request,
                     const std::string& id) {
    // Admission before the spec, as in Session::handle_line: an over-cap
    // submit answers `overloaded` whatever its spec. owner_ only shrinks
    // while the client loop is here, so the verdict survives the unlocked
    // spec check.
    {
      LockGuard lock(mutex_);
      if (const auto refusal = net::submit_refusal(
              id, owner_.contains(id), owner_.size(), inflight_limit_)) {
        write_locked(refusal->dump());
        return;
      }
    }
    // The check Service::submit runs: a bad spec fails here with the
    // worker's message, and a good one yields the shard key.
    const std::size_t w = net::shard_for_key(
        api::canonicalize(api::spec_from_json(request.at("spec"))).key,
        links_.size());
    UniqueLock lock(mutex_);
    if (links_[w]->dead) {
      write_locked(worker_down_event(w).dump());
      return;
    }
    owner_[id] = w;
    // Remembered PAST completion (owner_ forgets at flush): a `trace` op
    // arrives after the result, and must still find the owning worker.
    remember_trace_owner_locked(id, w);
    order_.push_back(id);
    forward_and_ack(lock, w, line, id);
  }

  /// Fleet scope: forward `{"op":"metrics"}` to EVERY live worker, wait
  /// for each one's synchronous ack (the client loop is serial, so link
  /// FIFO depth stays <= 1), and answer one merged snapshot. A dead or
  /// garbled worker contributes nothing; `workers_answering` says how many
  /// did.
  void handle_metrics(const std::string& id) {
    Json probe = Json::make_object();
    probe["op"] = "metrics";
    const std::string probe_line = probe.dump();
    std::vector<Json> snapshots;
    UniqueLock lock(mutex_);
    for (std::size_t w = 0; w < links_.size(); ++w) {
      std::string ack;
      if (!forward_and_collect(lock, w, probe_line, ack)) {
        continue;
      }
      try {
        const Json event = Json::parse(ack);
        if (event.at("event").as_string() == "metrics") {
          snapshots.push_back(event.at("metrics"));
        }
      } catch (const std::exception&) {
        // A worker answering garbage merges as silence.
      }
    }
    Json event = Json::make_object();
    event["event"] = "metrics";
    if (!id.empty()) {
      event["id"] = id;
    }
    event["role"] = "router";
    event["workers"] = std::uint64_t{links_.size()};
    event["workers_answering"] = std::uint64_t{snapshots.size()};
    event["metrics"] = obs::merge_snapshots(snapshots);
    write_locked(event.dump());
  }

  /// Route a `trace` op to the worker that ran the job and relay its
  /// answer (the trace event, or the worker's own not-found error).
  void handle_trace(const std::string& line, const std::string& id) {
    UniqueLock lock(mutex_);
    const auto it = trace_owner_.find(id);
    if (it == trace_owner_.end()) {
      write_locked(net::unknown_trace_event(id).dump());
      return;
    }
    const std::size_t w = it->second;
    std::string ack;
    if (!forward_and_collect(lock, w, line, ack)) {
      write_locked(worker_down_event(w).dump());
      return;
    }
    write_locked(ack);
  }

  void handle_cancel(const std::string& line, const std::string& id) {
    UniqueLock lock(mutex_);
    const auto it = owner_.find(id);
    if (it == owner_.end()) {
      write_locked(net::unknown_cancel_event(id).dump());
      return;
    }
    forward_and_ack(lock, it->second, line, "");
  }

  /// Forward `line` to worker `w`, wait for its one synchronous ack, relay
  /// it to the client. `submit_id` non-empty marks this as a submit whose
  /// rejection (overloaded / error ack) must un-reserve the id.
  void forward_and_ack(UniqueLock& lock, std::size_t w, const std::string& line,
                       const std::string& submit_id) {
    std::string ack;
    if (!forward_and_collect(lock, w, line, ack)) {
      drop_submit_locked(submit_id);
      write_locked(worker_down_event(w).dump());
      return;
    }
    bool promised = false;
    if (!submit_id.empty()) {
      // Only an `accepted` ack promises a future result event.
      const Json event = Json::parse(ack);
      promised = event.at("event").as_string() == "accepted";
      if (!promised) {
        drop_submit_locked(submit_id);
      }
    }
    write_locked(ack);
    if (promised) {
      // Its result may already be parked (a cache-served submit finishes
      // before this thread wakes): only now that the ack is out may it —
      // and anything queued behind it — be released.
      acked_.insert(submit_id);
      flush_locked();
    }
  }

  /// Forward one request to worker `w` and collect its synchronous ack.
  /// Returns false (no ack) when the link is or goes dead; reader_loop
  /// marks a link dead, the caller answers the request now.
  bool forward_and_collect(UniqueLock& lock, std::size_t w,
                           const std::string& line, std::string& ack) {
    Link& link = *links_[w];
    if (link.dead) {
      return false;
    }
    lock.unlock();  // the blocking worker write happens unlocked
    const bool sent = link.socket.write_all(line + "\n");
    lock.lock();
    if (!sent) {
      return false;
    }
    while (link.acks.empty() && !link.dead) {
      cv_.wait(lock);
    }
    if (link.acks.empty()) {
      return false;
    }
    ack = std::move(link.acks.front());
    link.acks.pop_front();
    return true;
  }

  void remember_trace_owner_locked(const std::string& id, std::size_t w)
      PQS_REQUIRES(mutex_) {
    if (const auto it = trace_owner_.find(id); it != trace_owner_.end()) {
      it->second = w;  // id reuse: replace, keep FIFO position
      return;
    }
    trace_owner_.emplace(id, w);
    trace_owner_order_.push_back(id);
    while (trace_owner_order_.size() > net::kTraceIndexCapacity) {
      trace_owner_.erase(trace_owner_order_.front());
      trace_owner_order_.pop_front();
    }
  }

  /// Un-reserve a submit that will never produce a result.
  void drop_submit_locked(const std::string& submit_id) PQS_REQUIRES(mutex_) {
    if (submit_id.empty()) {
      return;
    }
    owner_.erase(submit_id);
    dropped_.insert(submit_id);
    flush_locked();
  }

  Json worker_down_event(std::size_t w) const {
    return error_event("worker " + std::to_string(w) + " disconnected");
  }

  void reader_loop(std::size_t w) {
    Link& link = *links_[w];
    net::LineReader reader(link.socket);
    std::string line;
    while (reader.next_line(line)) {
      std::string id;
      bool is_result = false;
      try {
        const Json event = Json::parse(line);
        is_result = event.at("event").as_string() == "result";
        if (is_result) {
          id = event.at("id").as_string();
        }
      } catch (const std::exception&) {
        // A worker speaking garbage is as gone as a dead one.
        break;
      }
      LockGuard lock(mutex_);
      if (is_result) {
        ready_[id] = line;
        flush_locked();
      } else {
        link.acks.push_back(line);
        cv_.notify_all();
      }
    }
    LockGuard lock(mutex_);
    link.dead = true;
    // Every unanswered job this worker owned will never resolve; skip them
    // so later submits' results are not held hostage.
    for (const auto& [id, owner] : owner_) {
      if (owner == w && !ready_.contains(id)) {
        dropped_.insert(id);
      }
    }
    flush_locked();
    cv_.notify_all();
  }

  /// Release result lines in submission order: the front of order_ goes out
  /// the moment its line is ready; dropped ids are skipped.
  void flush_locked() PQS_REQUIRES(mutex_) {
    while (!order_.empty()) {
      const std::string& id = order_.front();
      if (dropped_.contains(id)) {
        dropped_.erase(id);
        acked_.erase(id);  // accepted-then-worker-died leaves a stale entry
        owner_.erase(id);
        order_.pop_front();
        continue;
      }
      const auto it = ready_.find(id);
      if (it == ready_.end() || !acked_.contains(id)) {
        // Not finished yet, or its accepted ack has not been relayed: a
        // result must never overtake its own ack on the client's wire.
        return;
      }
      write_locked(it->second);
      ready_.erase(it);
      acked_.erase(id);
      owner_.erase(id);
      order_.pop_front();
    }
  }

  void write_locked(const std::string& line) PQS_REQUIRES(mutex_) {
    if (client_gone_) {
      return;
    }
    if (!client_.write_all(line + "\n")) {
      client_gone_ = true;  // run()'s reader will see the close shortly
    }
  }

  net::Socket& client_;
  const std::size_t inflight_limit_;
  std::vector<std::unique_ptr<Link>> links_;

  mutable Mutex mutex_;
  std::condition_variable_any cv_;
  /// Submit ids in submission order — the release schedule for results.
  std::deque<std::string> order_ PQS_GUARDED_BY(mutex_);
  /// id -> owning worker for every unresolved submit.
  std::map<std::string, std::size_t> owner_ PQS_GUARDED_BY(mutex_);
  /// id -> verbatim result line, parked until its turn in order_.
  std::map<std::string, std::string> ready_ PQS_GUARDED_BY(mutex_);
  /// Submits whose `accepted` ack has been relayed to the client — only
  /// these may have their result released (ack-before-result ordering).
  std::set<std::string> acked_ PQS_GUARDED_BY(mutex_);
  /// Submits that will never produce a result (rejected, worker died).
  std::set<std::string> dropped_ PQS_GUARDED_BY(mutex_);
  /// id -> owning worker, kept past completion for `trace` routing
  /// (bounded FIFO of net::kTraceIndexCapacity ids).
  std::map<std::string, std::size_t> trace_owner_ PQS_GUARDED_BY(mutex_);
  std::deque<std::string> trace_owner_order_ PQS_GUARDED_BY(mutex_);
  bool client_gone_ PQS_GUARDED_BY(mutex_) = false;
};

std::vector<net::Addr> parse_worker_list(const std::string& text) {
  std::vector<net::Addr> workers;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string part =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!part.empty()) {
      workers.push_back(net::parse_hostport(part));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  PQS_CHECK_MSG(!workers.empty(),
                "--workers needs at least one host:port (comma-separated)");
  return workers;
}

}  // namespace

int main(int argc, char** argv) {
  // SIGINT/SIGTERM stay blocked in every thread (threads inherit the mask
  // of the one that starts them) and main takes them with sigwait: a stop
  // signal handled on some other thread would leave main asleep.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  Cli cli(argc, argv);
  const service::NetOptions net_options =
      service::parse_net_flags(cli, "127.0.0.1:0");
  const std::string workers_flag = cli.get_string(
      "workers", "",
      "comma-separated pqs_serve worker endpoints, e.g. "
      "127.0.0.1:7401,127.0.0.1:7402 (submits shard on canonical key)");
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();
  PQS_CHECK_MSG(!net_options.listen.empty(),
                "pqs_router needs --listen host:port");
  const std::vector<net::Addr> workers = parse_worker_list(workers_flag);

  net::AcceptorOptions acceptor_options;
  acceptor_options.listen = net::parse_hostport(net_options.listen);
  acceptor_options.max_connections = net_options.max_connections;
  net::Acceptor acceptor(
      acceptor_options,
      [&workers, &net_options](net::Socket& client) {
        try {
          ClientRoute route(client, workers, net_options.inflight_per_conn);
          route.run();
        } catch (const std::exception& e) {
          client.write_all(error_event(wire_message(e)).dump() + "\n");
        }
      });
  acceptor.start();
  std::cerr << "pqs_router: listening on " << acceptor_options.listen.host
            << ":" << acceptor.port() << ", sharding across " << workers.size()
            << " worker(s)\n";

  int signal = 0;
  sigwait(&stop_signals, &signal);
  std::cerr << "pqs_router: shutting down\n";
  acceptor.stop();
  return 0;
}
