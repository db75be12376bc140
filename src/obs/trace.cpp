#include "obs/trace.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace pqs::obs {

namespace {

// nullopt = real clock. Plain (non-atomic) by contract: tests install the
// fake before the traced work starts and remove it after it drains.
std::optional<std::uint64_t>& fake_clock_ns() {
  static std::optional<std::uint64_t> fake;
  return fake;
}

}  // namespace

std::uint64_t trace_now_ns() {
  if (const auto& fake = fake_clock_ns()) {
    return *fake;
  }
  // The one sanctioned raw clock read besides common/timing (pqs_lint rule
  // `raw-clock` allows exactly these two homes).
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_fake_clock_ns_for_testing(std::optional<std::uint64_t> now_ns) {
  fake_clock_ns() = now_ns;
}

void Trace::span(const char* name) noexcept {
  const std::uint64_t now = trace_now_ns();
  LockGuard lock(mutex_);
  events_.push_back(SpanEvent{name, now});
}

std::vector<SpanEvent> Trace::events() const {
  LockGuard lock(mutex_);
  return events_;
}

std::uint64_t Trace::total_ns() const {
  LockGuard lock(mutex_);
  if (events_.size() < 2) {
    return 0;
  }
  return events_.back().t_ns - events_.front().t_ns;
}

Json Trace::to_json() const {
  std::vector<SpanEvent> events;
  {
    LockGuard lock(mutex_);
    events = events_;
  }
  Json spans = Json::make_array();
  // Span times go out RELATIVE to the first span: absolute steady-clock
  // ns are meaningless across processes and would make serve transcripts
  // nondeterministic for no information gained.
  const std::uint64_t origin = events.empty() ? 0 : events.front().t_ns;
  for (const SpanEvent& event : events) {
    Json span = Json::make_object();
    span["name"] = std::string(event.name);
    span["t_ns"] = event.t_ns - origin;
    spans.push_back(std::move(span));
  }
  Json json = Json::make_object();
  json["trace_id"] = id_;
  json["spans"] = std::move(spans);
  json["total_ns"] =
      events.size() < 2
          ? std::uint64_t{0}
          : events.back().t_ns - events.front().t_ns;
  return json;
}

TraceStore::TraceStore(TraceStoreOptions options) : options_(options) {}

std::shared_ptr<Trace> TraceStore::mint() {
  if (!enabled()) {
    return nullptr;
  }
  return std::make_shared<Trace>(
      next_id_.fetch_add(1, std::memory_order_relaxed));
}

void TraceStore::retire(const Trace& trace) {
  if (options_.slow_request_ns == 0 ||
      trace.total_ns() < options_.slow_request_ns) {
    return;
  }
  if (slow_counter_ != nullptr) {
    slow_counter_->add();
  }
  if (slow_callback_) {
    slow_callback_(trace);
  }
}

void TraceStore::set_slow_sink(MetricsRegistry* registry,
                               SlowCallback callback) {
  slow_counter_ =
      registry == nullptr ? nullptr : &registry->counter("trace.slow_requests");
  slow_callback_ = std::move(callback);
}

}  // namespace pqs::obs
