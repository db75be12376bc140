// The durability layer: journal round-trips (randomized specs byte-survive
// the accepted-record line), torn-tail recovery at EVERY truncation offset,
// the Service wiring (fresh executions journal once; coalesced submits,
// cache hits, and shutdown-interrupted jobs don't write what they mustn't),
// replay semantics (equal keys execute once, a full queue is waited out, a
// stale spec is skipped with a warning), the double-crash rotation merge,
// the two end-of-input shapes with journalling on (stdin drain completes
// everything; a vanished TCP peer's jobs are cancelled AND marked so a
// restart won't resurrect them), and the headline: SIGKILL the real
// pqs_serve mid-batch, restart it, and watch exactly the unfinished jobs —
// no more, no fewer — run again.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/serialize.h"
#include "common/check.h"
#include "common/json.h"
#include "common/random.h"
#include "common/timing.h"
#include "net/server.h"
#include "net/session.h"
#include "net/socket.h"
#include "service/journal.h"
#include "service/service.h"

namespace pqs {
namespace {

using namespace std::chrono_literals;

// ---- shared scaffolding ----------------------------------------------------

struct TempDir {
  std::string path;
  TempDir() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "pqs_journal_XXXXXX")
            .string();
    PQS_CHECK(::mkdtemp(templ.data()) != nullptr);
    path = templ;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string wal() const { return path + "/journal.wal"; }
};

std::string spec_dump(const SearchSpec& spec) {
  return api::to_json(spec).dump();
}

bool wait_until(const std::function<bool()>& condition,
                std::chrono::milliseconds timeout = 10s) {
  Stopwatch watch;
  while (watch.millis() < static_cast<double>(timeout.count())) {
    if (condition()) {
      return true;
    }
    std::this_thread::sleep_for(1ms);
  }
  return condition();
}

// ---- test drivers ----------------------------------------------------------

struct DriverState {
  std::atomic<std::uint64_t> executions{0};
  std::atomic<int> running{0};
  std::atomic<bool> gate_open{false};

  void reset() {
    executions = 0;
    running = 0;
    gate_open = false;
  }
};

DriverState& state() {
  static DriverState s;
  return s;
}

SearchReport driver_report(const RunContext& ctx) {
  SearchReport report;
  report.measured = ctx.marked.front();
  report.correct = true;
  report.queries = 1;
  report.queries_per_trial = 1;
  report.success_probability = 1.0;
  return report;
}

/// Returns instantly, counts executions.
class CountingAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "counting"; }
  std::string_view summary() const override { return "test driver"; }
  SearchReport run(RunContext& ctx) const override {
    ctx.checkpoint();
    state().executions.fetch_add(1);
    return driver_report(ctx);
  }
};

/// Sleeps long enough that a 1-worker service's bounded queue fills during
/// replay — the back-pressure path's controllable load.
class SleepyAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "sleepy"; }
  std::string_view summary() const override { return "test driver"; }
  SearchReport run(RunContext& ctx) const override {
    ctx.checkpoint();
    state().executions.fetch_add(1);
    std::this_thread::sleep_for(10ms);
    return driver_report(ctx);
  }
};

/// Spins at a cancellation checkpoint until the gate opens.
class GatedAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "gated"; }
  std::string_view summary() const override { return "test driver"; }
  SearchReport run(RunContext& ctx) const override {
    state().executions.fetch_add(1);
    state().running.fetch_add(1);
    struct Guard {
      ~Guard() { state().running.fetch_sub(1); }
    } guard;
    while (!state().gate_open.load()) {
      ctx.checkpoint();  // a cancelled job unwinds from HERE
      std::this_thread::sleep_for(1ms);
    }
    return driver_report(ctx);
  }
};

Registry test_registry() {
  Registry registry = Registry::with_builtin_algorithms();
  registry.register_algorithm(
      "counting", [] { return std::make_unique<CountingAlgorithm>(); });
  registry.register_algorithm(
      "sleepy", [] { return std::make_unique<SleepyAlgorithm>(); });
  registry.register_algorithm(
      "gated", [] { return std::make_unique<GatedAlgorithm>(); });
  return registry;
}

SearchSpec test_spec(const std::string& algorithm, std::uint64_t seed) {
  SearchSpec spec = SearchSpec::single_target(64, 1, 9);
  spec.algorithm = algorithm;
  spec.seed = seed;
  return spec;
}

/// Journal `spec` as Service::submit does: canonicalize, serialize the
/// record, then stamp its id and append it.
std::uint64_t append_accepted(Journal& journal, const SearchSpec& spec,
                              int priority) {
  std::string record =
      journal.accepted_record(api::canonicalize(spec), priority);
  return journal.append_accepted(record);
}

/// Journal a completion marker as Service's finish path does.
void append_completed(Journal& journal, std::uint64_t id, JobStatus status,
                      const SearchReport* report) {
  journal.append_completed(Journal::completed_record(id, status, report));
}

// ---- randomized journal-line round trip ------------------------------------

SearchSpec random_spec(Rng& rng) {
  static const std::vector<std::string> kAlgorithms{
      "auto", "grover", "grk", "multi", "certainty", "noisy", "classical"};
  SearchSpec spec;
  spec.algorithm = kAlgorithms[rng.uniform_below(kAlgorithms.size())];
  const unsigned n = 2 + static_cast<unsigned>(rng.uniform_below(20));
  spec.n_items = std::uint64_t{1} << n;
  spec.n_blocks = std::uint64_t{1} << rng.uniform_below(n / 2 + 1);
  const std::size_t n_marked = 1 + rng.uniform_below(4);
  for (std::size_t i = 0; i < n_marked; ++i) {
    spec.marked.push_back(rng.uniform_below(spec.n_items));
  }
  // canonicalize admits only a sorted, duplicate-free marked set.
  std::sort(spec.marked.begin(), spec.marked.end());
  spec.marked.erase(std::unique(spec.marked.begin(), spec.marked.end()),
                    spec.marked.end());
  spec.backend = static_cast<qsim::BackendKind>(rng.uniform_below(3));
  spec.noise.kind = static_cast<qsim::NoiseKind>(rng.uniform_below(4));
  spec.noise.probability = static_cast<double>(rng.uniform_below(1000)) / 1e4;
  spec.seed = rng.next();  // any uint64, including > 2^53
  spec.min_success = static_cast<double>(rng.uniform_below(1000)) / 1e3;
  spec.shots = 1 + rng.uniform_below(1u << 16);
  return spec;
}

TEST(JournalRoundTripTest, RandomSpecsAndPrioritiesSurviveRecovery) {
  TempDir dir;
  Rng rng(20260808);
  std::vector<SearchSpec> specs;
  std::vector<int> priorities;
  {
    Journal journal(dir.wal(), JournalSync::kNone);
    for (int i = 0; i < 200; ++i) {
      specs.push_back(random_spec(rng));
      // Below-default urgency included: negative priorities travel as
      // doubles on the wire and must come back as the same int.
      priorities.push_back(static_cast<int>(rng.uniform_below(7)) - 3);
      const std::uint64_t id =
          append_accepted(journal, specs.back(), priorities.back());
      EXPECT_EQ(id, static_cast<std::uint64_t>(i + 1));
    }
  }
  const RecoveredJournal recovered = Journal::recover_file(dir.wal());
  ASSERT_EQ(recovered.accepted, 200u);
  ASSERT_EQ(recovered.pending.size(), 200u);
  EXPECT_TRUE(recovered.warnings.empty());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(recovered.pending[i].id, i + 1);
    EXPECT_EQ(recovered.pending[i].priority, priorities[i]);
    // Byte equality of the canonical dump — the exact property replay and
    // coalescing keys stand on.
    EXPECT_EQ(spec_dump(recovered.pending[i].spec), spec_dump(specs[i]));
  }
}

// ---- torn-tail recovery ----------------------------------------------------

TEST(JournalRecoveryTest, TornFinalLineSkippedAtEveryTruncationOffset) {
  TempDir dir;
  {
    Journal journal(dir.wal(), JournalSync::kNone);
    append_accepted(journal, test_spec("grover", 1), 0);
    append_accepted(journal, test_spec("grover", 2), 2);
  }
  std::ifstream in(dir.wal(), std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string text = bytes.str();
  const std::size_t first_len = text.find('\n');
  ASSERT_NE(first_len, std::string::npos);

  ASSERT_EQ(Journal::recover_text(text).accepted, 2u);
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    const RecoveredJournal r = Journal::recover_text(
        std::string_view(text).substr(0, cut));  // must never throw
    if (cut == 0) {
      EXPECT_EQ(r.accepted, 0u);
      EXPECT_TRUE(r.warnings.empty());
    } else if (cut < first_len) {
      // Torn inside the FIRST record: nothing recoverable, one warning.
      EXPECT_EQ(r.accepted, 0u) << "cut=" << cut;
      ASSERT_EQ(r.warnings.size(), 1u) << "cut=" << cut;
      EXPECT_NE(r.warnings[0].find("torn final line"), std::string::npos);
    } else if (cut <= first_len + 1) {
      // Exactly the first record (with or without its newline).
      EXPECT_EQ(r.accepted, 1u) << "cut=" << cut;
      EXPECT_TRUE(r.warnings.empty()) << "cut=" << cut;
    } else if (cut < text.size() - 1) {
      // Torn inside the SECOND record: the first survives intact, the
      // partial tail becomes one warning — never an exception.
      EXPECT_EQ(r.accepted, 1u) << "cut=" << cut;
      EXPECT_EQ(r.pending.size(), 1u) << "cut=" << cut;
      ASSERT_EQ(r.warnings.size(), 1u) << "cut=" << cut;
      EXPECT_NE(r.warnings[0].find("torn final line"), std::string::npos);
    } else {
      // Only the final newline missing: the second record is complete.
      EXPECT_EQ(r.accepted, 2u) << "cut=" << cut;
      EXPECT_TRUE(r.warnings.empty()) << "cut=" << cut;
    }
  }
}

TEST(JournalRecoveryTest, CompletionMarkerSettlesItsRecord) {
  TempDir dir;
  SearchReport report;
  report.algorithm = "grover";
  report.measured = 9;
  report.correct = true;
  report.queries = 4;
  report.queries_per_trial = 4;
  report.success_probability = 0.875;
  report.trials = 8;
  {
    Journal journal(dir.wal(), JournalSync::kNone);
    const std::uint64_t a = append_accepted(journal, test_spec("grover", 1), 0);
    const std::uint64_t b = append_accepted(journal, test_spec("grover", 2), 0);
    append_completed(journal, a, JobStatus::kDone, &report);
    append_completed(journal, b, JobStatus::kCancelled, nullptr);
  }
  const RecoveredJournal recovered = Journal::recover_file(dir.wal());
  EXPECT_EQ(recovered.accepted, 2u);
  EXPECT_EQ(recovered.completed, 2u);
  EXPECT_TRUE(recovered.pending.empty());
  ASSERT_EQ(recovered.completions.size(), 2u);
  EXPECT_EQ(recovered.completions[0].status, JobStatus::kDone);
  ASSERT_TRUE(recovered.completions[0].has_report);
  EXPECT_EQ(api::to_json(recovered.completions[0].report).dump(),
            api::to_json(report).dump());
  EXPECT_EQ(recovered.completions[1].status, JobStatus::kCancelled);
  EXPECT_FALSE(recovered.completions[1].has_report);
}

TEST(JournalRecoveryTest, ForeignBytesBecomeWarningsNeverExceptions) {
  const RecoveredJournal r = Journal::recover_text(
      "not json at all\n"
      "{\"id\":1,\"journal\":\"accepted\",\"priority\":0,"
      "\"spec\":{\"algorithm\":\"grover\",\"marked\":[9],\"n_blocks\":1,"
      "\"n_items\":64,\"seed\":1,\"shots\":9},\"t_ns\":5}\n"
      "{\"id\":7,\"journal\":\"frobnicated\"}\n"
      "{\"journal\":\"accepted\"}\n"
      "\x01\x02\x03\n");
  EXPECT_EQ(r.accepted, 1u);
  EXPECT_EQ(r.pending.size(), 1u);
  EXPECT_EQ(r.warnings.size(), 4u);
}

TEST(JournalRecoveryTest, OutOfRangePriorityLineIsSkippedAsCorrupt) {
  const std::string spec =
      R"("spec":{"algorithm":"grover","marked":[9],"n_items":64,"seed":1})";
  const RecoveredJournal r = Journal::recover_text(
      R"({"id":1,"journal":"accepted","priority":3000000000,)" + spec +
      "}\n" + R"({"id":2,"journal":"accepted","priority":-4,)" + spec +
      "}\n" + R"({"id":3,"journal":"accepted","priority":1e300,)" + spec +
      "}\n");
  EXPECT_EQ(r.accepted, 1u);
  ASSERT_EQ(r.pending.size(), 1u);
  EXPECT_EQ(r.pending[0].id, 2u);
  EXPECT_EQ(r.pending[0].priority, -4);
  ASSERT_EQ(r.warnings.size(), 2u);
  for (const std::string& warning : r.warnings) {
    EXPECT_NE(warning.find("\"priority\""), std::string::npos) << warning;
  }
}

TEST(JournalRecoveryTest, RecordIdsContinueAcrossReopen) {
  TempDir dir;
  {
    Journal journal(dir.wal(), JournalSync::kNone);
    EXPECT_EQ(append_accepted(journal, test_spec("grover", 1), 0), 1u);
  }
  {
    // Same file, new process: ids must not restart at 1, or completion
    // markers would pair with the wrong accepted record.
    Journal journal(dir.wal(), JournalSync::kNone);
    EXPECT_EQ(append_accepted(journal, test_spec("grover", 2), 0), 2u);
  }
  EXPECT_EQ(Journal::recover_file(dir.wal()).max_id, 2u);
}

// ---- Service wiring --------------------------------------------------------

TEST(ServiceJournalTest, LifecycleWritesAcceptedThenDoneMarker) {
  state().reset();
  TempDir dir;
  auto journal = std::make_shared<Journal>(dir.wal(), JournalSync::kNone);
  std::string report_dump;
  {
    Service service({.threads = 1, .journal = journal}, test_registry());
    JobHandle handle = service.submit(test_spec("counting", 11));
    ASSERT_EQ(handle.wait(), JobStatus::kDone);
    report_dump = api::to_json(handle.report()).dump();
  }
  const RecoveredJournal recovered = Journal::recover_file(dir.wal());
  EXPECT_EQ(recovered.accepted, 1u);
  ASSERT_EQ(recovered.completed, 1u);
  EXPECT_TRUE(recovered.pending.empty());
  EXPECT_EQ(recovered.completions[0].status, JobStatus::kDone);
  ASSERT_TRUE(recovered.completions[0].has_report);
  // The marker embeds the exact report the handle saw.
  EXPECT_EQ(api::to_json(recovered.completions[0].report).dump(), report_dump);
}

TEST(ServiceJournalTest, CoalescedSubmitsAndCacheHitsJournalOnce) {
  state().reset();
  TempDir dir;
  auto journal = std::make_shared<Journal>(dir.wal(), JournalSync::kNone);
  {
    Service service({.threads = 1, .journal = journal}, test_registry());
    const SearchSpec spec = test_spec("gated", 7);
    JobHandle first = service.submit(spec);
    ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));
    JobHandle attached = service.submit(spec);  // coalesces onto `first`
    state().gate_open = true;
    ASSERT_EQ(first.wait(), JobStatus::kDone);
    ASSERT_EQ(attached.wait(), JobStatus::kDone);
    JobHandle cached = service.submit(spec);  // served from the result LRU
    ASSERT_EQ(cached.wait(), JobStatus::kDone);
    EXPECT_EQ(service.metrics().counter("service.executed").value(), 1u);
  }
  // One execution -> exactly one accepted record and one marker; the
  // attached and cached callers ride it.
  const RecoveredJournal recovered = Journal::recover_file(dir.wal());
  EXPECT_EQ(recovered.accepted, 1u);
  EXPECT_EQ(recovered.completed, 1u);
  EXPECT_TRUE(recovered.pending.empty());
}

TEST(ServiceJournalTest, ShutdownSuppressesMarkersSoInterruptedJobsReplay) {
  state().reset();
  TempDir dir;
  auto journal = std::make_shared<Journal>(dir.wal(), JournalSync::kNone);
  {
    Service service({.threads = 1, .journal = journal}, test_registry());
    service.submit(test_spec("gated", 5));
    service.submit(test_spec("counting", 6));  // still queued at teardown
    ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));
    // ~Service cancels both WITHOUT opening the gate — the shutdown path.
  }
  // Neither job may carry a marker: a restart must see both as pending
  // (shutdown-interrupted work is exactly what replay exists for).
  const RecoveredJournal recovered = Journal::recover_file(dir.wal());
  EXPECT_EQ(recovered.accepted, 2u);
  EXPECT_EQ(recovered.completed, 0u);
  EXPECT_EQ(recovered.pending.size(), 2u);
}

TEST(ServiceJournalTest, ExplicitCancelWritesACancelledMarker) {
  state().reset();
  TempDir dir;
  auto journal = std::make_shared<Journal>(dir.wal(), JournalSync::kNone);
  {
    Service service({.threads = 1, .journal = journal}, test_registry());
    JobHandle handle = service.submit(test_spec("gated", 8));
    ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));
    handle.cancel();
    EXPECT_EQ(handle.wait(), JobStatus::kCancelled);
    // A LIVE cancel settles the record (unlike the shutdown path): poll the
    // file, the worker writes the marker as the CancelledError unwinds.
    ASSERT_TRUE(wait_until([&] {
      return Journal::recover_file(dir.wal()).completed == 1;
    }));
  }
  const RecoveredJournal recovered = Journal::recover_file(dir.wal());
  EXPECT_EQ(recovered.accepted, 1u);
  ASSERT_EQ(recovered.completions.size(), 1u);
  EXPECT_EQ(recovered.completions[0].status, JobStatus::kCancelled);
  EXPECT_TRUE(recovered.pending.empty());
}

// ---- appends outside Service::mutex_ ---------------------------------------

/// A journal whose appends block until the test reads them. Its path is the
/// read end of a pipe, reopened through /proc/self/fd: the Journal's
/// recovery scan reads EOF (the pipe has no writer yet), and its append fd
/// becomes the pipe's only writer. The pipe holds one page, so an
/// `accepted` record longer than that fills it and blocks in write(2) until
/// the test drains it, with pending() > 0 showing that it has begun.
struct PipeJournal {
  int read_fd = -1;
  std::shared_ptr<Journal> journal;

  PipeJournal() {
    int fds[2];
    PQS_CHECK(::pipe(fds) == 0);
    ::close(fds[1]);
    read_fd = fds[0];
    PQS_CHECK(::fcntl(read_fd, F_SETPIPE_SZ, 4096) >= 0);
    journal = std::make_shared<Journal>(
        "/proc/self/fd/" + std::to_string(read_fd), JournalSync::kNone);
    PQS_CHECK(::fcntl(read_fd, F_SETFL, O_NONBLOCK) == 0);
  }
  ~PipeJournal() { close_read(); }
  PipeJournal(const PipeJournal&) = delete;
  PipeJournal& operator=(const PipeJournal&) = delete;

  /// Bytes written into the pipe and not read yet.
  std::size_t pending() const {
    int bytes = 0;
    PQS_CHECK(::ioctl(read_fd, FIONREAD, &bytes) == 0);
    return static_cast<std::size_t>(bytes);
  }
  /// Everything in the pipe now, without blocking.
  std::string drain() const {
    std::string out;
    char buffer[4096];
    ssize_t n = 0;
    while ((n = ::read(read_fd, buffer, sizeof(buffer))) > 0) {
      out.append(buffer, static_cast<std::size_t>(n));
    }
    return out;
  }
  /// Close the only read end: a write blocked on the pipe fails (EPIPE).
  void close_read() {
    if (read_fd >= 0) {
      ::close(read_fd);
      read_fd = -1;
    }
  }
};

/// A spec whose `accepted` record is longer than PipeJournal's one page.
SearchSpec long_record_spec(const std::string& algorithm, std::uint64_t seed) {
  SearchSpec spec = test_spec(algorithm, seed);
  spec.n_items = std::uint64_t{1} << 16;
  spec.marked.clear();
  for (std::uint64_t m = 9; m < spec.n_items; m += 43) {
    spec.marked.push_back(m);
  }
  return spec;
}

/// Ignores `signum` for a scope, restoring the previous disposition after.
struct IgnoreSignal {
  int signum;
  struct sigaction previous {};
  explicit IgnoreSignal(int sig) : signum(sig) {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(signum, &ignore, &previous);
  }
  ~IgnoreSignal() { ::sigaction(signum, &previous, nullptr); }
};

/// Lowers this process's soft RLIMIT_FSIZE for a scope, with SIGXFSZ
/// ignored, so a write(2) past `bytes` into a regular file fails with EFBIG.
struct FileSizeLimit {
  IgnoreSignal ignore{SIGXFSZ};
  rlimit previous{};
  explicit FileSizeLimit(rlim_t bytes) {
    PQS_CHECK(::getrlimit(RLIMIT_FSIZE, &previous) == 0);
    rlimit lowered = previous;
    lowered.rlim_cur = bytes;
    PQS_CHECK(::setrlimit(RLIMIT_FSIZE, &lowered) == 0);
  }
  ~FileSizeLimit() { ::setrlimit(RLIMIT_FSIZE, &previous); }
};

bool ready(const std::future<JobHandle>& future) {
  return future.wait_for(0s) == std::future_status::ready;
}

TEST(ServiceJournalTest, CoalescedSubmitReturnsOnlyOnceTheRecordIsWritten) {
  state().reset();
  PipeJournal pipe;
  Service service({.threads = 1, .journal = pipe.journal}, test_registry());
  const SearchSpec spec = long_record_spec("gated", 1);

  std::future<JobHandle> first =
      std::async(std::launch::async, [&] { return service.submit(spec); });
  // A page of the record is in the pipe: the first submit is inside its
  // write(2), with its job already in the coalescing index.
  ASSERT_TRUE(wait_until([&] { return pipe.pending() > 0; }));

  Mutex drained_mutex;
  std::string drained;
  std::size_t written_at_twin_return = 0;
  std::future<JobHandle> twin = std::async(std::launch::async, [&] {
    JobHandle handle = service.submit(spec);
    LockGuard lock(drained_mutex);
    written_at_twin_return = drained.size() + pipe.pending();
    return handle;
  });
  std::this_thread::sleep_for(100ms);
  // The twin coalesced onto a job that is not durable yet: it waits rather
  // than being acked against it, and no counter has moved.
  EXPECT_FALSE(ready(twin));
  EXPECT_FALSE(ready(first));
  EXPECT_EQ(service.metrics().counter("service.submitted").value(), 0u);

  while (!ready(first) || !ready(twin)) {
    {
      LockGuard lock(drained_mutex);
      drained += pipe.drain();
    }
    std::this_thread::sleep_for(1ms);
  }
  JobHandle a = first.get();
  JobHandle b = twin.get();
  drained += pipe.drain();

  // The pipe holds exactly the one record, and all of it had been written
  // when the twin returned.
  const RecoveredJournal recovered = Journal::recover_text(drained);
  EXPECT_EQ(recovered.accepted, 1u);
  EXPECT_TRUE(recovered.warnings.empty());
  EXPECT_EQ(written_at_twin_return, drained.size());
  EXPECT_EQ(service.metrics().counter("service.submitted").value(), 2u);
  EXPECT_EQ(service.metrics().counter("service.coalesced_submits").value(),
            1u);

  state().gate_open = true;
  EXPECT_EQ(a.wait(), JobStatus::kDone);
  EXPECT_EQ(b.wait(), JobStatus::kDone);
  EXPECT_EQ(state().executions.load(), 1u);
}

TEST(ServiceJournalTest, FailedAppendThrowsMovesNoCounterAndFreesItsSlot) {
  state().reset();
  TempDir dir;
  auto journal = std::make_shared<Journal>(dir.wal(), JournalSync::kNone);
  Service service({.threads = 1, .queue_capacity = 1, .journal = journal},
                  test_registry());
  {
    // The journal is empty, so every append now fails with EFBIG.
    FileSizeLimit limit(0);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      try {
        service.submit(test_spec("counting", seed));
        ADD_FAILURE() << "submit " << seed << " returned";
      } catch (const OverloadedError& e) {
        ADD_FAILURE() << "submit " << seed
                      << " found its slot still taken: " << e.what();
      } catch (const CheckFailure& e) {
        EXPECT_NE(std::string(e.what()).find("Journal: write to"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  for (const char* name : {"service.submitted", "service.rejected",
                           "service.coalesced_submits", "service.executed",
                           "service.failed", "service.cancelled"}) {
    EXPECT_EQ(service.metrics().counter(name).value(), 0u) << name;
  }
  // The one queue slot is free again, and the next append lands.
  JobHandle handle = service.submit(test_spec("counting", 4));
  EXPECT_EQ(handle.wait(), JobStatus::kDone);
  EXPECT_EQ(state().executions.load(), 1u);
  EXPECT_EQ(Journal::recover_file(dir.wal()).accepted, 1u);
}

TEST(ServiceJournalTest, CoalescedSubmitsThrowTheFailedAppendsError) {
  state().reset();
  IgnoreSignal ignore(SIGPIPE);
  PipeJournal pipe;
  Service service({.threads = 1, .journal = pipe.journal}, test_registry());
  const SearchSpec spec = long_record_spec("gated", 2);

  std::future<JobHandle> first =
      std::async(std::launch::async, [&] { return service.submit(spec); });
  ASSERT_TRUE(wait_until([&] { return pipe.pending() > 0; }));
  std::future<JobHandle> twin =
      std::async(std::launch::async, [&] { return service.submit(spec); });
  std::this_thread::sleep_for(100ms);
  pipe.close_read();  // the first submit's write fails with EPIPE

  for (std::future<JobHandle>* submit : {&first, &twin}) {
    try {
      submit->get();
      ADD_FAILURE() << "a submit returned although its record failed";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("Journal: write to"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(service.metrics().counter("service.submitted").value(), 0u);
  EXPECT_EQ(service.metrics().counter("service.coalesced_submits").value(),
            0u);
  EXPECT_EQ(state().executions.load(), 0u);
}

TEST(ServiceJournalTest, SubmitRacingShutdownLeavesNoHandleUnsettled) {
  // The destructor starts while a submit is inside its append, and the
  // append finishes after a varying delay: before ~Service stops the
  // queue (the job is enqueued, then cancelled by the shutdown) or after
  // (the submit settles the job cancelled itself). Either way the handle
  // is settled, and the record stays pending so a restart replays it.
  for (const auto delay : {0ms, 1ms, 5ms, 50ms}) {
    state().reset();
    PipeJournal pipe;
    auto service = std::make_unique<Service>(
        ServiceOptions{.threads = 1, .journal = pipe.journal},
        test_registry());
    const SearchSpec spec = long_record_spec("gated", 3);
    Service* submit_to = service.get();
    std::future<JobHandle> submit = std::async(
        std::launch::async, [&] { return submit_to->submit(spec); });
    ASSERT_TRUE(wait_until([&] { return pipe.pending() > 0; }));
    std::thread destroy([&] { service.reset(); });
    std::this_thread::sleep_for(delay);
    std::string drained;
    while (!ready(submit)) {
      drained += pipe.drain();
      std::this_thread::sleep_for(1ms);
    }
    destroy.join();
    drained += pipe.drain();

    JobHandle handle = submit.get();
    EXPECT_TRUE(handle.finished()) << "delay " << delay.count() << " ms";
    EXPECT_EQ(handle.status(), JobStatus::kCancelled);
    const RecoveredJournal recovered = Journal::recover_text(drained);
    EXPECT_EQ(recovered.accepted, 1u);
    EXPECT_EQ(recovered.pending.size(), 1u);
  }
}

// ---- replay ----------------------------------------------------------------

TEST(ReplayTest, EqualKeysExecuteOnceAndLandOneFreshRecord) {
  state().reset();
  TempDir dir;
  {
    Journal journal(dir.wal(), JournalSync::kNone);
    append_accepted(journal, test_spec("counting", 21), 0);
    append_accepted(journal, test_spec("counting", 21), 0);  // same key
    append_accepted(journal, test_spec("counting", 22), 0);
  }
  Journal::Opened opened = Journal::recover_and_open(dir.wal(),
                                                     JournalSync::kNone);
  ASSERT_EQ(opened.recovered.pending.size(), 3u);
  {
    Service service({.threads = 2, .journal = opened.journal},
                    test_registry());
    const service::ReplayOutcome outcome =
        service::replay_pending(service, opened.recovered.pending);
    EXPECT_EQ(outcome.resubmitted, 3u);
    EXPECT_EQ(outcome.skipped, 0u);
    for (const JobHandle& handle : outcome.handles) {
      EXPECT_EQ(handle.wait(), JobStatus::kDone);
    }
    opened.journal->sync();
    Journal::finish_recovery(dir.wal());
  }
  // The duplicate coalesced (or hit the result cache): two unique keys,
  // two executions, two fresh accepted records in the new journal.
  EXPECT_EQ(state().executions.load(), 2u);
  EXPECT_EQ(Journal::recover_file(dir.wal()).accepted, 2u);
  EXPECT_FALSE(std::filesystem::exists(Journal::recovering_path(dir.wal())));
}

TEST(ReplayTest, RecordsWithAThreadCountReplayExactlyOnce) {
  // Journals written while specs carried a thread count: every accepted
  // spec ends in "threads":0. Job 1 completed, job 2 did not.
  const std::string legacy =
      R"({"id":1,"journal":"accepted","priority":0,"spec":{)"
      R"("algorithm":"counting","backend":"auto","marked":[9],)"
      R"("min_success":0.0,"n_blocks":1,"n_items":64,"noise":"none",)"
      R"("noise_p":0.0,"seed":61,"shots":1,"threads":0},"t_ns":5})"
      "\n"
      R"({"id":1,"journal":"completed","status":"cancelled"})"
      "\n"
      R"({"id":2,"journal":"accepted","priority":0,"spec":{)"
      R"("algorithm":"counting","backend":"auto","marked":[9],)"
      R"("min_success":0.0,"n_blocks":1,"n_items":64,"noise":"none",)"
      R"("noise_p":0.0,"seed":62,"shots":1,"threads":0},"t_ns":6})"
      "\n";
  state().reset();
  TempDir dir;
  std::ofstream(dir.wal(), std::ios::binary) << legacy;
  Journal::Opened opened = Journal::recover_and_open(dir.wal(),
                                                     JournalSync::kNone);
  EXPECT_TRUE(opened.recovered.warnings.empty());
  ASSERT_EQ(opened.recovered.pending.size(), 1u);
  EXPECT_EQ(opened.recovered.pending[0].spec.seed, 62u);
  {
    Service service({.threads = 1, .journal = opened.journal},
                    test_registry());
    const service::ReplayOutcome outcome =
        service::replay_pending(service, opened.recovered.pending);
    EXPECT_EQ(outcome.resubmitted, 1u);
    for (const JobHandle& handle : outcome.handles) {
      EXPECT_EQ(handle.wait(), JobStatus::kDone);
    }
    opened.journal->sync();
    Journal::finish_recovery(dir.wal());
  }
  EXPECT_EQ(state().executions.load(), 1u);
  // The fresh record is the same spec without the thread count, and it is
  // settled: a second restart replays nothing.
  const RecoveredJournal after = Journal::recover_file(dir.wal());
  ASSERT_EQ(after.accepted_records.size(), 1u);
  EXPECT_EQ(spec_dump(after.accepted_records[0].spec),
            spec_dump(test_spec("counting", 62)));
  EXPECT_TRUE(after.pending.empty());
}

TEST(ReplayTest, FullQueueIsWaitedOutNeverDropped) {
  state().reset();
  TempDir dir;
  {
    Journal journal(dir.wal(), JournalSync::kNone);
    for (std::uint64_t seed = 31; seed < 37; ++seed) {
      append_accepted(journal, test_spec("sleepy", seed), 0);
    }
  }
  const RecoveredJournal recovered = Journal::recover_file(dir.wal());
  ASSERT_EQ(recovered.pending.size(), 6u);
  // One worker, ONE queue slot: replaying six records overflows the bounded
  // queue repeatedly, and replay must absorb that as back-pressure.
  Service service({.threads = 1, .queue_capacity = 1}, test_registry());
  const service::ReplayOutcome outcome =
      service::replay_pending(service, recovered.pending);
  EXPECT_EQ(outcome.resubmitted, 6u);
  EXPECT_EQ(outcome.skipped, 0u);
  for (const JobHandle& handle : outcome.handles) {
    EXPECT_EQ(handle.wait(), JobStatus::kDone);
  }
  EXPECT_EQ(state().executions.load(), 6u);
}

TEST(ReplayTest, StaleSpecIsSkippedWithAWarning) {
  state().reset();
  TempDir dir;
  {
    Journal journal(dir.wal(), JournalSync::kNone);
    // Parses fine (the knobs validate) but can no longer SUBMIT: address
    // 100 in a 64-item space fails marked-set materialization — the shape
    // of a record written by an older, laxer build.
    const auto valid = api::canonicalize(test_spec("counting", 41));
    std::string stale = journal.accepted_record(valid, 0);
    const std::size_t marked = stale.find(R"("marked":[9])");
    ASSERT_NE(marked, std::string::npos);
    stale.replace(marked, 12, R"("marked":[100])");
    journal.append_accepted(stale);
    append_accepted(journal, test_spec("counting", 42), 0);
  }
  const RecoveredJournal recovered = Journal::recover_file(dir.wal());
  ASSERT_EQ(recovered.pending.size(), 2u);
  Service service({.threads = 1}, test_registry());
  const service::ReplayOutcome outcome =
      service::replay_pending(service, recovered.pending);
  EXPECT_EQ(outcome.skipped, 1u);
  EXPECT_EQ(outcome.resubmitted, 1u);
  ASSERT_EQ(outcome.warnings.size(), 1u);
  EXPECT_NE(outcome.warnings[0].find("no longer submits"), std::string::npos);
  ASSERT_EQ(outcome.handles.size(), 1u);
  EXPECT_EQ(outcome.handles[0].wait(), JobStatus::kDone);
}

TEST(ReplayTest, DoubleCrashMergesParkedHistoryOldestFirst) {
  TempDir dir;
  const SearchSpec spec_a = test_spec("counting", 51);
  const SearchSpec spec_b = test_spec("counting", 52);
  {
    Journal journal(dir.wal(), JournalSync::kNone);
    append_accepted(journal, spec_a, 0);
  }
  // First recovery: history rotates into .recovering, a fresh journal
  // opens, and (simulating replay) one resubmission lands... then the
  // recovering process ITSELF dies before finish_recovery.
  {
    Journal::Opened first = Journal::recover_and_open(dir.wal(),
                                                      JournalSync::kNone);
    ASSERT_EQ(first.recovered.pending.size(), 1u);
    EXPECT_TRUE(
        std::filesystem::exists(Journal::recovering_path(dir.wal())));
    EXPECT_EQ(Journal::recover_file(dir.wal()).accepted, 0u);  // fresh
    append_accepted(*first.journal, spec_b, 0);
    // no finish_recovery: the double-crash shape
  }
  // Second recovery must merge BOTH files — parked history first — and
  // rotate everything, losing no byte until the replay is durable.
  Journal::Opened second = Journal::recover_and_open(dir.wal(),
                                                     JournalSync::kNone);
  ASSERT_EQ(second.recovered.pending.size(), 2u);
  EXPECT_EQ(spec_dump(second.recovered.pending[0].spec), spec_dump(spec_a));
  EXPECT_EQ(spec_dump(second.recovered.pending[1].spec), spec_dump(spec_b));
  EXPECT_EQ(
      Journal::recover_file(Journal::recovering_path(dir.wal())).accepted,
      2u);
  EXPECT_EQ(Journal::recover_file(dir.wal()).accepted, 0u);
  Journal::finish_recovery(dir.wal());
  EXPECT_FALSE(std::filesystem::exists(Journal::recovering_path(dir.wal())));
  Journal::finish_recovery(dir.wal());  // idempotent
}

TEST(ReplayTest, DoubleCrashIdsNeverCollideAcrossGenerations) {
  TempDir dir;
  const SearchSpec spec_b = test_spec("counting", 71);
  const SearchSpec spec_c = test_spec("counting", 72);
  const SearchSpec spec_d = test_spec("counting", 73);
  {
    // Generation 1: ids 1..4; id 1 settles, so pending ids are {2, 3, 4}.
    Journal journal(dir.wal(), JournalSync::kNone);
    append_accepted(journal, test_spec("counting", 70), 0);
    append_accepted(journal, spec_b, 0);
    append_accepted(journal, spec_c, 0);
    append_accepted(journal, spec_d, 0);
    append_completed(journal, 1, JobStatus::kCancelled, nullptr);
  }
  {
    // First recovery: generation 2's ids must continue AFTER the parked
    // generation's — restarting at 1 would collide with gen-1's pending
    // ids once a second crash concatenates the two files.
    Journal::Opened first = Journal::recover_and_open(dir.wal(),
                                                      JournalSync::kNone);
    ASSERT_EQ(first.recovered.pending.size(), 3u);
    ASSERT_EQ(first.recovered.max_id, 4u);
    EXPECT_EQ(append_accepted(*first.journal, spec_b, 0), 5u);
    EXPECT_EQ(append_accepted(*first.journal, spec_c, 0), 6u);
    const std::uint64_t replayed_d = append_accepted(*first.journal, spec_d, 0);
    EXPECT_EQ(replayed_d, 7u);
    // The replayed spec_d settles out of order (a later job finishing
    // first)... then this recovery dies before finish_recovery, with the
    // replayed spec_b / spec_c still unfinished.
    append_completed(*first.journal, replayed_d, JobStatus::kCancelled,
                                    nullptr);
  }
  // Second recovery parses both generations in one id-space. With unique
  // ids, spec_d's gen-2 completion settles only its own record; before the
  // id-continuation fix it carried id 3 and erased gen-1's still-pending
  // record 3 (spec_c) — an acked, never-run job silently vanished.
  Journal::Opened second = Journal::recover_and_open(dir.wal(),
                                                     JournalSync::kNone);
  EXPECT_EQ(second.recovered.max_id, 7u);
  // Pending: gen-1 {2:b, 3:c, 4:d} + gen-2 {5:b, 6:c} (7 settled). The
  // duplicates coalesce at resubmission — the documented at-least-once
  // degradation. What matters: NOTHING unfinished went missing.
  ASSERT_EQ(second.recovered.pending.size(), 5u);
  std::set<std::uint64_t> ids;
  std::size_t c_records = 0;
  std::size_t d_records = 0;
  for (const JournalRecord& record : second.recovered.pending) {
    ids.insert(record.id);
    c_records += spec_dump(record.spec) == spec_dump(spec_c) ? 1 : 0;
    d_records += spec_dump(record.spec) == spec_dump(spec_d) ? 1 : 0;
  }
  EXPECT_EQ(ids.size(), 5u);  // all pending ids distinct across generations
  EXPECT_EQ(c_records, 2u);   // spec_c pending in BOTH generations
  EXPECT_EQ(d_records, 1u);   // gen-1's spec_d still pending; gen-2's done
  Journal::finish_recovery(dir.wal());
}

// ---- end-of-input shapes with journalling on -------------------------------

std::string submit_line(const std::string& algorithm, const std::string& id,
                        std::uint64_t seed) {
  Json spec = Json::make_object();
  spec["algorithm"] = algorithm;
  spec["n_items"] = std::uint64_t{64};
  spec["n_blocks"] = std::uint64_t{1};
  Json marked = Json::make_array();
  marked.push_back(std::uint64_t{9});
  spec["marked"] = std::move(marked);
  spec["seed"] = seed;
  Json request = Json::make_object();
  request["op"] = std::string("submit");
  request["id"] = id;
  request["spec"] = std::move(spec);
  return request.dump();
}

TEST(SessionJournalTest, StdinDrainSettlesEveryJournalledJob) {
  state().reset();
  TempDir dir;
  auto journal = std::make_shared<Journal>(dir.wal(), JournalSync::kNone);
  std::vector<std::string> events;
  std::mutex events_mutex;
  {
    Service service({.threads = 2, .journal = journal}, test_registry());
    net::Session session(service, [&](std::string_view batch) {
      std::lock_guard lock(events_mutex);
      for (std::string& line : net::split_lines(batch)) {
        events.push_back(std::move(line));
      }
      return true;
    });
    session.handle_line(submit_line("counting", "a", 61));
    session.handle_line(submit_line("counting", "b", 62));
    session.drain();  // stdin EOF: results still owed to the reader
  }
  EXPECT_EQ(events.size(), 4u);  // 2 acks + 2 results
  const RecoveredJournal recovered = Journal::recover_file(dir.wal());
  EXPECT_EQ(recovered.accepted, 2u);
  EXPECT_EQ(recovered.completed, 2u);
  EXPECT_TRUE(recovered.pending.empty());
  for (const CompletedJournalRecord& marker : recovered.completions) {
    EXPECT_EQ(marker.status, JobStatus::kDone);
  }
}

TEST(SessionJournalTest, TcpDisconnectAbortMarksJobsSoTheyNeverReplay) {
  state().reset();
  TempDir dir;
  auto journal = std::make_shared<Journal>(dir.wal(), JournalSync::kNone);
  {
    Service service({.threads = 1, .journal = journal}, test_registry());
    net::NetServer server(service, {.listen = {"127.0.0.1", 0}});
    server.start();
    {
      net::Socket client(net::connect_with_retry(
          {"127.0.0.1", server.port()}, 5000ms));
      net::LineReader reader(client);
      ASSERT_TRUE(
          client.write_all(submit_line("gated", "doomed", 71) + "\n"));
      std::string ack;
      ASSERT_TRUE(reader.next_line(ack));
      ASSERT_EQ(Json::parse(ack).at("event").as_string(), "accepted");
      ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));
      // The peer vanishes here — socket closes, gate still shut.
    }
    // The abort path must CANCEL the execution (shed the load) and write a
    // cancelled marker: work nobody will read must not replay on restart.
    ASSERT_TRUE(wait_until([] { return state().running.load() == 0; }));
    ASSERT_TRUE(wait_until([&] {
      return Journal::recover_file(dir.wal()).completed == 1;
    }));
    server.stop();
  }
  const RecoveredJournal recovered = Journal::recover_file(dir.wal());
  EXPECT_EQ(recovered.accepted, 1u);
  ASSERT_EQ(recovered.completions.size(), 1u);
  EXPECT_EQ(recovered.completions[0].status, JobStatus::kCancelled);
  EXPECT_TRUE(recovered.pending.empty());
}

// ---- the headline: SIGKILL the real binary ---------------------------------

constexpr const char kServeBinary[] = PQS_TOOLS_DIR "/pqs_serve";

pid_t spawn_serve(const std::string& wal, int* in_fd, int* out_fd) {
  int in_pipe[2];
  int out_pipe[2];
  PQS_CHECK(::pipe(in_pipe) == 0);
  PQS_CHECK(::pipe(out_pipe) == 0);
  const pid_t pid = ::fork();
  PQS_CHECK(pid >= 0);
  if (pid == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(kServeBinary, "pqs_serve", "--journal", wal.c_str(), "--threads",
            "2", static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed; the parent sees it in the exit status
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  *in_fd = in_pipe[1];
  *out_fd = out_pipe[0];
  return pid;
}

bool read_line_fd(int fd, std::string& carry, std::string& line) {
  while (true) {
    const std::size_t eol = carry.find('\n');
    if (eol != std::string::npos) {
      line = carry.substr(0, eol);
      carry.erase(0, eol + 1);
      return true;
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) {
      return false;
    }
    carry.append(buf, static_cast<std::size_t>(n));
  }
}

void write_all_fd(int fd, const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    PQS_CHECK(n > 0 || errno == EINTR);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
    }
  }
}

std::string slow_submit_line(const std::string& id, std::uint64_t seed) {
  // Noisy dense trajectories evolve one operator at a time: ~300 queries of
  // two sweeps over 2^18 amplitudes, ~10^8 kernel ops per trajectory. Far
  // longer than the kill latency, so the SIGKILL below is guaranteed to
  // land while these are unfinished. (A plain Grover run is no use here:
  // the dense engine folds it into one or two sweeps.)
  Json spec = Json::make_object();
  spec["algorithm"] = std::string("noisy");
  spec["n_items"] = std::uint64_t{262144};
  spec["n_blocks"] = std::uint64_t{4};
  Json marked = Json::make_array();
  marked.push_back(std::uint64_t{7});
  spec["marked"] = std::move(marked);
  spec["backend"] = std::string("dense");
  spec["noise"] = std::string("depolarizing");
  spec["noise_p"] = 1e-3;
  spec["seed"] = seed;
  spec["shots"] = std::uint64_t{2};
  Json request = Json::make_object();
  request["op"] = std::string("submit");
  request["id"] = id;
  request["spec"] = std::move(spec);
  return request.dump();
}

TEST(CrashRecoveryTest, SigkilledServerReplaysUnfinishedJobsExactlyOnce) {
  TempDir dir;
  const std::string wal = dir.wal();

  // -- run 1: a fast job completes, three slow jobs are caught mid-batch --
  int in_fd = -1;
  int out_fd = -1;
  const pid_t pid = spawn_serve(wal, &in_fd, &out_fd);
  std::string carry;
  std::string line;
  write_all_fd(in_fd, submit_line("grover", "fast", 1) + "\n");
  bool fast_done = false;
  while (!fast_done && read_line_fd(out_fd, carry, line)) {
    const Json event = Json::parse(line);
    fast_done = event.at("event").as_string() == "result" &&
                event.at("id").as_string() == "fast";
  }
  ASSERT_TRUE(fast_done);
  for (std::uint64_t seed = 71; seed < 74; ++seed) {
    write_all_fd(in_fd,
                 slow_submit_line("slow-" + std::to_string(seed), seed) + "\n");
  }
  // Acks are synchronous AND the accepted record is written before each ack
  // is sent: three acks on the pipe mean three durable records.
  for (int acks = 0; acks < 3;) {
    ASSERT_TRUE(read_line_fd(out_fd, carry, line));
    if (Json::parse(line).at("event").as_string() == "accepted") {
      ++acks;
    }
  }
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ::close(in_fd);
  ::close(out_fd);

  const RecoveredJournal after_crash = Journal::recover_file(wal);
  ASSERT_EQ(after_crash.accepted, 4u);
  ASSERT_GE(after_crash.completed, 1u);  // the fast job settled pre-kill
  ASSERT_EQ(after_crash.pending.size(), 3u);  // the batch the kill caught
  std::set<std::string> pending_specs;
  for (const JournalRecord& record : after_crash.pending) {
    pending_specs.insert(spec_dump(record.spec));
  }

  // -- run 2: restart on the same journal with stdin already at EOF --
  int in_fd2 = -1;
  int out_fd2 = -1;
  const pid_t pid2 = spawn_serve(wal, &in_fd2, &out_fd2);
  ::close(in_fd2);  // immediate EOF: the process only replays, then exits
  std::string drainage;
  while (read_line_fd(out_fd2, carry, drainage)) {
  }
  ASSERT_EQ(::waitpid(pid2, &status, 0), pid2);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  ::close(out_fd2);

  // Exactly the unfinished jobs ran again: the fresh journal holds one
  // accepted record per previously-pending spec — each now settled — and
  // the fast job (already completed) was NOT resurrected.
  const RecoveredJournal after_restart = Journal::recover_file(wal);
  EXPECT_EQ(after_restart.accepted, 3u);
  EXPECT_EQ(after_restart.completed, 3u);
  EXPECT_TRUE(after_restart.pending.empty());
  std::set<std::string> replayed_specs;
  for (const JournalRecord& record : after_restart.accepted_records) {
    replayed_specs.insert(spec_dump(record.spec));
  }
  EXPECT_EQ(replayed_specs, pending_specs);
  for (const CompletedJournalRecord& marker : after_restart.completions) {
    EXPECT_EQ(marker.status, JobStatus::kDone);
    EXPECT_TRUE(marker.has_report);
  }
  EXPECT_FALSE(std::filesystem::exists(Journal::recovering_path(wal)));
}

}  // namespace
}  // namespace pqs
