#include "service/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "api/serialize.h"
#include "common/check.h"
#include "common/json.h"

namespace pqs {

std::string_view to_string(JournalSync sync) {
  switch (sync) {
    case JournalSync::kNone: return "none";
    case JournalSync::kAlways: return "always";
  }
  return "?";
}

JournalSync parse_journal_sync(const std::string& name) {
  if (name == "none") {
    return JournalSync::kNone;
  }
  if (name == "always") {
    return JournalSync::kAlways;
  }
  throw CheckFailure("unknown journal sync policy \"" + name +
                     "\" (expected none | always)");
}

// ---- append side -----------------------------------------------------------

Journal::Journal(std::string path, JournalSync sync, std::uint64_t first_id)
    : path_(std::move(path)), sync_(sync) {
  // Continue record ids after any history already in the file AND after
  // `first_id - 1`, so an accepted/completed pair never collides with a
  // pair from before a reopen. The restart protocol rotates history away
  // first, so in the pqs_serve path the file is always fresh and the scan
  // reads nothing — there, `first_id` (the rotated generation's max_id +
  // 1) is what keeps ids unique across generations.
  const RecoveredJournal existing = recover_file(path_);
  LockGuard lock(mutex_);
  next_id_ = std::max(existing.max_id + 1, first_id);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  PQS_CHECK_MSG(fd_ >= 0, "Journal: cannot open \"" + path_ +
                              "\" for appending: " + std::strerror(errno));
}

Journal::~Journal() {
  LockGuard lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

namespace {

/// Room in front of an `accepted` record for `{"id":` and up to 20 digits:
/// append_accepted writes the id right-aligned into it under the lock, and
/// the record is written from there.
constexpr std::size_t kIdPrefix = 6;
constexpr std::size_t kIdSlot = kIdPrefix + 20;

/// The record up to its spec: the id slot, then
/// `,"journal":"accepted","priority":P,"spec":`.
std::string accepted_head(int priority, std::size_t spec_size) {
  std::string record;
  record.reserve(kIdSlot + 48 + spec_size + 32);
  record.assign(kIdSlot, ' ');
  record += R"(,"journal":"accepted","priority":)";
  // Wire convention (net/session.cpp): a negative priority is a double.
  if (priority >= 0) {
    Json::dump_uint(static_cast<std::uint64_t>(priority), record);
  } else {
    Json::dump_double(static_cast<double>(priority), record);
  }
  record += R"(,"spec":)";
  return record;
}

void close_accepted(std::uint64_t t_ns, std::string& record) {
  record += R"(,"t_ns":)";
  Json::dump_uint(t_ns, record);
  record += "}\n";
}

}  // namespace

void Journal::write_record(std::string_view framed) {
  // One write(2) per record: O_APPEND makes the append atomic with respect
  // to position, and a single syscall means process death either lands the
  // whole record or (on a kernel/power failure mid-flush) leaves a torn
  // tail that recovery skips. No userspace buffering, ever.
  while (!framed.empty()) {
    const ssize_t n = ::write(fd_, framed.data(), framed.size());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw CheckFailure("Journal: write to \"" + path_ +
                         "\" failed: " + std::strerror(errno));
    }
    framed.remove_prefix(static_cast<std::size_t>(n));
  }
  if (sync_ == JournalSync::kAlways) {
    PQS_CHECK_MSG(::fsync(fd_) == 0, "Journal: fsync of \"" + path_ +
                                         "\" failed: " + std::strerror(errno));
  }
}

std::string Journal::accepted_record(const api::CanonicalSpec& canonical,
                                     int priority) const {
  std::string record = accepted_head(priority, canonical.json.size());
  record += canonical.json;
  close_accepted(opened_at_.nanos(), record);
  return record;
}

std::uint64_t Journal::append_accepted(std::string& record) {
  PQS_CHECK_MSG(record.size() > kIdSlot && record.back() == '\n',
                "Journal::append_accepted needs a record from "
                "accepted_record");
  LockGuard lock(mutex_);
  const std::uint64_t id = next_id_++;
  char digits[20];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), id);
  const auto length = static_cast<std::size_t>(end - digits);
  const std::size_t start = kIdSlot - kIdPrefix - length;
  record.replace(start, kIdPrefix, R"({"id":)");
  record.replace(start + kIdPrefix, length, digits, length);
  write_record(std::string_view(record).substr(start));
  if (accepted_appends_ != nullptr) {
    accepted_appends_->add();
  }
  return id;
}

std::string Journal::completed_record(std::uint64_t id, JobStatus status,
                                      const SearchReport* report) {
  PQS_CHECK_MSG(status == JobStatus::kDone || status == JobStatus::kCancelled ||
                    status == JobStatus::kFailed,
                "Journal: completion marker needs a terminal status");
  std::string record = R"({"id":)";
  Json::dump_uint(id, record);
  record += R"(,"journal":"completed")";
  if (status == JobStatus::kDone) {
    PQS_CHECK_MSG(report != nullptr,
                  "Journal: a done marker must embed its report");
    record += R"(,"report":)";
    api::write_json(*report, record);
  }
  record += R"(,"status":")";
  record += to_string(status);
  record += "\"}\n";
  return record;
}

void Journal::append_completed(std::string_view record) {
  LockGuard lock(mutex_);
  write_record(record);
  if (completed_appends_ != nullptr) {
    completed_appends_->add();
  }
}

void Journal::sync() {
  LockGuard lock(mutex_);
  PQS_CHECK_MSG(::fsync(fd_) == 0, "Journal: fsync of \"" + path_ +
                                       "\" failed: " + std::strerror(errno));
}

void Journal::bind_metrics(obs::MetricsRegistry& registry) {
  accepted_appends_ = &registry.counter("journal.accepted_appends");
  completed_appends_ = &registry.counter("journal.completed_appends");
}

// ---- recovery --------------------------------------------------------------

namespace {

JobStatus parse_terminal_status(const std::string& name) {
  if (name == "done") {
    return JobStatus::kDone;
  }
  if (name == "cancelled") {
    return JobStatus::kCancelled;
  }
  if (name == "failed") {
    return JobStatus::kFailed;
  }
  throw CheckFailure("unknown terminal status \"" + name + "\"");
}

}  // namespace

RecoveredJournal Journal::recover_text(std::string_view text) {
  RecoveredJournal out;
  // id -> record, insertion-ordered by id (ids are monotonic per file and
  // the merged pair is read oldest-history-first), so `pending` comes out
  // in acceptance order.
  std::map<std::uint64_t, JournalRecord> pending;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) {
      continue;
    }
    // A journal must recover from ANYTHING on disk — a torn final write, a
    // disk-corruption line, a file that is not a journal at all. Every
    // failure mode becomes a warning + skip, never an exception (the
    // fuzz_wire_line target feeds arbitrary bytes through here).
    try {
      const Json record = Json::parse(line);
      const std::string& kind = record.at("journal").as_string();
      const std::uint64_t id = record.at("id").as_uint();
      out.max_id = std::max(out.max_id, id);
      if (kind == "accepted") {
        JournalRecord entry;
        entry.id = id;
        entry.priority = record.has("priority")
                             ? api::priority_from_json(record.at("priority"))
                             : 0;
        entry.t_ns = record.has("t_ns") ? record.at("t_ns").as_uint() : 0;
        entry.spec = api::spec_from_json(record.at("spec"));
        ++out.accepted;
        out.accepted_records.push_back(entry);
        pending.emplace(id, std::move(entry));
      } else if (kind == "completed") {
        CompletedJournalRecord marker;
        marker.id = id;
        marker.status = parse_terminal_status(record.at("status").as_string());
        if (record.has("report")) {
          marker.report = api::report_from_json(record.at("report"));
          marker.has_report = true;
        }
        ++out.completed;
        out.completions.push_back(std::move(marker));
        pending.erase(id);
      } else {
        out.warnings.push_back("line " + std::to_string(line_no) +
                               ": unknown journal record kind \"" + kind +
                               "\" — skipped");
      }
    } catch (const std::exception& e) {
      out.warnings.push_back("line " + std::to_string(line_no) +
                             ": unreadable journal record (" + e.what() +
                             ") — skipped" +
                             (pos > text.size() ? " [torn final line]" : ""));
    }
  }
  out.pending.reserve(pending.size());
  for (auto& [id, entry] : pending) {
    out.pending.push_back(std::move(entry));
  }
  return out;
}

RecoveredJournal Journal::recover_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return {};  // no file, nothing journaled: a fresh deployment
  }
  std::ostringstream text;
  text << in.rdbuf();
  return recover_text(text.str());
}

std::string Journal::recovering_path(const std::string& path) {
  return path + ".recovering";
}

Journal::Opened Journal::recover_and_open(const std::string& path,
                                          JournalSync sync) {
  const std::string parked = recovering_path(path);
  // Oldest history first: the .recovering file exists only when a previous
  // recovery crashed mid-replay, and its records predate everything in
  // `path`. Reading it first keeps `pending` in acceptance order; a job
  // resubmitted by that crashed recovery and since completed appears
  // pending in the old file but completed in the new one — replaying it
  // again is the documented at-least-once degradation (reports are
  // deterministic, so the re-execution is harmless).
  RecoveredJournal merged = recover_file(parked);
  RecoveredJournal current = recover_file(path);
  merged.accepted += current.accepted;
  merged.completed += current.completed;
  merged.max_id = std::max(merged.max_id, current.max_id);
  for (auto& record : current.pending) {
    merged.pending.push_back(std::move(record));
  }
  for (auto& record : current.accepted_records) {
    merged.accepted_records.push_back(std::move(record));
  }
  for (auto& marker : current.completions) {
    merged.completions.push_back(std::move(marker));
  }
  for (auto& warning : current.warnings) {
    merged.warnings.push_back(std::move(warning));
  }

  // Rotate: park ALL history under .recovering before opening the fresh
  // journal, so no byte is deleted until the resubmissions are durable
  // (finish_recovery is the only delete, and callers run it after sync()).
  std::ifstream exists(path, std::ios::binary);
  if (exists.good()) {
    exists.close();
    std::ifstream parked_exists(parked, std::ios::binary);
    if (!parked_exists.good()) {
      PQS_CHECK_MSG(std::rename(path.c_str(), parked.c_str()) == 0,
                    "Journal: cannot rotate \"" + path + "\" to \"" + parked +
                        "\": " + std::strerror(errno));
    } else {
      // Double-crash shape: both files exist. Append `path`'s bytes onto
      // the parked history (ordinary POSIX append — this file IS the
      // journal layer, the one place allowed to do this), then remove it.
      parked_exists.close();
      std::ifstream src(path, std::ios::binary);
      std::ostringstream bytes;
      bytes << src.rdbuf();
      src.close();
      const std::string payload = bytes.str();
      const int fd =
          ::open(parked.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
      PQS_CHECK_MSG(fd >= 0, "Journal: cannot append history onto \"" +
                                 parked + "\": " + std::strerror(errno));
      std::size_t written = 0;
      while (written < payload.size()) {
        const ssize_t n =
            ::write(fd, payload.data() + written, payload.size() - written);
        if (n < 0 && errno == EINTR) {
          continue;
        }
        PQS_CHECK_MSG(n >= 0, "Journal: history append failed: " +
                                  std::string(std::strerror(errno)));
        written += static_cast<std::size_t>(n);
      }
      ::fsync(fd);
      ::close(fd);
      PQS_CHECK_MSG(std::remove(path.c_str()) == 0,
                    "Journal: cannot remove rotated \"" + path +
                        "\": " + std::strerror(errno));
    }
  }

  Opened opened;
  // The fresh journal's ids must continue after EVERYTHING parked, not
  // just after `path`'s (now rotated-away, so empty) contents. If this
  // recovery itself crashes, the next one concatenates the fresh file's
  // bytes onto the parked history and parses both generations in ONE
  // id-space — restarting at 1 would let a new generation's completion
  // marker erase a different, still-pending old-generation record, losing
  // an acked job (pinned by ReplayTest.DoubleCrashIdsNeverCollide...).
  opened.journal = std::make_shared<Journal>(path, sync, merged.max_id + 1);
  opened.recovered = std::move(merged);
  return opened;
}

void Journal::finish_recovery(const std::string& path) {
  const std::string parked = recovering_path(path);
  std::ifstream exists(parked, std::ios::binary);
  if (!exists.good()) {
    return;  // nothing parked (fresh start, or already finished)
  }
  exists.close();
  PQS_CHECK_MSG(std::remove(parked.c_str()) == 0,
                "Journal: cannot remove \"" + parked +
                    "\": " + std::strerror(errno));
}

// ---- replay ----------------------------------------------------------------

namespace service {

ReplayOutcome replay_pending(Service& service,
                             const std::vector<JournalRecord>& pending,
                             obs::MetricsRegistry* metrics) {
  ReplayOutcome outcome;
  for (const JournalRecord& record : pending) {
    while (true) {
      try {
        outcome.handles.push_back(
            service.submit(record.spec, record.priority));
        ++outcome.resubmitted;
        break;
      } catch (const OverloadedError&) {
        // The queue is full of earlier replays. Wait for the OLDEST still
        // outstanding to settle — replay must re-execute every record, so
        // overload here is back-pressure, never a drop.
        bool waited = false;
        for (const JobHandle& handle : outcome.handles) {
          if (!handle.finished()) {
            handle.wait();
            waited = true;
            break;
          }
        }
        PQS_CHECK_MSG(waited,
                      "Journal replay: queue full with no replay in flight "
                      "(queue_capacity too small for external traffic "
                      "during replay?)");
      } catch (const CheckFailure& e) {
        // A record from an older build whose spec no longer validates:
        // surface it, skip it, keep replaying the rest.
        outcome.warnings.push_back("journal record " +
                                   std::to_string(record.id) +
                                   " no longer submits: " + e.what());
        ++outcome.skipped;
        break;
      }
    }
  }
  if (metrics != nullptr) {
    metrics->counter("journal.replayed_jobs").add(outcome.resubmitted);
    metrics->counter("journal.replay_skipped").add(outcome.skipped);
  }
  return outcome;
}

}  // namespace service

}  // namespace pqs
