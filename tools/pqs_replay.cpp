// pqs_replay — deterministic re-execution of captured sessions and
// journals, with byte-level report diffing.
//
// The serve stack is byte-deterministic at fixed seeds (canonical JSON,
// submission-ordered results, timing zeroed), which makes any captured
// traffic a regression test for ALL algorithms at once: re-execute it and
// byte-diff what comes out against what was recorded. This tool does that
// for both capture formats:
//
//   * session mode (--input holds request lines, {"op":...}): replays the
//     lines through a real Service + net::Session — the exact production
//     path — printing the event stream to stdout. With --expected FILE the
//     streams are compared: the synchronous ack stream and the
//     submission-ordered result stream are each byte-diffed (their
//     interleaving is scheduling noise and deliberately not compared).
//   * journal mode (--input holds journal lines, {"journal":...}): every
//     accepted record is re-executed and its fresh report byte-diffed
//     against the report embedded in the recorded completion marker
//     (timing fields zeroed on both sides, exactly like the wire layer).
//
// --check exits nonzero on any divergence — the ctest entries pin the
// recorded fixtures this way. --speed N paces journal replay at N× the
// recorded inter-arrival gaps (0 = as fast as possible) for saturation
// probing; --json merges a `replay` section (throughput, divergences) into
// BENCH_qsim.json.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/serialize.h"
#include "common/check.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/timing.h"
#include "net/session.h"
#include "service/flags.h"
#include "service/journal.h"
#include "service/service.h"

namespace {

using namespace pqs;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PQS_CHECK_MSG(in.good(), "pqs_replay: cannot read \"" + path + "\"");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

void zero_timing(SearchReport& report) {
  // Same normalization the wire layer applies without --timing: the answer
  // fields are deterministic at fixed seed, these describe how the run
  // happened to execute.
  report.queue_ns = 0;
  report.plan_ns = 0;
  report.exec_ns = 0;
  report.plan_cache_hit = false;
}

/// Error events carry CheckFailure messages, which lead with the failed
/// expression ("PQS_CHECK failed: (...) — n_blocks must divide n_items"),
/// and fixtures recorded by older builds also carry the check's file:line
/// after it. Strip down to the human message so recorded fixtures survive
/// code motion; all other events pass through verbatim.
std::string normalize_event_line(const std::string& line, bool& is_result) {
  is_result = false;
  try {
    Json event = Json::parse(line);
    const std::string& kind = event.at("event").as_string();
    is_result = kind == "result";
    if (kind != "error" && kind != "overloaded") {
      return line;
    }
    const char* field = kind == "error" ? "message" : "reason";
    if (!event.has(field)) {
      return line;
    }
    const std::string& message = event.at(field).as_string();
    const std::string marker = " \xE2\x80\x94 ";  // " — " (em dash)
    const std::size_t dash = message.rfind(marker);
    if (message.rfind("PQS_CHECK failed:", 0) == 0 &&
        dash != std::string::npos) {
      event[field] = message.substr(dash + marker.size());
      return event.dump();
    }
    return line;
  } catch (const std::exception&) {
    return line;  // not an event object; compare the raw bytes
  }
}

/// Split an event stream into the two independently-deterministic
/// subsequences: synchronous acks (everything but `result`) and
/// submission-ordered results. Their interleaving is scheduling noise.
std::pair<std::vector<std::string>, std::vector<std::string>> partition(
    const std::vector<std::string>& lines) {
  std::pair<std::vector<std::string>, std::vector<std::string>> streams;
  for (const std::string& line : lines) {
    if (line.empty()) {
      continue;
    }
    bool is_result = false;
    std::string normalized = normalize_event_line(line, is_result);
    (is_result ? streams.second : streams.first)
        .push_back(std::move(normalized));
  }
  return streams;
}

void diff_stream(const char* name, const std::vector<std::string>& got,
                 const std::vector<std::string>& want,
                 std::vector<std::string>& divergences) {
  const std::size_t n = std::max(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string* g = i < got.size() ? &got[i] : nullptr;
    const std::string* w = i < want.size() ? &want[i] : nullptr;
    if (g && w && *g == *w) {
      continue;
    }
    divergences.push_back(std::string(name) + " line " + std::to_string(i + 1) +
                          ":\n  expected: " + (w ? *w : "<missing>") +
                          "\n  got:      " + (g ? *g : "<missing>"));
  }
}

struct Summary {
  std::string mode;
  std::size_t records = 0;    ///< request lines / accepted records replayed
  std::size_t executed = 0;   ///< jobs the service actually settled
  std::size_t compared = 0;   ///< recorded outcomes diffed against fresh ones
  std::size_t skipped = 0;    ///< records that no longer submit
  std::vector<std::string> divergences;
  double wall_seconds = 0.0;
};

Summary run_session(const std::vector<std::string>& lines,
                    const ServiceOptions& options,
                    const std::string& expected_path) {
  Summary summary;
  summary.mode = "session";
  std::vector<std::string> captured;
  Stopwatch wall;
  {
    Service service(options);
    net::Session session(
        service,
        [&captured](std::string_view batch) {
          for (std::string& line : net::split_lines(batch)) {
            captured.push_back(std::move(line));
          }
          std::cout << batch;
          return static_cast<bool>(std::cout);
        },
        net::SessionOptions{});
    for (const std::string& line : lines) {
      if (!line.empty()) {
        ++summary.records;
      }
      session.handle_line(line);
    }
    session.drain();
  }
  summary.wall_seconds = wall.seconds();
  summary.executed = captured.size();
  if (!expected_path.empty()) {
    const auto [got_acks, got_results] = partition(captured);
    const auto [want_acks, want_results] =
        partition(read_lines(expected_path));
    summary.compared = want_acks.size() + want_results.size();
    diff_stream("ack stream", got_acks, want_acks, summary.divergences);
    diff_stream("result stream", got_results, want_results,
                summary.divergences);
  }
  return summary;
}

Summary run_journal(const std::string& input, const ServiceOptions& options,
                    std::uint64_t speed) {
  Summary summary;
  summary.mode = "journal";
  const RecoveredJournal recovered = Journal::recover_file(input);
  for (const std::string& warning : recovered.warnings) {
    std::cerr << "pqs_replay: " << input << ": " << warning << "\n";
  }
  // Recorded outcome per id; a journal rotated through recovery can hold
  // the same id twice — the later marker is the one that settled last.
  std::map<std::uint64_t, const CompletedJournalRecord*> recorded;
  for (const CompletedJournalRecord& marker : recovered.completions) {
    recorded[marker.id] = &marker;
  }

  Service service(options);
  Stopwatch wall;
  std::vector<std::pair<const JournalRecord*, JobHandle>> jobs;
  std::uint64_t prev_t_ns = 0;
  bool first = true;
  for (const JournalRecord& record : recovered.accepted_records) {
    ++summary.records;
    if (speed > 0 && !first && record.t_ns > prev_t_ns) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds((record.t_ns - prev_t_ns) / speed));
    }
    prev_t_ns = record.t_ns;
    first = false;
    while (true) {
      try {
        jobs.emplace_back(&record,
                          service.submit(record.spec, record.priority));
        break;
      } catch (const OverloadedError&) {
        // Back-pressure, not a drop: wait out the oldest unfinished replay
        // and retry (mirrors service::replay_pending).
        bool waited = false;
        for (auto& [rec, handle] : jobs) {
          if (!handle.finished()) {
            handle.wait();
            waited = true;
            break;
          }
        }
        PQS_CHECK_MSG(waited, "pqs_replay: queue full with nothing running");
      } catch (const CheckFailure& e) {
        std::cerr << "pqs_replay: record " << record.id
                  << " no longer submits: " << e.what() << "\n";
        ++summary.skipped;
        break;
      }
    }
  }

  for (auto& [record, handle] : jobs) {
    const JobStatus status = handle.wait();
    ++summary.executed;
    const auto it = recorded.find(record->id);
    if (it == recorded.end()) {
      continue;  // crashed before completing: re-executed, nothing to diff
    }
    const CompletedJournalRecord& marker = *it->second;
    ++summary.compared;
    if (marker.status != status) {
      summary.divergences.push_back(
          "record " + std::to_string(record->id) + ": recorded status \"" +
          std::string(to_string(marker.status)) + "\", replay settled \"" +
          std::string(to_string(status)) + "\"");
      continue;
    }
    if (marker.status != JobStatus::kDone || !marker.has_report) {
      continue;
    }
    SearchReport want = marker.report;
    SearchReport got = handle.report();
    zero_timing(want);
    zero_timing(got);
    const std::string want_line = api::to_json(want).dump();
    const std::string got_line = api::to_json(got).dump();
    if (want_line != got_line) {
      summary.divergences.push_back("record " + std::to_string(record->id) +
                                    " report:\n  recorded: " + want_line +
                                    "\n  replayed: " + got_line);
    }
  }
  summary.wall_seconds = wall.seconds();
  return summary;
}

/// Merge a `replay` section into the bench JSON (preserving whatever other
/// sections are already there; the re-dump is canonical one-line JSON).
void write_bench_json(const std::string& path, const Summary& summary,
                      const ServiceOptions& options, std::uint64_t speed) {
  Json root = Json::make_object();
  {
    std::ifstream in(path, std::ios::binary);
    if (in.good()) {
      std::ostringstream text;
      text << in.rdbuf();
      try {
        Json existing = Json::parse(text.str());
        if (existing.is_object()) {
          root = std::move(existing);
        }
      } catch (const std::exception&) {
        // Not JSON (or torn): start the file over with just our section.
      }
    }
  }
  Json section = Json::make_object();
  section["mode"] = summary.mode;
  section["records"] = std::uint64_t{summary.records};
  section["executed"] = std::uint64_t{summary.executed};
  section["compared"] = std::uint64_t{summary.compared};
  section["divergences"] = std::uint64_t{summary.divergences.size()};
  section["skipped"] = std::uint64_t{summary.skipped};
  section["speed"] = speed;
  section["threads"] = std::uint64_t{options.threads};
  section["wall_seconds"] = summary.wall_seconds;
  section["jobs_per_second"] =
      summary.wall_seconds > 0.0
          ? static_cast<double>(summary.executed) / summary.wall_seconds
          : 0.0;
  root["replay"] = std::move(section);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << root.dump() << "\n";
  PQS_CHECK_MSG(static_cast<bool>(out),
                "pqs_replay: cannot write \"" + path + "\"");
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const ServiceOptions options = service::parse_service_flags(cli);
  const std::string input = cli.get_string(
      "input", "", "captured file to replay: journal lines or session "
                   "request lines (auto-detected)");
  const std::string expected = cli.get_string(
      "expected", "",
      "recorded event stream to diff a session replay against (journal "
      "replays diff against the reports embedded in the journal itself)");
  const bool check = cli.get_bool(
      "check", false, "exit nonzero on any divergence from the recording");
  const auto speed = cli.get_int(
      "speed", 0,
      "journal pacing: replay at N x the recorded inter-arrival gaps "
      "(0 = as fast as possible; session lines carry no timestamps and "
      "always replay flat-out)");
  const std::string json_path = cli.get_string(
      "json", "", "merge a `replay` throughput section into this bench "
                  "JSON (e.g. BENCH_qsim.json)");
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();
  PQS_CHECK_MSG(!input.empty(), "pqs_replay: --input is required");
  PQS_CHECK_MSG(speed >= 0, "--speed must be >= 0");

  // Auto-detect the capture format from the first parseable line.
  const std::vector<std::string> lines = read_lines(input);
  bool journal_mode = false;
  for (const std::string& line : lines) {
    if (line.empty()) {
      continue;
    }
    try {
      const Json first = Json::parse(line);
      journal_mode = first.has("journal");
      if (journal_mode || first.has("op")) {
        break;
      }
      throw CheckFailure("pqs_replay: \"" + input +
                         "\" is neither a journal nor a session capture "
                         "(first record has no \"journal\" or \"op\" key)");
    } catch (const CheckFailure&) {
      throw;
    } catch (const std::exception&) {
      continue;  // torn/foreign line; let the mode decide how to report it
    }
  }

  const Summary summary =
      journal_mode
          ? run_journal(input, options, static_cast<std::uint64_t>(speed))
          : run_session(lines, options, expected);

  for (std::size_t i = 0; i < summary.divergences.size(); ++i) {
    if (i == 10) {
      std::cerr << "pqs_replay: ... and " << (summary.divergences.size() - 10)
                << " more divergence(s)\n";
      break;
    }
    std::cerr << "pqs_replay: DIVERGENCE " << summary.divergences[i] << "\n";
  }
  std::cerr << "pqs_replay: " << summary.mode << " mode: " << summary.records
            << " record(s), " << summary.executed << " executed, "
            << summary.compared << " compared, "
            << summary.divergences.size() << " divergence(s), "
            << summary.skipped << " skipped, "
            << summary.wall_seconds << " s\n";
  if (!json_path.empty()) {
    write_bench_json(json_path, summary, options,
                     static_cast<std::uint64_t>(speed));
  }
  return check && !summary.divergences.empty() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pqs_replay: " << e.what() << "\n";
    return 2;
  }
}
