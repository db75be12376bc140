// Experiment P1 (engineering ablation): throughput of the simulation
// engines, machine-readable.
//
// Sections:
//   dense_simd  the SoA/ISA kernel tiers (qsim/isa.h) on DenseBackend: the
//               two reflection work-horses at n >= 22 and an end-to-end
//               n = 24 Grover loop, once per tier this machine supports,
//               with speedups relative to the scalar tier and the host it
//               ran on
//   backends    dense vs symmetry cost of one full GRK run at growing n —
//               the O(N) -> O(K) gap the pluggable-backend refactor buys,
//               including symmetry-only rows far beyond dense reach (n=48)
//   sampling    shot sampling alone: one evolved dense grk state (n = 16,
//               K = 4), --shots block and full-index shots drawn through
//               BatchRunner on 1 thread and on the full team, with the host
//               it ran on
//   trajectories noisy partial-search runs, one evolution per shot, through
//               partial::run_noisy_partial_search on 1 thread vs the full
//               team, with the host it ran on
//   facade      pqs::Engine::run(SearchSpec) vs the direct module call
//               (dispatch + validation overhead of the service API) and the
//               plan cache: cold vs warm Engine::plan on the same key
//   obs         instrumentation overhead (obs/): the disabled span path
//               (RunControl with no SpanSink — one null-check per site) vs
//               no control at all, and the full traced-on vs traced-off
//               n=16 serve path
//   threading   the evidence behind qsim/parallel.h's work threshold: a
//               crossover table (one DenseBackend oracle flip + block +
//               global reflection, n = 12..22 at 1/2/4 threads, threshold
//               lifted), the n = 24 Grover speedup at 4 threads, and
//               pqs_serve throughput over TCP in the default environment
//               next to OMP_NUM_THREADS=1, with the host it ran on
//
// Results print as a table and are written to BENCH_qsim.json (--json PATH)
// so CI and regression tooling can diff them.
//
//   ./build/bench/bench_simulator_perf --backend auto --batch 0 \
//       --shots 20000 --json BENCH_qsim.json
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "api/api.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/math.h"
#include "common/table.h"
#include "common/timing.h"
#include "oracle/database.h"
#include "partial/grk.h"
#include "partial/noisy.h"
#include "partial/optimizer.h"
#include "qsim/backend.h"
#include "qsim/batch.h"
#include "qsim/isa.h"
#include "qsim/parallel.h"
#include "service/service.h"

namespace {

using namespace pqs;

struct BackendRow {
  unsigned n = 0;
  unsigned k = 0;
  std::uint64_t iterations = 0;
  double dense_seconds = -1.0;     ///< < 0: not run (beyond dense reach)
  double symmetry_seconds = -1.0;
  double speedup = -1.0;
};

/// A DenseBackend over 2^n items in K blocks with one target, in |psi0>.
std::unique_ptr<qsim::Backend> dense_backend(unsigned n,
                                             std::uint64_t k_blocks,
                                             qsim::Index target) {
  return qsim::make_backend(
      qsim::BackendKind::kDense,
      qsim::BackendSpec::single_target(pow2(n), k_blocks, target));
}

/// Wall time of `iterations` dense Grover iterations (oracle flip + global
/// reflection) at n qubits, allocation excluded.
double grover_seconds(unsigned n, int iterations) {
  const auto dense = dense_backend(n, 1, 12345);
  Stopwatch watch;
  for (int i = 0; i < iterations; ++i) {
    dense->apply_oracle();
    dense->apply_global_diffusion();
  }
  return watch.seconds();
}

/// One full GRK evolution (l1 global + l2 local + Step 3) on `kind`.
double time_grk(unsigned n, unsigned k, std::uint64_t l1, std::uint64_t l2,
                qsim::BackendKind kind) {
  const oracle::Database db(pow2(n), pow2(n) / 3 + 1);
  Stopwatch watch;
  const auto backend =
      partial::evolve_partial_search_on_backend(db, k, l1, l2, kind);
  (void)backend->block_probability(backend->target_block());
  return watch.seconds();
}

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

/// Best-of-`trials` mean seconds per call of `op` (reps calls per trial).
/// Best-of filters scheduler noise; the repetitions keep the fused
/// sum-cache warm, which is the steady state of the Grover loop.
template <typename Op>
double best_seconds_per_op(int trials, int reps, Op&& op) {
  double best = 1e100;
  for (int t = 0; t < trials; ++t) {
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) {
      op();
    }
    best = std::min(best, watch.seconds() / reps);
  }
  return best;
}

struct TierRow {
  qsim::Isa isa = qsim::Isa::kScalar;
  double reflect_seconds = 0.0;
  double block_reflect_seconds = 0.0;
  double grover_seconds = -1.0;  ///< < 0: skipped (--quick)
};

/// min and median of `trials` per-call timings of `op` (reps calls each).
template <typename Op>
Json min_median_us(int trials, int reps, Op&& op) {
  op();  // warm: page in the state, start the team's threads
  std::vector<double> us;
  for (int t = 0; t < trials; ++t) {
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) {
      op();
    }
    us.push_back(watch.seconds() * 1e6 / reps);
  }
  std::sort(us.begin(), us.end());
  Json row = Json::make_object();
  row["min_us"] = us.front();
  row["median_us"] = us[us.size() / 2];
  return row;
}

/// The source revision this bench was built from ("unknown" outside git).
std::string source_commit() {
  const std::string command =
      std::string("git -C '") + PQS_SOURCE_DIR +
      "' describe --always --dirty --abbrev=12 2>/dev/null";
  std::string out;
  if (FILE* pipe = popen(command.c_str(), "r"); pipe != nullptr) {
    char buf[128];
    while (fgets(buf, sizeof buf, pipe) != nullptr) {
      out += buf;
    }
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// The host a section ran on: cores, kernel threads, ISA tier, compiler,
/// build type and source revision.
Json host_json() {
  Json host = Json::make_object();
  host["cores"] = std::thread::hardware_concurrency();
  host["kernel_threads"] = qsim::hardware_threads();
  host["isa"] = std::string(qsim::isa_name(qsim::active_isa()));
  host["compiler"] = PQS_BENCH_COMPILER;
  host["build_type"] = PQS_BENCH_BUILD_TYPE;
  host["commit"] = source_commit();
  return host;
}

/// posix_spawn `args` with stdout/stderr sent to files. The environment is
/// this process's minus OMP_NUM_THREADS, plus OMP_NUM_THREADS=1 when
/// `omp_one` is set. Returns the pid, or -1.
pid_t spawn_with_env(const std::vector<std::string>& args,
                     const std::string& out_path, const std::string& err_path,
                     bool omp_one) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (!std::string_view(*e).starts_with("OMP_NUM_THREADS=")) {
      env.emplace_back(*e);
    }
  }
  if (omp_one) {
    env.emplace_back("OMP_NUM_THREADS=1");
  }
  std::vector<std::string> argv_store = args;
  std::vector<char*> argv, envp;
  for (std::string& a : argv_store) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  for (std::string& e : env) {
    envp.push_back(e.data());
  }
  envp.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                             envp.data());
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// One direct pqs_serve deployment (default options: 2 workers) under a
/// pqs_loadgen closed loop of fresh grk specs at n_items 16384. Returns
/// the loadgen summary, or nullopt when a binary is missing or fails.
std::optional<Json> net_serve_trial(const std::filesystem::path& tools,
                                    bool omp_one, std::size_t requests,
                                    std::uint64_t seed) {
  namespace fs = std::filesystem;
  const fs::path serve = tools / "pqs_serve";
  const fs::path loadgen = tools / "pqs_loadgen";
  if (!fs::exists(serve) || !fs::exists(loadgen)) {
    return std::nullopt;
  }
  const fs::path scratch = fs::temp_directory_path() /
                           ("pqs_threading_" + std::to_string(getpid()));
  fs::create_directories(scratch);
  const std::string serve_err = (scratch / "serve.err").string();
  const pid_t server =
      spawn_with_env({serve.string(), "--listen", "127.0.0.1:0"},
                     "/dev/null", serve_err, omp_one);
  std::optional<Json> summary;
  if (server > 0) {
    // The banner names the bound port; 10 s is far beyond any start-up.
    std::string port;
    Stopwatch wait;
    while (port.empty() && wait.seconds() < 10.0) {
      const std::string banner = read_file(serve_err);
      const std::string key = "listening on 127.0.0.1:";
      if (const auto at = banner.find(key); at != std::string::npos) {
        const auto end = banner.find('\n', at);
        if (end != std::string::npos) {
          port = banner.substr(at + key.size(), end - at - key.size());
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!port.empty()) {
      const std::string out = (scratch / "loadgen.out").string();
      const pid_t client = spawn_with_env(
          {loadgen.string(), "--connect", "127.0.0.1:" + port, "--clients",
           "4", "--inflight-per-conn", "16", "--requests",
           std::to_string(requests), "--unique-keys",
           std::to_string(requests * 64), "--n-items", "16384", "--seed",
           std::to_string(seed)},
          out, (scratch / "loadgen.err").string(), false);
      int status = 0;
      if (client > 0 && waitpid(client, &status, 0) == client &&
          WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        std::string text = read_file(out);
        while (!text.empty() && text.back() == '\n') {
          text.pop_back();
        }
        summary = Json::parse(text.substr(text.rfind('\n') + 1));
      }
    }
    kill(server, SIGTERM);
    waitpid(server, nullptr, 0);
  }
  fs::remove_all(scratch);
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path tools_dir =
      std::filesystem::path(argv[0]).parent_path().parent_path() / "tools";
  Cli cli(argc, argv);
  const std::string backend_flag = cli.get_string(
      "backend", "auto", "engine for the trajectories section "
      "(auto | dense | symmetry)");
  const auto batch_threads = static_cast<unsigned>(cli.get_int(
      "batch", 0, "threads of the team runs (0 = all hardware threads)"));
  const auto shots = static_cast<std::uint64_t>(
      cli.get_int("shots", 20000, "shots for the sampling section"));
  const std::string json_path =
      cli.get_string("json", "BENCH_qsim.json", "output JSON path");
  const bool quick = cli.get_bool("quick", false, "smaller sizes only");
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();
  const qsim::BackendKind trajectory_backend =
      qsim::parse_backend_kind(backend_flag);

  std::cout << "P1 - simulation-engine throughput (JSON -> " << json_path
            << ")\n\n";

  // -- section 1: SoA kernel tiers (dense_simd) ----------------------------
  // The same binary carries every compiled tier; force each supported one in
  // turn and measure the two reflection work-horses plus an end-to-end
  // Grover loop. Scalar goes first so the speedup baseline exists.
  const unsigned simd_n = quick ? 18u : 22u;
  const unsigned simd_grover_n = 24u;
  const int simd_grover_iters = 100;
  std::vector<TierRow> tier_rows;
  for (const qsim::Isa isa : qsim::supported_isas()) {
    qsim::force_isa(isa);
    TierRow row;
    row.isa = isa;
    {
      const auto dense = dense_backend(simd_n, 4, 1);
      dense->apply_oracle();  // non-uniform, like the real loop
      row.reflect_seconds = best_seconds_per_op(
          5, 10, [&] { dense->apply_global_diffusion(); });
      row.block_reflect_seconds = best_seconds_per_op(
          5, 10, [&] { dense->apply_block_diffusion(); });
    }
    if (!quick) {
      row.grover_seconds = grover_seconds(simd_grover_n, simd_grover_iters);
    }
    tier_rows.push_back(row);
  }
  qsim::force_isa(std::nullopt);

  const TierRow& scalar_row = tier_rows.front();
  Table simd_table({"tier", "reflect s/op", "speedup", "block reflect s/op",
                    "speedup", "grover n=24 s", "speedup"});
  std::ostringstream simd_json;
  simd_json << "{\"isa\": \"" << qsim::isa_name(qsim::active_isa())
            << "\", \"n\": " << simd_n << ", \"grover_n\": " << simd_grover_n
            << ", \"grover_iterations\": " << simd_grover_iters
            << ", \"tiers\": [";
  for (std::size_t i = 0; i < tier_rows.size(); ++i) {
    const TierRow& row = tier_rows[i];
    const double reflect_speedup =
        scalar_row.reflect_seconds / std::max(row.reflect_seconds, 1e-12);
    const double block_speedup = scalar_row.block_reflect_seconds /
                                 std::max(row.block_reflect_seconds, 1e-12);
    const double grover_speedup =
        row.grover_seconds < 0
            ? -1.0
            : scalar_row.grover_seconds / std::max(row.grover_seconds, 1e-12);
    simd_table.add_row(
        {std::string(qsim::isa_name(row.isa)),
         Table::num(row.reflect_seconds, 8), Table::num(reflect_speedup, 2),
         Table::num(row.block_reflect_seconds, 8),
         Table::num(block_speedup, 2),
         row.grover_seconds < 0 ? "-" : Table::num(row.grover_seconds, 4),
         grover_speedup < 0 ? "-" : Table::num(grover_speedup, 2)});
    if (i > 0) {
      simd_json << ",";
    }
    simd_json << "{\"isa\":\"" << qsim::isa_name(row.isa)
              << "\",\"reflect_seconds\":" << json_num(row.reflect_seconds)
              << ",\"reflect_speedup\":" << json_num(reflect_speedup)
              << ",\"block_reflect_seconds\":"
              << json_num(row.block_reflect_seconds)
              << ",\"block_reflect_speedup\":" << json_num(block_speedup)
              << ",\"grover_seconds\":" << json_num(row.grover_seconds)
              << ",\"grover_speedup\":" << json_num(grover_speedup) << "}";
  }
  simd_json << "], \"host\": " << host_json().dump() << "}";
  std::cout << "dense_simd (SoA kernels, n=" << simd_n
            << ", auto tier = " << qsim::isa_name(qsim::active_isa())
            << ")\n" << simd_table.render() << "\n";

  // -- section 1b: threading ------------------------------------------------
  // Runs before the sections that start Services: each Service worker that
  // runs kernels gets its own OpenMP pool, and a process that has made many
  // of them times fork/join differently from one that only runs kernels.
  // Crossover: one GRK-shaped step (oracle flip, block reflection, global
  // reflection) per n and team size, with the work threshold lifted so
  // small states open real teams. The step is what one query costs in
  // Engine::run; kParallelMinElems should sit where the teams start to win.
  Json threading = Json::make_object();
  {
    const int trials = quick ? 3 : 7;
    const unsigned n_max = quick ? 18u : 22u;
    threading["host"] = host_json();
    threading["trials"] = trials;
    threading["threshold_elems"] =
        static_cast<std::uint64_t>(qsim::kParallelMinElems);

    Table cross_table({"n", "chunks", "1 thread us", "2 threads us",
                       "4 threads us", "best"});
    Json crossover = Json::make_array();
    qsim::force_parallel_threshold(0);
    unsigned first_win = 0;  // smallest n from which a team always wins
    for (unsigned n = 12; n <= n_max; ++n) {
      const auto dense = dense_backend(n, 4, pow2(n) / 3 + 1);
      const int reps = std::max(3, static_cast<int>((1u << 24) >> n));
      Json row = Json::make_object();
      row["n"] = n;
      row["chunks"] = static_cast<std::uint64_t>(pow2(n) / qsim::kChunk);
      double one = 0.0, best_team = 1e100;
      std::vector<std::string> cells{Table::num(std::uint64_t{n}),
                                     Table::num(pow2(n) / qsim::kChunk)};
      for (const unsigned threads : {1u, 2u, 4u}) {
        qsim::set_thread_budget(threads);
        Json t = min_median_us(trials, reps, [&] {
          dense->apply_oracle();
          dense->apply_block_diffusion();
          dense->apply_global_diffusion();
        });
        const double median = t.at("median_us").as_double();
        if (threads == 1) {
          one = median;
        } else {
          best_team = std::min(best_team, median);
        }
        cells.push_back(Table::num(median, 2));
        row["threads_" + std::to_string(threads)] = std::move(t);
      }
      // A team must beat one thread by more than timing noise (5%).
      const bool team_wins = best_team < 0.95 * one;
      if (!team_wins) {
        first_win = 0;
      } else if (first_win == 0) {
        first_win = n;
      }
      cells.push_back(team_wins ? "team" : "1 thread");
      cross_table.add_row(cells);
      crossover.push_back(std::move(row));
    }
    qsim::set_thread_budget(0);
    qsim::force_parallel_threshold(std::nullopt);
    threading["crossover"] = std::move(crossover);
    threading["team_wins_from_n"] = first_win;
    std::cout << "\nthreading crossover (flip + block + global reflect, "
              << "median of " << trials << "; threshold lifted)\n"
              << cross_table.render() << "team wins from n = " << first_win
              << "; kParallelMinElems = " << qsim::kParallelMinElems
              << " elements\n";

    if (!quick) {
      // The large-state guarantee the threshold must not cost: n = 24
      // Grover at 4 threads vs 1.
      const unsigned n = 24;
      const int iterations = 100;
      double seconds[2] = {0.0, 0.0};
      for (const unsigned threads : {1u, 4u}) {
        qsim::set_thread_budget(threads);
        seconds[threads == 1 ? 0 : 1] = grover_seconds(n, iterations);
      }
      qsim::set_thread_budget(0);
      Json grover = Json::make_object();
      grover["n"] = n;
      grover["iterations"] = iterations;
      grover["seconds_1_thread"] = seconds[0];
      grover["seconds_4_threads"] = seconds[1];
      grover["speedup"] = seconds[0] / std::max(seconds[1], 1e-12);
      std::cout << "grover n=24 x" << iterations << ": 1 thread "
                << Table::num(seconds[0], 3) << " s, 4 threads "
                << Table::num(seconds[1], 3) << " s -> "
                << Table::num(grover.at("speedup").as_double(), 2) << "x\n";
      threading["grover_n24"] = std::move(grover);
    }

    // Direct pqs_serve over TCP, default environment vs OMP_NUM_THREADS=1,
    // alternating so host drift hits both sides alike.
    const std::size_t requests = quick ? 1000 : 6000;
    const int serve_trials = 3;
    std::vector<double> rps[2], p50[2];
    bool serve_ok = true;
    for (int t = 0; t < serve_trials && serve_ok; ++t) {
      for (const bool omp_one : {false, true}) {
        const auto summary = net_serve_trial(
            tools_dir, omp_one, requests, 1000 + static_cast<std::uint64_t>(t));
        if (!summary.has_value()) {
          serve_ok = false;
          break;
        }
        rps[omp_one ? 1 : 0].push_back(
            summary->at("throughput_rps").as_double());
        p50[omp_one ? 1 : 0].push_back(
            summary->at("latency_ms").at("p50").as_double());
      }
    }
    if (serve_ok) {
      const auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
      };
      Json net = Json::make_object();
      net["workload"] =
          "pqs_serve --listen (2 workers) <- pqs_loadgen 4 clients x 16 "
          "inflight, fresh grk specs, n_items 16384";
      net["requests"] = static_cast<std::uint64_t>(requests);
      net["trials"] = serve_trials;
      net["default_rps"] = median(rps[0]);
      net["omp1_rps"] = median(rps[1]);
      net["default_p50_ms"] = median(p50[0]);
      net["omp1_p50_ms"] = median(p50[1]);
      net["default_over_omp1"] = median(rps[0]) / median(rps[1]);
      std::cout << "net_serve direct: default "
                << Table::num(median(rps[0]), 0) << " rps vs OMP_NUM_THREADS=1 "
                << Table::num(median(rps[1]), 0) << " rps (median of "
                << serve_trials << ")\n\n";
      threading["net_serve"] = std::move(net);
    } else {
      std::cout << "net_serve direct: skipped (pqs_serve/pqs_loadgen not "
                << "found next to " << tools_dir << ")\n";
    }
  }

  // -- section 2: dense vs symmetry full GRK runs ---------------------------
  std::vector<BackendRow> rows;
  std::vector<unsigned> grk_sizes{16u};
  if (!quick) {
    grk_sizes.push_back(20u);
  }
  for (unsigned n : grk_sizes) {
    const unsigned k = 2;
    const auto opt = partial::optimize_integer(
        pow2(n), pow2(k), partial::default_min_success(pow2(n)));
    BackendRow row{n, k, opt.l1 + opt.l2 + 1, 0.0, 0.0, 0.0};
    row.dense_seconds =
        time_grk(n, k, opt.l1, opt.l2, qsim::BackendKind::kDense);
    row.symmetry_seconds =
        time_grk(n, k, opt.l1, opt.l2, qsim::BackendKind::kSymmetry);
    row.speedup = row.dense_seconds / std::max(row.symmetry_seconds, 1e-12);
    rows.push_back(row);
  }
  {
    // Far beyond dense reach: the asymptotic schedule at n = 48.
    const unsigned n = 48, k = 3;
    const auto eps = partial::optimize_epsilon(pow2(k));
    const double sqrt_n = std::sqrt(static_cast<double>(pow2(n)));
    const double sqrt_block =
        std::sqrt(static_cast<double>(pow2(n - k)));
    const auto l1 = static_cast<std::uint64_t>(
        std::llround(kQuarterPi * (1.0 - eps.epsilon) * sqrt_n));
    const auto l2 = static_cast<std::uint64_t>(std::llround(
        (eps.angles.theta1 + eps.angles.theta2) / 2.0 * sqrt_block));
    BackendRow row{n, k, l1 + l2 + 1, -1.0, 0.0, -1.0};
    row.symmetry_seconds = time_grk(n, k, l1, l2,
                                    qsim::BackendKind::kSymmetry);
    rows.push_back(row);
  }

  Table backend_table({"n", "k", "queries", "dense s", "symmetry s",
                       "dense/symmetry"});
  std::ostringstream backends_json;
  backends_json << "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    backend_table.add_row(
        {Table::num(std::uint64_t{row.n}), Table::num(std::uint64_t{row.k}),
         Table::num(row.iterations),
         row.dense_seconds < 0 ? "out of reach"
                               : Table::num(row.dense_seconds, 6),
         Table::num(row.symmetry_seconds, 6),
         row.speedup < 0 ? "-" : Table::num(row.speedup, 1)});
    if (i > 0) {
      backends_json << ",";
    }
    backends_json << "{\"n\":" << row.n << ",\"k\":" << row.k
                  << ",\"queries\":" << row.iterations
                  << ",\"dense_seconds\":" << json_num(row.dense_seconds)
                  << ",\"symmetry_seconds\":"
                  << json_num(row.symmetry_seconds)
                  << ",\"dense_over_symmetry\":" << json_num(row.speedup)
                  << "}";
  }
  backends_json << "]";
  std::cout << backend_table.render() << "\n";

  // -- section 3: shot sampling, and noisy trajectories ---------------------
  // sampling: every shot of a batch draws from one sampler built from the
  // evolved state (qsim/sampler.h), so this times the build plus the draws.
  Json sampling = Json::make_object();
  {
    const unsigned n = 16, k = 2;
    const int trials = quick ? 3 : 7;
    const auto opt = partial::optimize_integer(
        pow2(n), pow2(k), partial::default_min_success(pow2(n)));
    const oracle::Database db(pow2(n), pow2(n) / 3 + 1);
    const auto backend = partial::evolve_partial_search_on_backend(
        db, k, opt.l1, opt.l2, qsim::BackendKind::kDense);
    const qsim::BatchRunner serial({.threads = 1});
    const qsim::BatchRunner team({.threads = batch_threads});
    sampling["host"] = host_json();
    sampling["trials"] = trials;
    sampling["n"] = n;
    sampling["k"] = k;
    sampling["shots"] = shots;
    sampling["team_threads"] = team.threads();
    Table sample_table({"shots", "threads", "batch us (median)", "us/shot"});
    for (const bool block : {true, false}) {
      for (const qsim::BatchRunner* runner : {&serial, &team}) {
        Json row = min_median_us(trials, 1, [&] {
          (void)(block ? runner->sample_block_shots(*backend, shots, 0)
                       : runner->sample_shots(*backend, shots, 0));
        });
        const double median_us = row.at("median_us").as_double();
        const double per_shot = median_us / static_cast<double>(shots);
        row["us_per_shot"] = per_shot;
        sample_table.add_row({block ? "block" : "index",
                              Table::num(std::uint64_t{runner->threads()}),
                              Table::num(median_us, 1),
                              Table::num(per_shot, 4)});
        sampling[std::string(block ? "block" : "index") +
                 (runner == &serial ? "_1_thread" : "_team")] = std::move(row);
      }
    }
    std::cout << "sampling (dense grk, n=" << n << ", k=" << k << ", "
              << shots << " shots, median of " << trials << ")\n"
              << sample_table.render() << "\n";
  }

  // trajectories: a fresh noisy evolution per shot, fanned over the team.
  Json trajectories = Json::make_object();
  {
    const unsigned n = quick ? 10u : 12u, k = 2;
    const std::uint64_t trajectory_shots = quick ? 200 : 1000;
    const int trials = 3;
    const oracle::Database db = oracle::Database::with_qubits(n, 99);
    const qsim::NoiseModel noise{qsim::NoiseKind::kDepolarizing, 0.01};
    double seconds[2] = {0.0, 0.0};
    qsim::Index modes[2] = {0, 0};
    std::uint64_t queries_per_shot = 0;
    const unsigned team_threads =
        qsim::BatchRunner({.threads = batch_threads}).threads();
    for (const bool use_team : {false, true}) {
      partial::NoisyOptions options{.backend = trajectory_backend,
                                    .l1 = 10,
                                    .l2 = 5};
      options.batch.threads = use_team ? batch_threads : 1u;
      Json row = min_median_us(trials, 1, [&] {
        Rng rng(2005);
        const auto run = partial::run_noisy_partial_search(
            db, k, noise, trajectory_shots, rng, options);
        modes[use_team ? 1 : 0] = run.modal_block;
        queries_per_shot = run.queries_per_trial;
      });
      seconds[use_team ? 1 : 0] = row.at("median_us").as_double() * 1e-6;
    }
    trajectories["host"] = host_json();
    trajectories["trials"] = trials;
    trajectories["backend"] = to_string(trajectory_backend);
    trajectories["n"] = n;
    trajectories["shots"] = trajectory_shots;
    trajectories["queries_per_shot"] = queries_per_shot;
    trajectories["noise"] = "depolarizing 0.01";
    trajectories["seconds_1_thread"] = seconds[0];
    trajectories["seconds_team"] = seconds[1];
    trajectories["team_threads"] = team_threads;
    trajectories["speedup"] = seconds[0] / std::max(seconds[1], 1e-12);
    std::cout << "trajectories (" << to_string(trajectory_backend)
              << " engine, n=" << n << ", " << trajectory_shots
              << " noisy shots): 1 thread " << Table::num(seconds[0], 4)
              << " s vs " << team_threads << " threads "
              << Table::num(seconds[1], 4) << " s -> speedup "
              << Table::num(trajectories.at("speedup").as_double(), 2)
              << "x; modal block " << modes[0] << " / " << modes[1] << "\n";
  }

  // -- section 4: facade overhead + plan cache ------------------------------
  const unsigned fac_n = quick ? 12u : 16u;
  const unsigned fac_k = 2;
  const qsim::Index fac_target = pow2(fac_n) / 3 + 1;
  const Engine engine;
  SearchSpec fac_spec =
      SearchSpec::single_target(pow2(fac_n), pow2(fac_k), fac_target);
  fac_spec.algorithm = "grk";

  Stopwatch plan_watch;
  const auto plan_cold = engine.plan(fac_spec);
  const double plan_cold_seconds =
      plan_cold.cache_hit ? 0.0 : plan_watch.seconds();
  plan_watch.reset();
  const auto plan_warm = engine.plan(fac_spec);
  const double plan_warm_seconds = plan_watch.seconds();

  const int fac_reps = 30;
  // Warm both paths once (page in code, fill the plan cache), then time a
  // fresh oracle + RNG + run per request on each — the same per-request
  // work a module-level caller and a facade caller would actually do.
  {
    const oracle::Database db(pow2(fac_n), fac_target);
    Rng rng(fac_spec.seed);
    partial::GrkOptions options;
    options.l1 = plan_cold.schedule.l1;
    options.l2 = plan_cold.schedule.l2;
    (void)partial::run_partial_search(db, fac_k, rng, options);
    (void)engine.run(fac_spec);
  }
  Stopwatch watch;
  for (int r = 0; r < fac_reps; ++r) {
    const oracle::Database db(pow2(fac_n), fac_target);
    Rng rng(fac_spec.seed);
    partial::GrkOptions options;
    options.l1 = plan_cold.schedule.l1;
    options.l2 = plan_cold.schedule.l2;
    (void)partial::run_partial_search(db, fac_k, rng, options);
  }
  const double direct_seconds = watch.seconds() / fac_reps;
  watch.reset();
  for (int r = 0; r < fac_reps; ++r) {
    (void)engine.run(fac_spec);
  }
  const double engine_seconds = watch.seconds() / fac_reps;
  const double overhead =
      engine_seconds / std::max(direct_seconds, 1e-12) - 1.0;

  // The SearchReport timing split (queue / plan / exec): one warm facade
  // request for the plan/exec shares, and the same request stream through a
  // single-worker Service — where queueing delay, the number a loaded
  // deployment actually suffers, becomes visible.
  const SearchReport split = engine.run(fac_spec);
  Service fac_service({.threads = 1});
  std::vector<JobHandle> fac_handles;
  fac_handles.reserve(fac_reps);
  for (int r = 0; r < fac_reps; ++r) {
    SearchSpec queued_spec = fac_spec;
    queued_spec.seed = 90000 + static_cast<std::uint64_t>(r);  // no coalescing
    fac_handles.push_back(fac_service.submit(queued_spec));
  }
  double mean_queue_ns = 0.0;
  for (auto& handle : fac_handles) {
    handle.wait();
    mean_queue_ns += static_cast<double>(handle.report().queue_ns);
  }
  mean_queue_ns /= fac_reps;

  std::cout << "\nfacade (grk, n=" << fac_n << ", " << fac_reps
            << " requests): direct " << Table::num(direct_seconds, 6)
            << " s/req vs engine " << Table::num(engine_seconds, 6)
            << " s/req -> overhead " << Table::num(overhead * 100.0, 2)
            << "%\nplan cache: cold " << Table::num(plan_cold_seconds, 6)
            << " s, warm " << Table::num(plan_warm_seconds, 9) << " s ("
            << engine.planner().hits() << " hit(s), "
            << engine.planner().misses() << " miss(es), "
            << engine.planner().evictions() << " eviction(s))\n"
            << "timing split: warm request plan " << split.plan_ns
            << " ns + exec " << split.exec_ns
            << " ns; mean queue delay through a 1-worker service "
            << Table::num(mean_queue_ns, 0) << " ns over " << fac_reps
            << " back-to-back jobs\n";

  // -- section 5: observability overhead ------------------------------------
  // Three rungs of the instrumentation ladder on the same warm grk workload:
  //   no control    Engine::run without a RunControl — span sites are not
  //                 even reachable (the pre-obs baseline);
  //   null sink     Engine::run with a RunControl but no SpanSink — every
  //                 span site costs exactly one pointer null-check (the
  //                 DISABLED path, what a --trace-ring=0 deployment pays);
  //   service off/on the full n=16 serve path with tracing disabled vs the
  //                 default-on TraceStore — the ENABLED cost of minting,
  //                 timestamping ~10 spans, and retiring each request.
  // The true per-request cost (~10 span events of a mutex push + clock read
  // each) is orders of magnitude below run-to-run scheduler noise on a 4 ms
  // workload, so the measurement leans on best-of-many INTERLEAVED trials:
  // alternating the configurations inside one loop decorrelates thermal and
  // frequency drift that best-of alone cannot filter.
  const int obs_trials = 7;
  double obs_no_control_seconds = 1e100;
  double obs_null_sink_seconds = 1e100;
  for (int trial = 0; trial < obs_trials; ++trial) {
    obs_no_control_seconds =
        std::min(obs_no_control_seconds, best_seconds_per_op(1, fac_reps, [&] {
                   (void)engine.run(fac_spec);
                 }));
    obs_null_sink_seconds =
        std::min(obs_null_sink_seconds, best_seconds_per_op(1, fac_reps, [&] {
                   qsim::RunControl control;
                   (void)engine.run(fac_spec, &control);
                 }));
  }
  const double disabled_overhead =
      obs_null_sink_seconds / std::max(obs_no_control_seconds, 1e-12) - 1.0;

  // The unambiguous pin on the disabled path: one span SITE with no sink is
  // a load + branch. Timed directly over 10M calls — the end-to-end diff
  // above sits inside scheduler noise precisely because this is sub-ns.
  double disabled_span_ns = 0.0;
  {
    qsim::RunControl control;
    // Launder the pointer each iteration so the compiler cannot hoist the
    // null check (or delete the loop) — the timed body is the real site.
    qsim::RunControl* volatile laundered = &control;
    constexpr int kSpanCalls = 10000000;
    Stopwatch span_watch;
    for (int i = 0; i < kSpanCalls; ++i) {
      laundered->span("bench.noop");
    }
    disabled_span_ns = span_watch.seconds() * 1e9 / kSpanCalls;
  }

  const auto service_trial_seconds = [&](std::size_t trace_capacity) {
    Service service({.threads = 1, .trace = {.capacity = trace_capacity}});
    std::vector<JobHandle> handles;
    handles.reserve(fac_reps);
    Stopwatch trial_watch;
    for (int r = 0; r < fac_reps; ++r) {
      SearchSpec spec = fac_spec;
      // Distinct seeds: no coalescing, no result-cache hits; a fresh
      // Service per trial keeps the caches cold across trials too.
      spec.seed = 70000 + static_cast<std::uint64_t>(r);
      handles.push_back(service.submit(spec));
    }
    for (auto& handle : handles) {
      handle.wait();
    }
    return trial_watch.seconds() / fac_reps;
  };
  double obs_service_off_seconds = 1e100;
  double obs_service_on_seconds = 1e100;
  for (int trial = 0; trial < obs_trials; ++trial) {
    obs_service_off_seconds =
        std::min(obs_service_off_seconds, service_trial_seconds(0));
    obs_service_on_seconds =
        std::min(obs_service_on_seconds, service_trial_seconds(256));
  }
  const double enabled_overhead =
      obs_service_on_seconds / std::max(obs_service_off_seconds, 1e-12) - 1.0;

  std::cout << "\nobs (grk, n=" << fac_n << ", " << fac_reps
            << " requests/trial): engine no-control "
            << Table::num(obs_no_control_seconds, 6) << " s/req vs null-sink "
            << Table::num(obs_null_sink_seconds, 6)
            << " s/req -> disabled-path overhead "
            << Table::num(disabled_overhead * 100.0, 3)
            << "% (one null-sink span site: "
            << Table::num(disabled_span_ns, 3)
            << " ns)\nservice traced-off " << Table::num(obs_service_off_seconds, 6)
            << " s/req vs traced-on " << Table::num(obs_service_on_seconds, 6)
            << " s/req -> enabled-path overhead "
            << Table::num(enabled_overhead * 100.0, 3) << "%\n";

  // -- JSON ----------------------------------------------------------------
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"qsim\",\n"
       << "  \"isa\": \"" << qsim::isa_name(qsim::active_isa()) << "\",\n"
       << "  \"dense_simd\": " << simd_json.str() << ",\n"
       << "  \"grk_backends\": " << backends_json.str() << ",\n"
       << "  \"sampling\": " << sampling.dump() << ",\n"
       << "  \"trajectories\": " << trajectories.dump() << ",\n"
       << "  \"facade\": {\"n\": " << fac_n << ", \"k\": " << fac_k
       << ", \"requests\": " << fac_reps
       << ", \"direct_seconds_per_request\": " << json_num(direct_seconds)
       << ", \"engine_seconds_per_request\": " << json_num(engine_seconds)
       << ", \"overhead_fraction\": " << json_num(overhead)
       << ", \"plan_cold_seconds\": " << json_num(plan_cold_seconds)
       << ", \"plan_warm_seconds\": " << json_num(plan_warm_seconds)
       << ", \"warm_request_plan_ns\": " << split.plan_ns
       << ", \"warm_request_exec_ns\": " << split.exec_ns
       << ", \"service_mean_queue_ns\": " << json_num(mean_queue_ns)
       << "},\n"
       << "  \"obs\": {\"n\": " << fac_n << ", \"requests\": " << fac_reps
       << ", \"engine_no_control_seconds_per_request\": "
       << json_num(obs_no_control_seconds)
       << ", \"engine_null_sink_seconds_per_request\": "
       << json_num(obs_null_sink_seconds)
       << ", \"disabled_overhead_fraction\": " << json_num(disabled_overhead)
       << ", \"disabled_span_site_ns\": " << json_num(disabled_span_ns)
       << ", \"service_traced_off_seconds_per_request\": "
       << json_num(obs_service_off_seconds)
       << ", \"service_traced_on_seconds_per_request\": "
       << json_num(obs_service_on_seconds)
       << ", \"enabled_overhead_fraction\": " << json_num(enabled_overhead)
       << "},\n"
       << "  \"threading\": " << threading.dump() << "\n}\n";
  json.close();
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
