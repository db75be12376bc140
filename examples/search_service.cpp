// The search service in one binary: EVERY algorithm in the repository
// behind one flag set — pick with --algo (or let "auto" plan), tune with
// the shared knobs, and read one report format. Then a burst of repeated
// requests shows what the plan cache buys a long-lived engine: the first
// request pays the schedule search, every later one plans in ~0 time.
//
//   ./build/examples/search_service --algo grk --qubits 16 --kbits 2
//   ./build/examples/search_service --algo auto --qubits 12 --min-success 1
//   ./build/examples/search_service --algo grk --qubits 40 --kbits 3 \
//       --backend symmetry --shots 1000
//   ./build/examples/search_service --algo noisy --qubits 9 --kbits 2 \
//       --noise depolarizing --noise-p 0.01 --shots 200
#include <iostream>

#include "api/api.h"
#include "common/cli.h"
#include "common/table.h"
#include "common/timing.h"

int main(int argc, char** argv) {
  using namespace pqs;
  Cli cli(argc, argv);
  api::SpecFlagSet flags;
  flags.shots = true;
  flags.noise = true;
  flags.schedule = true;
  SearchSpec spec = api::parse_search_spec(cli, flags);
  const auto requests = static_cast<std::uint64_t>(cli.get_int(
      "requests", 5, "how many identical requests to serve (cache demo)"));
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();

  Engine engine;
  std::cout << "registered algorithms:";
  for (const auto& name : engine.algorithm_names()) {
    std::cout << ' ' << name;
  }
  std::cout << "\n\nrequest: " << spec.describe() << "\n";
  if (spec.algorithm == "auto") {
    std::cout << "auto resolves to: " << engine.resolve_algorithm(spec)
              << "\n";
  }
  std::cout << "\n";

  Table table({"request", "answer", "queries", "success", "plan", "run"});
  for (std::uint64_t r = 0; r < requests; ++r) {
    const SearchReport report = engine.run(spec);
    table.add_row(
        {Table::num(r + 1),
         (report.block_answer ? "block " : "address ") +
             Table::num(report.measured) +
             (report.correct ? "" : " (WRONG)"),
         Table::num(report.queries),
         Table::num(report.success_probability, 6),
         report.plan_cache_hit
             ? "cache hit"
             : Table::num(static_cast<double>(report.plan_ns) * 1e-9, 6) + " s",
         Table::num(static_cast<double>(report.exec_ns) * 1e-9, 6) + " s"});
    if (r == 0 && !report.detail.empty()) {
      std::cout << "detail: " << report.detail << "\n\n";
    }
  }
  std::cout << table.render();
  std::cout << "\nplan cache: " << engine.planner().size()
            << " schedule(s), " << engine.planner().hits() << " hit(s), "
            << engine.planner().misses()
            << " miss(es) - a warm engine never re-derives a schedule it "
               "already knows.\n";
  return 0;
}
