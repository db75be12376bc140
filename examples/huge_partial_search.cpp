// Partial search far beyond dense-simulation reach, as ONE declarative
// request: the engine plans the schedule (the plan cache switches to the
// paper's asymptotic geometry at huge N, so planning stays instant), runs
// the O(K)-per-step symmetry engine, and fans the measurement shots across
// OpenMP threads. A second identical request shows the cache at work.
//
//   ./build/examples/huge_partial_search --qubits 60 --kbits 3 \
//       --shots 1000 --backend symmetry
#include <cmath>
#include <iostream>

#include "api/api.h"
#include "common/cli.h"
#include "common/math.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace pqs;
  Cli cli(argc, argv);
  api::SpecFlagSet flags;
  flags.algo = false;
  flags.shots = true;
  flags.shots_default = 1000;
  SearchSpec spec = api::parse_search_spec(
      cli, flags, "grk", /*default_qubits=*/48, /*default_kbits=*/3,
      /*default_target=*/pow2(48) / 3 + 5);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();

  std::cout << "partial search over N = " << spec.n_items << " items, K = "
            << spec.n_blocks << " blocks\n";

  Engine engine;
  const auto report = engine.run(spec);
  std::cout << "schedule: l1 = " << report.l1 << " global + l2 = "
            << report.l2 << " local iterations + 1 (Step 3), planned in "
            << Table::num(static_cast<double>(report.plan_ns) * 1e-9, 6) << " s\n"
            << "engine: " << qsim::to_string(report.backend_used.value())
            << ", evolved + " << report.trials << " shots in "
            << Table::num(static_cast<double>(report.exec_ns) * 1e-9, 6) << " s\n"
            << "measured mode: block " << report.measured
            << (report.correct ? " (the target block)" : " (UNEXPECTED)")
            << "\n"
            << "success probability "
            << Table::num(report.success_probability, 12) << "; queries "
            << report.queries_per_trial << " vs full Grover's ~"
            << Table::num(kQuarterPi *
                              std::sqrt(static_cast<double>(spec.n_items)),
                          0)
            << "\n\n";

  // The same request again: the engine plans in ~0 time off the cache.
  const auto again = engine.run(spec);
  std::cout << "same request again: plan "
            << (again.plan_cache_hit ? "served from cache" : "recomputed")
            << " (" << Table::num(static_cast<double>(again.plan_ns) * 1e-9, 6)
            << " s planning, "
            << Table::num(static_cast<double>(again.exec_ns) * 1e-9, 6)
            << " s run)\n";
  return 0;
}
