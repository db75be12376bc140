// Noise-robustness demo: how does the partial-search advantage survive an
// imperfect oracle? We sweep the depolarizing rate — each point is one
// "noisy" request against the engine (the plan cache derives the schedule
// once and serves every later point) — and watch both answers decay: the
// partial searcher, running ~25% fewer queries, decays slower.
//
//   ./build/examples/noisy_search --qubits 9
//   ./build/examples/noisy_search --qubits 32 --backend symmetry
#include <iostream>
#include <vector>

#include "api/api.h"
#include "common/cli.h"
#include "common/table.h"
#include "oracle/database.h"
#include "partial/noisy.h"

int main(int argc, char** argv) {
  using namespace pqs;
  Cli cli(argc, argv);
  api::SpecFlagSet flags;
  flags.algo = false;
  flags.noise = true;
  flags.noise_default = "depolarizing";
  flags.seed_default = 99;
  SearchSpec spec = api::parse_search_spec(cli, flags, "noisy",
                                           /*default_qubits=*/9,
                                           /*default_kbits=*/2,
                                           /*default_target=*/100);
  // The historical flag name for the trajectory count (--shots stays
  // undeclared here so the two knobs cannot silently shadow each other).
  const auto trials = static_cast<std::uint64_t>(
      cli.get_int("trials", 120, "trajectories per point"));
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();
  spec.shots = trials;

  Engine engine;
  std::cout << "which quarter holds the target, when every oracle call "
               "leaks noise? (N = " << spec.n_items << ")\n\n";

  std::vector<double> rates{0.0, 0.005, 0.02, 0.08};
  if (spec.noise.probability > 0.0) {
    rates = {0.0, spec.noise.probability};  // --noise-p replaces the sweep
  } else if (spec.noise.kind == qsim::NoiseKind::kNone) {
    rates = {0.0};  // clean baseline only: no channel means no noisy rows
  }

  Table table({"error rate", "partial search", "full search (same question)",
               "plan"});
  for (const double p : rates) {
    spec.noise.probability = p;
    const auto part = engine.run(spec);

    // The comparison row — full Grover answering the same block question —
    // comes from the documented low-level driver.
    const oracle::Database db(spec.n_items, spec.target());
    Rng rng(spec.seed);
    const partial::NoisyOptions options{.backend = spec.backend};
    const auto full = partial::run_noisy_full_search_block(
        db, 2, spec.noise, trials, rng, options);

    table.add_row({Table::num(p, 3),
                   Table::num(part.success_probability, 2) + " @ " +
                       Table::num(part.queries_per_trial) + " queries",
                   Table::num(full.success_rate, 2) + " @ " +
                       Table::num(full.queries_per_trial) + " queries",
                   part.plan_cache_hit ? "cached" : "computed"});
  }
  std::cout << table.render();
  std::cout << "\nfewer queries = fewer chances for the environment to "
               "corrupt the register: partial search is not just faster, "
               "it is more robust per answer.\n";
  return 0;
}
