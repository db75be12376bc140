// Experiment Z1: numerical verification of Appendix B (Theorem 3 and
// Lemmas 1-3) on actual Grover circuits.
//
// For each n we run the full hybrid-argument machinery on the simulator:
//   Lemma 1:  sum_y theta(phi_T, phi^y_T) >= N (pi/2)(1 - sqrt(eps) - N^-1/4)
//   Lemma 2:  theta(phi^{y,i-1}_T, phi^{y,i}_T) <= 2 arcsin sqrt(p_{T-i,y})
//   Lemma 3:  sum_y arcsin sqrt(p_{i,y}) <= sqrt(N)(1 + O(1/N))
// and the implied floor T >= sum_y theta / (2 sqrt(N)(1+1/N)) — which for
// Grover itself is nearly tight, reproducing "Grover is optimal".
#include <cmath>
#include <iostream>

#include "api/api.h"
#include "common/cli.h"
#include "common/math.h"
#include "common/table.h"
#include "common/timing.h"
#include "grover/grover.h"
#include "zalka/zalka.h"

int main(int argc, char** argv) {
  using namespace pqs;
  Cli cli(argc, argv);
  const auto max_n = static_cast<unsigned>(
      cli.get_int("max-qubits", 9, "largest n to analyze"));
  // --backend picks the engine of every circuit run (auto: symmetry); both
  // engines give the same report.
  api::SpecFlagSet spec_flags;
  spec_flags.algo = false;
  spec_flags.problem = false;
  SearchSpec spec = api::parse_search_spec(cli, spec_flags, "zalka");
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();

  Stopwatch timer;
  std::cout << "Z1 - Appendix B (Zalka's bound revisited) verified on the "
               "simulator\n\n";

  Table table({"n", "T", "eps", "sum theta_y", "Lemma-1 floor",
               "max S_i", "Lemma-3 ceiling", "Lemma 2", "implied T floor",
               "T/floor"});
  for (unsigned n = 4; n <= max_n; ++n) {
    const auto t = grover::optimal_iterations(pow2(n));
    zalka::ZalkaOptions options;
    options.backend = spec.backend;
    options.lemma2_sample = 8;
    const auto report = zalka::analyze_grover(n, t, options);
    table.add_row(
        {Table::num(std::uint64_t{n}), Table::num(report.queries),
         Table::num(report.eps, 4), Table::num(report.sum_final_angles, 1),
         Table::num(report.lemma1_floor, 1),
         Table::num(report.max_per_query_sum, 4),
         Table::num(report.lemma3_ceiling, 4),
         report.lemma2_holds ? "holds" : "VIOLATED",
         Table::num(report.implied_query_floor, 2),
         Table::num(static_cast<double>(report.queries) /
                        report.implied_query_floor,
                    3)});
  }
  std::cout << table.render();

  Table floors({"N", "Theorem-3 floor, eps=0", "Theorem-3 floor, eps=N^-1/4",
                "(pi/4)sqrt(N)"});
  floors.set_title("\nTheorem-3 closed-form floors (unit constants): the "
                   "small-error refinement the partial-search lower bound "
                   "needs");
  for (unsigned n = 8; n <= 24; n += 4) {
    const std::uint64_t n_items = pow2(n);
    const double nd = static_cast<double>(n_items);
    floors.add_row({Table::num(n_items),
                    Table::num(zalka::theorem3_floor(n_items, 0.0), 1),
                    Table::num(zalka::theorem3_floor(
                                   n_items, std::pow(nd, -0.25)),
                               1),
                    Table::num(kQuarterPi * std::sqrt(nd), 1)});
  }
  std::cout << floors.render();

  // The facade view of the same analysis: one "zalka" request.
  Engine facade;
  spec.n_items = pow2(6);
  spec.n_blocks = 1;
  spec.marked = {3};
  const auto report = facade.run(spec);
  std::cout << "\nfacade (--algo zalka, n = 6): " << report.detail << "\n";
  std::cout << "elapsed: " << timer.human() << "\n";
  return 0;
}
