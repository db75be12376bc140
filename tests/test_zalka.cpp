#include "zalka/zalka.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "grover/grover.h"
#include "qsim/kernels.h"
#include "qsim/run_control.h"
#include "reference_kernels.h"

namespace pqs::zalka {
namespace {

TEST(StateAngle, BasicGeometry) {
  const auto a = qsim::reference::basis_state(3, 0);
  const auto b = qsim::reference::basis_state(3, 5);
  const auto u = qsim::reference::uniform_state(3);
  EXPECT_NEAR(state_angle(a, a), 0.0, 1e-9);
  EXPECT_NEAR(state_angle(a, b), kHalfPi, 1e-12);
  EXPECT_NEAR(state_angle(a, u), std::acos(1.0 / std::sqrt(8.0)), 1e-12);
}

TEST(StateAngle, InsensitiveToGlobalPhase) {
  const auto a = qsim::reference::uniform_state(4);
  auto b = a;
  qsim::kernels::scale(b, qsim::Amplitude{-1.0, 0.0});
  EXPECT_NEAR(state_angle(a, b), 0.0, 1e-9);
}

/// Appendix-B quantities pinned to 1e-12. Tolerance-only checks of the
/// lemma inequalities would not notice a change in the analysis' kernel
/// sequence; these do.
struct Golden {
  std::vector<double> per_query_sums;
  double sum_final_angles;
  double min_success;
  double eps;
  double lemma2_worst_slack;
  double implied_query_floor;
};

void expect_golden(const ZalkaReport& r, const Golden& g) {
  constexpr double kTol = 1e-12;
  ASSERT_EQ(r.per_query_sums.size(), g.per_query_sums.size());
  for (std::size_t i = 0; i < g.per_query_sums.size(); ++i) {
    EXPECT_NEAR(r.per_query_sums[i], g.per_query_sums[i], kTol) << "i=" << i;
  }
  EXPECT_NEAR(r.sum_final_angles, g.sum_final_angles, kTol);
  EXPECT_NEAR(r.min_success, g.min_success, kTol);
  EXPECT_NEAR(r.eps, g.eps, kTol);
  EXPECT_NEAR(r.lemma2_worst_slack, g.lemma2_worst_slack, kTol);
  EXPECT_NEAR(r.implied_query_floor, g.implied_query_floor, kTol);
}

TEST(ZalkaGolden, GroverAtTheOptimumWithLemma2SampleEight) {
  const std::vector<std::pair<unsigned, Golden>> cases{
      {4u,
       {std::vector<double>(3, 4.0428840822732592), 24.257304493639545,
        0.9613189697265625, 0.0386810302734375, 0.0, 2.8538005286634758}},
      {6u,
       {std::vector<double>(6, 8.0209811947561871), 96.251774337074266,
        0.99658568078679899, 0.0034143192132010114, 0.0,
        5.9231861130507237}},
      {8u,
       {std::vector<double>(12, 16.010435019901735), 384.25044047764192,
        0.99994704210327379, 5.2957896726213427e-05,
        1.2462253451417382e-14, 11.96110320552971}},
  };
  for (const auto& [n, golden] : cases) {
    SCOPED_TRACE("n=" + std::to_string(n));
    ZalkaOptions options;
    options.lemma2_sample = 8;
    expect_golden(
        analyze_grover(n, grover::optimal_iterations(pow2(n)), options),
        golden);
  }
}

TEST(ZalkaGolden, NonGroverCircuit) {
  qsim::Circuit c(5);
  c.oracle().layer(qsim::gates::H()).oracle().layer(qsim::gates::H());
  expect_golden(analyze_circuit(c),
                {{5.6867392270435753, 1.5707962969925742}, 11.373478454087318,
                 0.023925781249999948, 0.97607421875,
                 5.9604644775390638e-08, 0.97481984734111926});
}

class ZalkaOnGrover : public ::testing::TestWithParam<unsigned> {};

TEST_P(ZalkaOnGrover, AllThreeLemmasHold) {
  const unsigned n = GetParam();
  const auto t = grover::optimal_iterations(pow2(n));
  ZalkaOptions options;
  options.lemma2_sample = 8;
  const auto report = analyze_grover(n, t, options);

  // Lemma 3: every per-query sum within the ceiling.
  EXPECT_LE(report.max_per_query_sum, report.lemma3_ceiling + 1e-9)
      << "n=" << n;
  // Lemma 1: the final-angle sum above the floor.
  EXPECT_GE(report.sum_final_angles, report.lemma1_floor - 1e-9) << "n=" << n;
  // Lemma 2: hybrid steps within 2 arcsin sqrt(p).
  EXPECT_TRUE(report.lemma2_holds) << "n=" << n
                                   << " slack=" << report.lemma2_worst_slack;
  // The chain: T >= sum / (2 sqrt(N)(1+1/N)).
  EXPECT_GE(static_cast<double>(report.queries) + 1e-9,
            report.implied_query_floor)
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZalkaOnGrover,
                         ::testing::Values(4u, 5u, 6u, 7u, 8u));

TEST(Zalka, GroverAtOptimumHasSmallEps) {
  const auto report = analyze_grover(8, grover::optimal_iterations(256));
  EXPECT_LT(report.eps, 0.02);
  EXPECT_GT(report.min_success, 0.98);
}

TEST(Zalka, ImpliedFloorIsNearlyTightForGrover) {
  // Grover IS optimal: the implied floor should recover a constant fraction
  // of the actual count (the bound loses the (1 - O(N^-1/4)) factor).
  const unsigned n = 8;
  const auto t = grover::optimal_iterations(pow2(n));
  const auto report = analyze_grover(n, t);
  EXPECT_GT(report.implied_query_floor,
            0.7 * static_cast<double>(report.queries));
}

TEST(Zalka, TooFewIterationsMeansLargeEps) {
  // Half the optimal count cannot be near-perfect; Theorem 3's floor then
  // degrades gracefully (sqrt(eps) term).
  const auto report = analyze_grover(8, grover::optimal_iterations(256) / 2);
  EXPECT_GT(report.eps, 0.2);
}

TEST(Zalka, PerQuerySumsAreSqrtNScale) {
  const unsigned n = 6;
  const auto report = analyze_grover(n, 5);
  const double sqrt_n = std::sqrt(64.0);
  for (const double s : report.per_query_sums) {
    EXPECT_GT(s, 0.9 * sqrt_n);
    EXPECT_LE(s, report.lemma3_ceiling + 1e-12);
  }
}

TEST(Zalka, IdentityOracleRunStaysUniform) {
  // For Grover specifically, the all-identity run fixes |psi0>, so
  // p_{i,y} = 1/N for every i and S_i = N arcsin(1/sqrt(N)).
  const unsigned n = 6;
  const auto report = analyze_grover(n, 4);
  const double expected = 64.0 * std::asin(1.0 / 8.0);
  for (const double s : report.per_query_sums) {
    EXPECT_NEAR(s, expected, 1e-9);
  }
}

TEST(Zalka, Theorem3FloorClosedForm) {
  const double floor_perfect = theorem3_floor(1 << 16, 0.0);
  EXPECT_NEAR(floor_perfect, kQuarterPi * 256.0 * (1.0 - 1.0 / 16.0), 1e-9);
  EXPECT_LT(theorem3_floor(1 << 16, 0.09), floor_perfect);
}

TEST(Zalka, AnalyzeRejectsQuerylessCircuit) {
  qsim::Circuit c(4);
  c.hadamard_all();
  EXPECT_THROW(analyze_circuit(c), CheckFailure);
}

TEST(Zalka, WorksOnNonGroverCircuits) {
  // A deliberately bad algorithm (oracle calls with no amplification) still
  // satisfies the lemmas; its eps is huge.
  qsim::Circuit c(5);
  c.oracle().layer(qsim::gates::H()).oracle().layer(qsim::gates::H());
  const auto report = analyze_circuit(c);
  EXPECT_LE(report.max_per_query_sum, report.lemma3_ceiling + 1e-9);
  EXPECT_GE(report.sum_final_angles, -1e-9);
  EXPECT_GT(report.eps, 0.5);
}

TEST(Zalka, BlockCircuitsRunOnAMatchingBlockStructure) {
  // Partial-search circuits carry block ops; the analysis sizes its
  // backends' blocks from them.
  qsim::Circuit c(6);
  c.grover_iteration().grover_iteration().partial_iteration(2);
  c.non_target_mean_reflection();
  ZalkaOptions options;
  options.lemma2_sample = 4;
  const auto report = analyze_circuit(c, options);
  EXPECT_EQ(report.queries, 4u);
  EXPECT_TRUE(report.lemma2_holds) << report.lemma2_worst_slack;
  EXPECT_LE(report.max_per_query_sum, report.lemma3_ceiling + 1e-9);
}

TEST(ZalkaControl, PreCancelledControlThrowsCancelledError) {
  qsim::RunControl control;
  control.cancel();
  ZalkaOptions options;
  options.lemma2_sample = 8;
  options.control = &control;
  EXPECT_THROW(analyze_grover(4, 3, options), qsim::CancelledError);
  EXPECT_EQ(control.work_done(), 0u);
}

TEST(ZalkaControl, CleanRunAdvancesProgressOncePerRun) {
  // 1 all-identity run + N per-oracle runs + T hybrids per sampled y.
  const unsigned n = 5;
  const std::uint64_t t = grover::optimal_iterations(pow2(n));
  const std::uint64_t runs = 1 + pow2(n) + 8 * t;
  qsim::RunControl control;
  ZalkaOptions options;
  options.lemma2_sample = 8;
  options.control = &control;
  analyze_grover(n, t, options);
  EXPECT_EQ(control.work_total(), runs);
  EXPECT_EQ(control.work_done(), runs);
  EXPECT_DOUBLE_EQ(control.progress(), 1.0);
}

}  // namespace
}  // namespace pqs::zalka
