#include "partial/analytic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/check.h"
#include "common/math.h"

namespace pqs::partial {
namespace {

double norm_squared(const SubspaceState& s) {
  return std::norm(s.a_t) + std::norm(s.a_b) + std::norm(s.a_o);
}

TEST(SubspaceModel, StartStateIsNormalizedUniform) {
  const SubspaceModel model(1 << 12, 8);
  const auto s = model.uniform_start();
  EXPECT_NEAR(norm_squared(s), 1.0, 1e-14);
  // Per-state amplitude must be 1/sqrt(N) in every class.
  const double expect = 1.0 / std::sqrt(4096.0);
  EXPECT_NEAR(s.a_t.real(), expect, 1e-15);
  EXPECT_NEAR(model.per_state_target_rest(s).real(), expect, 1e-14);
  EXPECT_NEAR(s.a_o.real() / model.weight_non_target(), expect, 1e-14);
}

class SubspaceUnitarity
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {
};

TEST_P(SubspaceUnitarity, AllOperatorsPreserveNorm) {
  const auto [n_items, k_blocks] = GetParam();
  const SubspaceModel model(n_items, k_blocks);
  SubspaceState s = model.uniform_start();
  for (int i = 0; i < 50; ++i) {
    s = model.apply_global(s);
    ASSERT_NEAR(norm_squared(s), 1.0, 1e-12);
  }
  for (int i = 0; i < 30; ++i) {
    s = model.apply_local(s);
    ASSERT_NEAR(norm_squared(s), 1.0, 1e-12);
  }
  s = model.apply_local_generalized(s, 0.7, 1.9);
  ASSERT_NEAR(norm_squared(s), 1.0, 1e-12);
  s = model.apply_step3(s);
  ASSERT_NEAR(norm_squared(s), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SubspaceUnitarity,
    ::testing::Values(std::tuple{std::uint64_t{16}, std::uint64_t{2}},
                      std::tuple{std::uint64_t{64}, std::uint64_t{4}},
                      std::tuple{std::uint64_t{4096}, std::uint64_t{8}},
                      std::tuple{std::uint64_t{12}, std::uint64_t{3}},
                      std::tuple{std::uint64_t{1} << 30, std::uint64_t{32}},
                      std::tuple{std::uint64_t{1} << 50, std::uint64_t{16}}));

TEST(SubspaceModel, GlobalIterationMatchesGroverClosedForm) {
  // After l1 iterations, a_t = sin((2 l1 + 1) theta).
  const std::uint64_t n_items = 1 << 16;
  const SubspaceModel model(n_items, 4);
  const double theta = grover_angle(n_items);
  SubspaceState s = model.uniform_start();
  for (std::uint64_t l1 = 0; l1 <= 120; ++l1) {
    const double expected =
        std::sin((2.0 * static_cast<double>(l1) + 1.0) * theta);
    ASSERT_NEAR(s.a_t.real(), expected, 1e-10) << "l1=" << l1;
    s = model.apply_global(s);
  }
}

TEST(SubspaceModel, Step1AmplitudesMatchPaperEquations1And2) {
  // Paper eq. (1): alpha_y ~ sin(theta)/sqrt(K) for non-target blocks.
  // Paper eq. (2): alpha_yt ~ sqrt(1 - (K-1)/K sin^2(theta)).
  const std::uint64_t n_items = std::uint64_t{1} << 20;
  const std::uint64_t k_blocks = 16;
  const SubspaceModel model(n_items, k_blocks);
  const double eps = 0.35;
  const auto l1 = static_cast<std::uint64_t>(
      kQuarterPi * (1.0 - eps) * std::sqrt(static_cast<double>(n_items)));

  SubspaceState s = model.uniform_start();
  for (std::uint64_t i = 0; i < l1; ++i) {
    s = model.apply_global(s);
  }
  // Residual angle theta: cos(theta) = a_t.
  const double theta = clamped_acos(s.a_t.real());
  const auto kd = static_cast<double>(k_blocks);

  // Block mass of a non-target block: (N/K) * per_state^2 = sin^2/K.
  // The paper states eq. (1)/(2) with "~" (agreement up to O(1/sqrt(N))
  // terms); at N = 2^20 the exact model matches them to ~1e-6.
  const double per_state = s.a_o.real() / model.weight_non_target();
  const double block_mass =
      per_state * per_state * static_cast<double>(model.block_size());
  EXPECT_NEAR(block_mass, std::sin(theta) * std::sin(theta) / kd, 1e-5);

  // Target-block amplitude alpha_yt.
  const double alpha_yt = std::sqrt(s.target_block_probability());
  EXPECT_NEAR(alpha_yt,
              std::sqrt(1.0 - (kd - 1.0) / kd * std::sin(theta) *
                                  std::sin(theta)),
              1e-5);
}

TEST(SubspaceModel, LocalIterationFixesNonTargetBlocks) {
  const SubspaceModel model(1 << 14, 8);
  SubspaceState s = model.uniform_start();
  for (int i = 0; i < 37; ++i) {
    s = model.apply_global(s);
  }
  const auto a_o_before = s.a_o;
  for (int i = 0; i < 20; ++i) {
    s = model.apply_local(s);
    ASSERT_LT(std::abs(s.a_o - a_o_before), 1e-12) << "iteration " << i;
  }
}

TEST(SubspaceModel, LocalGeneralizedAtPiEqualsMinusLocal) {
  const SubspaceModel model(1024, 4);
  SubspaceState s = model.uniform_start();
  for (int i = 0; i < 10; ++i) {
    s = model.apply_global(s);
  }
  const auto plain = model.apply_local(s);
  const auto general = model.apply_local_generalized(s, kPi, kPi);
  EXPECT_LT(std::abs(general.a_t + plain.a_t), 1e-12);
  EXPECT_LT(std::abs(general.a_b + plain.a_b), 1e-12);
  EXPECT_LT(std::abs(general.a_o + plain.a_o), 1e-12);
}

TEST(SubspaceModel, LocalGeneralizedAtZeroIsOracleOnly) {
  const SubspaceModel model(256, 4);
  SubspaceState s = model.uniform_start();
  const auto out = model.apply_local_generalized(s, 0.4, 0.0);
  EXPECT_LT(std::abs(out.a_t - std::polar(1.0, 0.4) * s.a_t), 1e-14);
  EXPECT_LT(std::abs(out.a_b - s.a_b), 1e-14);
  EXPECT_LT(std::abs(out.a_o - s.a_o), 1e-14);
}

TEST(SubspaceModel, Step3LeavesTargetAlone) {
  const SubspaceModel model(1 << 10, 4);
  SubspaceState s = model.uniform_start();
  for (int i = 0; i < 20; ++i) {
    s = model.apply_global(s);
  }
  const auto before = s.a_t;
  s = model.apply_step3(s);
  EXPECT_LT(std::abs(s.a_t - before), 1e-14);
}

TEST(SubspaceModel, Step3ZeroCondition) {
  // If a_b = lambda a_o with lambda = (N-1-2 w_o^2)/(2 w_b w_o), Step 3 must
  // send a_o to exactly zero. Construct such a state by hand.
  const std::uint64_t n_items = 4096;
  const std::uint64_t k_blocks = 8;
  const SubspaceModel model(n_items, k_blocks);
  const double w_b = model.weight_target_rest();
  const double w_o = model.weight_non_target();
  const double lambda =
      (static_cast<double>(n_items) - 1.0 - 2.0 * w_o * w_o) /
      (2.0 * w_b * w_o);
  SubspaceState s;
  s.a_o = 0.3;
  s.a_b = lambda * 0.3;
  s.a_t = std::sqrt(1.0 - std::norm(s.a_b) - std::norm(s.a_o));
  const auto after = model.apply_step3(s);
  EXPECT_LT(std::abs(after.a_o), 1e-12);
  EXPECT_NEAR(after.target_block_probability(), 1.0, 1e-12);
}

TEST(SubspaceModel, Step3ResidualReportsLeakage) {
  const SubspaceModel model(1024, 4);
  SubspaceState s = model.uniform_start();
  EXPECT_GT(model.step3_residual(s), 0.0);
}

TEST(SubspaceModel, RunGrkMatchesManualSteps) {
  const SubspaceModel model(1 << 12, 4);
  const auto combined = model.run_grk(30, 12);
  SubspaceState s = model.uniform_start();
  for (int i = 0; i < 30; ++i) {
    s = model.apply_global(s);
  }
  for (int i = 0; i < 12; ++i) {
    s = model.apply_local(s);
  }
  s = model.apply_step3(s);
  EXPECT_LT(std::abs(combined.a_t - s.a_t), 1e-13);
  EXPECT_LT(std::abs(combined.a_b - s.a_b), 1e-13);
  EXPECT_LT(std::abs(combined.a_o - s.a_o), 1e-13);
}

TEST(SubspaceModel, TargetBlockAngleAdvancesDuringStep2) {
  // Figure 4: each local iteration advances the in-block angle by
  // 2 arcsin(1/sqrt(N/K)).
  const SubspaceModel model(1 << 16, 4);
  SubspaceState s = model.uniform_start();
  for (int i = 0; i < 150; ++i) {
    s = model.apply_global(s);
  }
  const double step =
      2.0 * std::asin(1.0 / std::sqrt(static_cast<double>(model.block_size())));
  // The angle of (a_t, a_b) from the e_b axis.
  const auto angle = [](const SubspaceState& state) {
    return std::atan2(std::abs(state.a_t), state.a_b.real());
  };
  double prev = angle(s);
  for (int i = 0; i < 5; ++i) {
    s = model.apply_local(s);
    const double cur = angle(s);
    ASSERT_NEAR(std::fabs(cur - prev), step, 1e-6);
    prev = cur;
  }
}

TEST(SubspaceModel, ConstructorValidatesShape) {
  EXPECT_THROW(SubspaceModel(16, 1), CheckFailure);   // one block
  EXPECT_THROW(SubspaceModel(15, 4), CheckFailure);   // uneven
  EXPECT_THROW(SubspaceModel(8, 8), CheckFailure);    // block size 1
}

}  // namespace
}  // namespace pqs::partial
