#include "partial/multi.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/check.h"
#include "common/math.h"
#include "partial/optimizer.h"
#include "qsim/backend.h"
#include "qsim/kernels.h"

namespace pqs::partial {
namespace {

std::vector<qsim::Index> cluster(unsigned n, unsigned k, qsim::Index block,
                                 std::uint64_t m) {
  std::vector<qsim::Index> marked;
  const qsim::Index base = block << (n - k);
  for (std::uint64_t i = 0; i < m; ++i) {
    marked.push_back(base + 2 * i + 1);
  }
  return marked;
}

TEST(CommonBlock, AcceptsClusteredRejectsSpread) {
  const oracle::MarkedDatabase good(256, cluster(8, 2, 1, 3));
  EXPECT_EQ(common_block(good, 2), 1u);
  const oracle::MarkedDatabase bad(256, {3, 200});
  EXPECT_THROW(common_block(bad, 2), CheckFailure);
  const oracle::MarkedDatabase empty(256, {});
  EXPECT_THROW(common_block(empty, 2), CheckFailure);
}

TEST(MultiModel, ReducesToPaperModelAtMEqualsOne) {
  const SubspaceModel m1(1 << 12, 8);
  const SubspaceModel m1b(1 << 12, 8, 1);
  const auto a = m1.run_grk(30, 10);
  const auto b = m1b.run_grk(30, 10);
  EXPECT_LT(std::abs(a.a_t - b.a_t), 1e-15);
  EXPECT_LT(std::abs(a.a_o - b.a_o), 1e-15);
}

TEST(MultiModel, GroverAngleScalesWithSqrtM) {
  // One global iteration advances a_t by ~2 sqrt(M/N): check the start.
  const std::uint64_t n_items = 1 << 16;
  for (const std::uint64_t m : {1u, 4u, 16u}) {
    const SubspaceModel model(n_items, 4, m);
    const auto s = model.uniform_start();
    EXPECT_NEAR(std::abs(s.a_t),
                std::sqrt(static_cast<double>(m) /
                          static_cast<double>(n_items)),
                1e-12)
        << "M=" << m;
  }
}

TEST(MultiModel, RejectsOverfullBlock) {
  EXPECT_THROW(SubspaceModel(64, 4, 16), CheckFailure);  // M = N/K
  EXPECT_NO_THROW(SubspaceModel(64, 4, 15));
}

class MultiShape
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, unsigned>> {
};

TEST_P(MultiShape, DenseMatchesGeneralizedModel) {
  const auto [n, k, m] = GetParam();
  const auto marked = cluster(n, k, 1, m);
  const oracle::MarkedDatabase db(pow2(n), marked);
  const SubspaceModel model(pow2(n), pow2(k), m);

  const std::uint64_t l1 = 5, l2 = 3;
  const auto state = qsim::make_backend(
      qsim::BackendKind::kDense,
      qsim::BackendSpec{db.size(), pow2(k), db.marked()});
  auto s = model.uniform_start();
  for (std::uint64_t i = 0; i < l1; ++i) {
    state->apply_oracle();
    state->apply_global_diffusion();
    s = model.apply_global(s);
  }
  for (std::uint64_t i = 0; i < l2; ++i) {
    state->apply_oracle();
    state->apply_block_diffusion();
    s = model.apply_local(s);
  }
  state->apply_step3();
  s = model.apply_step3(s);

  // Compare class amplitudes: a marked state, an unmarked target-block
  // state, a non-target state.
  const auto amps = state->amplitudes_copy();
  const double sqrt_m = std::sqrt(static_cast<double>(m));
  ASSERT_LT(std::abs(amps[marked[0]] - s.a_t / sqrt_m), 1e-10);
  const qsim::Index in_block_unmarked = (1u << (n - k));  // base + 0, even
  ASSERT_LT(std::abs(amps[in_block_unmarked] -
                     s.a_b / model.weight_target_rest()),
            1e-10);
  ASSERT_LT(std::abs(amps[0] - s.a_o / model.weight_non_target()), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MultiShape,
                         ::testing::Values(std::tuple{6u, 1u, 2u},
                                           std::tuple{8u, 2u, 3u},
                                           std::tuple{8u, 2u, 8u},
                                           std::tuple{10u, 3u, 5u},
                                           std::tuple{12u, 2u, 16u}));

TEST(MultiSearch, FindsTheClusterBlock) {
  Rng rng(7);
  const oracle::MarkedDatabase db(1 << 10, cluster(10, 2, 3, 4));
  const auto result = run_partial_search_multi(db, 2, rng);
  EXPECT_GE(result.block_probability, default_min_success(1 << 10));
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.queries, result.l1 + result.l2 + 1);
  EXPECT_EQ(db.queries(), result.queries);
}

TEST(MultiSearch, MoreMarksMeanFewerQueries) {
  Rng rng(8);
  std::uint64_t prev = ~std::uint64_t{0};
  for (const std::uint64_t m : {1u, 4u, 16u, 64u}) {
    const oracle::MarkedDatabase db(1 << 12, cluster(12, 2, 2, m));
    const auto result = run_partial_search_multi(db, 2, rng);
    EXPECT_LE(result.queries, prev) << "M=" << m;
    prev = result.queries;
  }
  // The sqrt(M) speedup: M = 64 should cost roughly 1/8 of M = 1.
  const oracle::MarkedDatabase one(1 << 12, cluster(12, 2, 2, 1));
  const auto single = run_partial_search_multi(one, 2, rng);
  EXPECT_LT(prev, single.queries / 4);
}

TEST(MultiSearch, ExplicitCountsHonored) {
  Rng rng(9);
  const oracle::MarkedDatabase db(1 << 8, cluster(8, 1, 1, 2));
  MultiGrkOptions options;
  options.l1 = 4;
  options.l2 = 2;
  const auto result = run_partial_search_multi(db, 1, rng, options);
  EXPECT_EQ(result.queries, 7u);
}

TEST(MultiKernel, UnmarkedMeanReflectionProperties) {
  // Marked amplitudes survive; unmarked follow a' = 2 mean - a; norm kept.
  const std::vector<qsim::Amplitude> amps{{0.5, 0.0}, {0.1, 0.0}, {-0.3, 0.0},
                                          {0.2, 0.0}, {0.4, 0.0}, {0.1, 0.0},
                                          {0.6, 0.0}, {0.2, 0.0}};
  qsim::SoaVector v = qsim::SoaVector::from_amplitudes(amps);
  const double norm_before = qsim::kernels::norm_squared(v);
  const std::vector<qsim::Index> marked{1, 6};
  const qsim::Amplitude mean =
      (amps[0] + amps[2] + amps[3] + amps[4] + amps[5] + amps[7]) / 6.0;
  auto expected = amps;
  for (const std::size_t i : {0u, 2u, 3u, 4u, 5u, 7u}) {
    expected[i] = 2.0 * mean - amps[i];
  }
  qsim::kernels::reflect_unmarked_about_their_mean(v, marked);
  for (std::size_t i = 0; i < amps.size(); ++i) {
    ASSERT_LT(std::abs(v.get(i) - expected[i]), 1e-14) << i;
  }
  EXPECT_NEAR(qsim::kernels::norm_squared(v), norm_before, 1e-12);
}

TEST(MultiKernel, MatchesSingleTargetSpecialCase) {
  const std::vector<qsim::Amplitude> amps{{0.3, 0.1}, {0.2, 0.0}, {-0.4, 0.2},
                                          {0.1, 0.0}};
  qsim::SoaVector a = qsim::SoaVector::from_amplitudes(amps);
  qsim::SoaVector b = a;
  qsim::kernels::reflect_non_target_about_their_mean(a, 2);
  const std::vector<qsim::Index> marked{2};
  qsim::kernels::reflect_unmarked_about_their_mean(b, marked);
  for (std::size_t i = 0; i < amps.size(); ++i) {
    ASSERT_LT(std::abs(a.get(i) - b.get(i)), 1e-14);
  }
}

TEST(MultiKernel, ValidatesInput) {
  qsim::SoaVector v(4);
  v.fill({0.5, 0.0});
  const std::vector<qsim::Index> unsorted{2, 1};
  EXPECT_THROW(qsim::kernels::reflect_unmarked_about_their_mean(v, unsorted),
               CheckFailure);
  const std::vector<qsim::Index> too_many{0, 1, 2};
  EXPECT_THROW(qsim::kernels::reflect_unmarked_about_their_mean(v, too_many),
               CheckFailure);
}

}  // namespace
}  // namespace pqs::partial
