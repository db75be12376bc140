#include <gtest/gtest.h>

#include <tuple>

#include "common/check.h"
#include "common/math.h"
#include "common/random.h"
#include "qsim/kernels.h"
#include "qsim/soa.h"
#include "reference_kernels.h"

namespace pqs::qsim {
namespace {

using reference::linf_distance;
using reference::random_state;

class GlobalDiffusionEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(GlobalDiffusionEquivalence, GateLevelEqualsKernel) {
  const unsigned n = GetParam();
  Rng rng(1000 + n);
  auto kernel_state = random_state(n, rng);
  auto gate_state = kernel_state;

  kernels::reflect_about_uniform(kernel_state);
  reference::apply_global_diffusion_gate_level(gate_state);
  EXPECT_LT(linf_distance(kernel_state, gate_state), 1e-12) << "n=" << n;
}

TEST_P(GlobalDiffusionEquivalence, DenseMatrixAgrees) {
  const unsigned n = GetParam();
  if (n > 10) {
    GTEST_SKIP() << "dense matrix too large";
  }
  Rng rng(2000 + n);
  auto kernel_state = random_state(n, rng);
  auto dense_state = kernel_state;

  kernels::reflect_about_uniform(kernel_state);
  reference::apply_dense_matrix(dense_state,
                                reference::global_diffusion_matrix(n));
  EXPECT_LT(linf_distance(kernel_state, dense_state), 1e-11) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, GlobalDiffusionEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 8u, 10u,
                                           12u));

class BlockDiffusionEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(BlockDiffusionEquivalence, GateLevelEqualsKernel) {
  const auto [n, k] = GetParam();
  Rng rng(3000 + 16 * n + k);
  auto kernel_state = random_state(n, rng);
  auto gate_state = kernel_state;

  kernels::reflect_blocks_about_uniform(kernel_state, pow2(n - k));
  reference::apply_block_diffusion_gate_level(gate_state, k);
  EXPECT_LT(linf_distance(kernel_state, gate_state), 1e-12)
      << "n=" << n << " k=" << k;
}

TEST_P(BlockDiffusionEquivalence, DenseMatrixAgrees) {
  const auto [n, k] = GetParam();
  if (n > 10) {
    GTEST_SKIP() << "dense matrix too large";
  }
  Rng rng(4000 + 16 * n + k);
  auto kernel_state = random_state(n, rng);
  auto dense_state = kernel_state;

  kernels::reflect_blocks_about_uniform(kernel_state, pow2(n - k));
  reference::apply_dense_matrix(dense_state,
                                reference::block_diffusion_matrix(n, k));
  EXPECT_LT(linf_distance(kernel_state, dense_state), 1e-11)
      << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BlockDiffusionEquivalence,
    ::testing::Values(std::tuple{2u, 1u}, std::tuple{3u, 1u},
                      std::tuple{3u, 2u}, std::tuple{4u, 1u},
                      std::tuple{4u, 2u}, std::tuple{4u, 3u},
                      std::tuple{6u, 2u}, std::tuple{8u, 3u},
                      std::tuple{10u, 5u}, std::tuple{12u, 4u}));

TEST(DiffusionMatrix, GlobalMatrixRowsSumCorrectly) {
  // Row sums of 2|psi0><psi0| - I are all 2 - 1 = ... each row sums to
  // 2/N * N - 1 = 1.
  const auto m = reference::global_diffusion_matrix(3);
  for (std::size_t r = 0; r < 8; ++r) {
    Amplitude sum{0.0, 0.0};
    for (std::size_t c = 0; c < 8; ++c) {
      sum += m[r * 8 + c];
    }
    EXPECT_LT(std::abs(sum - Amplitude{1.0, 0.0}), 1e-12);
  }
}

TEST(DiffusionMatrix, BlockMatrixIsBlockDiagonal) {
  // 16x16, blocks of 4.
  const auto m = reference::block_diffusion_matrix(4, 2);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      if (r / 4 != c / 4) {
        EXPECT_LT(std::abs(m[r * 16 + c]), 1e-15);
      }
    }
  }
}

TEST(DiffusionMatrix, RejectsOversizedRequests) {
  EXPECT_THROW(reference::global_diffusion_matrix(13), CheckFailure);
}

TEST(Diffusion, GateLevelBlockRejectsBadK) {
  auto sv = reference::uniform_state(4);
  EXPECT_THROW(reference::apply_block_diffusion_gate_level(sv, 0),
               CheckFailure);
  EXPECT_THROW(reference::apply_block_diffusion_gate_level(sv, 4),
               CheckFailure);
}

}  // namespace
}  // namespace pqs::qsim
