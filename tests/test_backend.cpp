// Property tests for the pluggable simulation backends: the O(K)
// SymmetryBackend must agree with the O(N) DenseBackend to machine
// precision on every operator and observable, across randomized shapes,
// the paper's N = 12 / K = 3 instance, and huge-N runs cross-checked
// against the analytic subspace model.
#include "qsim/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "common/math.h"
#include "common/timing.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "partial/analytic.h"
#include "partial/grk.h"
#include "partial/interleave.h"
#include "partial/multi.h"
#include "partial/optimizer.h"

namespace pqs::qsim {
namespace {

double linf(const std::vector<Amplitude>& a, const std::vector<Amplitude>& b) {
  EXPECT_EQ(a.size(), b.size());
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

void expect_backends_agree(const Backend& dense, const Backend& symmetry,
                           double tol = 1e-10) {
  EXPECT_NEAR(dense.norm_squared(), symmetry.norm_squared(), tol);
  EXPECT_NEAR(dense.marked_probability(), symmetry.marked_probability(), tol);
  const auto dist_dense = dense.block_distribution();
  const auto dist_sym = symmetry.block_distribution();
  ASSERT_EQ(dist_dense.size(), dist_sym.size());
  for (std::size_t b = 0; b < dist_dense.size(); ++b) {
    EXPECT_NEAR(dist_dense[b], dist_sym[b], tol) << "block " << b;
  }
  EXPECT_LT(linf(dense.amplitudes_copy(), symmetry.amplitudes_copy()), tol);
}

TEST(BackendKindTest, ParsesAndRenders) {
  EXPECT_EQ(parse_backend_kind("auto"), BackendKind::kAuto);
  EXPECT_EQ(parse_backend_kind("dense"), BackendKind::kDense);
  EXPECT_EQ(parse_backend_kind("symmetry"), BackendKind::kSymmetry);
  EXPECT_EQ(to_string(BackendKind::kSymmetry), "symmetry");
  EXPECT_THROW(parse_backend_kind("gpu"), CheckFailure);
}

TEST(BackendKindTest, AutoPicksDenseWhenItFitsAndSymmetryBeyond) {
  const auto small = BackendSpec::single_target(1u << 10, 4, 7);
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, small), BackendKind::kDense);
  const auto huge =
      BackendSpec::single_target(std::uint64_t{1} << 48, 8, 12345);
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, huge),
            BackendKind::kSymmetry);
  EXPECT_THROW(resolve_backend(BackendKind::kDense, huge), CheckFailure);
}

TEST(BackendKindTest, SymmetryRejectsMarkedSetsSpanningBlocks) {
  // Two marked items in different blocks leave the 3-class symmetry.
  const BackendSpec spread{16, 4, {1, 9}};
  EXPECT_FALSE(symmetry_supports(spread));
  EXPECT_THROW(make_backend(BackendKind::kSymmetry, spread), CheckFailure);
  // Same two items under K = 2 share a block: supported.
  const BackendSpec clustered{16, 2, {1, 5}};
  EXPECT_TRUE(symmetry_supports(clustered));
  EXPECT_NO_THROW(make_backend(BackendKind::kSymmetry, clustered));
}

/// Randomized GRK evolutions: both engines, identical observables.
TEST(BackendAgreement, RandomizedGrkShapes) {
  Rng rng(20050612);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<unsigned>(rng.uniform_int(3, 11));
    const auto k = static_cast<unsigned>(rng.uniform_int(1, n - 1));
    const std::uint64_t n_items = pow2(n);
    const Index target = rng.uniform_below(n_items);
    const auto l1 = static_cast<std::uint64_t>(rng.uniform_int(0, 24));
    const auto l2 = static_cast<std::uint64_t>(rng.uniform_int(0, 24));
    const auto spec = BackendSpec::single_target(n_items, pow2(k), target);

    auto dense = make_backend(BackendKind::kDense, spec);
    auto symmetry = make_backend(BackendKind::kSymmetry, spec);
    for (auto* b : {dense.get(), symmetry.get()}) {
      for (std::uint64_t i = 0; i < l1; ++i) {
        b->apply_oracle();
        b->apply_global_diffusion();
      }
      for (std::uint64_t i = 0; i < l2; ++i) {
        b->apply_oracle();
        b->apply_block_diffusion();
      }
      b->apply_step3();
    }
    expect_backends_agree(*dense, *symmetry);
  }
}

/// Randomized generalized-phase sequences (the sure-success operator set).
TEST(BackendAgreement, RandomizedGeneralizedSequences) {
  Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<unsigned>(rng.uniform_int(3, 9));
    const auto k = static_cast<unsigned>(rng.uniform_int(1, n - 1));
    const auto spec = BackendSpec::single_target(
        pow2(n), pow2(k), rng.uniform_below(pow2(n)));
    auto dense = make_backend(BackendKind::kDense, spec);
    auto symmetry = make_backend(BackendKind::kSymmetry, spec);
    for (int step = 0; step < 12; ++step) {
      const auto op = rng.uniform_int(0, 5);
      const double phi = rng.uniform(-kPi, kPi);
      for (auto* b : {dense.get(), symmetry.get()}) {
        switch (op) {
          case 0: b->apply_oracle(); break;
          case 1: b->apply_oracle_phase(phi); break;
          case 2: b->apply_global_rotation(phi); break;
          case 3: b->apply_block_rotation(phi); break;
          case 4: b->apply_step3(); break;
          case 5: b->apply_global_phase(std::polar(1.0, phi)); break;
        }
      }
    }
    expect_backends_agree(*dense, *symmetry);
  }
}

/// Multi-marked clustered sets keep the symmetry exact.
TEST(BackendAgreement, RandomizedMultiMarked) {
  Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    const auto n = static_cast<unsigned>(rng.uniform_int(4, 10));
    const auto k = static_cast<unsigned>(rng.uniform_int(1, n - 1));
    const std::uint64_t n_items = pow2(n);
    const std::uint64_t block_size = n_items >> k;
    const Index block = rng.uniform_below(pow2(k));
    const auto m =
        static_cast<std::uint64_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(std::min<std::uint64_t>(
                   block_size, 5))));
    std::vector<Index> marked;
    while (marked.size() < m) {
      const Index cand = block * block_size + rng.uniform_below(block_size);
      if (std::find(marked.begin(), marked.end(), cand) == marked.end()) {
        marked.push_back(cand);
      }
    }
    std::sort(marked.begin(), marked.end());
    const BackendSpec spec{n_items, pow2(k), marked};

    auto dense = make_backend(BackendKind::kDense, spec);
    auto symmetry = make_backend(BackendKind::kSymmetry, spec);
    for (auto* b : {dense.get(), symmetry.get()}) {
      for (int i = 0; i < 6; ++i) {
        b->apply_oracle();
        b->apply_global_diffusion();
      }
      for (int i = 0; i < 3; ++i) {
        b->apply_oracle();
        b->apply_block_diffusion();
      }
      if (n_items - m >= 2) {
        b->apply_step3();
      }
    }
    expect_backends_agree(*dense, *symmetry);
  }
}

/// The paper's Section-1.3 example: N = 12 items, K = 3 blocks, TWO queries
/// put all probability in the target block (target holds 3/4 of it). Neither
/// 12 nor 3 is a power of two — both engines are dimension-agnostic.
TEST(BackendAgreement, PaperTwelveItemThreeBlockInstance) {
  for (Index target = 0; target < 12; ++target) {
    const auto spec = BackendSpec::single_target(12, 3, target);
    auto dense = make_backend(BackendKind::kDense, spec);
    auto symmetry = make_backend(BackendKind::kSymmetry, spec);
    for (auto* b : {dense.get(), symmetry.get()}) {
      b->apply_oracle();           // query 1   (stage B)
      b->apply_block_diffusion();  //           (stage C)
      b->apply_oracle();           // query 2   (stage D)
      b->apply_global_diffusion();  //          (stage E)
    }
    expect_backends_agree(*dense, *symmetry);
    EXPECT_NEAR(symmetry->block_probability(symmetry->target_block()), 1.0,
                1e-10);
    EXPECT_NEAR(symmetry->marked_probability(), 0.75, 1e-10);
  }
}

/// GRK through the public entry point: dense and symmetry engines report
/// identical pre-measurement probabilities at every tested n <= 20.
TEST(BackendAgreement, GrkEntryPointAcrossSizes) {
  for (unsigned n : {6u, 10u, 14u, 16u, 18u, 20u}) {
    for (unsigned k : {1u, 2u, 4u}) {
      if (k >= n) {
        continue;
      }
      const oracle::Database db =
          oracle::Database::with_qubits(n, pow2(n) / 5 + 3);
      Rng rng_dense(1), rng_sym(1);
      partial::GrkOptions dense_opts, sym_opts;
      dense_opts.backend = BackendKind::kDense;
      sym_opts.backend = BackendKind::kSymmetry;
      const auto dense = partial::run_partial_search(db, k, rng_dense,
                                                     dense_opts);
      const auto sym = partial::run_partial_search(db, k, rng_sym, sym_opts);
      EXPECT_EQ(dense.backend_used, BackendKind::kDense);
      EXPECT_EQ(sym.backend_used, BackendKind::kSymmetry);
      EXPECT_EQ(dense.queries, sym.queries);
      EXPECT_NEAR(dense.block_probability, sym.block_probability, 1e-10)
          << "n=" << n << " k=" << k;
      EXPECT_NEAR(dense.state_probability, sym.state_probability, 1e-10);
    }
  }
}

/// The scale unlock: 48-qubit partial search in O(K) per iteration, under a
/// second, cross-checked against the exact analytic subspace model.
TEST(SymmetryBackendTest, RunsFortyEightQubitGrkUnderASecond) {
  const unsigned n = 48, k = 3;
  const std::uint64_t n_items = pow2(n);
  const std::uint64_t k_blocks = pow2(k);
  // Iteration counts from the paper's asymptotic optimum (the finite-N
  // integer scan would itself cost O(sqrt(N) sqrt(N/K))).
  const auto opt = partial::optimize_epsilon(k_blocks);
  const double sqrt_n = std::sqrt(static_cast<double>(n_items));
  const double sqrt_block =
      std::sqrt(static_cast<double>(n_items / k_blocks));
  partial::GrkOptions options;
  options.l1 = static_cast<std::uint64_t>(
      std::llround(kQuarterPi * (1.0 - opt.epsilon) * sqrt_n));
  options.l2 = static_cast<std::uint64_t>(std::llround(
      (opt.angles.theta1 + opt.angles.theta2) / 2.0 * sqrt_block));
  options.backend = BackendKind::kSymmetry;

  const oracle::Database db(n_items, (n_items / 3) | 1);
  Rng rng(7);
  Stopwatch watch;
  const auto result = partial::run_partial_search(db, k, rng, options);
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer) || \
    defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
  // Instrumented builds run the same ~1.3e7 O(1) steps a few times slower;
  // the wall-clock claim belongs to uninstrumented builds.
  EXPECT_LT(watch.seconds(), 10.0);
#else
  EXPECT_LT(watch.seconds(), 1.0);
#endif

  EXPECT_EQ(result.backend_used, BackendKind::kSymmetry);
  EXPECT_EQ(result.queries, *options.l1 + *options.l2 + 1);
  EXPECT_GT(result.block_probability, 0.9);
  EXPECT_TRUE(result.correct);

  // Cross-check against the O(1)-per-step analytic model. Both engines are
  // exact up to roundoff; after ~1.3e7 iterations of different O(1)
  // arithmetic they drift apart by ~1e-9, far inside this margin.
  const partial::SubspaceModel model(n_items, k_blocks);
  const auto modeled = model.run_grk(*options.l1, *options.l2);
  EXPECT_NEAR(result.block_probability,
              modeled.target_block_probability(), 1e-7);
}

TEST(SymmetryBackendTest, GroverAtFortyQubitsMatchesClosedForm) {
  const std::uint64_t n_items = pow2(40);
  const oracle::Database db(n_items, 99);
  const std::uint64_t iterations = 123456;
  grover::SearchOptions options;
  options.backend = BackendKind::kSymmetry;
  const double p =
      grover::success_probability_after(db, iterations, options);
  EXPECT_NEAR(p, grover_success_probability(n_items, iterations), 1e-9);
}

TEST(SymmetryBackendTest, SamplingMatchesDistribution) {
  const auto spec = BackendSpec::single_target(pow2(10), 4, 700);
  auto backend = make_backend(BackendKind::kSymmetry, spec);
  for (int i = 0; i < 8; ++i) {
    backend->apply_oracle();
    backend->apply_global_diffusion();
  }
  for (int i = 0; i < 5; ++i) {
    backend->apply_oracle();
    backend->apply_block_diffusion();
  }
  backend->apply_step3();
  Rng rng(11);
  std::vector<std::uint64_t> block_counts(4, 0);
  for (int s = 0; s < 2000; ++s) {
    const Index x = backend->sample(rng);
    ASSERT_LT(x, spec.n_items);
    EXPECT_NEAR(backend->probability(x) > 0.0, true, 0);
    ++block_counts[backend->block_of(x)];
  }
  const auto dist = backend->block_distribution();
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_NEAR(static_cast<double>(block_counts[b]) / 2000.0, dist[b], 0.05)
        << "block " << b;
  }
}

TEST(BackendCircuitTest, SymmetricCircuitExecutionMatchesDense) {
  const unsigned n = 8, k = 2;
  const oracle::Database db = oracle::Database::with_qubits(n, 200);
  Circuit circuit(n);
  for (int i = 0; i < 6; ++i) {
    circuit.grover_iteration();
  }
  for (int i = 0; i < 3; ++i) {
    circuit.partial_iteration(k);
  }
  circuit.non_target_mean_reflection();

  const BackendSpec spec =
      BackendSpec::single_target(pow2(n), pow2(k), db.target());
  auto backend = make_backend(BackendKind::kSymmetry, spec);
  const std::uint64_t queries = apply_circuit(*backend, circuit);
  EXPECT_EQ(queries, circuit.query_count());

  auto state = make_backend(BackendKind::kDense, spec);
  apply_circuit(*state, circuit);
  for (Index b = 0; b < pow2(k); ++b) {
    EXPECT_NEAR(state->block_probability(b), backend->block_probability(b),
                1e-10);
  }
}

TEST(BackendCircuitTest, GateLevelCircuitsRunOnlyOnDense) {
  Circuit circuit(5);
  circuit.oracle();
  circuit.global_diffusion_gate_level();  // H/X layers + MCZ: dense only
  const BackendSpec spec = BackendSpec::single_target(32, 1, 3);
  const auto symmetry = make_backend(BackendKind::kSymmetry, spec);
  EXPECT_THROW(apply_circuit(*symmetry, circuit), CheckFailure);
  const auto dense = make_backend(BackendKind::kDense, spec);
  EXPECT_EQ(apply_circuit(*dense, circuit), 1u);
}

TEST(BackendDispatchTest, InterleavedScheduleRunsOnBothEngines) {
  const std::uint64_t n_items = pow2(12);
  const std::uint64_t k_blocks = 4;
  const auto optimum = partial::optimize_interleaved(
      n_items, k_blocks, partial::default_min_success(n_items), 3);
  const oracle::Database db(n_items, 1234);
  const double dense_p = partial::run_schedule_on_backend(
      db, 2, optimum.schedule, BackendKind::kDense);
  const double sym_p = partial::run_schedule_on_backend(
      db, 2, optimum.schedule, BackendKind::kSymmetry);
  EXPECT_NEAR(dense_p, sym_p, 1e-10);
  EXPECT_NEAR(dense_p, optimum.success, 1e-9);
}

TEST(BackendDispatchTest, SnapshotsRequireDense) {
  const oracle::Database db = oracle::Database::with_qubits(6, 5);
  Rng rng(3);
  partial::GrkOptions options;
  options.capture_snapshots = true;
  options.backend = BackendKind::kSymmetry;
  EXPECT_THROW(partial::run_partial_search(db, 2, rng, options),
               CheckFailure);
}

TEST(BackendDispatchTest, MultiMarkedEntryPointAgreesAcrossEngines) {
  const unsigned n = 10, k = 2;
  const std::uint64_t block_size = pow2(n - k);
  // Three marked items clustered in block 2.
  const std::vector<Index> marked{2 * block_size + 3, 2 * block_size + 100,
                                  2 * block_size + 200};
  const oracle::MarkedDatabase db_dense(pow2(n), marked);
  const oracle::MarkedDatabase db_sym(pow2(n), marked);
  Rng rng_a(5), rng_b(5);
  partial::MultiGrkOptions dense_opts, sym_opts;
  dense_opts.backend = BackendKind::kDense;
  sym_opts.backend = BackendKind::kSymmetry;
  const auto dense =
      partial::run_partial_search_multi(db_dense, k, rng_a, dense_opts);
  const auto sym =
      partial::run_partial_search_multi(db_sym, k, rng_b, sym_opts);
  EXPECT_NEAR(dense.block_probability, sym.block_probability, 1e-10);
  EXPECT_NEAR(dense.marked_probability, sym.marked_probability, 1e-10);
  EXPECT_EQ(dense.queries, sym.queries);
}

}  // namespace
}  // namespace pqs::qsim
