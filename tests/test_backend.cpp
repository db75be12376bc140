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
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "common/timing.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "partial/analytic.h"
#include "partial/grk.h"
#include "partial/interleave.h"
#include "partial/multi.h"
#include "partial/noisy.h"
#include "partial/optimizer.h"
#include "partial/twelve.h"
#include "qsim/isa.h"
#include "qsim/parallel.h"
#include "zalka/zalka.h"

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

TEST(BackendKindTest, AutoPicksSymmetryForSingleBlockSpecsOfAnySize) {
  // A single-target GRK spec at small N (n = 14, K = 4): the symmetry
  // engine follows it exactly, so kAuto runs it.
  const auto small = BackendSpec::single_target(1u << 14, 4, 7);
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, small),
            BackendKind::kSymmetry);
  EXPECT_EQ(make_backend(BackendKind::kAuto, small)->kind(),
            BackendKind::kSymmetry);
  const auto huge =
      BackendSpec::single_target(std::uint64_t{1} << 48, 8, 12345);
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, huge),
            BackendKind::kSymmetry);
  // Past the dense capacity kAuto keeps the only engine that can hold the
  // state, even for a noise model.
  const NoiseModel noise{NoiseKind::kDepolarizing, 0.01};
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, huge, noise),
            BackendKind::kSymmetry);
  EXPECT_THROW(resolve_backend(BackendKind::kDense, huge), CheckFailure);
  // A forced engine passes through.
  EXPECT_EQ(resolve_backend(BackendKind::kDense, small),
            BackendKind::kDense);
  EXPECT_EQ(resolve_backend(BackendKind::kSymmetry, small, noise),
            BackendKind::kSymmetry);
}

TEST(BackendKindTest, AutoRunsDenseForNoiseTrajectories) {
  const oracle::Database db = oracle::Database::with_qubits(8, 100);
  const NoiseModel noise{NoiseKind::kDepolarizing, 0.01};
  Rng rng(5);
  EXPECT_EQ(partial::run_noisy_partial_search(db, 2, noise, 16, rng)
                .backend_used,
            BackendKind::kDense);
  EXPECT_EQ(partial::run_noisy_full_search_block(db, 2, noise, 16, rng)
                .backend_used,
            BackendKind::kDense);
  // Without a noise model there is no trajectory to follow.
  EXPECT_EQ(partial::run_noisy_partial_search(db, 2, NoiseModel{}, 16, rng)
                .backend_used,
            BackendKind::kSymmetry);
}

TEST(BackendKindTest, AutoRunsDenseForMarkedSetsSpanningBlocks) {
  const BackendSpec spread{1u << 10, 4, {1, 700}};
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, spread), BackendKind::kDense);
  EXPECT_EQ(make_backend(BackendKind::kAuto, spread)->kind(),
            BackendKind::kDense);
  // Within one block the same two marks stay symmetric.
  const BackendSpec clustered{1u << 10, 4, {1, 200}};
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, clustered),
            BackendKind::kSymmetry);
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
      const auto op = rng.uniform_int(0, 4);
      const double phi = rng.uniform(-kPi, kPi);
      for (auto* b : {dense.get(), symmetry.get()}) {
        switch (op) {
          case 0: b->apply_oracle(); break;
          case 1: b->apply_oracle_phase(phi); break;
          case 2: b->apply_global_rotation(phi); break;
          case 3: b->apply_block_rotation(phi); break;
          case 4: b->apply_step3(); break;
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
// DenseBackend::apply_grover_iterations (the folded run, on every tier)
// against the per-op default loop it overrides, on every supported tier:
// the l1-global-then-l2-block shape of partial search, from a complex
// non-uniform start that is not block-symmetric: Z on every qubit signs
// each amplitude by its parity, the oracle phase makes it complex, and Step
// 3 reflects the unmarked amplitudes about their mean, which moves blocks
// without a mark off a zero sum whenever the marks' signs do not cancel.
// The target sits in the first block, in the last block, or a marked set
// spans every block.
TEST(DenseFoldedIterations, MatchThePerOpLoopOnEveryTier) {
  // One thread: the results do not depend on the budget (test_threading),
  // and a team would only fight concurrently running test binaries.
  set_thread_budget(1);
  for (const Isa isa : supported_isas()) {
    force_isa(isa);
    for (unsigned n = 10; n <= 20; ++n) {
      const std::uint64_t size = pow2(n);
      BackendSpec spec = BackendSpec::single_target(size, 4, 2 + n);
      if (n % 3 == 0) {
        spec.marked = {1, size / 4 + 2, size / 2 + 3, size - 3};
      } else if (n % 2 == 1) {
        spec.marked = {size - 1 - n};
      }
      const auto folded = make_backend(BackendKind::kDense, spec);
      const auto per_op = make_backend(BackendKind::kDense, spec);
      for (Backend* b : {folded.get(), per_op.get()}) {
        Rng unused(1);  // p = 1 hits every qubit without a draw
        b->apply_noise(NoiseModel{NoiseKind::kDephasing, 1.0}, unused);
        b->apply_oracle_phase(0.9);
        b->apply_step3();
      }
      folded->apply_grover_iterations(Partition::kGlobal, 65);
      folded->apply_grover_iterations(Partition::kBlocks, 64);
      per_op->Backend::apply_grover_iterations(Partition::kGlobal, 65);
      per_op->Backend::apply_grover_iterations(Partition::kBlocks, 64);
      EXPECT_LT(linf(folded->amplitudes_copy(), per_op->amplitudes_copy()),
                1e-11)
          << isa_name(isa) << " n=" << n << " marks=" << spec.marked.size();
    }
  }
  force_isa(std::nullopt);
  set_thread_budget(0);
}

TEST(DenseFoldedIterations, ZeroCountLeavesTheStateAlone) {
  const auto spec = BackendSpec::single_target(pow2(12), 4, 77);
  const auto b = make_backend(BackendKind::kDense, spec);
  b->apply_oracle_phase(0.4);
  const auto before = b->amplitudes_copy();
  b->apply_grover_iterations(Partition::kGlobal, 0);
  b->apply_grover_iterations(Partition::kBlocks, 0);
  EXPECT_EQ(linf(before, b->amplitudes_copy()), 0.0);
}

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
  const double p =
      grover::evolve_on_backend(db, iterations, BackendKind::kSymmetry)
          ->marked_probability();
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

/// Every op kind a circuit can hold runs on both engines, with the same
/// state to 1e-10.
TEST(BackendCircuitTest, SymmetricCircuitExecutionMatchesDense) {
  const unsigned n = 8, k = 2;
  const oracle::Database db = oracle::Database::with_qubits(n, 200);
  Circuit circuit(n);
  for (int i = 0; i < 6; ++i) {
    circuit.grover_iteration();
  }
  circuit.oracle_phase(1.1).block_rotation(k, -0.7);
  for (int i = 0; i < 3; ++i) {
    circuit.partial_iteration(k);
  }
  circuit.non_target_mean_reflection();

  const BackendSpec spec =
      BackendSpec::single_target(pow2(n), pow2(k), db.target());
  auto backend = make_backend(BackendKind::kSymmetry, spec);
  const std::uint64_t queries = apply_circuit(*backend, circuit);
  EXPECT_EQ(queries, circuit.query_count());
  EXPECT_EQ(queries, 11u);

  auto state = make_backend(BackendKind::kDense, spec);
  apply_circuit(*state, circuit);
  expect_backends_agree(*state, *backend);
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

/// The Zalka hybrid argument reads every amplitude of every run, so each
/// engine's report must match field for field, on circuits that together
/// use each of the six ops. kAuto runs the symmetry engine.
TEST(BackendDispatchTest, ZalkaReportsAgreeAcrossEngines) {
  std::vector<Circuit> circuits;
  for (unsigned n = 3; n <= 6; ++n) {
    circuits.push_back(make_grover_circuit(n, pow2(n / 2)));
    Circuit mixed(n);
    mixed.oracle().block_diffusion(2).oracle_phase(0.7).global_diffusion();
    mixed.block_rotation(2, -1.3).non_target_mean_reflection();
    circuits.push_back(std::move(mixed));
  }
  for (const Circuit& circuit : circuits) {
    SCOPED_TRACE("n=" + std::to_string(circuit.num_qubits()) +
                 " T=" + std::to_string(circuit.query_count()));
    zalka::ZalkaOptions dense_opts, sym_opts;
    dense_opts.backend = BackendKind::kDense;
    sym_opts.backend = BackendKind::kSymmetry;
    const auto dense = zalka::analyze_circuit(circuit, dense_opts);
    const auto sym = zalka::analyze_circuit(circuit, sym_opts);
    EXPECT_EQ(dense.backend_used, BackendKind::kDense);
    EXPECT_EQ(sym.backend_used, BackendKind::kSymmetry);
    EXPECT_EQ(zalka::analyze_circuit(circuit).backend_used,
              BackendKind::kSymmetry);
    EXPECT_EQ(dense.n_qubits, sym.n_qubits);
    EXPECT_EQ(dense.n_items, sym.n_items);
    EXPECT_EQ(dense.queries, sym.queries);
    EXPECT_NEAR(dense.min_success, sym.min_success, 1e-10);
    EXPECT_NEAR(dense.eps, sym.eps, 1e-10);
    EXPECT_NEAR(dense.sum_final_angles, sym.sum_final_angles, 1e-10);
    EXPECT_NEAR(dense.lemma1_floor, sym.lemma1_floor, 1e-10);
    ASSERT_EQ(dense.per_query_sums.size(), sym.per_query_sums.size());
    for (std::size_t i = 0; i < dense.per_query_sums.size(); ++i) {
      EXPECT_NEAR(dense.per_query_sums[i], sym.per_query_sums[i], 1e-10)
          << "i=" << i;
    }
    EXPECT_NEAR(dense.lemma3_ceiling, sym.lemma3_ceiling, 1e-10);
    EXPECT_NEAR(dense.max_per_query_sum, sym.max_per_query_sum, 1e-10);
    EXPECT_NEAR(dense.implied_query_floor, sym.implied_query_floor, 1e-10);
    EXPECT_EQ(dense.lemma2_holds, sym.lemma2_holds);
    EXPECT_NEAR(dense.lemma2_worst_slack, sym.lemma2_worst_slack, 1e-10);
  }
}

/// GRK snapshots after Steps 1-3 are the same amplitudes on both engines;
/// kAuto captures them on the symmetry engine.
TEST(BackendDispatchTest, GrkSnapshotsAgreeAcrossEngines) {
  for (unsigned n = 4; n <= 12; ++n) {
    for (unsigned k = 1; k <= 4 && k < n; ++k) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      const oracle::Database db =
          oracle::Database::with_qubits(n, pow2(n) / 3 + 1);
      partial::GrkOptions dense_opts, sym_opts;
      dense_opts.capture_snapshots = sym_opts.capture_snapshots = true;
      dense_opts.backend = BackendKind::kDense;
      Rng rng_dense(3), rng_sym(3);
      const auto dense = partial::run_partial_search(db, k, rng_dense,
                                                     dense_opts);
      const auto sym = partial::run_partial_search(db, k, rng_sym, sym_opts);
      EXPECT_EQ(sym.backend_used, BackendKind::kSymmetry);
      EXPECT_EQ(dense.snapshots.after_step1.size(), db.size());
      EXPECT_LT(linf(dense.snapshots.after_step1, sym.snapshots.after_step1),
                1e-10);
      EXPECT_LT(linf(dense.snapshots.after_step2, sym.snapshots.after_step2),
                1e-10);
      EXPECT_LT(linf(dense.snapshots.after_step3, sym.snapshots.after_step3),
                1e-10);
    }
  }
}

/// The five Figure-1 stages (N = 12, K = 3) agree for every target.
TEST(BackendDispatchTest, FigureOneStagesAgreeAcrossEngines) {
  for (Index target = 0; target < 12; ++target) {
    const auto dense = partial::run_figure1(target, BackendKind::kDense);
    const auto sym = partial::run_figure1(target, BackendKind::kSymmetry);
    for (std::size_t stage = 0; stage < partial::Figure1Trace::kStages;
         ++stage) {
      ASSERT_EQ(dense.stages[stage].size(), 12u);
      ASSERT_EQ(sym.stages[stage].size(), 12u);
      for (std::size_t x = 0; x < 12; ++x) {
        EXPECT_NEAR(dense.stages[stage][x], sym.stages[stage][x], 1e-10)
            << "target=" << target << " stage=" << stage << " x=" << x;
      }
    }
  }
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
