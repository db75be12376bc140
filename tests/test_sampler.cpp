// Tests for shot sampling from a table built once per batch: the
// CumulativeTable core (common/cumulative_table.h), the dense samplers
// (qsim/sampler.h) and their agreement with the symmetry engine's class
// draw, thread-count independence, and cancellation through BatchRunner.
#include "qsim/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/cumulative_table.h"
#include "common/math.h"
#include "common/random.h"
#include "oracle/database.h"
#include "partial/grk.h"
#include "partial/optimizer.h"
#include "qsim/backend.h"
#include "qsim/batch.h"
#include "qsim/parallel.h"
#include "qsim/kernels.h"
#include "qsim/run_control.h"
#include "qsim/soa.h"
#include "reference_kernels.h"

namespace pqs::qsim {
namespace {

/// Upper 0.1% point of chi-square with `df` degrees of freedom
/// (Wilson-Hilferty; within a few percent of the exact quantile for df >= 1).
double chi2_critical(std::size_t df) {
  const double d = static_cast<double>(std::max<std::size_t>(df, 1));
  const double z = 3.090;  // standard normal upper 0.1% point
  const double c = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
  return d * c * c * c;
}

/// Goodness of fit of `counts` against probabilities `p` (sum 1): bins
/// expected below 5 are pooled into one. Returns {statistic, df}.
std::pair<double, std::size_t> chi2_fit(const std::vector<double>& counts,
                                        const std::vector<double>& p) {
  double total = 0.0;
  for (const double c : counts) {
    total += c;
  }
  double stat = 0.0, pooled_obs = 0.0, pooled_exp = 0.0;
  std::size_t bins = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double expected = total * p[i];
    if (expected < 5.0) {
      pooled_obs += counts[i];
      pooled_exp += expected;
      continue;
    }
    stat += (counts[i] - expected) * (counts[i] - expected) / expected;
    ++bins;
  }
  if (pooled_exp >= 5.0) {
    stat += (pooled_obs - pooled_exp) * (pooled_obs - pooled_exp) / pooled_exp;
    ++bins;
  } else if (pooled_exp > 0.0) {
    // Too thin to test on its own: only require that it stays thin.
    EXPECT_LT(pooled_obs, 5.0 + 5.0 * std::sqrt(5.0));
  }
  return {stat, bins > 0 ? bins - 1 : 0};
}

/// Two equal-size samples from one distribution? Bins holding fewer than
/// 10 outcomes over both samples are pooled. Returns {statistic, df}.
std::pair<double, std::size_t> chi2_two_sample(
    const std::map<Index, double>& a, const std::map<Index, double>& b) {
  std::map<Index, std::pair<double, double>> bins;
  for (const auto& [key, count] : a) {
    bins[key].first += count;
  }
  for (const auto& [key, count] : b) {
    bins[key].second += count;
  }
  double stat = 0.0, pooled_a = 0.0, pooled_b = 0.0;
  std::size_t used = 0;
  const auto add = [&](double x, double y) {
    stat += (x - y) * (x - y) / (x + y);
    ++used;
  };
  for (const auto& [key, ab] : bins) {
    if (ab.first + ab.second < 10.0) {
      pooled_a += ab.first;
      pooled_b += ab.second;
    } else {
      add(ab.first, ab.second);
    }
  }
  if (pooled_a + pooled_b > 0.0) {
    add(pooled_a, pooled_b);
  }
  return {stat, used > 0 ? used - 1 : 0};
}

// ---- CumulativeTable ------------------------------------------------------

TEST(CumulativeTableTest, EdgesNeverLandOnEmptyBins) {
  const std::vector<double> weights{0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 0.0};
  const CumulativeTable table(weights);
  EXPECT_EQ(table.size(), weights.size());
  EXPECT_DOUBLE_EQ(table.total(), 6.0);
  EXPECT_EQ(table.pick(0.0), 2u);  // leading empty bins are skipped
  EXPECT_EQ(table.pick(std::nextafter(1.0, 0.0)), 5u);  // last positive bin
  EXPECT_EQ(table.pick(1.0), 5u);  // clamps even at the closed end
  EXPECT_EQ(table.pick(0.125), 2u);
  // A boundary belongs to the next positive bin: u * total = 3 exactly.
  EXPECT_EQ(table.pick(0.5), 5u);
  const CumulativeTable::Hit hit = table.locate(0.25);
  EXPECT_EQ(hit.index, 3u);
  EXPECT_NEAR(hit.offset, 0.5, 1e-15);
}

TEST(CumulativeTableTest, RoundoffAtTheTopClampsToLastPositiveBin) {
  // 0.1 + 0.2 is not 0.3: u * total for the largest u below 1 rounds onto
  // the last running sum, which the table must not run past.
  const CumulativeTable table(std::vector<double>{0.1, 0.2, 0.0, 0.0});
  EXPECT_EQ(table.pick(std::nextafter(1.0, 0.0)), 1u);
  EXPECT_EQ(table.pick(0.0), 0u);
}

TEST(CumulativeTableTest, RejectsDegenerateWeights) {
  EXPECT_THROW(CumulativeTable(std::vector<double>{}), CheckFailure);
  EXPECT_THROW(CumulativeTable(std::vector<double>{0.0, 0.0}), CheckFailure);
  EXPECT_THROW(CumulativeTable(std::vector<double>{1.0, -1.0}), CheckFailure);
  EXPECT_THROW(CumulativeTable(std::vector<double>{1.0, std::nan("")}),
               CheckFailure);
  EXPECT_THROW(CumulativeTable(std::vector<double>{1.0, HUGE_VAL}),
               CheckFailure);
}

TEST(CumulativeTableTest, RandomWeightsOnlyYieldPositiveBinsAtTheirRates) {
  Rng gen(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const auto size = static_cast<std::size_t>(gen.uniform_int(1, 300));
    std::vector<double> weights(size);
    for (double& w : weights) {
      w = gen.uniform01() < 0.35 ? 0.0 : gen.uniform01() * gen.uniform01();
    }
    weights[static_cast<std::size_t>(gen.uniform_below(size))] = 0.5;
    const CumulativeTable table(weights);

    Rng rng(7000 + static_cast<std::uint64_t>(trial));
    std::vector<double> counts(size, 0.0);
    const int draws = 40000;
    for (int d = 0; d < draws; ++d) {
      const std::size_t i = table.pick(rng.uniform01());
      ASSERT_LT(i, size);
      ASSERT_GT(weights[i], 0.0) << "trial " << trial << " drew empty bin " << i;
      counts[i] += 1.0;
    }
    std::vector<double> p(size);
    for (std::size_t i = 0; i < size; ++i) {
      p[i] = weights[i] / table.total();
    }
    const auto [stat, df] = chi2_fit(counts, p);
    EXPECT_LT(stat, chi2_critical(df)) << "trial " << trial << " df " << df;
  }
}

TEST(CumulativeTableTest, SampleDiscreteUsesTheTable) {
  const std::vector<double> weights{0.0, 4.0, 0.0, 1.0};
  Rng a(99), b(99);
  const CumulativeTable table(weights);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.sample_discrete(weights), table.pick(b.uniform01()));
  }
}

// ---- dense samplers --------------------------------------------------------

/// A normalized 2^n state with random amplitudes on [support_lo, support_hi) and
/// zeros elsewhere.
SoaVector random_state(unsigned n, std::size_t support_lo,
                       std::size_t support_hi, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Amplitude> amps(pow2(n), Amplitude{0.0, 0.0});
  for (std::size_t i = support_lo; i < support_hi; ++i) {
    amps[i] = Amplitude{rng.normal(), rng.normal()};
  }
  SoaVector sv = SoaVector::from_amplitudes(amps);
  reference::normalize(sv);
  return sv;
}

TEST(DenseSamplerTest, EdgesSkipEmptyChunksAndElements) {
  // Four chunks: the first empty, the support starting inside the second
  // and ending inside the last.
  const unsigned n = 14;
  const std::size_t lo = kChunk + 37, hi = pow2(n) - 211;
  const SoaVector sv = random_state(n, lo, hi, 11);
  const DenseSampler indices = DenseSampler::indices(sv);
  EXPECT_EQ(indices.pick(0.0), lo);
  EXPECT_EQ(indices.pick(std::nextafter(1.0, 0.0)), hi - 1);
  const DenseSampler blocks = DenseSampler::blocks(sv, pow2(n) / 8);
  EXPECT_EQ(blocks.pick(0.0), lo / (pow2(n) / 8));
  EXPECT_EQ(blocks.pick(std::nextafter(1.0, 0.0)), 7u);
  EXPECT_THROW((void)DenseSampler::blocks(sv, 0), CheckFailure);
  EXPECT_THROW((void)DenseSampler::blocks(sv, 3), CheckFailure);
}

TEST(DenseSamplerTest, ZeroStateIsRejected) {
  const SoaVector sv(16);
  EXPECT_THROW((void)DenseSampler::indices(sv), CheckFailure);
  EXPECT_THROW((void)DenseSampler::blocks(sv, 4), CheckFailure);
}

TEST(DenseSamplerTest, IndexShotsFollowTheAmplitudes) {
  // Support spans several chunks so the chunk table and the in-chunk walk
  // both matter; 64 bins of 256 addresses keep every bin well filled.
  const unsigned n = 14;
  const SoaVector sv = random_state(n, 100, pow2(n) - 100, 5);
  const DenseSampler sampler = DenseSampler::indices(sv);
  std::vector<double> counts(64, 0.0), p(64, 0.0);
  for (std::size_t x = 0; x < sv.size(); ++x) {
    p[x / 256] += std::norm(sv.get(x));
  }
  Rng rng(77);
  for (int s = 0; s < 40000; ++s) {
    const Index x = sampler.draw(rng);
    ASSERT_GT(std::norm(sv.get(x)), 0.0);
    counts[x / 256] += 1.0;
  }
  const auto [stat, df] = chi2_fit(counts, p);
  EXPECT_LT(stat, chi2_critical(df));
}

TEST(DenseSamplerTest, BlockDistributionIsOneSweepOfBlockNorms) {
  const SoaVector sv = random_state(13, 0, pow2(13), 3);
  for (unsigned k = 0; k <= 13; k += 13 / 4) {
    const std::size_t block_size = pow2(13 - k);
    const std::vector<double> dist = kernels::block_norms(sv, block_size);
    ASSERT_EQ(dist.size(), pow2(k));
    for (std::size_t b = 0; b < dist.size(); ++b) {
      EXPECT_EQ(dist[b],
                kernels::norm_squared_range(sv, b * block_size, block_size))
          << "k " << k;
    }
  }
}

// ---- dense vs symmetry -----------------------------------------------------

struct Evolved {
  std::unique_ptr<Backend> dense, symmetry;
  Index target = 0;
};

Evolved evolve_grk(unsigned n, unsigned k) {
  const std::uint64_t items = pow2(n);
  const Index target = items / 3 + 5;
  const auto opt = partial::optimize_integer(
      items, pow2(k), partial::default_min_success(items));
  Evolved out;
  out.target = target;
  const oracle::Database dense_db(items, target), symmetry_db(items, target);
  out.dense = partial::evolve_partial_search_on_backend(
      dense_db, k, opt.l1, opt.l2, BackendKind::kDense);
  out.symmetry = partial::evolve_partial_search_on_backend(
      symmetry_db, k, opt.l1, opt.l2, BackendKind::kSymmetry);
  return out;
}

std::map<Index, double> as_doubles(const ShotReport& report,
                                   const std::function<Index(Index)>& bin) {
  std::map<Index, double> out;
  for (const auto& [outcome, count] : report.counts) {
    out[bin(outcome)] += static_cast<double>(count);
  }
  return out;
}

TEST(DenseSymmetryAgreementTest, BlockAndIndexShotsPassChiSquare) {
  // Statistics, not threading: one thread keeps ctest -j fast.
  set_thread_budget(1);
  const std::uint64_t shots = 20000;
  for (unsigned n = 12; n <= 16; ++n) {
    for (const unsigned k : {2u, 3u}) {
      SCOPED_TRACE("n " + std::to_string(n) + " k " + std::to_string(k));
      const Evolved e = evolve_grk(n, k);
      const BatchRunner dense_runner({.threads = 1, .seed = 100 + n * 10 + k});
      const BatchRunner sym_runner({.threads = 1, .seed = 900 + n * 10 + k});

      // Block shots: K bins.
      const ShotReport dense_blocks =
          dense_runner.sample_block_shots(*e.dense, shots, 0);
      const ShotReport sym_blocks =
          sym_runner.sample_block_shots(*e.symmetry, shots, 0);
      const auto same = [](Index b) { return b; };
      const auto [block_stat, block_df] = chi2_two_sample(
          as_doubles(dense_blocks, same), as_doubles(sym_blocks, same));
      EXPECT_LT(block_stat, chi2_critical(block_df));
      EXPECT_EQ(dense_blocks.mode, e.dense->target_block());
      EXPECT_EQ(sym_blocks.mode, dense_blocks.mode);

      // Full-index shots: the target alone, then (block, low two bits)
      // bins, which also test uniformity inside each class.
      const std::uint64_t block_size = e.dense->block_size();
      const Index target = e.target;
      const auto bin = [block_size, target](Index x) {
        return x == target ? Index{1} << 62 : (x / block_size) * 4 + (x & 3);
      };
      const ShotReport dense_index =
          dense_runner.sample_shots(*e.dense, shots, 0);
      const ShotReport sym_index = sym_runner.sample_shots(*e.symmetry, shots, 0);
      const auto [index_stat, index_df] = chi2_two_sample(
          as_doubles(dense_index, bin), as_doubles(sym_index, bin));
      EXPECT_LT(index_stat, chi2_critical(index_df));
      EXPECT_EQ(dense_index.mode, target);
      EXPECT_EQ(sym_index.mode, target);

      // And the dense block shots against the exact block distribution.
      const std::vector<double> p = e.dense->block_distribution();
      std::vector<double> counts(p.size(), 0.0);
      for (const auto& [b, c] : dense_blocks.counts) {
        counts[b] = static_cast<double>(c);
      }
      double total = 0.0;
      for (const double x : p) {
        total += x;
      }
      std::vector<double> normalized(p.size());
      for (std::size_t b = 0; b < p.size(); ++b) {
        normalized[b] = p[b] / total;
      }
      const auto [fit_stat, fit_df] = chi2_fit(counts, normalized);
      EXPECT_LT(fit_stat, chi2_critical(fit_df));
    }
  }
  set_thread_budget(0);
}

// ---- determinism -----------------------------------------------------------

TEST(SamplerDeterminismTest, OutcomesIgnoreThreadBudgetAndTeamSize) {
  // Lift the work threshold so the n = 14 build really runs on a team.
  force_parallel_threshold(0);
  const Evolved e = evolve_grk(14, 2);
  std::vector<Index> reference_blocks, reference_index;
  ShotReport reference_report;
  bool first = true;
  for (const unsigned budget : {1u, 2u, 4u}) {
    set_thread_budget(budget);
    for (const unsigned team : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE("budget " + std::to_string(budget) + " team " +
                   std::to_string(team));
      const BatchRunner runner({.threads = team, .seed = 4242});
      const auto blocks = e.dense->sampler(Measure::kBlock);
      const auto index = e.dense->sampler(Measure::kIndex);
      const auto block_outcomes = runner.map_shots(
          1000, [&](std::uint64_t, Rng& rng) { return blocks->draw(rng); });
      const auto index_outcomes = runner.map_shots(
          1000, [&](std::uint64_t, Rng& rng) { return index->draw(rng); });
      const ShotReport report = runner.sample_block_shots(*e.dense, 1000, 0);
      if (first) {
        reference_blocks = block_outcomes;
        reference_index = index_outcomes;
        reference_report = report;
        first = false;
        continue;
      }
      EXPECT_EQ(block_outcomes, reference_blocks);
      EXPECT_EQ(index_outcomes, reference_index);
      EXPECT_EQ(report.counts, reference_report.counts);
      EXPECT_EQ(report.mode, reference_report.mode);
      EXPECT_EQ(report.mode_frequency, reference_report.mode_frequency);
    }
  }
  set_thread_budget(0);
  force_parallel_threshold(std::nullopt);
}

TEST(SamplerDeterminismTest, ChunkedCountsEqualTheTallyOfEveryShot) {
  // The wrappers count each thread's chunk of shots into its own row inside
  // the fan-out for at most 1024 outcomes (block shots, N = 2^8 index
  // shots) and tally the outcomes beyond (N = 2^11 index shots). Either way
  // the report must be the tally of the per-shot outcomes, across chunk
  // edges and teams.
  for (const unsigned n : {8u, 11u}) {
    const Evolved e = evolve_grk(n, 2);
    for (const Backend* backend : {e.dense.get(), e.symmetry.get()}) {
      for (const Measure what : {Measure::kBlock, Measure::kIndex}) {
        const auto sampler = backend->sampler(what);
        for (const std::uint64_t shots :
             {1u, 2u, 7u, 1023u, 1024u, 1025u, 5000u}) {
          for (const unsigned team : {1u, 3u, 4u}) {
            SCOPED_TRACE("n " + std::to_string(n) + " " +
                         to_string(backend->kind()) + " block " +
                         std::to_string(what == Measure::kBlock) + " shots " +
                         std::to_string(shots) + " team " +
                         std::to_string(team));
            const BatchRunner runner({.threads = team, .seed = 99});
            const ShotReport expected = BatchRunner::tally(
                runner.map_shots(shots,
                                 [&](std::uint64_t, Rng& rng) {
                                   return sampler->draw(rng);
                                 }),
                5);
            const ShotReport report =
                what == Measure::kBlock
                    ? runner.sample_block_shots(*backend, shots, 5)
                    : runner.sample_shots(*backend, shots, 5);
            EXPECT_EQ(report.counts, expected.counts);
            EXPECT_EQ(report.shots, expected.shots);
            EXPECT_EQ(report.queries_per_shot, expected.queries_per_shot);
            EXPECT_EQ(report.mode, expected.mode);
            EXPECT_EQ(report.mode_frequency, expected.mode_frequency);
          }
        }
      }
    }
  }
}

TEST(SamplerDeterminismTest, SingleDrawMatchesTheBatchStream) {
  // Backend::sample_block is "build, draw once": shot i of a batch equals
  // a single draw on shot i's stream.
  const Evolved e = evolve_grk(12, 3);
  const BatchRunner runner({.threads = 3, .seed = 8});
  const auto blocks = e.dense->sampler(Measure::kBlock);
  const auto outcomes = runner.map_shots(
      200, [&](std::uint64_t, Rng& rng) { return blocks->draw(rng); });
  for (std::uint64_t s = 0; s < 200; ++s) {
    Rng rng = runner.shot_rng(s);
    EXPECT_EQ(e.dense->sample_block(rng), outcomes[s]);
  }
}

// ---- cancellation ----------------------------------------------------------

/// Cancels its control when the shot fan-out begins.
class CancelAtShots final : public SpanSink {
 public:
  explicit CancelAtShots(RunControl& control) : control_(control) {}
  void span(const char* name) noexcept override {
    if (std::string_view(name) == "shots.begin") {
      control_.cancel();
    }
  }

 private:
  RunControl& control_;
};

TEST(SamplerCancellationTest, CancelledFanOutStillThrows) {
  const Evolved e = evolve_grk(12, 2);
  const std::uint64_t shots = 5000;
  {
    // Cancelled after the sampler is built, before any shot runs.
    RunControl control;
    CancelAtShots sink(control);
    control.set_span_sink(&sink);
    const BatchRunner runner({.threads = 2, .seed = 1, .control = &control});
    EXPECT_THROW((void)runner.sample_block_shots(*e.dense, shots, 0),
                 CancelledError);
    EXPECT_LT(control.work_done(), shots);
  }
  {
    // Cancelled mid-stream by one of the shots sharing the sampler.
    RunControl control;
    const BatchRunner runner({.threads = 2, .seed = 1, .control = &control});
    const auto blocks = e.dense->sampler(Measure::kBlock);
    EXPECT_THROW((void)runner.map_shots(shots,
                                        [&](std::uint64_t shot, Rng& rng) {
                                          if (shot == 100) {
                                            control.cancel();
                                          }
                                          return blocks->draw(rng);
                                        }),
                 CancelledError);
    EXPECT_LT(control.work_done(), shots);
  }
}

}  // namespace
}  // namespace pqs::qsim
