// A log-bucketed histogram for latency distributions.
//
// A fleet front-end cannot publish every per-request latency, and a plain
// mean hides exactly the tail a service is judged on. LogHistogram keeps a
// fixed 256-slot array of log-spaced buckets — values 0..7 exact, then four
// sub-buckets per power of two (relative bucket width <= 25%) up to the full
// uint64 range — so recording is O(1) with no allocation, merging client
// shards is element-wise addition, and p50/p90/p99 fall out of one pass.
// The service layer records the PR 5 timing split (queue_ns / plan_ns /
// exec_ns) into three of these per Service, and the `stats` op serializes
// them with to_json(); tools/pqs_loadgen reuses the same type to aggregate
// client-observed latencies.
//
// NOT thread-safe, by the same design decision as LruMap (common/lru.h):
// the owner holds its own lock and annotates the member —
// `LogHistogram queue_ PQS_GUARDED_BY(mutex_);` — so the capability analysis
// machine-checks every access path instead of this type paying for a mutex
// nobody asked for.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "common/json.h"

namespace pqs {

class LogHistogram {
 public:
  /// 8 exact slots (0..7) + 61 octaves x 4 sub-buckets covers all of uint64.
  static constexpr std::size_t kBuckets = 8 + 61 * 4;

  /// Bucket index of a value. Values below 8 get exact buckets; above, the
  /// top three significant bits pick (octave, quarter), so a bucket spans
  /// at most 25% of its lower bound.
  static constexpr std::size_t bucket_index(std::uint64_t value) {
    if (value < 8) {
      return static_cast<std::size_t>(value);
    }
    const int octave = 63 - std::countl_zero(value);  // >= 3
    const std::uint64_t quarter = (value >> (octave - 2)) & 3;
    return 8 + static_cast<std::size_t>(octave - 3) * 4 +
           static_cast<std::size_t>(quarter);
  }

  /// Smallest value that lands in bucket `index` (the bound percentile()
  /// reports, so estimates err low, never high-side a tail they didn't see).
  static constexpr std::uint64_t bucket_lower(std::size_t index) {
    if (index < 8) {
      return index;
    }
    const int octave = 3 + static_cast<int>((index - 8) / 4);
    const std::uint64_t quarter = (index - 8) % 4;
    return (std::uint64_t{1} << octave) + (quarter << (octave - 2));
  }

  void record(std::uint64_t value) {
    ++counts_[bucket_index(value)];
    ++count_;
    if (value > max_) {
      max_ = value;
    }
  }

  std::uint64_t count() const { return count_; }
  /// Largest recorded value, exact (not bucketed). 0 when empty.
  std::uint64_t max() const { return max_; }

  /// Lower bound of the bucket holding the q-quantile (q in [0, 1]);
  /// 0 when empty. percentile(1.0) returns the exact max.
  std::uint64_t percentile(double q) const {
    PQS_CHECK_MSG(q >= 0.0 && q <= 1.0, "percentile wants q in [0, 1]");
    if (count_ == 0) {
      return 0;
    }
    if (q >= 1.0) {
      return max_;
    }
    // rank in [1, count_]: the smallest bucket whose cumulative count
    // reaches it.
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        return bucket_lower(i);
      }
    }
    return max_;  // unreachable: seen == count_ after the loop
  }

  /// Add `n` observations directly to bucket `index` — the reconstruction
  /// path (from_json, obs::AtomicHistogram::snapshot) where the original
  /// values are gone and only their bucketing survives. Does not touch
  /// max_: callers that know the true max follow with note_max().
  void add_to_bucket(std::size_t index, std::uint64_t n) {
    PQS_CHECK_MSG(index < kBuckets, "bucket index out of range");
    counts_[index] += n;
    count_ += n;
  }

  /// Raise max_ to `value` if larger (paired with add_to_bucket above).
  void note_max(std::uint64_t value) {
    if (value > max_) {
      max_ = value;
    }
  }

  /// Element-wise addition — how loadgen folds per-client shards together.
  void merge(const LogHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    if (other.max_ > max_) {
      max_ = other.max_;
    }
  }

  void clear() {
    counts_.fill(0);
    count_ = 0;
    max_ = 0;
  }

  /// {"count":N,"max":M,"p50":...,"p90":...,"p99":...,
  ///  "buckets":[[lower,count],...]} — only non-empty buckets, in order, so
  /// the dump stays small and canonical (the stats op embeds this).
  Json to_json() const {
    Json json = Json::make_object();
    json["count"] = count_;
    json["max"] = max_;
    json["p50"] = percentile(0.50);
    json["p90"] = percentile(0.90);
    json["p99"] = percentile(0.99);
    Json buckets = Json::make_array();
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) {
        continue;
      }
      Json entry = Json::make_array();
      entry.push_back(bucket_lower(i));
      entry.push_back(counts_[i]);
      buckets.push_back(std::move(entry));
    }
    json["buckets"] = std::move(buckets);
    return json;
  }

  /// Inverse of to_json(): rebuild a histogram from its wire form. Bucket
  /// lowers are mapped back through bucket_index, so a dump produced by any
  /// node with the same bucket layout round-trips exactly — this is what
  /// lets pqs_router merge `metrics` snapshots from remote workers without
  /// ever seeing their raw samples. Percentile fields are recomputed, not
  /// trusted. Throws CheckFailure on a malformed dump.
  static LogHistogram from_json(const Json& json) {
    LogHistogram histogram;
    for (const Json& entry : json.at("buckets").as_array()) {
      const Json::Array& pair = entry.as_array();
      PQS_CHECK_MSG(pair.size() == 2, "histogram bucket wants [lower, count]");
      const std::uint64_t lower = pair[0].as_uint();
      const std::uint64_t n = pair[1].as_uint();
      const std::size_t index = bucket_index(lower);
      PQS_CHECK_MSG(bucket_lower(index) == lower,
                    "histogram bucket lower is not a bucket boundary");
      histogram.add_to_bucket(index, n);
    }
    PQS_CHECK_MSG(histogram.count_ == json.at("count").as_uint(),
                  "histogram bucket counts disagree with total");
    histogram.note_max(json.at("max").as_uint());
    return histogram;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace pqs
