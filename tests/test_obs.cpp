// pqs::obs metrics: instrument semantics (Counter/Gauge/AtomicHistogram),
// registry find-or-create identity and snapshot shape, EXACT fleet merging
// (merged histogram bucket counts equal the sum of per-shard counts — the
// router's `metrics` reducer contract), per-Service registry isolation, the
// Service's registry-served counters, and the net layer's connection
// counters over real TCP.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/histogram.h"
#include "common/json.h"
#include "common/timing.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace pqs {
namespace {

using namespace std::chrono_literals;
using obs::AtomicHistogram;
using obs::Counter;
using obs::Gauge;
using obs::MetricsRegistry;

// ---- instruments -----------------------------------------------------------

TEST(ObsCounterTest, AddAndValue) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(ObsGaugeTest, SetAddAndNegativeValues) {
  Gauge gauge;
  gauge.set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), -3);
}

TEST(ObsAtomicHistogramTest, SnapshotMatchesPlainHistogram) {
  AtomicHistogram atomic;
  LogHistogram plain;
  const std::vector<std::uint64_t> values = {0, 1, 7, 8, 100, 1000000,
                                             std::uint64_t{1} << 40};
  for (std::uint64_t v : values) {
    atomic.record(v);
    plain.record(v);
  }
  const LogHistogram snap = atomic.snapshot();
  EXPECT_EQ(snap.count(), plain.count());
  EXPECT_EQ(snap.max(), plain.max());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(snap.percentile(q), plain.percentile(q)) << q;
  }
  EXPECT_EQ(snap.to_json().dump(), plain.to_json().dump());
}

TEST(ObsAtomicHistogramTest, ConcurrentRecordsAreAllCounted) {
  AtomicHistogram histogram;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        histogram.record(i * static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  EXPECT_EQ(histogram.snapshot().count(), kThreads * kPerThread);
  EXPECT_EQ(histogram.snapshot().max(), (kPerThread - 1) * kThreads);
}

// ---- histogram JSON round trip (the merge transport) -----------------------

TEST(ObsHistogramJsonTest, FromJsonRoundTripsExactly) {
  LogHistogram original;
  for (std::uint64_t v = 0; v < 4096; v += 7) {
    original.record(v * v);
  }
  const LogHistogram decoded = LogHistogram::from_json(original.to_json());
  EXPECT_EQ(decoded.count(), original.count());
  EXPECT_EQ(decoded.max(), original.max());
  EXPECT_EQ(decoded.to_json().dump(), original.to_json().dump());
}

TEST(ObsHistogramJsonTest, TamperedBucketBoundaryIsRejected) {
  LogHistogram histogram;
  histogram.record(100);
  Json json = histogram.to_json();
  // A lower bound that is not a real bucket boundary must be refused, not
  // silently snapped to the nearest bucket.
  Json bad_pair = Json::make_array();
  bad_pair.push_back(std::uint64_t{97});  // 97 is inside a bucket, not a lower
  bad_pair.push_back(std::uint64_t{1});
  Json buckets = Json::make_array();
  buckets.push_back(std::move(bad_pair));
  json["buckets"] = std::move(buckets);
  json["count"] = std::uint64_t{1};
  EXPECT_THROW((void)LogHistogram::from_json(json), CheckFailure);
}

// ---- registry --------------------------------------------------------------

TEST(ObsRegistryTest, FindOrCreateReturnsTheSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("service.submitted");
  Counter& b = registry.counter("service.submitted");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_NE(static_cast<void*>(&registry.counter("other")),
            static_cast<void*>(&a));
}

TEST(ObsRegistryTest, SnapshotShapeAndGaugeClamping) {
  MetricsRegistry registry;
  registry.counter("service.submitted").add(5);
  registry.gauge("service.queue_depth").set(3);
  registry.gauge("weird.negative").set(-17);  // clamped on the wire
  registry.histogram("latency.exec_ns").record(1000);

  const Json snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.at("counters").at("service.submitted").as_uint(), 5u);
  EXPECT_EQ(snapshot.at("gauges").at("service.queue_depth").as_uint(), 3u);
  EXPECT_EQ(snapshot.at("gauges").at("weird.negative").as_uint(), 0u);
  EXPECT_EQ(
      snapshot.at("histograms").at("latency.exec_ns").at("count").as_uint(),
      1u);
  // Canonical: two snapshots of the same state are byte-identical.
  EXPECT_EQ(snapshot.dump(), registry.snapshot().dump());
}

// ---- fleet merging (the router's `metrics` reducer) ------------------------

TEST(ObsMergeTest, MergedCountsAreExactSumsOfPerWorkerCounts) {
  // Three "workers" with deliberately different load shapes, plus one
  // reference registry that saw EVERY sample: the merged snapshot must
  // agree with the reference exactly, bucket for bucket.
  MetricsRegistry shard_a;
  MetricsRegistry shard_b;
  MetricsRegistry shard_c;
  MetricsRegistry reference;

  // Every worker serves the SAME workload distribution (uniform-by-rank
  // over [0, 1e6)) at different volumes — the realistic sharded-fleet
  // shape, and the precondition for the one-bucket percentile bound below.
  const auto feed = [&reference](MetricsRegistry& shard,
                                 std::uint64_t samples) {
    shard.counter("service.submitted").add(samples);
    reference.counter("service.submitted").add(samples);
    for (std::uint64_t i = 0; i < samples; ++i) {
      const std::uint64_t v = i * 1000000 / samples;
      shard.histogram("latency.exec_ns").record(v);
      reference.histogram("latency.exec_ns").record(v);
    }
  };
  feed(shard_a, 50);   // light shard
  feed(shard_b, 900);  // the widest shard dominates the distribution
  feed(shard_c, 200);
  shard_a.gauge("service.queue_depth").set(2);
  shard_b.gauge("service.queue_depth").set(5);
  // shard_c never registered the gauge: merging must not invent a zero read
  // from it, just sum the shards that have it.
  const Json b_snapshot = shard_b.snapshot();

  const Json merged = obs::merge_snapshots(
      {shard_a.snapshot(), b_snapshot, shard_c.snapshot()});

  EXPECT_EQ(merged.at("counters").at("service.submitted").as_uint(),
            50u + 900u + 200u);
  EXPECT_EQ(merged.at("gauges").at("service.queue_depth").as_uint(), 7u);

  const Json& merged_hist = merged.at("histograms").at("latency.exec_ns");
  EXPECT_EQ(merged_hist.at("count").as_uint(), 50u + 900u + 200u);
  // Bucket-exact: identical to the registry that saw every sample.
  const Json reference_hist =
      reference.snapshot().at("histograms").at("latency.exec_ns");
  EXPECT_EQ(merged_hist.dump(), reference_hist.dump());

  // Percentile sanity versus the widest shard: merging log-bucketed
  // histograms cannot displace a percentile by more than one bucket
  // relative to the dominant contributor.
  const LogHistogram merged_decoded = LogHistogram::from_json(merged_hist);
  const LogHistogram widest =
      LogHistogram::from_json(b_snapshot.at("histograms").at("latency.exec_ns"));
  for (double q : {0.5, 0.9, 0.99}) {
    const std::size_t merged_bucket =
        LogHistogram::bucket_index(merged_decoded.percentile(q));
    const std::size_t widest_bucket =
        LogHistogram::bucket_index(widest.percentile(q));
    EXPECT_LE(merged_bucket > widest_bucket ? merged_bucket - widest_bucket
                                            : widest_bucket - merged_bucket,
              1u)
        << "q=" << q;
  }
}

TEST(ObsMergeTest, EmptyAndSingletonMerges) {
  EXPECT_EQ(obs::merge_snapshots({}).at("counters").as_object().size(), 0u);
  MetricsRegistry registry;
  registry.counter("a").add(4);
  const Json snapshot = registry.snapshot();
  EXPECT_EQ(obs::merge_snapshots({snapshot}).dump(), snapshot.dump());
}

// ---- the Service on the registry -------------------------------------------

SearchSpec obs_test_spec(std::uint64_t seed) {
  SearchSpec spec = SearchSpec::single_target(64, 1, 9);
  spec.algorithm = "grover";
  spec.seed = seed;
  return spec;
}

TEST(ObsServiceTest, MetricsSnapshotServesCountersGaugesAndLatency) {
  Service service({.threads = 2});
  service.submit(obs_test_spec(1)).wait();
  service.submit(obs_test_spec(2)).wait();
  service.submit(obs_test_spec(2)).wait();  // result-cache hit

  const Json snapshot = service.metrics_snapshot();
  const Json& counters = snapshot.at("counters");
  EXPECT_EQ(counters.at("service.submitted").as_uint(), 3u);
  EXPECT_EQ(counters.at("service.cache_hits").as_uint(), 1u);
  EXPECT_EQ(counters.at("service.executed").as_uint(), 2u);
  EXPECT_EQ(counters.at("service.done").as_uint(), 2u);
  // Gauges are refreshed by metrics_snapshot(): all jobs settled.
  EXPECT_EQ(snapshot.at("gauges").at("service.queue_depth").as_uint(), 0u);
  EXPECT_EQ(snapshot.at("gauges").at("result_cache.size").as_uint(), 2u);
  // Cache-served repeats execute nothing: two latency samples, not three.
  for (const char* stage :
       {"latency.queue_ns", "latency.plan_ns", "latency.exec_ns"}) {
    EXPECT_EQ(snapshot.at("histograms").at(stage).at("count").as_uint(), 2u)
        << stage;
  }
}

TEST(ObsServiceTest, PrivateRegistriesStayIsolated) {
  Service first({.threads = 1});
  Service second({.threads = 1});
  first.submit(obs_test_spec(1)).wait();
  EXPECT_EQ(first.metrics().counter("service.submitted").value(), 1u);
  EXPECT_EQ(second.metrics().counter("service.submitted").value(), 0u);
}

TEST(ObsServiceTest, SharedRegistryAggregatesAcrossServices) {
  MetricsRegistry shared;
  Service first({.threads = 1, .metrics = &shared});
  Service second({.threads = 1, .metrics = &shared});
  first.submit(obs_test_spec(1)).wait();
  second.submit(obs_test_spec(2)).wait();
  EXPECT_EQ(shared.counter("service.submitted").value(), 2u);
}

// ---- net-layer counters over real TCP --------------------------------------

TEST(ObsNetTest, AcceptAndDisconnectCountsLandInTheRegistry) {
  MetricsRegistry registry;
  Service service({.threads = 1, .metrics = &registry});
  net::NetServer server(service,
                        {.listen = {"127.0.0.1", 0}, .metrics = &registry});
  server.start();
  {
    net::Socket socket =
        net::connect_with_retry({"127.0.0.1", server.port()}, 5000ms);
    net::LineReader reader(socket);
    ASSERT_TRUE(socket.write_all("{\"op\":\"stats\"}\n"));
    std::string line;
    ASSERT_TRUE(reader.next_line(line));
  }  // socket closes here
  // The disconnect is counted when the handler notices the peer is gone.
  Stopwatch watch;
  while (registry.counter("net.disconnects").value() == 0 &&
         watch.millis() < 10000) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(registry.counter("net.accepted_connections").value(), 1u);
  EXPECT_EQ(registry.counter("net.disconnects").value(), 1u);
  EXPECT_EQ(registry.counter("net.rejected_connections").value(), 0u);
  server.stop();
}

}  // namespace
}  // namespace pqs
