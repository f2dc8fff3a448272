// Stage-counter integration: the pipeline instrumentation added for
// docs/OBSERVABILITY.md must report what actually happened — grouped
// vs serial batch routing with the correct fallback reason, filter
// day accounting, and per-shard ring telemetry after a parallel run.
// The registry is process-wide, so every test reads deltas from a
// fresh reset() and looks metrics up by name.
#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "core/artifact_filter.hpp"
#include "core/detector.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/streaming_ids.hpp"
#include "sim/log_io.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/timebase.hpp"
#include "shard_collector.hpp"

namespace v6sonar::core {
namespace {

namespace m = util::metrics;

constexpr sim::TimeUs kSec = 1'000'000;

class CoreMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    m::reset();
    m::enable(true);
  }
  void TearDown() override {
    m::enable(false);
    m::reset();
  }

  static std::uint64_t counter(const m::MetricsSnapshot& s, std::string_view name) {
    return s.counter(name).value_or(0);
  }
};

/// `src_idx` lands in the high /64 so distinct indices stay distinct
/// sources under the default 64-bit aggregation.
sim::LogRecord rec(sim::TimeUs ts, std::uint64_t src_idx, std::uint64_t dst_lo,
                   std::uint16_t port = 443) {
  sim::LogRecord r;
  r.ts_us = ts;
  r.src = net::Ipv6Address{(0x2A10ULL << 48) | (src_idx << 16), 0};
  r.dst = net::Ipv6Address{0x2600ULL << 48, dst_lo};
  r.proto = wire::IpProto::kTcp;
  r.dst_port = port;
  return r;
}

DetectorConfig det_config() {
  DetectorConfig c;
  c.source_prefix_len = 64;
  c.min_destinations = 3;
  c.timeout_us = 900 * kSec;
  return c;
}

TEST_F(CoreMetricsTest, GroupedBatchPathIsCounted) {
  ScanDetector det(det_config(), [](ScanEvent&&) {});
  std::vector<sim::LogRecord> batch;
  const sim::TimeUs t0 = sim::us_from_seconds(util::kWindowStart);
  for (int i = 0; i < 64; ++i) batch.push_back(rec(t0 + i * kSec, i % 4, i));
  det.feed_batch(batch);

  const auto snap = m::snapshot();
  EXPECT_EQ(counter(snap, "detector.batch.calls"), 1u);
  EXPECT_EQ(counter(snap, "detector.batch.records"), 64u);
  EXPECT_EQ(counter(snap, "detector.batch.grouped.batches"), 1u);
  EXPECT_EQ(counter(snap, "detector.batch.grouped.records"), 64u);
  EXPECT_GE(counter(snap, "detector.batch.grouped.runs"), 4u);
  EXPECT_EQ(counter(snap, "detector.batch.serial.records"), 0u);
  EXPECT_EQ(snap.counter_sum("detector.batch.fallback."), 0u);
}

TEST_F(CoreMetricsTest, UnsortedBatchFallsBackWithReason) {
  ScanDetector det(det_config(), [](ScanEvent&&) {});
  const sim::TimeUs t0 = sim::us_from_seconds(util::kWindowStart);
  std::vector<sim::LogRecord> batch = {rec(t0 + kSec, 1, 1), rec(t0, 2, 2),
                                       rec(t0 + 2 * kSec, 3, 3)};
  // The fallback reason is recorded, then the serial path throws at
  // exactly the record feed() would have rejected.
  EXPECT_THROW(det.feed_batch(batch), std::invalid_argument);

  const auto snap = m::snapshot();
  EXPECT_EQ(counter(snap, "detector.batch.fallback.unsorted"), 1u);
  EXPECT_EQ(counter(snap, "detector.batch.grouped.batches"), 0u);
}

TEST_F(CoreMetricsTest, BatchSpanningTimeoutFallsBackWithReason) {
  ScanDetector det(det_config(), [](ScanEvent&&) {});
  const sim::TimeUs t0 = sim::us_from_seconds(util::kWindowStart);
  std::vector<sim::LogRecord> batch = {rec(t0, 1, 1), rec(t0 + 901 * kSec, 2, 2)};
  det.feed_batch(batch);

  const auto snap = m::snapshot();
  EXPECT_EQ(counter(snap, "detector.batch.fallback.span_exceeds_timeout"), 1u);
  EXPECT_EQ(counter(snap, "detector.batch.serial.records"), 2u);
}

TEST_F(CoreMetricsTest, TinyBatchCountsAsSmallFallback) {
  ScanDetector det(det_config(), [](ScanEvent&&) {});
  const sim::TimeUs t0 = sim::us_from_seconds(util::kWindowStart);
  std::vector<sim::LogRecord> one = {rec(t0, 1, 1)};
  det.feed_batch(one);

  const auto snap = m::snapshot();
  EXPECT_EQ(counter(snap, "detector.batch.fallback.small_batch"), 1u);
  EXPECT_EQ(counter(snap, "detector.batch.serial.records"), 1u);
}

TEST_F(CoreMetricsTest, ExpiryAndEventCountersTrackFinalization) {
  auto cfg = det_config();
  std::size_t events = 0;
  ScanDetector det(cfg, [&](ScanEvent&&) { ++events; });
  const sim::TimeUs t0 = sim::us_from_seconds(util::kWindowStart);
  // One source hitting 5 distinct destinations, then a quiet gap past
  // the timeout so the expiry sweep finalizes it.
  for (int i = 0; i < 5; ++i) det.feed(rec(t0 + i, 1, 100 + i));
  det.advance(t0 + 2000 * kSec);
  det.flush();

  const auto snap = m::snapshot();
  EXPECT_EQ(events, 1u);
  EXPECT_EQ(counter(snap, "detector.events.emitted"), 1u);
  EXPECT_GE(counter(snap, "detector.expiry.pops"), 1u);
  EXPECT_GE(counter(snap, "detector.expiry.finalized"), 1u);
}

TEST_F(CoreMetricsTest, FilterDayCountersMatchStats) {
  ArtifactFilterConfig cfg;
  cfg.source_prefix_len = 64;
  cfg.duplicate_threshold = 5;
  cfg.max_duplicate_fraction = 0.3;
  std::vector<FilterDayStats> days;
  std::size_t passed = 0;
  ArtifactFilter filter(
      cfg, [&](const sim::LogRecord&) { ++passed; },
      [&](const FilterDayStats& s) { days.push_back(s); });

  const sim::TimeUs t0 = sim::us_from_seconds(util::kWindowStart);
  // Source 1: 10 packets all to one flow -> packets 6..10 are
  // duplicates (50%), dropped.
  for (int i = 0; i < 10; ++i) filter.feed(rec(t0 + i, 1, 7, 443));
  // Source 2: 10 packets to distinct flows, kept.
  for (int i = 0; i < 10; ++i) filter.feed(rec(t0 + 100 + i, 2, 100 + i, 443));
  filter.flush();

  const auto snap = m::snapshot();
  ASSERT_EQ(days.size(), 1u);
  EXPECT_EQ(counter(snap, "filter.days_closed"), 1u);
  EXPECT_EQ(counter(snap, "filter.packets_in"), 20u);
  EXPECT_EQ(counter(snap, "filter.packets_dropped"), 10u);
  EXPECT_EQ(counter(snap, "filter.duplicate_packets"), 5u);
  EXPECT_EQ(counter(snap, "filter.sources_seen"), 2u);
  EXPECT_EQ(counter(snap, "filter.sources_dropped"), 1u);
  EXPECT_EQ(passed, 10u);
}

TEST_F(CoreMetricsTest, ParallelPipelineReportsShardTelemetry) {
  util::Xoshiro256 rng(3);
  std::vector<sim::LogRecord> records;
  sim::TimeUs t = sim::us_from_seconds(util::kWindowStart);
  for (int i = 0; i < 20'000; ++i) {
    t += 1 + static_cast<sim::TimeUs>(rng.below(kSec / 10));
    records.push_back(rec(t, rng.below(64) << 16, rng.below(1 << 18),
                          static_cast<std::uint16_t>(rng.below(50))));
  }

  ParallelConfig pc;
  pc.threads = 4;
  std::size_t events = 0;
  {
    testing::ShardCollector shards;
    ParallelScanPipeline pipe(det_config(), pc, shards.factory());
    pipe.feed_batch(records);
    pipe.flush();
    events = shards.merged(pipe).size();
  }

  const auto snap = m::snapshot();
  EXPECT_EQ(counter(snap, "pipeline.feed.records"), records.size());
  // Every shard's occupancy gauge exists and at least one saw traffic.
  std::size_t shard_gauges = 0;
  for (const auto& [name, value] : snap.gauges)
    if (name.starts_with("pipeline.shard") && name.ends_with(".in_ring.occupancy_hw"))
      ++shard_gauges;
  EXPECT_EQ(shard_gauges, 4u);
  EXPECT_GT(snap.gauge_max_of("pipeline.shard"), 0u);
  // Aggregate ring counters were registered (values workload-dependent).
  EXPECT_TRUE(snap.counter("pipeline.in_ring.producer_blocked").has_value());
  EXPECT_TRUE(snap.counter("pipeline.in_ring.producer_parks").has_value());
  // The workers' private detectors route through the same counters.
  EXPECT_GT(counter(snap, "detector.events.emitted"), 0u);
  EXPECT_EQ(counter(snap, "detector.events.emitted"), events);
}

TEST_F(CoreMetricsTest, TierGaugesDoNotDependOnBatchBoundaries) {
  // Worker batch boundaries follow the ring size and thread timing;
  // the tier high-waters must follow only the input. Ring capacity 8
  // cuts every shard's input into tiny batches, 16384 into a few big
  // ones, so a gauge noted per batch reads differently between them.
  util::Xoshiro256 rng(11);
  std::vector<sim::LogRecord> records;
  sim::TimeUs t = sim::us_from_seconds(util::kWindowStart);
  for (int i = 0; i < 30'000; ++i) {
    t += 1 + static_cast<sim::TimeUs>(rng.below(kSec / 2));
    records.push_back(rec(t, rng.below(3'000) << 16, rng.below(1 << 18)));
  }
  DetectorConfig cfg = det_config();
  cfg.demote_idle_us = 120 * kSec;

  const auto gauges = [&](std::size_t ring_capacity) {
    m::reset();
    testing::ShardCollector shards;
    ParallelScanPipeline pipe(cfg, {.threads = 3, .ring_capacity = ring_capacity},
                              shards.factory());
    pipe.feed_batch(records);
    pipe.flush();
    const auto snap = m::snapshot();
    return std::pair{snap.gauge("detector.state.hot_sources").value_or(0),
                     snap.gauge("detector.state.cold_sources").value_or(0)};
  };
  const auto small_batches = gauges(8);
  const auto large_batches = gauges(16'384);
  EXPECT_GT(small_batches.first, 0u);
  EXPECT_GT(small_batches.second, 0u);
  EXPECT_EQ(small_batches, large_batches);
}

TEST_F(CoreMetricsTest, IdsAttributionTimerSamplesEveryPass) {
  // ids.reattribution.passes counts logical passes at every shard
  // count; ids.attribute_us takes one sample per shard per pass, as
  // every shard attributes its own prefixes.
  IdsConfig cfg;
  cfg.min_destinations = 3;
  cfg.timeout_us = 900 * kSec;
  cfg.reattribution_period_us = 600 * kSec;
  std::vector<sim::LogRecord> recs;
  const sim::TimeUs t0 = sim::us_from_seconds(util::kWindowStart);
  for (int i = 0; i < 400; ++i) recs.push_back(rec(t0 + i * 10 * kSec, i % 5, i));
  const auto samples = [] {
    const auto h = m::snapshot().histogram("ids.attribute_us");
    return h ? h->count : 0;
  };

  constexpr std::uint64_t kPasses = 7;  // at 600, 1200, ..., 3600 s, plus the flush pass
  for (const int threads : {1, 2, 3}) {
    m::reset();
    ParallelIds ids(cfg, {.threads = threads}, [](const IdsAlert&) {});
    ids.feed_batch(recs);
    ids.flush();
    EXPECT_EQ(counter(m::snapshot(), "ids.reattribution.passes"), kPasses)
        << threads << " threads";
    EXPECT_EQ(samples(), kPasses * static_cast<std::uint64_t>(threads)) << threads << " threads";
  }
}

TEST_F(CoreMetricsTest, DisabledRegistryStaysSilent) {
  m::enable(false);
  ScanDetector det(det_config(), [](ScanEvent&&) {});
  std::vector<sim::LogRecord> batch;
  const sim::TimeUs t0 = sim::us_from_seconds(util::kWindowStart);
  for (int i = 0; i < 16; ++i) batch.push_back(rec(t0 + i, i % 2, i));
  det.feed_batch(batch);

  const auto snap = m::snapshot();
  EXPECT_EQ(counter(snap, "detector.batch.calls"), 0u);
  EXPECT_EQ(counter(snap, "detector.batch.records"), 0u);
}

}  // namespace
}  // namespace v6sonar::core
