// Batch-feed equivalence: for every front end, feed_batch() over any
// partition of the stream must be byte-identical — events, ordering,
// filter statistics, alerts — to record-at-a-time feed(). Batch sizes
// cover the degenerate (1), the awkward (7, never aligned with tick or
// reattribution boundaries), the typical (64), and the whole stream in
// one call.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/artifact_filter.hpp"
#include "core/detector.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/streaming_ids.hpp"
#include "util/rng.hpp"
#include "util/timebase.hpp"
#include "ids_oracle.hpp"
#include "shard_collector.hpp"

namespace v6sonar::core {
namespace {

constexpr sim::TimeUs kSec = 1'000'000;

/// Gap-heavy seeded workload (the shape that stresses mid-stream
/// timeouts, stale expiry-heap entries, and watermark gating): bursts
/// of interleaved sources separated by quiet gaps beyond a 900 s
/// timeout, with random per-round source drops.
std::vector<sim::LogRecord> gap_workload(std::uint64_t seed = 11) {
  constexpr sim::TimeUs kTimeout = 900 * kSec;
  constexpr std::size_t kSources = 48;
  util::Xoshiro256 rng(seed);
  std::vector<sim::LogRecord> out;
  sim::TimeUs t = sim::us_from_seconds(util::kWindowStart);
  for (int burst = 0; burst < 60; ++burst) {
    std::vector<std::uint64_t> active;
    for (std::size_t k = 0, n = 2 + rng.below(6); k < n; ++k)
      active.push_back(rng.below(kSources));
    for (std::size_t round = 0, rounds = 1 + rng.below(3); round < rounds; ++round) {
      for (const std::uint64_t src_idx : active) {
        if (round > 0 && rng.below(3) == 0) continue;
        for (std::size_t p = 0, pkts = 12 + rng.below(20); p < pkts; ++p) {
          t += 1 + static_cast<sim::TimeUs>(rng.below(kSec / 4));
          sim::LogRecord r;
          r.ts_us = t;
          r.src = net::Ipv6Address{0x2A10'0000'0000'0000ULL | src_idx << 16, rng.below(4)};
          r.dst = net::Ipv6Address{0x2600ULL << 48, rng.below(1 << 20)};
          r.proto = wire::IpProto::kTcp;
          r.dst_port = static_cast<std::uint16_t>(rng.below(50));
          r.dst_in_dns = rng.below(10) == 0;
          r.src_asn = static_cast<std::uint32_t>(1 + src_idx % 50);
          out.push_back(r);
        }
      }
      t += 200 * kSec + static_cast<sim::TimeUs>(rng.below(600 * kSec));
    }
    t += kTimeout + 200 * kSec + static_cast<sim::TimeUs>(rng.below(3'600 * kSec));
  }
  return out;
}

/// Dense multi-day workload with artifact-style duplicate-heavy
/// sources, for the filter and IDS paths.
std::vector<sim::LogRecord> dense_workload(std::size_t records = 60'000,
                                           std::uint64_t seed = 7) {
  constexpr std::size_t kSources = 300;
  util::Xoshiro256 rng(seed);
  std::vector<sim::LogRecord> out;
  out.reserve(records);
  sim::TimeUs t = sim::us_from_seconds(util::kWindowStart);
  for (std::size_t i = 0; i < records; ++i) {
    t += 1 + static_cast<sim::TimeUs>(rng.below(2 * kSec));
    const std::uint64_t src_idx = rng.below(kSources);
    sim::LogRecord r;
    r.ts_us = t;
    r.src = net::Ipv6Address{0x2A10'0000'0000'0000ULL | src_idx << 16, rng.below(4)};
    const bool artifact = src_idx % 37 == 0;
    r.dst = net::Ipv6Address{0x2600ULL << 48, artifact ? rng.below(8) : rng.below(1 << 17)};
    r.proto = rng.below(10) == 0 ? wire::IpProto::kUdp : wire::IpProto::kTcp;
    r.dst_port = static_cast<std::uint16_t>(artifact ? 443 : rng.below(50));
    r.dst_in_dns = rng.below(10) == 0;
    r.src_asn = static_cast<std::uint32_t>(1 + src_idx % 50);
    out.push_back(r);
  }
  return out;
}

/// Partition `records` into runs of `batch` (whole stream if 0) and
/// feed each run to `fn` as one span.
template <typename Fn>
void feed_in_batches(const std::vector<sim::LogRecord>& records, std::size_t batch, Fn&& fn) {
  const std::span<const sim::LogRecord> all(records);
  if (batch == 0) {
    fn(all);
    return;
  }
  for (std::size_t i = 0; i < all.size(); i += batch)
    fn(all.subspan(i, std::min(batch, all.size() - i)));
}

const std::size_t kBatchSizes[] = {1, 7, 64, 0};  // 0 = whole stream

TEST(BatchFeed, ScanDetectorMatchesRecordAtATime) {
  const auto records = gap_workload();
  const DetectorConfig cfg{
      .source_prefix_len = 64, .min_destinations = 10, .timeout_us = 900 * kSec};

  std::vector<ScanEvent> reference;
  {
    ScanDetector det(cfg, [&](ScanEvent&& ev) { reference.push_back(std::move(ev)); });
    for (const auto& r : records) det.feed(r);
    det.flush();
  }
  ASSERT_FALSE(reference.empty());

  for (const std::size_t batch : kBatchSizes) {
    std::vector<ScanEvent> events;
    ScanDetector det(cfg, [&](ScanEvent&& ev) { events.push_back(std::move(ev)); });
    feed_in_batches(records, batch, [&](std::span<const sim::LogRecord> s) {
      det.feed_batch(s);
    });
    det.flush();
    EXPECT_TRUE(events == reference) << "batch size " << batch;
  }
}

TEST(BatchFeed, ArtifactFilterMatchesRecordAtATime) {
  const auto records = dense_workload();
  const ArtifactFilterConfig cfg{};

  std::vector<sim::LogRecord> ref_out;
  std::vector<FilterDayStats> ref_stats;
  {
    ArtifactFilter f(
        cfg, [&](const sim::LogRecord& r) { ref_out.push_back(r); },
        [&](const FilterDayStats& s) { ref_stats.push_back(s); });
    for (const auto& r : records) f.feed(r);
    f.flush();
  }
  ASSERT_FALSE(ref_out.empty());
  ASSERT_LT(ref_out.size(), records.size()) << "workload exercised no filtering";

  for (const std::size_t batch : kBatchSizes) {
    std::vector<sim::LogRecord> out;
    std::vector<FilterDayStats> stats;
    ArtifactFilter f(
        cfg, [&](const sim::LogRecord& r) { out.push_back(r); },
        [&](const FilterDayStats& s) { stats.push_back(s); });
    feed_in_batches(records, batch, [&](std::span<const sim::LogRecord> s) {
      f.feed_batch(s);
    });
    f.flush();
    EXPECT_TRUE(out == ref_out) << "batch size " << batch;
    ASSERT_EQ(stats.size(), ref_stats.size()) << "batch size " << batch;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].day, ref_stats[i].day);
      EXPECT_EQ(stats[i].packets_dropped, ref_stats[i].packets_dropped);
      EXPECT_EQ(stats[i].sources_dropped, ref_stats[i].sources_dropped);
    }
  }
}

TEST(BatchFeed, ParallelScanPipelineMatchesSerialAcrossBatchSizes) {
  // The full guarantee: batched parallel feeding, gap-heavy workload,
  // several thread counts — still byte-identical to the serial
  // detector fed one record at a time.
  const auto records = gap_workload();
  const DetectorConfig cfg{
      .source_prefix_len = 64, .min_destinations = 10, .timeout_us = 900 * kSec};

  std::vector<ScanEvent> serial;
  std::size_t timed_out = 0;
  {
    ScanDetector det(cfg, [&](ScanEvent&& ev) { serial.push_back(std::move(ev)); });
    for (const auto& r : records) det.feed(r);
    timed_out = serial.size();
    det.flush();
  }
  ASSERT_FALSE(serial.empty());
  ASSERT_GT(timed_out, 0u) << "workload lost its mid-stream timeouts";

  for (const int threads : {1, 2, 3, 8}) {
    for (const std::size_t batch : kBatchSizes) {
      testing::ShardCollector shards;
      ParallelScanPipeline pipe(cfg, {.threads = threads}, shards.factory());
      feed_in_batches(records, batch, [&](std::span<const sim::LogRecord> s) {
        pipe.feed_batch(s);
      });
      pipe.flush();
      EXPECT_TRUE(shards.merged(pipe) == serial) << threads << " threads, batch size " << batch;
    }
  }
}

TEST(BatchFeed, ParallelPipelineMixedFeedAndFeedBatch) {
  // feed() and feed_batch() interleave freely on one pipeline.
  const auto records = dense_workload(20'000);
  const DetectorConfig cfg{.source_prefix_len = 64};

  std::vector<ScanEvent> serial;
  {
    ScanDetector det(cfg, [&](ScanEvent&& ev) { serial.push_back(std::move(ev)); });
    for (const auto& r : records) det.feed(r);
    det.flush();
  }

  testing::ShardCollector shards;
  ParallelScanPipeline pipe(cfg, {.threads = 3}, shards.factory());
  const std::span<const sim::LogRecord> all(records);
  std::size_t i = 0;
  for (std::size_t run = 1; i < all.size(); run = run % 97 + 13) {
    const std::size_t n = std::min(run, all.size() - i);
    if (run % 2 == 0)
      for (std::size_t k = 0; k < n; ++k) pipe.feed(all[i + k]);
    else
      pipe.feed_batch(all.subspan(i, n));
    i += n;
  }
  pipe.flush();
  EXPECT_TRUE(shards.merged(pipe) == serial);
}

TEST(BatchFeed, StreamingIdsAndParallelIdsMatchRecordAtATime) {
  // The reference is the IDS oracle fed record at a time; ParallelIds
  // at one shard (the streaming IDS) and at several must match it at
  // every batch size.
  const auto records = dense_workload();
  IdsConfig cfg;
  cfg.reattribution_period_us = 6LL * 3'600 * kSec;

  std::vector<IdsAlert> reference;
  testing::OracleIds oracle(cfg, [&](const IdsAlert& a) { reference.push_back(a); });
  for (const auto& r : records) oracle.feed(r);
  oracle.flush();
  ASSERT_FALSE(reference.empty()) << "workload triggered no alerts";

  for (const int threads : {1, 2, 8}) {
    for (const std::size_t batch : kBatchSizes) {
      std::vector<IdsAlert> alerts;
      ParallelIds ids(cfg, {.threads = threads},
                      [&](const IdsAlert& a) { alerts.push_back(a); });
      feed_in_batches(records, batch, [&](std::span<const sim::LogRecord> s) {
        ids.feed_batch(s);
      });
      ids.flush();
      ASSERT_EQ(alerts.size(), reference.size()) << threads << " threads, batch size " << batch;
      for (std::size_t i = 0; i < alerts.size(); ++i) {
        EXPECT_TRUE(alerts[i].attribution == reference[i].attribution)
            << "alert " << i << ", " << threads << " threads, batch size " << batch;
        EXPECT_EQ(alerts[i].is_new, reference[i].is_new) << "alert " << i;
        EXPECT_EQ(alerts[i].at_us, reference[i].at_us) << "alert " << i;
      }
      EXPECT_TRUE(ids.blocklist() == oracle.blocklist())
          << threads << " threads, batch size " << batch;
    }
  }
}

}  // namespace
}  // namespace v6sonar::core
