// Determinism tests for the sharded pipeline: across 1/2/3/8 worker
// threads, every front end must produce byte-identical output —
// events, ordering, filter statistics, IDS alerts — to its serial
// counterpart on a seeded multi-day workload. Total-order mode must
// match event for event; sharded-ownership mode must recover the
// serial event multiset and byte-identical rendered reports through
// analyzer merges.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/reports.hpp"
#include "core/artifact_filter.hpp"
#include "core/detector.hpp"
#include "core/event_sink.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/streaming_ids.hpp"
#include "util/rng.hpp"
#include "util/timebase.hpp"

namespace v6sonar::core {
namespace {

constexpr sim::TimeUs kSec = 1'000'000;

/// Seeded multi-day workload: ~300 source /64s of very different
/// intensities, a handful of artifact-style sources hammering a tiny
/// destination set (so the 5-duplicate filter has work to do), and a
/// DNS-exposed slice. Spans ~2.3 days of stream time.
std::vector<sim::LogRecord> workload(std::size_t records = 200'000, std::uint64_t seed = 7) {
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
    const bool artifact = src_idx % 37 == 0;  // duplicate-heavy sources
    r.dst = net::Ipv6Address{0x2600ULL << 48, artifact ? rng.below(8) : rng.below(1 << 17)};
    r.proto = rng.below(10) == 0 ? wire::IpProto::kUdp : wire::IpProto::kTcp;
    r.dst_port = static_cast<std::uint16_t>(artifact ? 443 : rng.below(50));
    r.dst_in_dns = rng.below(10) == 0;
    r.src_asn = static_cast<std::uint32_t>(1 + src_idx % 50);
    out.push_back(r);
  }
  return out;
}

/// Gap-heavy workload for the timeout and watermark paths: bursts of
/// interleaved source activity separated by global quiet gaps longer
/// than a 900 s detection timeout, so nearly every event finalizes by
/// timing out mid-stream rather than at flush(). Within a burst the
/// sources send in rounds with sub-timeout pauses, and later rounds
/// drop sources at random — so the expiry heap accumulates stale
/// entries whose push order inverts the true end-time order, the exact
/// shape the merger's (end-time, source) contract must survive.
std::vector<sim::LogRecord> gap_workload(std::uint64_t seed = 11) {
  constexpr sim::TimeUs kTimeout = 900 * kSec;
  constexpr std::size_t kSources = 48;
  util::Xoshiro256 rng(seed);
  std::vector<sim::LogRecord> out;
  sim::TimeUs t = sim::us_from_seconds(util::kWindowStart);
  for (int burst = 0; burst < 150; ++burst) {
    std::vector<std::uint64_t> active;
    for (std::size_t k = 0, n = 2 + rng.below(6); k < n; ++k)
      active.push_back(rng.below(kSources));
    for (std::size_t round = 0, rounds = 1 + rng.below(3); round < rounds; ++round) {
      for (const std::uint64_t src_idx : active) {
        if (round > 0 && rng.below(3) == 0) continue;  // drops: earlier end times
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
      // Inter-round pause: below the timeout, so the burst stays one
      // event per source while its heap entries go stale.
      t += 200 * kSec + static_cast<sim::TimeUs>(rng.below(600 * kSec));
    }
    // Global quiet gap past the timeout: everything in flight expires
    // before the next burst's first record arrives.
    t += kTimeout + 200 * kSec + static_cast<sim::TimeUs>(rng.below(3'600 * kSec));
  }
  return out;
}

std::vector<ScanEvent> run_serial(const DetectorConfig& cfg,
                                  const std::vector<sim::LogRecord>& records) {
  std::vector<ScanEvent> events;
  ScanDetector det(cfg, [&](ScanEvent&& ev) { events.push_back(std::move(ev)); });
  for (const auto& r : records) det.feed(r);
  det.flush();
  return events;
}

std::vector<ScanEvent> run_parallel(const DetectorConfig& cfg, int threads,
                                    const std::vector<sim::LogRecord>& records) {
  std::vector<ScanEvent> events;
  ParallelScanPipeline pipe(cfg, {.threads = threads},
                            [&](ScanEvent&& ev) { events.push_back(std::move(ev)); });
  for (const auto& r : records) pipe.feed(r);
  pipe.flush();
  return events;
}

TEST(ParallelScanPipeline, RejectsBadConfigAndInput) {
  const auto sink = [](ScanEvent&&) {};
  EXPECT_THROW(ParallelScanPipeline({.source_prefix_len = 129}, {.threads = 2}, sink),
               std::invalid_argument);
  EXPECT_THROW(ParallelScanPipeline({.min_destinations = 0}, {.threads = 2}, sink),
               std::invalid_argument);
  EXPECT_THROW(ParallelScanPipeline({}, {.threads = 2}, ParallelScanPipeline::EventFn{}),
               std::invalid_argument);
  EXPECT_THROW(ParallelScanPipeline({}, {.threads = 2}, ParallelScanPipeline::ShardSinkFactory{}),
               std::invalid_argument);

  ParallelScanPipeline pipe({}, {.threads = 2}, sink);
  sim::LogRecord r;
  r.ts_us = 100;
  pipe.feed(r);
  r.ts_us = 99;
  EXPECT_THROW(pipe.feed(r), std::invalid_argument);
  pipe.flush();
  r.ts_us = 200;
  EXPECT_THROW(pipe.feed(r), std::logic_error);
}

TEST(ParallelScanPipeline, RejectsBadRingCapacity) {
  // Degenerate ring capacities are configuration errors, not silent
  // round-ups: a 0- or 4-slot ring would deadlock or thrash.
  const auto sink = [](ScanEvent&&) {};
  EXPECT_THROW(ParallelScanPipeline({}, {.threads = 2, .ring_capacity = 0}, sink),
               std::invalid_argument);
  EXPECT_THROW(ParallelScanPipeline({}, {.threads = 2, .ring_capacity = 4}, sink),
               std::invalid_argument);
  EXPECT_THROW(ParallelIds({}, {.threads = 2, .ring_capacity = 7}, [](const IdsAlert&) {}),
               std::invalid_argument);
  // 8 is the documented floor and must be accepted.
  ParallelScanPipeline ok({}, {.threads = 2, .ring_capacity = 8}, sink);
  ok.flush();
}

TEST(ParallelScanPipeline, EmptyStreamEmitsNothing) {
  std::size_t events = 0;
  ParallelScanPipeline pipe({}, {.threads = 4}, [&](ScanEvent&&) { ++events; });
  pipe.flush();
  pipe.flush();  // idempotent
  EXPECT_EQ(events, 0u);
}

TEST(ParallelScanPipeline, MatchesSerialByteForByte) {
  const auto records = workload();
  for (const int agg : {128, 64, 48}) {
    const DetectorConfig cfg{.source_prefix_len = agg};
    const auto serial = run_serial(cfg, records);
    ASSERT_FALSE(serial.empty()) << "workload produced no scans at /" << agg;
    for (const int threads : {1, 2, 3, 8}) {
      const auto parallel = run_parallel(cfg, threads, records);
      ASSERT_EQ(serial.size(), parallel.size())
          << "agg /" << agg << ", " << threads << " threads";
      EXPECT_TRUE(serial == parallel)
          << "event mismatch at agg /" << agg << ", " << threads << " threads";
    }
  }
}

TEST(ParallelScanPipeline, MatchesSerialAcrossQuietGaps) {
  // The dense workload above rarely times out mid-stream (its gaps are
  // far below the 1 h timeout), so it mostly exercises flush(). This
  // one is the opposite: a short 900 s timeout and quiet gaps beyond
  // it, so the timed-out emission path, stale expiry-heap entries, and
  // the merger's watermark gating carry the byte-identical guarantee.
  const auto records = gap_workload();
  const DetectorConfig cfg{
      .source_prefix_len = 64, .min_destinations = 10, .timeout_us = 900 * kSec};
  std::vector<ScanEvent> serial;
  std::size_t timed_out = 0;
  {
    ScanDetector det(cfg, [&](ScanEvent&& ev) { serial.push_back(std::move(ev)); });
    for (const auto& r : records) det.feed(r);
    timed_out = serial.size();  // emitted before flush(), i.e. by timeout
    det.flush();
  }
  ASSERT_FALSE(serial.empty());
  ASSERT_GT(timed_out, serial.size() * 9 / 10) << "workload lost its mid-stream timeouts";
  for (const int threads : {1, 2, 3, 8}) {
    const auto parallel = run_parallel(cfg, threads, records);
    ASSERT_EQ(serial.size(), parallel.size()) << threads << " threads";
    EXPECT_TRUE(serial == parallel) << "event mismatch at " << threads << " threads";
  }
}

TEST(ParallelScanPipeline, FilterStatsBeforeFlushThrows) {
  // Pre-flush the per-shard stats are still being written by workers;
  // reading them would race, so the accessor refuses.
  ParallelScanPipeline pipe({}, ArtifactFilterConfig{}, {.threads = 2}, [](ScanEvent&&) {});
  EXPECT_THROW((void)pipe.filter_stats(), std::logic_error);
  pipe.flush();
  EXPECT_TRUE(pipe.filter_stats().empty());  // empty stream, but now readable
}

TEST(ParallelScanPipeline, MatchesSerialWithTinyRings) {
  // Stress the ring backpressure path: capacity rounds up to 8 slots,
  // so feeder and workers block constantly.
  const auto records = workload(30'000);
  const DetectorConfig cfg{.source_prefix_len = 64};
  const auto serial = run_serial(cfg, records);
  std::vector<ScanEvent> parallel;
  ParallelScanPipeline pipe(cfg, {.threads = 4, .ring_capacity = 8},
                            [&](ScanEvent&& ev) { parallel.push_back(std::move(ev)); });
  for (const auto& r : records) pipe.feed(r);
  pipe.flush();
  EXPECT_TRUE(serial == parallel);
}

TEST(ParallelScanPipeline, FilteredChainMatchesSerialChain) {
  const auto records = workload();
  const DetectorConfig dcfg{.source_prefix_len = 64};
  const ArtifactFilterConfig fcfg{};

  std::vector<ScanEvent> serial_events;
  std::vector<FilterDayStats> serial_stats;
  {
    ScanDetector det(dcfg, [&](ScanEvent&& ev) { serial_events.push_back(std::move(ev)); });
    ArtifactFilter filter(
        fcfg, [&](const sim::LogRecord& r) { det.feed(r); },
        [&](const FilterDayStats& s) { serial_stats.push_back(s); });
    for (const auto& r : records) filter.feed(r);
    filter.flush();
    det.flush();
  }
  ASSERT_FALSE(serial_events.empty());
  std::uint64_t serial_dropped = 0;
  for (const auto& s : serial_stats) serial_dropped += s.packets_dropped;
  ASSERT_GT(serial_dropped, 0u) << "workload exercised no filtering";

  for (const int threads : {1, 2, 8}) {
    std::vector<ScanEvent> parallel_events;
    ParallelScanPipeline pipe(dcfg, fcfg, {.threads = threads},
                              [&](ScanEvent&& ev) { parallel_events.push_back(std::move(ev)); });
    for (const auto& r : records) pipe.feed(r);
    pipe.flush();
    EXPECT_TRUE(serial_events == parallel_events) << threads << " threads";

    // Per-day statistics must sum across shards to the serial values.
    const auto& stats = pipe.filter_stats();
    ASSERT_EQ(stats.size(), serial_stats.size()) << threads << " threads";
    for (std::size_t i = 0; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].day, serial_stats[i].day);
      EXPECT_EQ(stats[i].packets_in, serial_stats[i].packets_in);
      EXPECT_EQ(stats[i].packets_dropped, serial_stats[i].packets_dropped);
      EXPECT_EQ(stats[i].sources_seen, serial_stats[i].sources_seen);
      EXPECT_EQ(stats[i].sources_dropped, serial_stats[i].sources_dropped);
      EXPECT_EQ(stats[i].dropped_by_port, serial_stats[i].dropped_by_port);
    }
  }
}

TEST(ParallelScanPipeline, FilteredChainMatchesSerialAcrossBatchSizes) {
  // The bulk data plane has three batch boundaries — feeder runs,
  // worker chunk pops, merger drains — and none of them may show
  // through: every feed batch size must yield the serial chain's exact
  // events and day statistics at every thread count.
  const auto records = workload(60'000);
  const DetectorConfig dcfg{.source_prefix_len = 64};
  const ArtifactFilterConfig fcfg{};

  std::vector<ScanEvent> serial_events;
  std::vector<FilterDayStats> serial_stats;
  {
    ScanDetector det(dcfg, [&](ScanEvent&& ev) { serial_events.push_back(std::move(ev)); });
    ArtifactFilter filter(
        fcfg, [&](const sim::LogRecord& r) { det.feed(r); },
        [&](const FilterDayStats& s) { serial_stats.push_back(s); });
    for (const auto& r : records) filter.feed(r);
    filter.flush();
    det.flush();
  }
  ASSERT_FALSE(serial_events.empty());
  std::uint64_t serial_dropped = 0;
  for (const auto& s : serial_stats) serial_dropped += s.packets_dropped;
  ASSERT_GT(serial_dropped, 0u) << "workload exercised no filtering";

  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64}, records.size()}) {
    for (const int threads : {1, 2, 3, 8}) {
      std::vector<ScanEvent> parallel_events;
      ParallelScanPipeline pipe(dcfg, fcfg, {.threads = threads},
                                [&](ScanEvent&& ev) { parallel_events.push_back(std::move(ev)); });
      for (std::size_t i = 0; i < records.size(); i += batch)
        pipe.feed_batch({records.data() + i, std::min(batch, records.size() - i)});
      pipe.flush();
      EXPECT_TRUE(serial_events == parallel_events)
          << "batch " << batch << ", " << threads << " threads";

      const auto& stats = pipe.filter_stats();
      ASSERT_EQ(stats.size(), serial_stats.size())
          << "batch " << batch << ", " << threads << " threads";
      for (std::size_t i = 0; i < stats.size(); ++i) {
        EXPECT_EQ(stats[i].day, serial_stats[i].day);
        EXPECT_EQ(stats[i].packets_in, serial_stats[i].packets_in);
        EXPECT_EQ(stats[i].packets_dropped, serial_stats[i].packets_dropped);
        EXPECT_EQ(stats[i].sources_seen, serial_stats[i].sources_seen);
        EXPECT_EQ(stats[i].sources_dropped, serial_stats[i].sources_dropped);
        EXPECT_EQ(stats[i].dropped_by_port, serial_stats[i].dropped_by_port);
      }
    }
  }
}

/// Strict-total event order for multiset comparison: (source, last_us)
/// is unique per event, so sorting both sides by this key and
/// comparing equality checks the multisets are identical.
bool event_key_less(const ScanEvent& a, const ScanEvent& b) {
  if (a.last_us != b.last_us) return a.last_us < b.last_us;
  if (a.source != b.source) return a.source < b.source;
  return a.first_us < b.first_us;
}

/// Per-shard sink chain for sharded-ownership tests: materialize the
/// shard's events and fold them into a mergeable analyzer, as the CLI
/// report path does.
struct ShardChain {
  std::vector<ScanEvent> events;
  VectorSink vec{events};
  analysis::SourceAnalyzer sources;
  FanOutSink fan;
  ShardChain() {
    fan.add(vec);
    fan.add(sources);
  }
};

/// Render the per-source report to bytes, so equality below really is
/// "byte-identical rendered report".
std::string render_report(const analysis::SourceAnalyzer& a) {
  const auto t = a.totals();
  std::string out = std::to_string(t.scans) + " " + std::to_string(t.packets) + " " +
                    std::to_string(t.sources) + " " + std::to_string(t.ases) + "\n";
  for (const auto& row : a.sources())
    out += row.source.to_string() + " " + std::to_string(row.asn) + " " +
           std::to_string(row.scans) + " " + std::to_string(row.packets) + " " +
           std::to_string(row.distinct_dsts_max) + "\n";
  return out;
}

TEST(ParallelScanPipeline, ShardedModeRecoversSerialEventsAndReports) {
  const auto records = workload(60'000);
  const DetectorConfig cfg{.source_prefix_len = 64};
  const auto serial = run_serial(cfg, records);
  ASSERT_FALSE(serial.empty());

  analysis::SourceAnalyzer serial_sources;
  for (const auto& ev : serial) serial_sources.observe(ev);
  serial_sources.flush();
  const auto serial_report = render_report(serial_sources);

  auto sorted_serial = serial;
  std::sort(sorted_serial.begin(), sorted_serial.end(), event_key_less);

  for (const int threads : {1, 2, 3, 8}) {
    std::vector<std::unique_ptr<ShardChain>> chains;
    ParallelScanPipeline pipe(cfg, {.threads = threads},
                              ParallelScanPipeline::ShardSinkFactory(
                                  [&](std::size_t) -> EventSink& {
                                    chains.push_back(std::make_unique<ShardChain>());
                                    return chains.back()->fan;
                                  }));
    ASSERT_EQ(chains.size(), static_cast<std::size_t>(pipe.threads()));
    for (const auto& r : records) pipe.feed(r);
    pipe.flush();

    // The union of the per-shard streams is the serial event multiset
    // (total order across shards is what the mode relaxes).
    std::vector<ScanEvent> all;
    for (const auto& c : chains) all.insert(all.end(), c->events.begin(), c->events.end());
    std::sort(all.begin(), all.end(), event_key_less);
    EXPECT_TRUE(all == sorted_serial) << threads << " threads";

    // Merging the per-shard analyzer states renders the serial report
    // byte for byte.
    for (std::size_t i = 1; i < chains.size(); ++i)
      chains[0]->sources.merge(std::move(chains[i]->sources));
    chains[0]->sources.flush();
    EXPECT_EQ(render_report(chains[0]->sources), serial_report) << threads << " threads";
  }
}

TEST(ParallelScanPipeline, ShardedFilteredChainMatchesSerialChain) {
  const auto records = workload(60'000);
  const DetectorConfig dcfg{.source_prefix_len = 64};
  const ArtifactFilterConfig fcfg{};

  std::vector<ScanEvent> serial_events;
  std::vector<FilterDayStats> serial_stats;
  {
    ScanDetector det(dcfg, [&](ScanEvent&& ev) { serial_events.push_back(std::move(ev)); });
    ArtifactFilter filter(
        fcfg, [&](const sim::LogRecord& r) { det.feed(r); },
        [&](const FilterDayStats& s) { serial_stats.push_back(s); });
    for (const auto& r : records) filter.feed(r);
    filter.flush();
    det.flush();
  }
  ASSERT_FALSE(serial_events.empty());
  std::sort(serial_events.begin(), serial_events.end(), event_key_less);

  for (const int threads : {2, 8}) {
    std::vector<std::unique_ptr<ShardChain>> chains;
    ParallelScanPipeline pipe(dcfg, fcfg, {.threads = threads},
                              ParallelScanPipeline::ShardSinkFactory(
                                  [&](std::size_t) -> EventSink& {
                                    chains.push_back(std::make_unique<ShardChain>());
                                    return chains.back()->fan;
                                  }));
    for (const auto& r : records) pipe.feed(r);
    pipe.flush();

    std::vector<ScanEvent> all;
    for (const auto& c : chains) all.insert(all.end(), c->events.begin(), c->events.end());
    std::sort(all.begin(), all.end(), event_key_less);
    EXPECT_TRUE(all == serial_events) << threads << " threads";

    // Per-shard filtering decides exactly as the serial filter; the
    // summed day statistics carry over to sharded mode unchanged.
    const auto& stats = pipe.filter_stats();
    ASSERT_EQ(stats.size(), serial_stats.size()) << threads << " threads";
    for (std::size_t i = 0; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].packets_in, serial_stats[i].packets_in);
      EXPECT_EQ(stats[i].packets_dropped, serial_stats[i].packets_dropped);
    }
  }
}

TEST(ParallelScanPipeline, ValidationErrorsNameTheCliFlags) {
  // The config fields surface as --threads / --ring-cap on the CLI;
  // the messages must name the flags so failures are actionable.
  const auto sink = [](ScanEvent&&) {};
  try {
    ParallelScanPipeline({}, {.threads = -1}, sink);
    FAIL() << "negative thread count accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos) << e.what();
  }
  try {
    ParallelScanPipeline({}, {.threads = 2, .ring_capacity = 4}, sink);
    FAIL() << "tiny ring accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--ring-cap"), std::string::npos) << e.what();
  }
  try {
    ParallelIds({}, {.threads = 2, .ring_capacity = 7}, [](const IdsAlert&) {});
    FAIL() << "tiny ring accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--ring-cap"), std::string::npos) << e.what();
  }
}

TEST(ParallelIds, MatchesSerialAlertsAndBlocklist) {
  const auto records = workload();
  IdsConfig cfg;
  cfg.reattribution_period_us = 6LL * 3'600 * kSec;  // ~9 passes over the workload

  std::vector<IdsAlert> serial_alerts;
  StreamingIds serial(cfg, [&](const IdsAlert& a) { serial_alerts.push_back(a); });
  for (const auto& r : records) serial.feed(r);
  serial.flush();
  ASSERT_FALSE(serial_alerts.empty()) << "workload triggered no alerts";

  for (const int threads : {2, 8}) {
    std::vector<IdsAlert> parallel_alerts;
    ParallelIds ids(cfg, {.threads = threads},
                    [&](const IdsAlert& a) { parallel_alerts.push_back(a); });
    for (const auto& r : records) ids.feed(r);
    ids.flush();

    ASSERT_EQ(serial_alerts.size(), parallel_alerts.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial_alerts.size(); ++i) {
      EXPECT_TRUE(serial_alerts[i].attribution == parallel_alerts[i].attribution)
          << "alert " << i << ", " << threads << " threads";
      EXPECT_EQ(serial_alerts[i].is_new, parallel_alerts[i].is_new) << "alert " << i;
      EXPECT_EQ(serial_alerts[i].at_us, parallel_alerts[i].at_us) << "alert " << i;
    }
    EXPECT_TRUE(serial.blocklist() == ids.blocklist()) << threads << " threads";
  }
}

TEST(ParallelIds, StalledMergerKeepsFlushEventsOutOfPendingPasses) {
  // The alert sink runs on the merger thread. Sleeping in it once per
  // pass stalls the merger, so the workers run ahead, finish and flush
  // while attribution passes are still pending. Flush-time events must
  // still wait for every pass before them, as in the serial order.
  const auto records = workload();
  IdsConfig cfg;
  cfg.reattribution_period_us = 6LL * 3'600 * kSec;

  std::vector<IdsAlert> serial_alerts;
  StreamingIds serial(cfg, [&](const IdsAlert& a) { serial_alerts.push_back(a); });
  serial.feed_batch(records);
  serial.flush();

  for (const int threads : {2, 8}) {
    std::vector<IdsAlert> alerts;
    sim::TimeUs last_pass = INT64_MIN;
    ParallelIds ids(cfg, {.threads = threads}, [&](const IdsAlert& a) {
      if (a.at_us != last_pass) {
        last_pass = a.at_us;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      alerts.push_back(a);
    });
    ids.feed_batch(records);
    ids.flush();

    ASSERT_EQ(alerts.size(), serial_alerts.size()) << threads << " threads";
    for (std::size_t i = 0; i < alerts.size(); ++i) {
      EXPECT_TRUE(alerts[i].attribution == serial_alerts[i].attribution)
          << "alert " << i << ", " << threads << " threads";
      EXPECT_EQ(alerts[i].is_new, serial_alerts[i].is_new) << "alert " << i;
      EXPECT_EQ(alerts[i].at_us, serial_alerts[i].at_us) << "alert " << i;
    }
    EXPECT_TRUE(ids.blocklist() == serial.blocklist()) << threads << " threads";
  }
}

TEST(ParallelIds, ShardedBlocklistMatchesSerial) {
  // Sharded mode trades the mid-stream alert cadence for a single
  // flush-time attribution pass: the final blocklist is identical to
  // serial, and every blocklist entry alerts exactly once, as new.
  const auto records = workload();
  IdsConfig cfg;
  cfg.reattribution_period_us = 6LL * 3'600 * kSec;

  StreamingIds serial(cfg, [](const IdsAlert&) {});
  for (const auto& r : records) serial.feed(r);
  serial.flush();
  ASSERT_FALSE(serial.blocklist().empty()) << "workload triggered no attributions";

  for (const int threads : {1, 2, 3, 8}) {
    std::vector<IdsAlert> alerts;
    ParallelIds ids(cfg, {.threads = threads},
                    [&](const IdsAlert& a) { alerts.push_back(a); }, OrderMode::kSharded);
    for (const auto& r : records) ids.feed(r);
    ids.flush();

    EXPECT_TRUE(serial.blocklist() == ids.blocklist()) << threads << " threads";
    EXPECT_EQ(alerts.size(), ids.blocklist().size()) << threads << " threads";
    for (const auto& a : alerts) EXPECT_TRUE(a.is_new);
  }
}

TEST(ParallelIds, EmptyStreamMatchesSerial) {
  IdsConfig cfg;
  std::size_t alerts = 0;
  ParallelIds ids(cfg, {.threads = 2}, [&](const IdsAlert&) { ++alerts; });
  ids.flush();
  EXPECT_EQ(alerts, 0u);
  EXPECT_TRUE(ids.blocklist().empty());
}

TEST(ParallelIds, BlocklistBeforeFlushThrows) {
  // The merger thread mutates the tracker during barrier passes, so a
  // pre-flush read would race; the accessor refuses.
  ParallelIds ids({}, {.threads = 2}, [](const IdsAlert&) {});
  EXPECT_THROW((void)ids.blocklist(), std::logic_error);
  ids.flush();
  EXPECT_TRUE(ids.blocklist().empty());
}

}  // namespace
}  // namespace v6sonar::core
