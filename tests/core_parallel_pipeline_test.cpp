// Determinism tests for the sharded pipeline: across 1/2/3/8 worker
// threads, every front end must produce byte-identical output —
// events, ordering, IDS alerts — to its serial reference (the serial
// detector, the IDS oracle of tests/ids_oracle.hpp) on a seeded
// multi-day workload. Per-shard event streams
// merged by the library merge must match the serial detector event
// for event; per-shard analyzers must merge into byte-identical
// rendered reports.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/reports.hpp"
#include "core/detect_run.hpp"
#include "core/detector.hpp"
#include "core/event_sink.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/state_codec.hpp"
#include "core/streaming_ids.hpp"
#include "util/rng.hpp"
#include "util/timebase.hpp"
#include "ids_oracle.hpp"
#include "shard_collector.hpp"

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
/// shape the merge's (end-time, source) contract must survive.
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
  testing::ShardCollector shards;
  ParallelScanPipeline pipe(cfg, {.threads = threads}, shards.factory());
  for (const auto& r : records) pipe.feed(r);
  pipe.flush();
  return shards.merged(pipe);
}

TEST(ParallelScanPipeline, RejectsBadConfigAndInput) {
  testing::ShardCollector sink;
  EXPECT_THROW(ParallelScanPipeline({.source_prefix_len = 129}, {.threads = 2}, sink.factory()),
               std::invalid_argument);
  EXPECT_THROW(ParallelScanPipeline({.min_destinations = 0}, {.threads = 2}, sink.factory()),
               std::invalid_argument);
  EXPECT_THROW(ParallelScanPipeline({}, {.threads = 2}, ParallelScanPipeline::ShardSinkFactory{}),
               std::invalid_argument);

  ParallelScanPipeline pipe({}, {.threads = 2}, sink.factory());
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
  testing::ShardCollector sink;
  EXPECT_THROW(ParallelScanPipeline({}, {.threads = 2, .ring_capacity = 0}, sink.factory()),
               std::invalid_argument);
  EXPECT_THROW(ParallelScanPipeline({}, {.threads = 2, .ring_capacity = 4}, sink.factory()),
               std::invalid_argument);
  EXPECT_THROW(ParallelIds({}, {.threads = 2, .ring_capacity = 7}, [](const IdsAlert&) {}),
               std::invalid_argument);
  // 8 is the documented floor and must be accepted.
  ParallelScanPipeline ok({}, {.threads = 2, .ring_capacity = 8}, sink.factory());
  ok.flush();
}

TEST(ParallelScanPipeline, EmptyStreamEmitsNothing) {
  testing::ShardCollector shards;
  ParallelScanPipeline pipe({}, {.threads = 4}, shards.factory());
  pipe.flush();
  pipe.flush();  // idempotent
  EXPECT_TRUE(shards.merged(pipe).empty());
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
  // the merge of the timed-out runs carry the byte-identical guarantee.
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

/// End-of-stream probe, one scan event per source. Thirty sources
/// send once early and go quiet, later senders from lower addresses,
/// so their end-time order is the reverse of their source order. Every
/// early event is due (last + timeout) before the last record, so the
/// serial detector times it out there, while most shards never see a
/// record that late. Five sources send once in the middle, due just
/// after the last scanning record; two more send twice, late. With
/// `artifact_tail`, a duplicate-heavy source sends the stream's last
/// records, so the detector ends later and times the middle events
/// out instead of flushing them.
std::vector<sim::LogRecord> end_of_stream_workload(bool artifact_tail) {
  const sim::TimeUs t0 = sim::us_from_seconds(util::kWindowStart);
  const auto rec = [](sim::TimeUs ts, std::uint64_t src, std::uint64_t dst) {
    sim::LogRecord r;
    r.ts_us = ts;
    r.src = net::Ipv6Address{0x2A10'0000'0000'0000ULL | src << 16, 1};
    r.dst = net::Ipv6Address{0x2600ULL << 48, dst};
    r.dst_port = 80;
    r.src_asn = static_cast<std::uint32_t>(src + 1);
    return r;
  };
  std::vector<sim::LogRecord> out;
  for (std::uint64_t s = 0; s < 30; ++s) out.push_back(rec(t0 + (60 + s) * kSec, 59 - 2 * s, s));
  for (std::uint64_t s = 0; s < 5; ++s) out.push_back(rec(t0 + (125 + s) * kSec, 100 + s, s));
  for (std::uint64_t s = 0; s < 2; ++s) out.push_back(rec(t0 + (150 + s) * kSec, 2 * s, s));
  for (std::uint64_t s = 0; s < 2; ++s) out.push_back(rec(t0 + (218 + s) * kSec, 2 * s, 100 + s));
  if (artifact_tail)
    for (int i = 0; i < 10; ++i) out.push_back(rec(t0 + (230 + i) * kSec, 99, 7));
  return out;
}

TEST(ParallelScanPipeline, EndOfStreamMatchesSerial) {
  // Regression: a shard whose last record came less than one timeout
  // before the stream end used to flush events the serial detector
  // had timed out at its last record, so they left the timed-out run.
  const DetectorConfig cfg{
      .source_prefix_len = 64, .min_destinations = 1, .timeout_us = 100 * kSec};
  for (const bool tail : {false, true}) {
    const auto records = end_of_stream_workload(tail);
    const auto serial = run_serial(cfg, records);
    ASSERT_EQ(serial.size(), tail ? 38u : 37u);
    for (const int threads : {2, 8})
      EXPECT_TRUE(run_parallel(cfg, threads, records) == serial)
          << threads << " threads, artifact tail " << tail;
  }
}

TEST(ParallelScanPipeline, MatchesSerialWithTinyRings) {
  // Stress the ring backpressure path: capacity rounds up to 8 slots,
  // so feeder and workers block constantly.
  const auto records = workload(30'000);
  const DetectorConfig cfg{.source_prefix_len = 64};
  const auto serial = run_serial(cfg, records);
  testing::ShardCollector shards;
  ParallelScanPipeline pipe(cfg, {.threads = 4, .ring_capacity = 8}, shards.factory());
  for (const auto& r : records) pipe.feed(r);
  pipe.flush();
  EXPECT_TRUE(serial == shards.merged(pipe));
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

/// A shard sink that fails on its k-th event, as a full disk or a bad
/// analyzer would: the worker dies mid-stream.
class FailingSink final : public EventSink {
 public:
  explicit FailingSink(std::size_t k) : k_(k) {}
  void on_event(ScanEvent&&) override {
    if (++seen_ == k_) throw std::runtime_error("sink failed at event " + std::to_string(k_));
  }

 private:
  std::size_t k_;
  std::size_t seen_ = 0;
};

/// Every event of the gap workload times out mid-stream, so every
/// shard's sink sees its third event while the worker applies records,
/// before any barrier queued behind them.
const DetectorConfig kGapConfig{
    .source_prefix_len = 64, .min_destinations = 10, .timeout_us = 900 * kSec};

template <typename Fn>
void expect_sink_failure(Fn&& fn, const std::string& where) {
  try {
    fn();
    ADD_FAILURE() << where << ": the sink failure was not rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "sink failed at event 3") << where;
  }
}

TEST(ParallelScanPipeline, SinkFailureIsRethrownByFlush) {
  const auto records = gap_workload();
  for (const int threads : {1, 2, 3}) {
    std::vector<std::unique_ptr<FailingSink>> sinks;
    ParallelScanPipeline pipe(kGapConfig, {.threads = threads},
                              [&](std::size_t) -> EventSink& {
                                return *sinks.emplace_back(std::make_unique<FailingSink>(3));
                              });
    pipe.feed_batch(records);
    expect_sink_failure([&] { pipe.flush(); }, std::to_string(threads) + " threads");
    pipe.flush();  // once closed, a second flush is a no-op
  }  // and the destructor neither hangs nor terminates
}

TEST(ParallelScanPipeline, SinkFailureAtEndOfStreamIsRethrownByFlush) {
  // Nothing times out mid-stream here: every event is emitted by the
  // workers' final flush, after the end-of-stream rendezvous.
  const auto records = end_of_stream_workload(false);
  const DetectorConfig cfg{
      .source_prefix_len = 64, .min_destinations = 1, .timeout_us = 1'000 * kSec};
  for (const int threads : {1, 2}) {
    std::vector<std::unique_ptr<FailingSink>> sinks;
    ParallelScanPipeline pipe(cfg, {.threads = threads}, [&](std::size_t) -> EventSink& {
      return *sinks.emplace_back(std::make_unique<FailingSink>(3));
    });
    pipe.feed_batch(records);
    pipe.with_shard_state([](std::size_t, ScanDetector&, ArtifactFilter*) {});  // all alive
    expect_sink_failure([&] { pipe.flush(); }, std::to_string(threads) + " threads");
  }
}

TEST(ParallelScanPipeline, RendezvousAfterSinkFailureRethrows) {
  // A dead worker still drains its ring and arrives at every barrier
  // with its error, so neither a checkpoint nor a second one hangs.
  const auto records = gap_workload();
  for (const int threads : {1, 3}) {
    std::vector<std::unique_ptr<FailingSink>> sinks;
    ParallelScanPipeline pipe(kGapConfig, {.threads = threads},
                              [&](std::size_t) -> EventSink& {
                                return *sinks.emplace_back(std::make_unique<FailingSink>(3));
                              });
    pipe.feed_batch(records);
    const auto visit = [](std::size_t, ScanDetector&, ArtifactFilter*) {};
    const std::string where = std::to_string(threads) + " threads";
    expect_sink_failure([&] { pipe.with_shard_state(visit); }, where);
    expect_sink_failure([&] { pipe.with_shard_state(visit); }, where + ", again");
    expect_sink_failure([&] { pipe.flush(); }, where + ", flush");
    EXPECT_THROW(pipe.with_shard_state(visit), std::logic_error) << where;
  }
}

TEST(DetectRun, CheckpointAfterSinkFailureRethrows) {
  const auto records = gap_workload();
  for (const int threads : {1, 2}) {
    std::vector<std::unique_ptr<FailingSink>> sinks;
    DetectRun run(kGapConfig, {.threads = threads}, "", [&](std::size_t) -> EventSink& {
      return *sinks.emplace_back(std::make_unique<FailingSink>(3));
    });
    run.feed_batch(records);
    const std::string where = std::to_string(threads) + " threads";
    expect_sink_failure([&] { (void)run.checkpoint().take(); }, where);
    expect_sink_failure([&] { run.flush(); }, where + ", flush");
  }
}

TEST(ParallelScanPipeline, ValidationErrorsNameTheCliFlags) {
  // The config fields surface as --threads / --ring-cap on the CLI;
  // the messages must name the flags so failures are actionable.
  testing::ShardCollector sink;
  try {
    ParallelScanPipeline({}, {.threads = -1}, sink.factory());
    FAIL() << "negative thread count accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos) << e.what();
  }
  try {
    ParallelScanPipeline({}, {.threads = 2, .ring_capacity = 4}, sink.factory());
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
  testing::OracleIds serial(cfg, [&](const IdsAlert& a) { serial_alerts.push_back(a); });
  for (const auto& r : records) serial.feed(r);
  serial.flush();
  ASSERT_FALSE(serial_alerts.empty()) << "workload triggered no alerts";

  for (const int threads : {1, 2, 8}) {
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

TEST(ParallelIds, ShardedBlocklistMatchesSerial) {
  // Every shard attributes its own prefixes on each pass tick: the
  // mid-stream alerts and the final blocklist are the serial ones at
  // every shard count, batched feeding included.
  const auto records = workload();
  IdsConfig cfg;
  cfg.reattribution_period_us = 6LL * 3'600 * kSec;

  std::vector<IdsAlert> serial_alerts;
  testing::OracleIds serial(cfg, [&](const IdsAlert& a) { serial_alerts.push_back(a); });
  for (const auto& r : records) serial.feed(r);
  serial.flush();
  ASSERT_FALSE(serial.blocklist().empty()) << "workload triggered no attributions";

  for (const int threads : {1, 2, 3, 8}) {
    std::vector<IdsAlert> alerts;
    ParallelIds ids(cfg, {.threads = threads}, [&](const IdsAlert& a) { alerts.push_back(a); });
    ids.feed_batch(records);
    ids.flush();

    EXPECT_TRUE(serial.blocklist() == ids.blocklist()) << threads << " threads";
    ASSERT_EQ(alerts.size(), serial_alerts.size()) << threads << " threads";
    for (std::size_t i = 0; i < alerts.size(); ++i) {
      EXPECT_TRUE(alerts[i].attribution == serial_alerts[i].attribution)
          << "alert " << i << ", " << threads << " threads";
      EXPECT_EQ(alerts[i].is_new, serial_alerts[i].is_new) << "alert " << i;
      EXPECT_EQ(alerts[i].at_us, serial_alerts[i].at_us) << "alert " << i;
    }
  }
}

TEST(ParallelIds, ResumeFromACorruptShardSectionThrows) {
  // A checkpoint whose shard1.ids section is cut short (a valid CRC
  // over bad state) fails on shard 1's worker; resume() rethrows it as
  // std::runtime_error and the instance still destroys cleanly.
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("v6sonar_pipeline_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string good = (dir / "good.v6ckpt").string();
  const std::string bad = (dir / "bad.v6ckpt").string();
  const auto records = workload(40'000);
  IdsConfig cfg;
  cfg.reattribution_period_us = 6LL * 3'600 * kSec;
  {
    ParallelIds ids(cfg, {.threads = 2}, [](const IdsAlert&) {});
    ids.feed_batch(records);
    CheckpointWriter ck;
    ids.checkpoint(ck);
    ck.commit(good);
  }
  {
    const CheckpointReader in(good);
    ASSERT_TRUE(in.has("shard1.ids"));
    CheckpointWriter out;
    for (const auto& name : in.names()) {
      auto r = in.section(name);
      std::vector<std::uint8_t> bytes(r.remaining());
      r.raw(bytes.data(), bytes.size());
      if (name == "shard1.ids") bytes.resize(bytes.size() / 2);
      util::StateWriter w;
      w.raw(bytes.data(), bytes.size());
      out.add(name, std::move(w));
    }
    out.commit(bad);
  }
  {
    ParallelIds ids(cfg, {.threads = 2}, [](const IdsAlert&) {});
    EXPECT_THROW(ids.resume(CheckpointReader(bad)), std::runtime_error);
  }
  std::filesystem::remove_all(dir);
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
  // The workers own their attributors until flush() joins them, so a
  // pre-flush read would race; the accessor refuses.
  ParallelIds ids({}, {.threads = 2}, [](const IdsAlert&) {});
  EXPECT_THROW((void)ids.blocklist(), std::logic_error);
  ids.flush();
  EXPECT_TRUE(ids.blocklist().empty());
}

}  // namespace
}  // namespace v6sonar::core
