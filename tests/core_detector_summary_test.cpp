// Differential tests for the summary-only detector mode the IDS ladder
// runs: at every ladder level, on random and adversarial traffic, fed
// record by record and in random batches, a summary-only detector must
// emit the same events, in the same order, as a full detector in every
// field attribution reads (source, first_us, last_us, packets,
// src_asn). Its state must load from a full-mode save and vice versa,
// and StreamingIds built on it must alert exactly like a reference IDS
// built from full detectors + slim_scan_event + attribute_adaptive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/adaptive.hpp"
#include "core/detector.hpp"
#include "core/streaming_ids.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/state_io.hpp"

namespace v6sonar::core {
namespace {

using net::Ipv6Address;
using sim::LogRecord;
using sim::TimeUs;

constexpr TimeUs kSec = 1'000'000;
constexpr int kLadder[] = {128, 64, 48, 32};

/// The fields attribution reads, in emission order.
using Summary = std::tuple<net::Ipv6Prefix, TimeUs, TimeUs, std::uint64_t, std::uint32_t>;

std::vector<Summary> summaries(const std::vector<ScanEvent>& events) {
  std::vector<Summary> out;
  out.reserve(events.size());
  for (const auto& ev : events)
    out.emplace_back(ev.source, ev.first_us, ev.last_us, ev.packets, ev.src_asn);
  return out;
}

DetectorConfig config(int level, bool summary, std::uint32_t min_dsts = 20,
                      TimeUs timeout = 120 * kSec) {
  return DetectorConfig{.source_prefix_len = level,
                        .min_destinations = min_dsts,
                        .timeout_us = timeout,
                        .summary_only = summary};
}

/// Feed `records` record by record (`seed` == 0) or in random batch
/// sizes drawn from `seed`, then flush.
std::vector<ScanEvent> run(const DetectorConfig& cfg, std::span<const LogRecord> records,
                           std::uint64_t seed = 0) {
  std::vector<ScanEvent> events;
  ScanDetector det(cfg, [&](ScanEvent&& ev) { events.push_back(std::move(ev)); });
  if (seed == 0) {
    for (const auto& r : records) det.feed(r);
  } else {
    util::Xoshiro256 rng(seed);
    while (!records.empty()) {
      const std::size_t n = std::min<std::size_t>(records.size(), 1 + rng.below(400));
      det.feed_batch(records.first(n));
      records = records.subspan(n);
    }
  }
  det.flush();
  return events;
}

/// Random telescope-like traffic: sources spread over a few /32s, /48s
/// and /64s (so every ladder level aggregates differently), scanners
/// of very different intensity, destinations drawn from small pools
/// (heavy repeats), and occasional quiet gaps past the timeout.
std::vector<LogRecord> random_traffic(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<LogRecord> out;
  out.reserve(n);
  TimeUs t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.chance(0.002) ? 150 * kSec + static_cast<TimeUs>(rng.below(200 * kSec))
                           : static_cast<TimeUs>(rng.below(kSec / 2));
    const std::uint64_t src_id = rng.below(40);
    LogRecord r;
    r.ts_us = t;
    r.src = Ipv6Address{0x2A10'0000'0000'0000ULL | (src_id % 3) << 32 | (src_id % 7) << 16 |
                            (src_id % 5),
                        rng.below(1 + src_id % 4)};
    // Low ids scan wide, high ids cycle a handful of targets.
    r.dst = Ipv6Address{0x2600ULL << 48, rng.below(src_id < 10 ? 4'096 : 8 + src_id)};
    r.dst_port = static_cast<std::uint16_t>(rng.below(6));
    r.dst_in_dns = rng.chance(0.1);
    r.src_asn = static_cast<std::uint32_t>(1 + src_id % 9);
    out.push_back(r);
  }
  return out;
}

LogRecord probe(TimeUs ts, std::uint64_t src_lo, std::uint64_t dst_lo, std::uint32_t asn = 7) {
  LogRecord r;
  r.ts_us = ts;
  r.src = Ipv6Address{0x2A10'0001'0000'0000ULL, src_lo};
  r.dst = Ipv6Address{0x2600ULL << 48, dst_lo};
  r.dst_port = 443;
  r.src_asn = asn;
  return r;
}

/// Summary-only vs full on one stream, both feed paths: same events in
/// the attribution fields, capped distinct count, no heavy fields.
void expect_summary_matches_full(const DetectorConfig& full_cfg,
                                 std::span<const LogRecord> records, const std::string& what) {
  DetectorConfig summary_cfg = full_cfg;
  summary_cfg.summary_only = true;
  const auto full = run(full_cfg, records);
  for (const std::uint64_t seed : {0, 1, 2, 3}) {
    const auto summary = run(summary_cfg, records, seed);
    ASSERT_EQ(summary.size(), full.size()) << what << ", batch seed " << seed;
    EXPECT_EQ(summaries(summary), summaries(full)) << what << ", batch seed " << seed;
    for (std::size_t i = 0; i < summary.size(); ++i) {
      EXPECT_EQ(summary[i].distinct_dsts,
                std::min(full[i].distinct_dsts, full_cfg.min_destinations))
          << what << ", event " << i;
      EXPECT_EQ(summary[i].distinct_dsts_in_dns, 0u);
      EXPECT_TRUE(summary[i].port_packets.empty());
      EXPECT_TRUE(summary[i].weekly_packets.empty());
    }
  }
}

class SummaryLadder : public ::testing::TestWithParam<int> {};

TEST_P(SummaryLadder, MatchesFullDetectorOnRandomTraffic) {
  for (const std::uint64_t seed : {11, 12, 13}) {
    const auto records = random_traffic(seed, 30'000);
    const auto full = run(config(GetParam(), false), records);
    ASSERT_FALSE(full.empty()) << "seed " << seed << " produced no events";
    expect_summary_matches_full(config(GetParam(), false), records,
                                "seed " + std::to_string(seed));
  }
}

TEST_P(SummaryLadder, MatchesFullDetectorAtOtherThresholds) {
  const auto records = random_traffic(21, 20'000);
  for (const std::uint32_t min_dsts : {1u, 5u, 100u})
    expect_summary_matches_full(config(GetParam(), false, min_dsts, 60 * kSec), records,
                                "min_dsts " + std::to_string(min_dsts));
}

INSTANTIATE_TEST_SUITE_P(Levels, SummaryLadder, ::testing::ValuesIn(kLadder),
                         [](const auto& info) { return "Slash" + std::to_string(info.param); });

TEST(SummaryOnly, ThresholdMinusOneNeverQualifiesAndThresholdDoes) {
  constexpr std::uint32_t kMin = 20;
  std::vector<LogRecord> recs;
  TimeUs t = 0;
  // Source 1: exactly kMin - 1 distinct destinations, each repeated
  // many times. Source 2: exactly kMin.
  for (int rep = 0; rep < 30; ++rep)
    for (std::uint64_t d = 0; d < kMin; ++d) {
      if (d < kMin - 1) recs.push_back(probe(t += kSec / 10, 1, d));
      recs.push_back(probe(t += kSec / 10, 2, 1'000 + d));
    }
  expect_summary_matches_full(config(128, false, kMin), recs, "boundary");
  const auto events = run(config(128, true, kMin), recs, 5);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].source.address().lo(), 2u);
  EXPECT_EQ(events[0].distinct_dsts, kMin);
  EXPECT_EQ(events[0].packets, 30u * kMin);
}

TEST(SummaryOnly, HeavyRepeatsAndNewTargetsAfterQualification) {
  constexpr std::uint32_t kMin = 20;
  std::vector<LogRecord> recs;
  TimeUs t = 0;
  for (std::uint64_t d = 0; d < kMin; ++d) recs.push_back(probe(t += kSec / 10, 1, d));
  // Past the threshold: thousands of repeats and fresh targets, one
  // packet count the summary state must still get exactly right.
  for (std::uint64_t i = 0; i < 5'000; ++i)
    recs.push_back(probe(t += kSec / 100, 1, i % 3 == 0 ? 10'000 + i : i % kMin));
  expect_summary_matches_full(config(64, false, kMin), recs, "repeats");
  const auto events = run(config(64, true, kMin), recs, 7);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].packets, kMin + 5'000u);
  EXPECT_EQ(events[0].distinct_dsts, kMin);
}

TEST(SummaryOnly, QualificationCrossedInsideOneGroupedBatch) {
  constexpr std::uint32_t kMin = 20;
  // First batch: 15 distinct targets for source 1. Second batch (well
  // inside one timeout, so feed_batch takes the grouped path): source 1
  // crosses the threshold mid-batch, interleaved with source 2, which
  // crosses it inside the batch from scratch and then keeps repeating.
  std::vector<LogRecord> first, second;
  TimeUs t = 0;
  for (std::uint64_t d = 0; d < 15; ++d) first.push_back(probe(t += kSec / 10, 1, d));
  for (std::uint64_t i = 0; i < 200; ++i) {
    second.push_back(probe(t += kSec / 100, 1, i % 40));
    second.push_back(probe(t += kSec / 100, 2, i < 60 ? i : i % 7));
  }
  std::vector<LogRecord> all = first;
  all.insert(all.end(), second.begin(), second.end());
  const auto reference = summaries(run(config(128, false, kMin), all));
  for (const bool summary : {false, true}) {
    std::vector<ScanEvent> events;
    ScanDetector det(config(128, summary, kMin),
                     [&](ScanEvent&& ev) { events.push_back(std::move(ev)); });
    util::metrics::reset();
    util::metrics::enable(true);
    det.feed_batch(first);
    det.feed_batch(second);
    util::metrics::enable(false);
    // Both batches took the grouped path, so the crossing happened
    // inside its apply step.
    EXPECT_EQ(util::metrics::snapshot().counter("detector.batch.grouped.records"), all.size());
    det.flush();
    EXPECT_EQ(summaries(events), reference) << (summary ? "summary" : "full");
    ASSERT_EQ(events.size(), 2u);
    if (summary) {
      EXPECT_EQ(events[0].distinct_dsts, kMin);
      EXPECT_EQ(events[1].distinct_dsts, kMin);
    }
  }
  expect_summary_matches_full(config(128, false, kMin), all, "grouped crossing");
}

TEST(SummaryOnly, GapOfExactlyTheTimeoutKeepsTheEventAndOneMoreSplitsIt) {
  constexpr std::uint32_t kMin = 5;
  constexpr TimeUs kTimeout = 60 * kSec;
  std::vector<LogRecord> recs;
  TimeUs t = 1'000 * kSec;
  // Event A: qualifies, then a gap of exactly the timeout (same event),
  // then one more probe. Then a gap of timeout + 1: event B starts.
  for (std::uint64_t d = 0; d < kMin; ++d) recs.push_back(probe(t += kSec, 1, d));
  recs.push_back(probe(t += kTimeout, 1, 0));
  recs.push_back(probe(t += kTimeout + 1, 1, 100));
  for (std::uint64_t d = 1; d < kMin; ++d) recs.push_back(probe(t += kSec, 1, 100 + d));
  // A second source crosses the threshold only after its own
  // timeout-exact gap, so the gap must not reset its partial set.
  for (std::uint64_t d = 0; d < kMin - 1; ++d) recs.push_back(probe(t += kSec, 2, d));
  recs.push_back(probe(t += kTimeout, 2, 50));
  std::sort(recs.begin(), recs.end(),
            [](const LogRecord& a, const LogRecord& b) { return a.ts_us < b.ts_us; });
  expect_summary_matches_full(config(128, false, kMin, kTimeout), recs, "gaps");
  const auto events = run(config(128, true, kMin, kTimeout), recs, 9);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].packets, kMin + 1u);  // A, timed out mid-stream
}

/// Save `saver` after `k` records, load into a fresh `loader`-config
/// detector, finish the stream there; returns everything emitted, of
/// which the first `saved` events came from the saver.
std::vector<ScanEvent> resume_across(const DetectorConfig& saver, const DetectorConfig& loader,
                                     std::span<const LogRecord> records, std::size_t k,
                                     std::size_t& saved) {
  std::vector<ScanEvent> events;
  util::StateWriter w;
  {
    ScanDetector det(saver, [&](ScanEvent&& ev) { events.push_back(std::move(ev)); });
    det.feed_batch(records.first(k));
    det.save(w);
  }
  saved = events.size();
  ScanDetector det(loader, [&](ScanEvent&& ev) { events.push_back(std::move(ev)); });
  util::StateReader r(w.bytes());
  det.load(r);
  EXPECT_TRUE(r.at_end());
  det.feed_batch(records.subspan(k));
  det.flush();
  return events;
}

TEST(SummaryOnly, LoadsFullModeStateAndFinishesIdentically) {
  const auto records = random_traffic(31, 20'000);
  for (const int level : kLadder) {
    for (const TimeUs demote : {TimeUs{0}, 40 * kSec}) {  // hot only, then both tiers
      DetectorConfig full = config(level, false);
      full.demote_idle_us = demote;
      DetectorConfig summary = full;
      summary.summary_only = true;
      const auto reference = summaries(run(full, records));
      for (const std::size_t k : {std::size_t{0}, std::size_t{7'777}, records.size()}) {
        const std::string what = "/" + std::to_string(level) + " demote " +
                                 std::to_string(demote) + " k " + std::to_string(k);
        std::size_t saved = 0;
        const auto thawed = resume_across(full, summary, records, k, saved);
        EXPECT_EQ(summaries(thawed), reference) << "full -> summary, " << what;
        for (std::size_t i = saved; i < thawed.size(); ++i) {
          EXPECT_TRUE(thawed[i].port_packets.empty()) << what;
          EXPECT_TRUE(thawed[i].weekly_packets.empty()) << what;
          EXPECT_EQ(thawed[i].distinct_dsts, summary.min_destinations) << what;
        }
        // And back: a full detector resumes a summary-only save.
        EXPECT_EQ(summaries(resume_across(summary, full, records, k, saved)), reference)
            << "summary -> full, " << what;
      }
    }
  }
}

/// The IDS as it ran before the ladder went summary-only: full
/// detectors, events slimmed on arrival, attribute_adaptive at the
/// same pass cadence as StreamingIds::feed().
class ReferenceIds {
 public:
  ReferenceIds(const IdsConfig& cfg, AlertTracker::AlertSink sink)
      : cfg_(cfg), sink_(std::move(sink)), events_(cfg.adaptive.ladder.size()) {
    for (std::size_t i = 0; i < cfg.adaptive.ladder.size(); ++i)
      detectors_.push_back(std::make_unique<ScanDetector>(
          DetectorConfig{.source_prefix_len = cfg.adaptive.ladder[i],
                         .min_destinations = cfg.min_destinations,
                         .timeout_us = cfg.timeout_us},
          [this, i](ScanEvent&& ev) { events_[i].push_back(slim_scan_event(ev)); }));
  }

  void feed(const LogRecord& r) {
    if (next_pass_ == 0) next_pass_ = r.ts_us + cfg_.reattribution_period_us;
    for (auto& d : detectors_) d->feed(r);
    if (r.ts_us >= next_pass_) {
      tracker_.update(attribute_adaptive(events_, cfg_.adaptive), r.ts_us, sink_);
      next_pass_ = r.ts_us + cfg_.reattribution_period_us;
    }
  }

  void flush() {
    for (auto& d : detectors_) d->flush();
    tracker_.update(attribute_adaptive(events_, cfg_.adaptive), next_pass_, sink_);
  }

  [[nodiscard]] const std::vector<Attribution>& blocklist() const { return tracker_.blocklist(); }

 private:
  IdsConfig cfg_;
  AlertTracker::AlertSink sink_;
  std::vector<std::unique_ptr<ScanDetector>> detectors_;
  std::vector<std::vector<ScanEvent>> events_;
  AlertTracker tracker_;
  TimeUs next_pass_ = 0;
};

TEST(SummaryOnly, StreamingIdsMatchesFullDetectorReference) {
  IdsConfig cfg;
  cfg.min_destinations = 20;
  cfg.timeout_us = 120 * kSec;
  cfg.reattribution_period_us = 300 * kSec;
  for (const std::uint64_t seed : {41, 42}) {
    const auto records = random_traffic(seed, 40'000);
    std::vector<IdsAlert> expected;
    ReferenceIds reference(cfg, [&](const IdsAlert& a) { expected.push_back(a); });
    for (const auto& r : records) reference.feed(r);
    reference.flush();
    ASSERT_FALSE(expected.empty()) << "seed " << seed << " raised no alerts";

    for (const std::uint64_t batch_seed : {0, 1, 2}) {
      std::vector<IdsAlert> alerts;
      StreamingIds ids(cfg, [&](const IdsAlert& a) { alerts.push_back(a); });
      if (batch_seed == 0) {
        for (const auto& r : records) ids.feed(r);
      } else {
        util::Xoshiro256 rng(batch_seed);
        std::span<const LogRecord> rest(records);
        while (!rest.empty()) {
          const std::size_t n = std::min<std::size_t>(rest.size(), 1 + rng.below(2'000));
          ids.feed_batch(rest.first(n));
          rest = rest.subspan(n);
        }
      }
      ids.flush();
      const std::string what =
          "seed " + std::to_string(seed) + ", batch seed " + std::to_string(batch_seed);
      ASSERT_EQ(alerts.size(), expected.size()) << what;
      for (std::size_t i = 0; i < alerts.size(); ++i) {
        EXPECT_TRUE(alerts[i].attribution == expected[i].attribution) << what << ", alert " << i;
        EXPECT_EQ(alerts[i].is_new, expected[i].is_new) << what << ", alert " << i;
        EXPECT_EQ(alerts[i].at_us, expected[i].at_us) << what << ", alert " << i;
      }
      EXPECT_TRUE(ids.blocklist() == reference.blocklist()) << what;
    }
  }
}

}  // namespace
}  // namespace v6sonar::core
