// Differential tests of every IDS path against the IDS oracle
// (tests/ids_oracle.hpp): attribute_adaptive() over the full event
// lists plus the full-list alert diff, on every pass. StreamingIds
// (incremental attribution, record by record and in random batches)
// and ParallelIds (shard-local passes, 1/2/3/8 shards) must match it
// alert for alert — order, is_new and at_us — and in the final
// blocklist, at short and long reattribution periods, on traffic
// built to hit the incremental attributor's edges: several ladder
// levels inside one /32, escalation mid-stream, an inter-packet gap of
// exactly the timeout ending at a pass trigger, passes with no new
// events, and pass triggers inside feed batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_pipeline.hpp"
#include "core/streaming_ids.hpp"
#include "util/rng.hpp"
#include "util/state_io.hpp"
#include "util/timebase.hpp"
#include "ids_oracle.hpp"

namespace v6sonar::core {
namespace {

using net::Ipv6Address;
using sim::LogRecord;
using sim::TimeUs;

constexpr TimeUs kSec = 1'000'000;
constexpr TimeUs kTimeout = 900 * kSec;

IdsConfig config(TimeUs period) {
  IdsConfig cfg;
  cfg.min_destinations = 20;
  cfg.timeout_us = kTimeout;
  cfg.reattribution_period_us = period;
  return cfg;
}

LogRecord rec(TimeUs ts, std::uint64_t hi, std::uint64_t lo, std::uint64_t dst,
              std::uint32_t asn) {
  LogRecord r;
  r.ts_us = ts;
  r.src = Ipv6Address{hi, lo};
  r.dst = Ipv6Address{0x2600ULL << 48, dst};
  r.dst_port = 443;
  r.src_asn = asn;
  return r;
}

/// ~2 days of traffic from about a hundred actors inside eight /32s.
/// Each actor sends from one /128, or from addresses spread across one
/// /64, across the /64s of one /48, or across the /48s of its /32, in
/// bursts; some go quiet for longer than the timeout between bursts.
/// Actor 0 of each /32 starts as a lone /128 scanner, and its /48
/// later fills with spread siblings, so the /48 absorbs it mid-stream
/// (an escalation).
std::vector<LogRecord> actor_traffic(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const TimeUs t0 = sim::us_from_seconds(util::kWindowStart);
  const TimeUs span = 48 * 3'600 * kSec;
  std::vector<LogRecord> out;
  for (std::uint64_t net32 = 0; net32 < 8; ++net32) {
    const std::uint64_t base = 0x2A10'0000'0000'0000ULL | net32 << 32;
    for (std::uint64_t actor = 0; actor < 12; ++actor) {
      const int shape = actor == 0 ? 0 : static_cast<int>(rng.below(4));
      const std::uint64_t n48 = rng.below(3);  // a few /48s share the /32
      const std::uint64_t n64 = actor;
      const auto asn = static_cast<std::uint32_t>(100 + net32 * 10 + rng.below(3));
      TimeUs t = t0 + static_cast<TimeUs>(rng.below(static_cast<std::uint64_t>(span / 2)));
      for (std::uint64_t burst = 0, bursts = 1 + rng.below(6); burst < bursts; ++burst) {
        for (std::uint64_t p = 0, n = 30 + rng.below(150); p < n; ++p) {
          t += 1 + static_cast<TimeUs>(rng.below(30 * kSec));
          std::uint64_t hi = base | n48 << 16 | n64;
          std::uint64_t lo = 1;
          if (shape == 1) lo = 1 + rng.below(64);                   // across one /64
          if (shape == 2) hi = (hi & ~0xFFFFULL) | rng.below(64);  // across one /48
          if (shape == 3) hi = base | rng.below(16) << 16 | rng.below(16);  // the /32
          out.push_back(rec(t, hi, lo, rng.below(1 << 20), asn));
        }
        // Sub-timeout pause, or a gap that splits the scan in two.
        t += rng.chance(0.5) ? 100 * kSec
                             : kTimeout + static_cast<TimeUs>(rng.below(3'600 * kSec));
      }
      if (actor == 0) {
        // Late in the stream the lone scanner's /48 fills with spread
        // siblings: the /48 absorbs it.
        TimeUs s = t0 + span - 6 * 3'600 * kSec;
        for (int p = 0; p < 600; ++p) {
          s += static_cast<TimeUs>(rng.below(20 * kSec));
          const std::uint64_t hi = base | n48 << 16 | (0x100 + rng.below(200));
          out.push_back(rec(s, hi, 1 + rng.below(4), rng.below(1 << 20), asn));
        }
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const LogRecord& a, const LogRecord& b) { return a.ts_us < b.ts_us; });
  return out;
}

/// Adversarial timing ahead of actor_traffic(), for `period`: a
/// ticker opens the stream and sends exactly one period apart, so the
/// first passes trigger at known times before the actors start. At
/// one of them two sources' gaps end: one exactly the timeout (its
/// scan goes on; that pass must not see it) and one a microsecond
/// longer (that pass must). After the actors, a non-scanning source
/// keeps the clock moving through a day of passes with no new events.
std::vector<LogRecord> adversarial_traffic(std::uint64_t seed, TimeUs period) {
  const TimeUs start = sim::us_from_seconds(util::kWindowStart);
  const TimeUs ticks = (kTimeout + 30 * kSec) / period + 1;  // passes before the gaps end
  const TimeUs t0 = start - ticks * period - 1;
  const TimeUs pass = t0 + ticks * period;
  std::vector<LogRecord> out = actor_traffic(seed);
  const TimeUs end = out.back().ts_us;
  for (TimeUs j = 0; j <= ticks; ++j)
    out.push_back(rec(t0 + j * period, 0x2A20'0000'0000'0000ULL, 1, 0, 7));
  for (const TimeUs gap : {kTimeout, kTimeout + 1}) {
    const std::uint64_t hi =
        0x2A30'0000'0000'0000ULL | static_cast<std::uint64_t>(gap - kTimeout);
    for (std::uint64_t d = 0; d < 25; ++d)
      out.push_back(rec(pass - gap - static_cast<TimeUs>(24 - d) * kSec, hi, 1, d, 8));
    out.push_back(rec(pass, hi, 1, 1'000, 8));
  }
  for (TimeUs t = end + period / 4; t < end + 24 * 3'600 * kSec; t += period / 4 + 1)
    out.push_back(rec(t, 0x2A40'0000'0000'0000ULL, 1, 0, 9));
  std::stable_sort(out.begin(), out.end(),
                   [](const LogRecord& a, const LogRecord& b) { return a.ts_us < b.ts_us; });
  return out;
}

struct IdsRun {
  std::vector<IdsAlert> alerts;
  std::vector<Attribution> blocklist;
};

IdsRun run_oracle(const IdsConfig& cfg, const std::vector<LogRecord>& records) {
  IdsRun out;
  testing::OracleIds ids(cfg, [&](const IdsAlert& a) { out.alerts.push_back(a); });
  for (const auto& r : records) ids.feed(r);
  ids.flush();
  out.blocklist = ids.blocklist();
  return out;
}

/// Feed `records` in random-size batches (seed 0: record by record).
template <typename Ids>
void feed_randomly(Ids& ids, std::span<const LogRecord> records, std::uint64_t seed) {
  if (seed == 0) {
    for (const auto& r : records) ids.feed(r);
    return;
  }
  util::Xoshiro256 rng(seed);
  while (!records.empty()) {
    const std::size_t n = std::min<std::size_t>(records.size(), 1 + rng.below(5'000));
    ids.feed_batch(records.first(n));
    records = records.subspan(n);
  }
}

void expect_same(const IdsRun& want, const IdsRun& got, const std::string& what) {
  ASSERT_EQ(got.alerts.size(), want.alerts.size()) << what;
  for (std::size_t i = 0; i < want.alerts.size(); ++i) {
    EXPECT_TRUE(got.alerts[i].attribution == want.alerts[i].attribution)
        << what << ", alert " << i;
    EXPECT_EQ(got.alerts[i].is_new, want.alerts[i].is_new) << what << ", alert " << i;
    EXPECT_EQ(got.alerts[i].at_us, want.alerts[i].at_us) << what << ", alert " << i;
  }
  EXPECT_TRUE(got.blocklist == want.blocklist) << what;
}

TEST(IdsOracle, WorkloadReachesTheAttributorsEdges) {
  // The differential below is only as strong as its traffic: it must
  // alert at three ladder levels inside one /32 and escalate an actor
  // mid-stream.
  const auto records = adversarial_traffic(5, 3'600 * kSec);
  const IdsRun oracle = run_oracle(config(3'600 * kSec), records);
  std::map<net::Ipv6Prefix, std::set<int>> levels;
  bool escalated_mid_stream = false;
  for (const auto& a : oracle.alerts) {
    levels[a.attribution.source.parent(32)].insert(a.attribution.level);
    escalated_mid_stream |= !a.is_new && a.at_us < records.back().ts_us;
  }
  std::size_t most = 0;
  for (const auto& [net, ls] : levels) most = std::max(most, ls.size());
  EXPECT_GE(most, 3u);
  EXPECT_TRUE(escalated_mid_stream);
}

TEST(IdsOracle, StreamingAndParallelIdsMatchTheOracle) {
  for (const TimeUs period : {86'400 * kSec, 3'600 * kSec, 600 * kSec}) {
    const IdsConfig cfg = config(period);
    const auto records = adversarial_traffic(5, period);
    const IdsRun oracle = run_oracle(cfg, records);
    ASSERT_FALSE(oracle.alerts.empty());
    const std::string at = "period " + std::to_string(period / kSec) + " s";

    for (const std::uint64_t batch_seed : {0, 1}) {
      IdsRun got;
      StreamingIds ids(cfg, [&](const IdsAlert& a) { got.alerts.push_back(a); });
      feed_randomly(ids, records, batch_seed);
      ids.flush();
      got.blocklist = ids.blocklist();
      expect_same(oracle, got,
                  "StreamingIds, " + at + ", batch seed " + std::to_string(batch_seed));
    }
    for (const int threads : {1, 2, 3, 8}) {
      IdsRun got;
      ParallelIds ids(cfg, {.threads = threads},
                      [&](const IdsAlert& a) { got.alerts.push_back(a); });
      feed_randomly(ids, records, static_cast<std::uint64_t>(threads));
      ids.flush();
      got.blocklist = ids.blocklist();
      expect_same(oracle, got, "ParallelIds, " + at + ", " + std::to_string(threads) + " threads");
    }
  }
}

TEST(IdsOracle, SlowAlertSinkNeverStallsTheShards) {
  // The sink runs on the feeding thread. Sleeping in it once per pass
  // holds the caller up while the workers run ahead, finish and flush;
  // their passes queue up and must still reach the sink complete and
  // in pass order, with flush-time events in the final pass only.
  const IdsConfig cfg = config(6 * 3'600 * kSec);
  const auto records = actor_traffic(9);
  const IdsRun oracle = run_oracle(cfg, records);
  ASSERT_FALSE(oracle.alerts.empty());
  for (const int threads : {2, 8}) {
    IdsRun got;
    TimeUs last_pass = INT64_MIN;
    ParallelIds ids(cfg, {.threads = threads}, [&](const IdsAlert& a) {
      if (a.at_us != last_pass) {
        last_pass = a.at_us;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      got.alerts.push_back(a);
    });
    ids.feed_batch(records);
    ids.flush();
    got.blocklist = ids.blocklist();
    expect_same(oracle, got, std::to_string(threads) + " threads");
  }
}

TEST(IdsOracle, ResumesFromAnEventListState) {
  // IDS states once held every event of every level; today's hold one
  // folded event per (level, source). StreamingIds must resume an
  // event-list state exactly: the alerts after the save point and the
  // final blocklist are the oracle's.
  const IdsConfig cfg = config(3'600 * kSec);
  const auto records = adversarial_traffic(7, cfg.reattribution_period_us);
  const IdsRun oracle = run_oracle(cfg, records);
  for (const std::size_t k : {records.size() / 3, records.size() * 2 / 3}) {
    std::size_t before = 0;
    util::StateWriter w;
    {
      testing::OracleIds first(cfg, [&](const IdsAlert&) { ++before; });
      for (std::size_t i = 0; i < k; ++i) first.feed(records[i]);
      first.save(w);
    }
    IdsRun got;
    StreamingIds resumed(cfg, [&](const IdsAlert& a) { got.alerts.push_back(a); });
    util::StateReader r(w.bytes());
    resumed.load(r);
    r.expect_end();
    resumed.feed_batch(std::span(records).subspan(k));
    resumed.flush();
    got.blocklist = resumed.blocklist();
    IdsRun tail = oracle;
    tail.alerts.erase(tail.alerts.begin(),
                      tail.alerts.begin() + static_cast<std::ptrdiff_t>(before));
    expect_same(tail, got, "save at record " + std::to_string(k));

    // And the folded state a resumed IDS saves resumes the same way.
    util::StateWriter folded;
    {
      StreamingIds fresh(cfg, [](const IdsAlert&) {});
      util::StateReader r2(w.bytes());
      fresh.load(r2);
      fresh.save(folded);
    }
    IdsRun again;
    StreamingIds twice(cfg, [&](const IdsAlert& a) { again.alerts.push_back(a); });
    util::StateReader r3(folded.bytes());
    twice.load(r3);
    r3.expect_end();
    twice.feed_batch(std::span(records).subspan(k));
    twice.flush();
    again.blocklist = twice.blocklist();
    expect_same(tail, again, "folded save at record " + std::to_string(k));
  }
}

}  // namespace
}  // namespace v6sonar::core
