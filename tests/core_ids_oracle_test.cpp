// Differential tests of every IDS path against the IDS oracle
// (tests/ids_oracle.hpp): attribute_adaptive() over the full event
// lists plus the full-list alert diff, on every pass. ParallelIds
// (incremental attribution in shard-local passes, 1/2/3/8 shards,
// record by record and in random batches, uninterrupted and resumed
// from a checkpoint) must match it alert for alert — order, is_new and
// at_us — and in the final blocklist, at short and long reattribution
// periods, on traffic built to hit the incremental attributor's edges:
// several ladder levels inside one /32, escalation mid-stream, an
// inter-packet gap of exactly the timeout ending at a pass trigger,
// passes with no new events, and pass triggers inside feed batches.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_pipeline.hpp"
#include "core/state_codec.hpp"
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

/// A per-process scratch directory (ctest -j runs test processes
/// concurrently), removed when the test ends.
struct ScratchDir {
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              ("v6sonar_ids_oracle_test_" + std::to_string(::getpid()));
  ScratchDir() { std::filesystem::create_directories(dir); }
  ~ScratchDir() { std::filesystem::remove_all(dir); }
  [[nodiscard]] std::string file(const char* name) const { return (dir / name).string(); }
};

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
  // One shard — the streaming IDS — record by record and in random
  // batches, then several shards.
  const std::pair<int, std::uint64_t> runs[] = {{1, 0}, {1, 1}, {2, 2}, {3, 3}, {8, 8}};
  for (const TimeUs period : {86'400 * kSec, 3'600 * kSec, 600 * kSec}) {
    const IdsConfig cfg = config(period);
    const auto records = adversarial_traffic(5, period);
    const IdsRun oracle = run_oracle(cfg, records);
    ASSERT_FALSE(oracle.alerts.empty());
    const std::string at = "period " + std::to_string(period / kSec) + " s";
    for (const auto& [threads, batch_seed] : runs) {
      IdsRun got;
      ParallelIds ids(cfg, {.threads = threads},
                      [&](const IdsAlert& a) { got.alerts.push_back(a); });
      feed_randomly(ids, records, batch_seed);
      ids.flush();
      got.blocklist = ids.blocklist();
      expect_same(oracle, got,
                  at + ", " + std::to_string(threads) + " threads, batch seed " +
                      std::to_string(batch_seed));
    }
  }
}

/// Index of the first record that triggers a pass at or after record
/// `from`, on the serial pass clock.
std::size_t pass_trigger_after(const std::vector<LogRecord>& records, TimeUs period,
                               std::size_t from) {
  TimeUs next = records.front().ts_us + period;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].ts_us < next) continue;
    if (i >= from) return i;
    next = records[i].ts_us + period;
  }
  ADD_FAILURE() << "no pass trigger after record " << from;
  return from;
}

/// Run `cfg` over `records` on `threads` shards with a checkpoint after
/// record k (fed in 4096-record batches, so k may fall inside one),
/// then resume a fresh ParallelIds from it. Returns the alerts the
/// sink had seen when the checkpoint committed, then the resumed run's
/// alerts and blocklist.
IdsRun checkpoint_and_resume(const IdsConfig& cfg, const std::vector<LogRecord>& records,
                             std::size_t k, int threads, const std::string& path) {
  IdsRun got;
  {
    std::vector<IdsAlert> seen;
    ParallelIds first(cfg, {.threads = threads}, [&](const IdsAlert& a) { seen.push_back(a); });
    const std::span<const LogRecord> head = std::span(records).first(k);
    for (std::size_t i = 0; i < head.size(); i += 4'096)
      first.feed_batch(head.subspan(i, std::min<std::size_t>(4'096, head.size() - i)));
    CheckpointWriter ck;
    first.checkpoint(ck);
    ck.commit(path);
    got.alerts = seen;
  }  // a crash: what `first` delivers from here on is lost
  ParallelIds second(cfg, {.threads = threads},
                     [&](const IdsAlert& a) { got.alerts.push_back(a); });
  second.resume(CheckpointReader(path));
  second.feed_batch(std::span(records).subspan(k));
  second.flush();
  got.blocklist = second.blocklist();
  return got;
}

TEST(IdsOracle, ResumedParallelIdsMatchesTheOracle) {
  // The alerts before the checkpoint plus the resumed alerts are the
  // uninterrupted ones, at k = 0, inside a feed batch, on either side
  // of a mid-stream pass trigger (the pass issued just before the
  // checkpoint must be delivered before it commits; the one just after
  // must run on the restored pass clock), and after the last record.
  const ScratchDir scratch;
  const std::string path = scratch.file("ids.v6ckpt");
  for (const TimeUs period : {86'400 * kSec, 3'600 * kSec}) {
    const IdsConfig cfg = config(period);
    const auto records = adversarial_traffic(5, period);
    const IdsRun oracle = run_oracle(cfg, records);
    const std::size_t trigger = pass_trigger_after(records, period, records.size() / 2);
    for (const std::size_t k : {std::size_t{0}, std::size_t{3 * 4'096 + 1'234}, trigger,
                                trigger + 1, records.size()}) {
      for (const int threads : {1, 2, 3}) {
        expect_same(oracle, checkpoint_and_resume(cfg, records, k, threads, path),
                    "period " + std::to_string(period / kSec) + " s, k " + std::to_string(k) +
                        ", " + std::to_string(threads) + " threads");
      }
    }
    // The last checkpoint (3 shards) resumes only into as many shards
    // as wrote it — shard routing depends on the count — and only
    // into the same configuration.
    ParallelIds two_shards(cfg, {.threads = 2}, [](const IdsAlert&) {});
    EXPECT_THROW(two_shards.resume(CheckpointReader(path)), std::runtime_error);
    IdsConfig other = cfg;
    other.reattribution_period_us += kSec;
    ParallelIds other_period(other, {.threads = 3}, [](const IdsAlert&) {});
    EXPECT_THROW(other_period.resume(CheckpointReader(path)), std::runtime_error);
  }
}

TEST(IdsOracle, RefusesTheSerialCheckpointLayout) {
  // The serial front end's checkpoints held "meta" and one "ids"
  // section with the pass clock and the whole state. ParallelIds must
  // refuse one before loading anything: the refused instance still
  // runs like a fresh one.
  const IdsConfig cfg = config(3'600 * kSec);
  const auto records = adversarial_traffic(7, cfg.reattribution_period_us);
  const IdsRun oracle = run_oracle(cfg, records);
  const ScratchDir scratch;
  const std::string path = scratch.file("serial_ids.v6ckpt");
  {
    testing::OracleIds serial(cfg, [](const IdsAlert&) {});
    for (std::size_t i = 0; i < records.size() / 2; ++i) serial.feed(records[i]);
    util::StateWriter meta, state;
    meta.u64(records.size() / 2);
    meta.u64(0);
    serial.save(state);
    CheckpointWriter ck;
    ck.add("meta", std::move(meta));
    ck.add("ids", std::move(state));
    ck.commit(path);
  }
  IdsRun got;
  ParallelIds ids(cfg, {.threads = 1}, [&](const IdsAlert& a) { got.alerts.push_back(a); });
  EXPECT_THROW(ids.resume(CheckpointReader(path)), std::runtime_error);
  ids.feed_batch(records);
  ids.flush();
  got.blocklist = ids.blocklist();
  expect_same(oracle, got, "after the refusal");
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
  // folded event per (level, source). A one-shard ParallelIds must
  // resume an event-list state exactly: the alerts after the save
  // point and the final blocklist are the oracle's.
  const IdsConfig cfg = config(3'600 * kSec);
  const auto records = adversarial_traffic(7, cfg.reattribution_period_us);
  const IdsRun oracle = run_oracle(cfg, records);
  const ScratchDir scratch;
  const std::string listed = scratch.file("event_list.v6ckpt");
  const std::string folded = scratch.file("folded.v6ckpt");
  for (const std::size_t k : {records.size() / 3, records.size() * 2 / 3}) {
    std::size_t before = 0;
    {
      testing::OracleIds first(cfg, [&](const IdsAlert&) { ++before; });
      for (std::size_t i = 0; i < k; ++i) first.feed(records[i]);
      util::StateWriter clock, core;
      first.save_clock(clock);
      first.save_core(core);
      CheckpointWriter ck;
      ck.add("ids", std::move(clock));
      ck.add("shard0.ids", std::move(core));
      ck.commit(listed);
    }
    IdsRun tail = oracle;
    tail.alerts.erase(tail.alerts.begin(),
                      tail.alerts.begin() + static_cast<std::ptrdiff_t>(before));
    const auto resume_from = [&](const std::string& path) {
      IdsRun got;
      ParallelIds resumed(cfg, {.threads = 1},
                          [&](const IdsAlert& a) { got.alerts.push_back(a); });
      resumed.resume(CheckpointReader(path));
      resumed.feed_batch(std::span(records).subspan(k));
      resumed.flush();
      got.blocklist = resumed.blocklist();
      return got;
    };
    expect_same(tail, resume_from(listed), "save at record " + std::to_string(k));

    // And the folded state a resumed IDS saves resumes the same way.
    {
      ParallelIds fresh(cfg, {.threads = 1}, [](const IdsAlert&) {});
      fresh.resume(CheckpointReader(listed));
      CheckpointWriter ck;
      fresh.checkpoint(ck);
      ck.commit(folded);
    }
    expect_same(tail, resume_from(folded), "folded save at record " + std::to_string(k));
  }
}

}  // namespace
}  // namespace v6sonar::core
