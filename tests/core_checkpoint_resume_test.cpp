// Resume-equivalence property tests — the tentpole's non-negotiable
// invariant: freeze state at record k, thaw into fresh instances, feed
// records k.., and the combined output (events, rendered reports,
// IDS alerts + blocklist) is byte-identical to one
// uninterrupted run. k sweeps the interesting boundaries (0,
// mid-batch, first record after an expiry gap, first record of a new
// UTC day) and the parallel pipeline sweeps thread counts {1, 2, 8},
// per-shard event spills resumed at their checkpointed cursors
// included.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/report_render.hpp"
#include "core/detect_run.hpp"
#include "core/detector.hpp"
#include "core/event_io.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/state_codec.hpp"
#include "core/streaming_ids.hpp"
#include "util/state_io.hpp"

namespace v6sonar::core {
namespace {

using sim::LogRecord;

constexpr sim::TimeUs kSec = 1'000'000;
constexpr sim::TimeUs kTimeout = 600 * kSec;

LogRecord probe(sim::TimeUs ts, std::uint64_t src_id, std::uint64_t dst_lo,
                std::uint16_t port = 443) {
  LogRecord r;
  r.ts_us = ts;
  // Distinct hi bits => distinct /64 aggregates spread across shards.
  r.src = net::Ipv6Address{0x2A10'0000'0000'0000ULL + src_id, 1};
  r.dst = net::Ipv6Address{0x2600'0000'0000'0000ULL, dst_lo};
  r.dst_port = port;
  r.src_asn = static_cast<std::uint32_t>(7 + src_id % 5);
  return r;
}

/// Three activity phases: A straddles the UTC day boundary, a silent
/// gap longer than the detector timeout separates A from B (so every
/// phase-A scan expires at the first B record), and C follows a second
/// shorter gap. Sources reuse destinations enough for duplicate
/// filtering to matter.
std::vector<LogRecord> workload() {
  std::vector<LogRecord> recs;
  sim::TimeUs ts = 86'380 * kSec;  // 20 s before the day-0/day-1 boundary
  for (std::uint64_t d = 0; d < 8; ++d)
    for (std::uint64_t s = 0; s < 24; ++s)
      recs.push_back(probe(ts += kSec / 4, s, d, static_cast<std::uint16_t>(443 + s % 7)));
  // A lone heartbeat probe lands while the phase-A sources are idle
  // past timeout/2 but not yet expired: with tiering enabled this is
  // the moment they demote to the cold tier…
  recs.push_back(probe(ts + (3 * kTimeout) / 4, 999, 0));
  // …and one of them resumes probing from the cold tier (transparent
  // promotion: the scan continues as if never demoted).
  for (std::uint64_t d = 8; d < 11; ++d)
    recs.push_back(probe(ts + (3 * kTimeout) / 4 + (d - 7) * kSec, 3, d));
  ts += 2 * kTimeout;  // expiry gap
  for (std::uint64_t d = 0; d < 6; ++d)
    for (std::uint64_t s = 0; s < 16; ++s)
      recs.push_back(probe(ts += kSec / 3, 100 + s, d));
  ts += kTimeout + 30 * kSec;
  for (std::uint64_t d = 0; d < 7; ++d)
    for (std::uint64_t s = 0; s < 10; ++s) {
      // Half the phase-C probes repeat destination 0: duplicate
      // traffic for the artifact filter to chew on.
      const std::uint64_t dst = s % 2 ? 0 : d;
      recs.push_back(probe(ts += kSec / 2, 200 + s % 3, dst));
    }
  return recs;
}

/// First record index on a different UTC day than record 0.
std::size_t day_boundary_k(const std::vector<LogRecord>& recs) {
  const std::int64_t day0 = sim::seconds_of(recs[0].ts_us) / 86'400;
  for (std::size_t i = 1; i < recs.size(); ++i)
    if (sim::seconds_of(recs[i].ts_us) / 86'400 != day0) return i;
  ADD_FAILURE() << "workload never crosses a day boundary";
  return 0;
}

/// First record index following an inter-record gap > timeout.
std::size_t expiry_boundary_k(const std::vector<LogRecord>& recs) {
  for (std::size_t i = 1; i < recs.size(); ++i)
    if (recs[i].ts_us - recs[i - 1].ts_us > kTimeout) return i;
  ADD_FAILURE() << "workload has no expiry gap";
  return 0;
}

std::vector<std::size_t> checkpoint_points(const std::vector<LogRecord>& recs) {
  return {0, 37, expiry_boundary_k(recs), day_boundary_k(recs)};
}

DetectorConfig detector_config(sim::TimeUs demote_idle = 0) {
  return {.source_prefix_len = 64,
          .min_destinations = 5,
          .timeout_us = kTimeout,
          .demote_idle_us = demote_idle};
}

/// A per-process scratch directory (ctest -j runs test processes
/// concurrently), removed when the test ends.
struct ScratchDir {
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              ("v6sonar_resume_test_" + std::to_string(::getpid()));
  ScratchDir() { std::filesystem::create_directories(dir); }
  ~ScratchDir() { std::filesystem::remove_all(dir); }
  [[nodiscard]] std::string file(const char* name) const { return (dir / name).string(); }
};

/// Events compare by their canonical serialized form — covers every
/// field including the per-port and weekly vectors.
std::vector<std::uint8_t> event_bytes(const std::vector<ScanEvent>& evs) {
  util::StateWriter w;
  for (const auto& ev : evs) save_scan_event(w, ev);
  return {w.bytes().begin(), w.bytes().end()};
}

struct SerialRun {
  std::vector<ScanEvent> events;
  std::string report;
};

SerialRun serial_uninterrupted(const std::vector<LogRecord>& recs,
                               const DetectorConfig& cfg) {
  SerialRun out;
  analysis::ReportBundle bundle(10);
  ScanDetector det(cfg, [&](ScanEvent&& ev) {
    bundle.observe(ev);
    out.events.push_back(std::move(ev));
  });
  for (const auto& r : recs) det.feed(r);
  det.flush();
  out.report = analysis::render_report(bundle, 10);
  return out;
}

SerialRun serial_resumed(const std::vector<LogRecord>& recs, const DetectorConfig& cfg,
                         std::size_t k) {
  SerialRun out;
  util::StateWriter det_w, an_w;
  {
    analysis::ReportBundle bundle(10);
    ScanDetector det(cfg, [&](ScanEvent&& ev) {
      bundle.observe(ev);
      out.events.push_back(std::move(ev));
    });
    for (std::size_t i = 0; i < k; ++i) det.feed(recs[i]);
    det.save(det_w);
    bundle.save(an_w);
    // det + bundle die here: the process "crashed" after the save.
  }
  analysis::ReportBundle bundle(10);
  ScanDetector det(cfg, [&](ScanEvent&& ev) {
    bundle.observe(ev);
    out.events.push_back(std::move(ev));
  });
  util::StateReader dr(det_w.bytes());
  det.load(dr);
  dr.expect_end();
  util::StateReader ar(an_w.bytes());
  bundle.load(ar);
  ar.expect_end();
  for (std::size_t i = k; i < recs.size(); ++i) det.feed(recs[i]);
  det.flush();
  out.report = analysis::render_report(bundle, 10);
  return out;
}

TEST(CheckpointResume, SerialDetectorAndAnalyzersAtEveryBoundary) {
  const auto recs = workload();
  const auto base = serial_uninterrupted(recs, detector_config());
  ASSERT_FALSE(base.events.empty());
  for (const std::size_t k : checkpoint_points(recs)) {
    const auto resumed = serial_resumed(recs, detector_config(), k);
    EXPECT_EQ(event_bytes(resumed.events), event_bytes(base.events)) << "k=" << k;
    EXPECT_EQ(resumed.report, base.report) << "k=" << k;
  }
}

TEST(CheckpointResume, TieredDetectorMatchesUntieredAndResumes) {
  const auto recs = workload();
  const auto base = serial_uninterrupted(recs, detector_config());

  // Tiering is output-invisible: demotion/promotion only moves state
  // between representations.
  const DetectorConfig tiered = detector_config(kTimeout / 2);
  const auto tiered_run = serial_uninterrupted(recs, tiered);
  EXPECT_EQ(event_bytes(tiered_run.events), event_bytes(base.events));
  EXPECT_EQ(tiered_run.report, base.report);

  // The cold tier actually engages on this workload…
  std::size_t max_cold = 0;
  {
    ScanDetector det(tiered, [](ScanEvent&&) {});
    for (const auto& r : recs) {
      det.feed(r);
      max_cold = std::max(max_cold, det.cold_sources());
    }
  }
  EXPECT_GT(max_cold, 0u) << "workload never demoted a source";

  // …and a checkpoint taken while sources sit in the cold tier thaws
  // back to the identical stream.
  for (const std::size_t k : checkpoint_points(recs)) {
    const auto resumed = serial_resumed(recs, tiered, k);
    EXPECT_EQ(event_bytes(resumed.events), event_bytes(base.events)) << "k=" << k;
    EXPECT_EQ(resumed.report, base.report) << "k=" << k;
  }
}

struct IdsRun {
  std::vector<std::string> alerts;  ///< "<prefix> level=<l> new=<b> at=<us>"
  std::string blocklist;
};

std::string alert_line(const IdsAlert& a) {
  return a.attribution.source.to_string() + " level=" + std::to_string(a.attribution.level) +
         " new=" + std::to_string(a.is_new) + " at=" + std::to_string(a.at_us);
}

IdsConfig ids_config() {
  IdsConfig cfg;
  cfg.adaptive.ladder = {64, 48};  // finest to coarsest
  cfg.min_destinations = 5;
  cfg.timeout_us = kTimeout;
  cfg.reattribution_period_us = 1'800 * kSec;
  return cfg;
}

TEST(CheckpointResume, StreamingIdsAlertsAndBlocklist) {
  // The streaming IDS (ParallelIds at one shard), record by record,
  // through the checkpoint container.
  const auto recs = workload();
  const ParallelConfig one_shard{.threads = 1};
  IdsRun base;
  {
    ParallelIds ids(ids_config(), one_shard,
                    [&](const IdsAlert& a) { base.alerts.push_back(alert_line(a)); });
    for (const auto& r : recs) ids.feed(r);
    ids.flush();
    base.blocklist = analysis::render_blocklist(ids.blocklist());
  }
  ASSERT_FALSE(base.alerts.empty());

  const ScratchDir scratch;
  const std::string path = scratch.file("ids.v6ckpt");
  for (const std::size_t k : checkpoint_points(recs)) {
    IdsRun run;
    {
      std::vector<std::string> seen;
      ParallelIds ids(ids_config(), one_shard,
                      [&](const IdsAlert& a) { seen.push_back(alert_line(a)); });
      for (std::size_t i = 0; i < k; ++i) ids.feed(recs[i]);
      CheckpointWriter ck;
      ids.checkpoint(ck);
      ck.commit(path);
      run.alerts = seen;
    }  // a crash: what the first instance delivers from here on is lost
    ParallelIds ids(ids_config(), one_shard,
                    [&](const IdsAlert& a) { run.alerts.push_back(alert_line(a)); });
    ids.resume(CheckpointReader(path));
    for (std::size_t i = k; i < recs.size(); ++i) ids.feed(recs[i]);
    ids.flush();
    run.blocklist = analysis::render_blocklist(ids.blocklist());

    EXPECT_EQ(run.alerts, base.alerts) << "k=" << k;
    EXPECT_EQ(run.blocklist, base.blocklist) << "k=" << k;
  }
}

// ---------------- sharded runs (DetectRun) ----------------

struct BundleSink final : EventSink {
  analysis::ReportBundle bundle{10};
  void on_event(ScanEvent&& ev) override { bundle.observe(ev); }
};

/// The composition `detect` and v6sonard run: a DetectRun whose shard
/// chains are report bundles, spilling to `events` when it is given.
struct ShardedRun {
  std::vector<std::unique_ptr<BundleSink>> sinks;
  DetectRun run;

  ShardedRun(int threads, std::string events = "")
      : run(detector_config(), ParallelConfig{.threads = threads, .ring_capacity = 64},
            std::move(events), [this](std::size_t) -> EventSink& {
              sinks.push_back(std::make_unique<BundleSink>());
              return *sinks.back();
            }) {}

  void checkpoint(const std::string& path) {
    CheckpointWriter ck;
    run.checkpoint(ck, [&](std::size_t s, util::StateWriter& w) { sinks[s]->bundle.save(w); });
    ck.commit(path);
  }
  void resume(const std::string& path) {
    run.resume(CheckpointReader(path),
               [&](std::size_t s, util::StateReader& r) { sinks[s]->bundle.load(r); });
  }

  std::string finish() {
    run.flush();
    analysis::ReportBundle master(10);
    for (auto& s : sinks) master.merge(std::move(s->bundle));
    return analysis::render_report(master, 10);
  }
};

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(CheckpointResume, ShardedPipelineAcrossThreadCounts) {
  const auto recs = workload();
  const std::string serial_report = serial_uninterrupted(recs, detector_config()).report;
  const ScratchDir scratch;

  for (const int threads : {1, 2, 8}) {
    ShardedRun base(threads);
    base.run.feed_batch(recs);
    const std::string base_report = base.finish();
    EXPECT_EQ(base_report, serial_report) << "threads=" << threads;

    for (const std::size_t k : checkpoint_points(recs)) {
      const std::string path = scratch.file("sharded.v6ckpt");
      {
        ShardedRun first(threads);
        first.run.feed_batch(std::span(recs).first(k));
        first.checkpoint(path);
        // Simulated crash: `first` is dropped mid-stream (its own
        // destructor flush output is discarded).
      }
      ShardedRun second(threads);
      second.resume(path);
      second.run.feed_batch(std::span(recs).subspan(k));
      EXPECT_EQ(second.finish(), base_report) << "threads=" << threads << " k=" << k;
    }
    // Shard routing depends on the count: another one is refused.
    ShardedRun other(threads + 1);
    EXPECT_THROW(other.resume(scratch.file("sharded.v6ckpt")), std::runtime_error);
  }
}

TEST(CheckpointResume, ShardedSpillResumesAtItsCursors) {
  // A run that crashes after a checkpoint leaves every shard spill
  // longer than its cursor; the resumed run truncates each back and
  // its merged spill is the uninterrupted one byte for byte — the
  // serial detector's event stream — at every k, the last record
  // included (the merge then depends on the restored clocks alone).
  const auto recs = workload();
  const ScratchDir scratch;
  std::string serial;
  {
    std::vector<ScanEvent> events;
    ScanDetector det(detector_config(), [&](ScanEvent&& ev) { events.push_back(std::move(ev)); });
    for (const auto& r : recs) det.feed(r);
    det.flush();
    write_events(scratch.file("serial.v6ev"), events);
    serial = file_bytes(scratch.file("serial.v6ev"));
  }
  const std::string events = scratch.file("spill.v6ev");
  std::vector<std::size_t> ks = checkpoint_points(recs);
  ks.push_back(recs.size());
  for (const int threads : {1, 2, 8}) {
    {
      ShardedRun base(threads, events);
      base.run.feed_batch(recs);
      base.finish();
      EXPECT_EQ(base.run.close(false), base.run.spilled());
      EXPECT_EQ(file_bytes(events), serial) << "threads=" << threads;
      EXPECT_FALSE(std::filesystem::exists(events + ".shard0"));
    }
    for (const std::size_t k : ks) {
      const std::string path = scratch.file("spill.v6ckpt");
      {
        ShardedRun first(threads, events);
        first.run.feed_batch(std::span(recs).first(k));
        first.checkpoint(path);
      }  // a crash after the checkpoint: the spills run on past their cursors
      ShardedRun second(threads, events);
      second.resume(path);
      second.run.feed_batch(std::span(recs).subspan(k));
      second.finish();
      second.run.close(true);  // kept: a run that may resume again
      EXPECT_TRUE(std::filesystem::exists(events + ".shard0"));
      EXPECT_EQ(file_bytes(events), serial) << "threads=" << threads << " k=" << k;
    }
  }
}

TEST(CheckpointResume, RunMetaNamesItsProducerAndRefusesOthers) {
  const ScratchDir scratch;
  const std::string path = scratch.file("run.v6ckpt");
  {
    CheckpointWriter ck;
    RunMeta{.producer = RunMeta::Producer::kIds, .shards = 3, .records = 7, .outputs = 2}.save(ck);
    ck.commit(path);
  }
  const CheckpointReader ck(path);
  const RunMeta m = RunMeta::load(ck, RunMeta::Producer::kIds, path);
  EXPECT_EQ(m.shards, 3u);
  EXPECT_EQ(m.records, 7u);
  EXPECT_EQ(m.outputs, 2u);
  try {
    (void)RunMeta::load(ck, RunMeta::Producer::kDaemon, path);
    FAIL() << "an ids checkpoint loaded as a daemon's";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("v6sonar ids, not of v6sonard"), std::string::npos)
        << e.what();
  }
  // No "run" section: a file of an older version.
  {
    CheckpointWriter old;
    util::StateWriter w;
    w.u64(0);
    old.add("meta", std::move(w));
    old.commit(path);
  }
  try {
    (void)RunMeta::load(CheckpointReader(path), RunMeta::Producer::kDetect, path);
    FAIL() << "a checkpoint without a run section loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("older version"), std::string::npos) << e.what();
  }

  // The shard count: given, defaulted, or the checkpoint's.
  EXPECT_EQ(shard_count(-1, nullptr), 1);
  EXPECT_EQ(shard_count(4, nullptr), 4);
  EXPECT_EQ(shard_count(-1, &m), 3);
  EXPECT_EQ(shard_count(0, &m), 3);
  EXPECT_EQ(shard_count(3, &m), 3);
  try {
    (void)shard_count(2, &m);
    FAIL() << "a different explicit shard count was adopted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("3 shards; got --threads 2"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointResume, LoadRejectsMismatchedConfigAndFedInstances) {
  const auto recs = workload();
  util::StateWriter w;
  {
    ScanDetector det(detector_config(), [](ScanEvent&&) {});
    for (std::size_t i = 0; i < 50; ++i) det.feed(recs[i]);
    det.save(w);
  }
  {
    DetectorConfig other = detector_config();
    other.min_destinations = 99;
    ScanDetector det(other, [](ScanEvent&&) {});
    util::StateReader r(w.bytes());
    EXPECT_THROW(det.load(r), std::runtime_error);
  }
  {
    ScanDetector det(detector_config(), [](ScanEvent&&) {});
    det.feed(recs[0]);
    util::StateReader r(w.bytes());
    EXPECT_THROW(det.load(r), std::runtime_error);
  }
}

}  // namespace
}  // namespace v6sonar::core
