#include "core/detect_run.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/event_io.hpp"
#include "util/metrics.hpp"

namespace v6sonar::core {

namespace {

std::string producer_name(RunMeta::Producer p) {
  constexpr std::array<const char*, 4> kNames = {"an unknown producer", "v6sonar detect",
                                                 "v6sonar ids", "v6sonard"};
  const auto i = static_cast<std::size_t>(p);
  return kNames[i < kNames.size() ? i : 0];
}

constexpr auto kScratch = EventWriter::Durability::kScratch;

}  // namespace

void RunMeta::save(CheckpointWriter& ck) const {
  util::StateWriter w;
  w.u8(static_cast<std::uint8_t>(producer));
  w.u32(shards);
  w.u64(records);
  w.u64(outputs);
  w.u8(flags);
  ck.add("run", std::move(w));
}

RunMeta RunMeta::load(const CheckpointReader& ck, Producer expected, const std::string& path) {
  if (!ck.has("run"))
    throw std::runtime_error(path + " was written by an older version of v6sonar, which no "
                             "longer resumes; start again without it");
  auto r = ck.section("run");
  RunMeta m;
  m.producer = static_cast<Producer>(r.u8());
  m.shards = r.u32();
  m.records = r.u64();
  m.outputs = r.u64();
  m.flags = r.u8();
  r.expect_end();
  if (m.producer != expected)
    throw std::runtime_error(path + " is a checkpoint of " + producer_name(m.producer) +
                             ", not of " + producer_name(expected));
  if (m.shards == 0) throw std::runtime_error(path + ": checkpoint has no shards");
  return m;
}

int shard_count(int requested, const RunMeta* saved) {
  if (!saved) return requested < 0 ? 1 : requested;
  if (requested > 0 && static_cast<std::uint32_t>(requested) != saved->shards)
    throw std::runtime_error("checkpoint has " + std::to_string(saved->shards) +
                             " shards; got --threads " + std::to_string(requested));
  return static_cast<int>(saved->shards);
}

/// One shard's end of the run: the front end's chain, then the spill.
/// Only the shard's worker calls on_event().
struct DetectRun::Shard final : EventSink {
  EventSink* chain;
  std::string spill_path;  ///< empty without a spill
  std::optional<EventWriter> spill;
  std::atomic<std::uint64_t> spilled{0};  ///< spill->written(), for other threads

  Shard(EventSink& c, std::string path) : chain(&c), spill_path(std::move(path)) {}

  void on_event(ScanEvent&& ev) override {
    if (!spill) return chain->on_event(std::move(ev));
    chain->on_event(ScanEvent(ev));
    spill->on_event(std::move(ev));
    spilled.store(spill->written(), std::memory_order_relaxed);
  }
};

DetectRun::DetectRun(const DetectorConfig& config, const ParallelConfig& parallel,
                     std::string events, const ParallelScanPipeline::ShardSinkFactory& chain)
    : events_(std::move(events)),
      pipeline_(config, parallel, [&](std::size_t s) -> EventSink& {
        shards_.push_back(std::make_unique<Shard>(
            chain(s), events_.empty() ? "" : events_ + "." + shard_section(s, "")));
        return *shards_.back();
      }) {}

DetectRun::~DetectRun() = default;

void DetectRun::start() {
  if (started_) return;
  started_ = true;
  for (auto& sh : shards_)
    if (!sh->spill_path.empty() && !sh->spill) sh->spill.emplace(sh->spill_path, kScratch);
}

void DetectRun::feed_batch(std::span<const sim::LogRecord> batch) {
  start();
  pipeline_.feed_batch(batch);
}

DetectRun::PendingCheckpoint::PendingCheckpoint(std::unique_ptr<Sections> sections,
                                                Rendezvous done) noexcept
    : sections_(std::move(sections)), done_(std::move(done)) {}

CheckpointWriter DetectRun::PendingCheckpoint::take() {
  done_.wait();
  CheckpointWriter ck;
  for (auto& shard : *sections_)
    for (auto& section : shard) ck.add(std::move(section));
  return ck;
}

DetectRun::PendingCheckpoint DetectRun::checkpoint(ShardSave save) {
  start();
  auto sections = std::make_unique<PendingCheckpoint::Sections>(shards_.size());
  Rendezvous done = pipeline_.begin_shard_state(
      [this, out = sections.get(), save = std::move(save)](std::size_t s, ScanDetector& det,
                                                           ArtifactFilter*) {
        auto& mine = (*out)[s];
        util::StateWriter dw, aw;
        det.save(dw);
        mine.emplace_back(shard_section(s, ".detector"), std::move(dw));
        if (save) save(s, aw);
        if (aw.size() > 0) mine.emplace_back(shard_section(s, ".analyzers"), std::move(aw));
        if (auto& spill = shards_[s]->spill) {
          spill->checkpoint_sync();  // durable before a checkpoint names its cursor
          util::StateWriter sw;
          sw.u64(spill->written());
          sw.u64(spill->offset());
          mine.emplace_back(shard_section(s, ".spill"), std::move(sw));
        }
      });
  return {std::move(sections), std::move(done)};
}

sim::TimeUs DetectRun::resume(const CheckpointReader& ck, const ShardLoad& load) {
  if (started_) throw std::logic_error("DetectRun: resume after feed");
  const std::size_t n = shards_.size();
  check_shard_count(ck, n, ".detector");
  for (std::size_t s = 0; s < n; ++s) {
    Shard& sh = *shards_[s];
    if (sh.spill_path.empty() || !ck.has(shard_section(s, ".spill"))) continue;
    auto r = ck.section(shard_section(s, ".spill"));
    const std::uint64_t count = r.u64();
    const std::uint64_t offset = r.u64();
    r.expect_end();
    sh.spill.emplace(sh.spill_path, count, offset, kScratch);
    sh.spilled.store(count, std::memory_order_relaxed);
  }
  start();  // the spills without a cursor open fresh
  // Each shard's state goes in on its own worker, before any record.
  std::vector<sim::TimeUs> clocks(n, INT64_MIN);
  pipeline_.with_shard_state([&](std::size_t s, ScanDetector& det, ArtifactFilter*) {
    auto dr = ck.section(shard_section(s, ".detector"));
    det.load(dr);
    dr.expect_end();
    clocks[s] = det.clock();
    if (!load) return;
    auto ar = ck.section(shard_section(s, ".analyzers"));
    load(s, ar);
    ar.expect_end();
  });
  return *std::max_element(clocks.begin(), clocks.end());
}

void DetectRun::flush() {
  start();
  pipeline_.flush();
}

std::uint64_t DetectRun::close(bool keep_shard_spills) {
  if (events_.empty()) return 0;
  std::vector<std::unique_ptr<EventReader>> readers;
  for (auto& sh : shards_) {
    sh->spill->close();
    readers.push_back(std::make_unique<EventReader>(sh->spill_path, 1 << 16));
  }
  EventWriter out(events_);
  pipeline_.merge_shard_events(
      [&](std::size_t s, ScanEvent& ev) { return readers[s]->next(ev); }, out);
  out.close();  // backpatched and fsync'd before the caller reports success
  readers.clear();
  if (!keep_shard_spills)
    for (const auto& sh : shards_) std::filesystem::remove(sh->spill_path);
  return out.written();
}

std::uint64_t DetectRun::spilled() const noexcept {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->spilled.load(std::memory_order_relaxed);
  return n;
}

CheckpointCommitter::~CheckpointCommitter() {
  try {
    wait();
  } catch (...) {  // see the declaration
  }
}

void CheckpointCommitter::wait() {
  if (in_flight_.valid()) in_flight_.get();  // get() leaves it invalid, error or not
}

void CheckpointCommitter::checkpoint(DetectRun& run, DetectRun::ShardSave save,
                                     const RunMeta& meta) {
  static const util::metrics::Histogram stall_us{"checkpoint.stall_us"};
  const auto t0 = std::chrono::steady_clock::now();
  wait();
  in_flight_ = std::async(std::launch::async,
                          [this, pending = run.checkpoint(std::move(save)), meta]() mutable {
                            CheckpointWriter ck = pending.take();
                            meta.save(ck);
                            ck.commit(path_);
                          });
  stall_us.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() - t0)
          .count()));
}

}  // namespace v6sonar::core
