// The sharded detect run of `v6sonar detect` and v6sonard, and the
// checkpoint layout of every front end (docs/CHECKPOINT.md). DetectRun
// owns the pipeline, each shard's spill `<events>.shard<i>` behind the
// front end's chain, their merge into `<events>` in the serial event
// order, and the per-shard sections sealed on the workers:
// "shard<i>.detector", "shard<i>.analyzers" (the front end's chain
// state, if any) and "shard<i>.spill" (count, byte cursor). Every
// front end's checkpoint holds one "run" section (RunMeta).
// CheckpointCommitter commits `detect`'s checkpoints while the run
// goes on feeding (docs/CHECKPOINT.md, "The commit pipeline").
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/parallel_pipeline.hpp"
#include "core/state_codec.hpp"
#include "sim/record.hpp"
#include "util/state_io.hpp"

namespace v6sonar::core {

/// The "run" section: which front end wrote a checkpoint and where its
/// stream stood.
struct RunMeta {
  enum class Producer : std::uint8_t { kDetect = 1, kIds = 2, kDaemon = 3 };
  static constexpr std::uint8_t kReport = 1;  ///< flags: `detect --report`
  static constexpr std::uint8_t kEvents = 2;  ///< flags: an `--events` spill

  Producer producer = Producer::kDetect;
  std::uint32_t shards = 0;
  std::uint64_t records = 0;  ///< records fed before the checkpoint
  std::uint64_t outputs = 0;  ///< alerts printed (ids), events seen (v6sonard)
  std::uint8_t flags = 0;

  void save(CheckpointWriter& ck) const;
  /// Throws std::runtime_error naming `path` for a file of an older
  /// version (it has no "run" section) or of another producer.
  [[nodiscard]] static RunMeta load(const CheckpointReader& ck, Producer expected,
                                    const std::string& path);
};

/// The shard count of a run: `requested` (-1 = not given: one; 0 = one
/// per hardware thread) or, resuming, the checkpoint's — shard routing
/// depends on the count, so an explicit different one throws
/// std::runtime_error naming both.
[[nodiscard]] int shard_count(int requested, const RunMeta* saved);

class DetectRun {
 public:
  /// `chain(s)` runs once per shard on the constructing thread; the
  /// sink it returns is borrowed, gets shard s's events on its worker
  /// and is never flushed here. A non-empty `events` spills them too.
  DetectRun(const DetectorConfig& config, const ParallelConfig& parallel, std::string events,
            const ParallelScanPipeline::ShardSinkFactory& chain);
  ~DetectRun();

  /// Feed records (non-decreasing time order, one thread).
  void feed_batch(std::span<const sim::LogRecord> batch);

  /// A front end's own state in shard s's chain, saved and loaded on
  /// that shard's worker. Writing nothing adds no section.
  using ShardSave = std::function<void(std::size_t shard, util::StateWriter& w)>;
  using ShardLoad = std::function<void(std::size_t shard, util::StateReader& r)>;

  /// A checkpoint whose barrier is in the shard rings.
  class PendingCheckpoint {
   public:
    /// Wait until every shard has sealed its sections and return them,
    /// shard by shard, in a writer the caller completes (the "run"
    /// section) and commits. Rethrows the first shard failure. Call it
    /// once.
    [[nodiscard]] CheckpointWriter take();

   private:
    friend class DetectRun;
    using Sections = std::vector<std::vector<CheckpointSection>>;
    PendingCheckpoint(std::unique_ptr<Sections> sections, Rendezvous done) noexcept;

    std::unique_ptr<Sections> sections_;  ///< filled on the workers
    Rendezvous done_;  ///< last: its destructor waits for the workers
  };

  /// Checkpoint behind the records fed so far, without waiting: each
  /// worker, on reaching the barrier, syncs its spill, then saves and
  /// seals its sections (`save` runs there too) and goes on. The run
  /// may be fed while the checkpoint is pending.
  [[nodiscard]] PendingCheckpoint checkpoint(ShardSave save = {});
  /// Before the first record: load what checkpoint() saved (same shard
  /// count) and reopen each spill at its cursor, dropping the events
  /// after it (the resumed run emits them again), or fresh without one.
  /// Returns the restored stream clock, the latest shard detector clock
  /// (INT64_MIN before any record): a record older than it would fail
  /// the detectors' time order. Throws std::runtime_error on another
  /// shard count or bad section.
  sim::TimeUs resume(const CheckpointReader& ck, const ShardLoad& load = {});

  /// End of stream: every chain has all its events when this returns.
  void flush();
  /// After flush(): merge the shard spills into `events` in the serial
  /// event order (its close is the run's one fsync) and return the
  /// event count. The shard spills are deleted unless
  /// `keep_shard_spills` (a run that may still resume keeps them).
  std::uint64_t close(bool keep_shard_spills);

  [[nodiscard]] int threads() const noexcept { return pipeline_.threads(); }
  /// Events spilled so far over all shards; safe on any thread.
  [[nodiscard]] std::uint64_t spilled() const noexcept;

 private:
  struct Shard;
  void start();  ///< open the spills not opened at a cursor yet

  std::string events_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ParallelScanPipeline pipeline_;
  bool started_ = false;  ///< spills open: fed, checkpointed or resumed
};

/// Commits a run's checkpoints to one path off the feeding thread, at
/// most one at a time. checkpoint() returns once the barrier is in the
/// rings; a committer thread then waits for the shards' sections, adds
/// the "run" section and calls CheckpointWriter::commit. The next
/// checkpoint() waits for that commit first, so two writers never share
/// `<path>.tmp`. Declare it after the DetectRun it serves: its
/// destructor waits for the commit in flight, which needs the workers.
class CheckpointCommitter {
 public:
  explicit CheckpointCommitter(std::string path) : path_(std::move(path)) {}
  /// Waits for the commit in flight, dropping its error: a run that is
  /// unwinding already failed.
  ~CheckpointCommitter();
  CheckpointCommitter(const CheckpointCommitter&) = delete;
  CheckpointCommitter& operator=(const CheckpointCommitter&) = delete;

  /// Wait for the commit in flight (rethrowing its error), then start
  /// checkpointing `run` behind the records fed so far, with `meta` as
  /// its "run" section. Observes checkpoint.stall_us: how long the
  /// feeding thread was held here.
  void checkpoint(DetectRun& run, DetectRun::ShardSave save, const RunMeta& meta);

  /// Wait for the commit in flight, if any, and rethrow its error (it
  /// names the path). Call before flushing the run: a run whose last
  /// checkpoint failed must fail, not report success.
  void wait();

 private:
  std::string path_;
  std::future<void> in_flight_;
};

}  // namespace v6sonar::core
