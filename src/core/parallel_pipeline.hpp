// Sharded parallel detection pipeline.
//
// Detection state is keyed purely by the aggregated source prefix
// (§2.2), so the record stream shards cleanly by source: every record
// of one aggregated source visits exactly one worker, and each worker
// runs a private, completely ordinary serial stage over its shard.
// One shard engine runs every front end: a feeder thread
// hash-partitions records across bounded SPSC rings
// (util/spsc_ring.hpp) and broadcasts the clock ticks, and each worker
// owns its slice of state end to end on its own thread. Workers never
// rendezvous with each other; each shard's own output stays in serial
// order. Mergeable sinks (analysis::Analyzer::merge) recover
// bit-identical *reports* at flush, and merge_shard_events() recovers
// the serial event *stream* from per-shard streams (docs/
// ARCHITECTURE.md §3 has the argument).
//
// There is one mode, and two front ends on the one engine; at one
// shard each is the serial stage on one worker thread:
//   ParallelScanPipeline  ==  ScanDetector, plus a caller-supplied
//                             per-shard EventSink chain
//   ParallelIds           ==  the streaming IDS (§5): IdsCore plus the
//                             periodic pass clock, which the feeder
//                             keeps beside the timeout tick
//
// Threading contract: feed()/flush() must be called from one thread;
// each per-shard event sink runs on its worker thread (sinks must not
// call back into the pipeline); ParallelIds delivers alerts on the
// calling thread, from feed()/flush(). flush() joins all threads and
// rethrows the first worker exception, if any.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector.hpp"
#include "core/state_codec.hpp"
#include "core/streaming_ids.hpp"
#include "sim/record.hpp"

namespace v6sonar::core {

class ArtifactFilter;

/// Kept only because perfbench/pbtool.cpp names it when it constructs
/// a ParallelIds, and perfbench changes only with the benchmark
/// definition. Sharded ownership is the one mode left; ParallelIds
/// accepts and ignores this argument. The next benchmark change drops
/// both.
enum class OrderMode { kSharded };

struct ParallelConfig {
  /// Worker threads (shards). 0 = one per hardware thread.
  int threads = 0;
  /// Records buffered per worker ring (rounded up to a power of two).
  /// Must be at least 8 — the ring's own capacity floor; pipeline
  /// constructors throw std::invalid_argument on smaller values.
  std::size_t ring_capacity = 1 << 14;
};

/// Sharded equivalent of one ScanDetector: the same events, N cores.
class ParallelScanPipeline {
 public:
  /// Per-shard sink factory: called once per shard, on the
  /// constructing thread, before any worker starts. The returned sink
  /// is borrowed (must outlive the pipeline), receives that shard's
  /// events on the worker thread in the shard's serial order, and is
  /// never flush()ed by the pipeline — merge and flush the per-shard
  /// chains after ParallelScanPipeline::flush() returns.
  using ShardSinkFactory = std::function<EventSink&(std::size_t shard)>;

  ParallelScanPipeline(const DetectorConfig& config, const ParallelConfig& parallel,
                       ShardSinkFactory per_shard);

  /// Per-shard state visitor for the checkpoint rendezvous: invoked on
  /// the shard's own worker thread against its private detector. The
  /// visitor may read or mutate the state freely — the worker is
  /// quiesced for the duration of its call. The ArtifactFilter argument
  /// is always nullptr; it stays only because perfbench/pbtool.cpp
  /// names it (see OrderMode).
  using ShardStateFn =
      std::function<void(std::size_t shard, ScanDetector& detector, ArtifactFilter* filter)>;

  ~ParallelScanPipeline();
  ParallelScanPipeline(const ParallelScanPipeline&) = delete;
  ParallelScanPipeline& operator=(const ParallelScanPipeline&) = delete;

  /// Feed one record (non-decreasing time order, one thread).
  void feed(const sim::LogRecord& r);

  /// Feed a whole batch (same contract). The feeder partitions the
  /// batch into per-shard runs and publishes each run to its ring with
  /// a single producer release — identical per-ring sequences to
  /// feeding one record at a time; only the synchronization per record
  /// is cheaper.
  void feed_batch(std::span<const sim::LogRecord> batch);

  /// Close the shards, join all threads, rethrow any worker/sink
  /// error. Every shard sink has received all its events once this
  /// returns. Every shard's detector ends at the serial detector's
  /// final clock (the latest shard detector clock: the last record,
  /// restored state included) before it flushes, so
  /// each shard times out and flushes exactly the events the serial
  /// detector would.
  void flush();

  /// Checkpoint rendezvous: publish any staged records, push a barrier
  /// through every shard's ring, and run `fn(shard, detector, nullptr)`
  /// on each worker thread once that worker has consumed everything
  /// fed before the barrier. Blocks the feeding thread until every
  /// shard has run the visitor, then rethrows the first visitor
  /// exception, or the error of a worker that failed earlier, if any.
  /// Used both to save per-shard state mid-stream (checkpoint) and to
  /// load it before the first record (resume).
  /// Throws std::logic_error after flush().
  void with_shard_state(const ShardStateFn& fn);

  /// Pulls shard `shard`'s next event, in the order its sink received
  /// them, into `out`; returns false once that shard has no more.
  using ShardEventPull = std::function<bool(std::size_t shard, ScanEvent& out)>;

  /// After flush(): stream the serial detector's event order into
  /// `out`, rebuilt from the per-shard streams `pull` yields. Each
  /// shard's stream is its timed-out run in (last_us, source) order,
  /// then its flushed run in source order, split exactly where the
  /// serial detector splits (see flush()). So the serial stream is a
  /// k-way merge of the timed-out runs by (last_us, source), then of
  /// the flushed runs by source. Holds one event per shard at a time.
  void merge_shard_events(const ShardEventPull& pull, EventSink& out) const;

  [[nodiscard]] int threads() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The streaming multi-level IDS (§5), sharded: ladder detectors at
/// every level over one packet stream, re-attributed every
/// reattribution period; a scanning actor's first attribution, or its
/// escalation to a coarser prefix, is an alert. The ladder detectors
/// shard by the coarsest ladder prefix, and attribution never looks
/// across one (core::Attributor), so each worker runs its own IdsCore
/// over its prefixes. The pass clock is the serial one: a pass runs
/// after the first record at or past the previous pass plus the
/// period, and once more at flush(). At every pass trigger the feeder
/// puts a pass tick into every ring; each worker attributes its dirty
/// groups on it and hands the pass's alerts back without waiting. Once
/// every shard has finished a pass, feed()/flush() merge its alerts by
/// prefix and deliver them to the sink on the calling thread. Alerts
/// (order, is_new flags, timestamps) and the blocklist are the same at
/// every shard count (tests/ids_oracle.hpp is the reference).
class ParallelIds {
 public:
  using AlertSink = core::AlertSink;

  /// `order` is ignored (see OrderMode). Throws std::invalid_argument
  /// on a null sink, a non-positive reattribution period, a bad ladder
  /// or bad detection thresholds.
  ParallelIds(const IdsConfig& config, const ParallelConfig& parallel, AlertSink sink,
              OrderMode order = OrderMode::kSharded);

  ~ParallelIds();
  ParallelIds(const ParallelIds&) = delete;
  ParallelIds& operator=(const ParallelIds&) = delete;

  void feed(const sim::LogRecord& r);
  /// Batched feed; same output (pass ticks follow the same records)
  /// with per-shard run publication as in
  /// ParallelScanPipeline::feed_batch.
  void feed_batch(std::span<const sim::LogRecord> batch);
  void flush();

  /// Checkpoint rendezvous: push a barrier through every ring behind
  /// the records fed so far; each worker saves its IdsCore as section
  /// "shard<i>.ids", sealed on that worker. Then every pass the shards
  /// finished before the barrier is delivered to the sink, so when
  /// this returns the sink has seen exactly the alerts the saved state
  /// knows of. Adds section "ids" (configuration fingerprint and the
  /// pass clock) too. Throws std::logic_error after flush().
  void checkpoint(CheckpointWriter& ck);
  /// Restore what checkpoint() saved, before the first record; the
  /// shard count must be the checkpoint's (shard routing depends on
  /// it). Throws std::runtime_error on a configuration or shard-count
  /// mismatch or a corrupt section, std::logic_error once fed.
  void resume(const CheckpointReader& ck);

  [[nodiscard]] int threads() const noexcept;
  /// Final blocklist in prefix order: the union of the shards'
  /// blocklists. Only valid after flush() — the workers own their
  /// attributors before that, so this throws std::logic_error on a
  /// pre-flush call instead of racing.
  [[nodiscard]] std::vector<Attribution> blocklist() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Checkpoint section "shard<shard><what>", e.g. "shard0.detector".
[[nodiscard]] std::string shard_section(std::size_t shard, std::string_view what);

/// The resume check both front ends share: shard routing depends on the
/// shard count, so `ck` must hold section shard_section(i, what) for
/// every i < n and none for n. Throws std::runtime_error otherwise.
void check_shard_count(const CheckpointReader& ck, std::size_t n, std::string_view what);

}  // namespace v6sonar::core
