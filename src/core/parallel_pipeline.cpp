// Implementation notes.
//
// Equivalence argument (docs/ARCHITECTURE.md has the long form): the
// serial detector emits timed-out events in (end-time, source) order
// and flush() then emits the rest in source order. Sharding by the
// aggregated source prefix puts every record of one detector key on
// one worker, in stream order, so each worker's private detector
// produces exactly the serial events of its key subset, in the same
// two sorted runs. The merger recovers the global order: a timed-out
// event finalizing at time D (D = last_us + timeout) is released once
// no shard can still produce an event finalizing before D — each
// shard's published watermark is a lower bound on its future
// finalization times, because a detector that has processed up to
// time T holds no state that could finalize before T.
//
// Ticks: a shard that receives no traffic never advances its
// watermark, which would stall the merge (and, for the IDS, the
// attribution barrier) indefinitely. The feeder therefore broadcasts
// bare clock ticks; workers apply them with ScanDetector::advance /
// ArtifactFilter::advance, which finalize exactly the events the
// serial detector would have finalized by that time. In filtered
// mode the detector clock only follows the filter's release frontier
// (the start of the still-buffered day) — the buffered day's records
// are behind it and must still be fed.

#include "core/parallel_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/metrics.hpp"
#include "util/spsc_ring.hpp"

namespace v6sonar::core {
namespace {

/// Shared pipeline telemetry (names in docs/OBSERVABILITY.md). The
/// feeder-side counters live here; per-shard ring stats are collected
/// in SpscRingStats and folded into named metrics once, at flush.
struct PipelineMetrics {
  util::metrics::Counter feed_records{"pipeline.feed.records"};
  util::metrics::Counter ticks{"pipeline.ticks"};
  util::metrics::Counter barriers{"pipeline.barriers"};
};

PipelineMetrics& pm() {
  static PipelineMetrics m;
  return m;
}

/// Control block of one checkpoint rendezvous: every worker runs the
/// visitor against its private state, and the last arrival releases
/// the waiting feeder thread. A worker that is already dead (error
/// path) arrives with its stored exception instead of running the
/// visitor, so the caller never deadlocks on a shard that cannot
/// comply — it gets the shard's real error rethrown.
struct BarrierCtl {
  const ParallelScanPipeline::ShardStateFn* fn = nullptr;
  std::mutex m;
  std::condition_variable cv;
  std::size_t remaining = 0;
  std::exception_ptr error;  ///< first visitor/shard failure

  void arrive(std::exception_ptr err) {
    std::lock_guard lk(m);
    if (err && !error) error = std::move(err);
    if (--remaining == 0) cv.notify_one();
  }
};

/// One parcel on a feeder->worker ring: a record, a bare clock advance
/// (tick=true, time rides in rec.ts_us), or a checkpoint barrier
/// (barrier non-null; scan pipeline, sharded mode only).
struct InItem {
  sim::LogRecord rec;
  bool tick = false;
  BarrierCtl* barrier = nullptr;
};

/// One parcel on a worker->merger ring.
struct OutItem {
  ScanEvent ev;
  std::uint16_t level = 0;  ///< ladder index; 0 when single-level
  bool flushed = false;     ///< emitted by flush(), not by timeout
};

/// FIFO of held-back events on one flat buffer: a vector plus a pop
/// cursor, compacted only when the dead prefix dominates the live
/// tail. Replaces std::deque in the merger — pushes reuse one grown
/// allocation instead of churning map/chunk blocks, and front() is
/// direct indexing into contiguous storage.
class OutQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }
  [[nodiscard]] OutItem& front() noexcept { return items_[head_]; }
  [[nodiscard]] const OutItem& front() const noexcept { return items_[head_]; }
  void push_back(OutItem&& it) { items_.push_back(std::move(it)); }
  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= 64 && head_ >= items_.size() - head_) {
      // Amortized O(1): moving the <= head_ survivors is charged to
      // the head_ pops that built up the dead prefix.
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<OutItem> items_;
  std::size_t head_ = 0;
};

/// One shard: a worker thread plus its two rings. The watermark
/// publishes the worker's detector clock — every timed-out event the
/// shard emits from now on finalizes at or after it — and jumps to
/// INT64_MAX when the shard's stream phase is over for good.
struct Shard {
  Shard(std::size_t in_cap, std::size_t out_cap) : in(in_cap), out(out_cap) {
    in.set_stats(&in_stats);
    out.set_stats(&out_stats);
  }

  util::SpscRing<InItem> in;
  util::SpscRing<OutItem> out;
  util::SpscRingStats in_stats;
  util::SpscRingStats out_stats;
  alignas(64) std::atomic<sim::TimeUs> watermark{INT64_MIN};
  std::thread thread;
  std::exception_ptr error;
  std::vector<FilterDayStats> day_stats;  ///< filter mode; closed in day order
  /// Events this shard's detector(s) emitted. Written only by the
  /// worker thread; read after join, when it folds into the per-shard
  /// pipeline.shard<N>.events counters.
  std::uint64_t events_emitted = 0;
};

using ShardList = std::vector<std::unique_ptr<Shard>>;

std::size_t shard_of(const net::Ipv6Address& src, int shard_len, std::size_t n) {
  std::size_t h = std::hash<net::Ipv6Address>{}(src.masked(shard_len));
  h ^= h >> 33;  // fmix64: the modulo must not correlate with the raw hash
  h *= 0xff51'afd7'ed55'8ccdULL;
  h ^= h >> 33;
  return h % n;
}

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 4;
}

/// Reject configurations whose rings could not function: a zero or
/// sub-minimum capacity either breaks the power-of-two rounding
/// contract or thrashes every hand-off through backpressure one
/// element at a time. 8 is SpscRing's own capacity floor. Messages
/// name the CLI flag alongside the field so a failed `v6sonar detect
/// --ring-cap 4` is actionable without reading this file.
void validate_parallel(const ParallelConfig& parallel, const char* who) {
  if (parallel.threads < 0)
    throw std::invalid_argument(std::string(who) + ": threads (--threads) must be >= 0, got " +
                                std::to_string(parallel.threads) +
                                " (0 means one per hardware thread)");
  if (parallel.ring_capacity < 8)
    throw std::invalid_argument(std::string(who) +
                                ": ring_capacity (--ring-cap) must be at least 8 slots, got " +
                                std::to_string(parallel.ring_capacity));
}

/// Items a worker pops from its input ring per blocking bulk consume;
/// also the span cap for the contiguous record runs handed to
/// feed_batch. Big enough to amortize the acquire/release pair and
/// keep the grouped detector path fed, small enough that a chunk of
/// InItems plus its record scratch stays comfortably L2-resident.
constexpr std::size_t kWorkerChunk = 1024;

/// The filter's release frontier at wall-time `ts`: records before the
/// start of ts's UTC day have been released, the rest are buffered.
sim::TimeUs day_start(sim::TimeUs ts) {
  return sim::us_from_seconds(sim::seconds_of(ts) / 86'400 * 86'400);
}

/// Drain a shard's output ring until it closes, discarding everything
/// — used on error paths so producers never block on a dead consumer.
void discard_outputs(ShardList& shards) {
  for (auto& sp : shards)
    while (!sp->out.drained())
      if (!sp->out.try_pop()) std::this_thread::yield();
}

/// K-way merge of per-shard event streams back into serial order.
///
/// Each (shard, level) stream arrives as two sorted runs: timed-out
/// events in (end-time, source) order, then flushed events in source
/// order. Stream-run events are released once every shard either
/// shows a later head or has published a watermark past the event's
/// finalization time; flush-run events are released once every shard
/// shows its flush head or is done. Optional barriers (the IDS
/// attribution passes) run once everything finalizing before their
/// time has been merged, and hold back everything after it.
class EventMerger {
 public:
  EventMerger(ShardList& shards, std::size_t levels, sim::TimeUs timeout_us,
              std::function<void(std::size_t, ScanEvent&&)> emit,
              util::SpscRing<sim::TimeUs>* barriers = nullptr,
              std::function<void(sim::TimeUs)> on_barrier = {},
              const char* metric_prefix = "pipeline")
      : shards_(shards),
        levels_(levels),
        timeout_us_(timeout_us),
        emit_(std::move(emit)),
        barriers_(barriers),
        on_barrier_(std::move(on_barrier)),
        metric_prefix_(metric_prefix),
        drain_hist_(util::metrics::register_metric(
            std::string(metric_prefix) + ".merger.drain_size",
            util::metrics::Kind::kHistogram)) {
    bufs_.resize(shards_.size() * levels_);
    wm_.assign(shards_.size(), INT64_MIN);
    drained_.assign(shards_.size(), false);
    scratch_.resize(256);
  }

  void run() {
    std::size_t idle = 0;
    for (;;) {
      const bool progress = step();
      if (finished()) {
        // Cold path: one registration + store per run. How many events
        // the merger had to hold back waiting on slower shards.
        namespace m = util::metrics;
        if (m::enabled())
          m::gauge_max(
              m::register_metric(std::string(metric_prefix_) + ".merger.queue_depth_hw",
                                 m::Kind::kGauge),
              buffered_hw_);
        return;
      }
      if (progress) {
        idle = 0;
      } else if (++idle < 256) {
        std::this_thread::yield();
      } else {
        // A long quiet stretch (slow producer, e.g. a live-capture
        // feed): park briefly instead of spinning a core. Batch runs
        // make progress nearly every step and never reach here.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

 private:
  [[nodiscard]] sim::TimeUs due(const OutItem& it) const noexcept {
    return it.ev.last_us + timeout_us_;
  }
  [[nodiscard]] OutQueue& buf(std::size_t s, std::size_t l) noexcept {
    return bufs_[s * levels_ + l];
  }

  void drain() {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (drained_[s]) continue;
      // The watermark must be read before the ring is drained: a
      // stale watermark only delays a release, a fresh one paired
      // with an undrained ring could release out of order.
      wm_[s] = shards_[s]->watermark.load(std::memory_order_acquire);
      // Bulk drain: one head release per scratch-load instead of one
      // per event, then route events to their (shard, level) queue.
      std::uint64_t popped = 0;
      for (std::size_t got;
           (got = shards_[s]->out.try_pop_n(scratch_.data(), scratch_.size())) > 0;) {
        for (std::size_t i = 0; i < got; ++i)
          buf(s, scratch_[i].level).push_back(std::move(scratch_[i]));
        popped += got;
      }
      if (popped) {
        buffered_ += popped;
        if (util::metrics::enabled()) util::metrics::observe(drain_hist_, popped);
      }
      if (shards_[s]->out.drained()) drained_[s] = true;
    }
    if (buffered_ > buffered_hw_) buffered_hw_ = buffered_;
  }

  /// Floor on the finalization time of any event not yet buffered
  /// here — the gate for barrier passes.
  [[nodiscard]] sim::TimeUs min_unmerged() const {
    sim::TimeUs m = INT64_MAX;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!drained_[s]) m = std::min(m, wm_[s]);
      for (std::size_t l = 0; l < levels_; ++l) {
        const auto& b = bufs_[s * levels_ + l];
        if (!b.empty() && !b.front().flushed)
          m = std::min(m, b.front().ev.last_us + timeout_us_);
      }
    }
    return m;
  }

  bool step() {
    drain();
    bool progress = false;
    if (barriers_) {
      if (!pending_) pending_ = barriers_->try_pop();
      while (pending_ && min_unmerged() >= *pending_) {
        on_barrier_(*pending_);
        pending_ = barriers_->try_pop();
        progress = true;
      }
    }
    const sim::TimeUs gate = pending_ ? *pending_ : INT64_MAX;
    for (std::size_t l = 0; l < levels_; ++l)
      while (emit_one(l, gate)) progress = true;
    return progress;
  }

  /// Try to release the next event at ladder level `l`.
  bool emit_one(std::size_t l, sim::TimeUs gate) {
    // Stream run: the smallest (end-time, source) head, releasable
    // once no other shard can produce anything earlier.
    std::size_t best = SIZE_MAX;
    sim::TimeUs floor = INT64_MAX;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const auto& b = bufs_[s * levels_ + l];
      if (!b.empty()) {
        if (b.front().flushed) continue;  // this shard's stream run is over
        if (best == SIZE_MAX || stream_less(b.front(), buf(best, l).front())) best = s;
      } else if (!drained_[s]) {
        // Nothing visible from this shard yet: bounded by watermark.
        floor = std::min(floor, wm_[s]);
      }
    }
    if (best != SIZE_MAX) {
      OutItem& head = buf(best, l).front();
      // Strict <: a shard sitting exactly at the watermark may still
      // finalize an event at that very time with a smaller source.
      if (due(head) < floor && due(head) < gate) {
        emit_(l, std::move(head.ev));
        buf(best, l).pop_front();
        --buffered_;
        return true;
      }
      return false;
    }
    // Flush run: needs every shard's sorted-by-source head (or proof
    // there is none) before the smallest source can be released.
    std::size_t fbest = SIZE_MAX;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const auto& b = bufs_[s * levels_ + l];
      if (b.empty()) {
        if (!drained_[s]) return false;  // head still unknown
        continue;
      }
      if (fbest == SIZE_MAX || b.front().ev.source < buf(fbest, l).front().ev.source)
        fbest = s;
    }
    if (fbest == SIZE_MAX) return false;
    // Flush events finalize after every barrier: a pending pass must
    // not see them, however far the other levels lag.
    if (gate != INT64_MAX) return false;
    emit_(l, std::move(buf(fbest, l).front().ev));
    buf(fbest, l).pop_front();
    --buffered_;
    return true;
  }

  [[nodiscard]] bool stream_less(const OutItem& a, const OutItem& b) const noexcept {
    if (a.ev.last_us != b.ev.last_us) return a.ev.last_us < b.ev.last_us;
    return a.ev.source < b.ev.source;
  }

  [[nodiscard]] bool finished() const {
    if (pending_) return false;
    for (const bool d : drained_)
      if (!d) return false;
    for (const auto& b : bufs_)
      if (!b.empty()) return false;
    return true;
  }

  ShardList& shards_;
  std::size_t levels_;
  sim::TimeUs timeout_us_;
  std::function<void(std::size_t, ScanEvent&&)> emit_;
  util::SpscRing<sim::TimeUs>* barriers_;
  std::function<void(sim::TimeUs)> on_barrier_;
  const char* metric_prefix_;

  std::vector<OutQueue> bufs_;
  std::vector<OutItem> scratch_;  ///< bulk-drain staging buffer
  util::metrics::MetricId drain_hist_;
  std::vector<sim::TimeUs> wm_;
  std::vector<bool> drained_;
  std::optional<sim::TimeUs> pending_;
  std::uint64_t buffered_ = 0;     ///< events currently held back
  std::uint64_t buffered_hw_ = 0;  ///< high-water of buffered_
};

/// Feeder-side state shared by both pipelines: order validation,
/// shard routing, and the periodic tick broadcast.
///
/// Batching: stage() appends records to per-shard pending runs instead
/// of pushing them immediately; publish() then hands each run to its
/// ring with a single producer release (util::SpscRing::push_n). This
/// preserves the equivalence argument because (a) each shard's record
/// subsequence is exactly the serial one — staging never reorders
/// within a shard — and (b) every staged record is published before
/// any tick or barrier carrying a later-or-equal timestamp is pushed
/// (stage() publishes before its own tick broadcast; external barrier
/// points must call publish() first). Ticks themselves only affect
/// liveness — advance() finalizes exactly what would finalize anyway —
/// so deferring publication between them changes no per-ring content.
struct Feeder {
  int shard_len = 64;
  sim::TimeUs tick_interval = 0;
  sim::TimeUs next_tick = 0;
  sim::TimeUs last_ts = INT64_MIN;
  std::uint64_t fed = 0;
  std::vector<std::vector<InItem>> staged;  ///< pending run per shard

  /// Size the per-shard staging vectors once, at pipeline start-up, so
  /// stage() never re-checks them per record; pre-reserving skips the
  /// first few growth reallocations of every run.
  void init(std::size_t n_shards) {
    staged.resize(n_shards);
    for (auto& run : staged) run.reserve(1024);
  }

  /// Validate and stage one record; on crossing the tick boundary,
  /// publish the staged runs (the tick must not overtake records that
  /// precede it) and then broadcast the tick.
  void stage(ShardList& shards, const sim::LogRecord& r, const char* who) {
    if (r.ts_us < last_ts)
      throw std::invalid_argument(std::string(who) +
                                  ": records must be time-ordered (got ts " +
                                  std::to_string(r.ts_us) + " after " +
                                  std::to_string(last_ts) + ")");
    last_ts = r.ts_us;
    ++fed;
    staged[shard_of(r.src, shard_len, shards.size())].push_back(InItem{r, false});
    if (next_tick == 0)
      next_tick = r.ts_us + tick_interval;
    else if (r.ts_us >= next_tick) {
      publish(shards);
      broadcast_tick(shards, r.ts_us);
      next_tick = r.ts_us + tick_interval;
    }
  }

  /// Push every shard's staged run, one producer release per run.
  void publish(ShardList& shards) {
    std::uint64_t published = 0;
    for (std::size_t s = 0; s < staged.size(); ++s) {
      auto& run = staged[s];
      if (run.empty()) continue;
      shards[s]->in.push_n(run.data(), run.size());
      published += run.size();
      run.clear();
    }
    pm().feed_records.add(published);
  }

  void route(ShardList& shards, const sim::LogRecord& r, const char* who) {
    stage(shards, r, who);
    publish(shards);
  }

  void route_batch(ShardList& shards, std::span<const sim::LogRecord> batch, const char* who) {
    for (const auto& r : batch) stage(shards, r, who);
    publish(shards);
  }

  static void broadcast_tick(ShardList& shards, sim::TimeUs t) {
    pm().ticks.add();
    InItem item;
    item.rec.ts_us = t;
    item.tick = true;
    for (auto& sp : shards) sp->in.push(InItem{item});
  }
};

void join_all(ShardList& shards, std::thread& merger) {
  for (auto& sp : shards) sp->in.close();
  for (auto& sp : shards)
    if (sp->thread.joinable()) sp->thread.join();
  if (merger.joinable()) merger.join();
}

/// Fold the per-shard ring stats into named metrics. Called once at
/// flush, after the workers have joined, so every load is quiescent.
/// Registers the per-shard gauge names lazily — the shard count is a
/// runtime choice, so the names cannot be static handles.
void report_ring_stats(const ShardList& shards, const char* prefix) {
  namespace m = util::metrics;
  if (!m::enabled()) return;
  std::uint64_t in_blocked = 0, in_parks = 0, out_blocked = 0, out_parks = 0;
  std::uint64_t in_consumer_parks = 0, out_consumer_parks = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const util::SpscRingStats& in = shards[s]->in_stats;
    const util::SpscRingStats& out = shards[s]->out_stats;
    std::string base = prefix;
    base += ".shard";
    base += std::to_string(s);
    m::gauge_max(m::register_metric(base + ".in_ring.occupancy_hw", m::Kind::kGauge),
                 in.occupancy_hw.load(std::memory_order_relaxed));
    m::gauge_max(m::register_metric(base + ".out_ring.occupancy_hw", m::Kind::kGauge),
                 out.occupancy_hw.load(std::memory_order_relaxed));
    m::add(m::register_metric(base + ".events", m::Kind::kCounter), shards[s]->events_emitted);
    in_blocked += in.producer_blocked.load(std::memory_order_relaxed);
    in_parks += in.producer_parks.load(std::memory_order_relaxed);
    in_consumer_parks += in.consumer_parks.load(std::memory_order_relaxed);
    out_blocked += out.producer_blocked.load(std::memory_order_relaxed);
    out_parks += out.producer_parks.load(std::memory_order_relaxed);
    out_consumer_parks += out.consumer_parks.load(std::memory_order_relaxed);
  }
  const std::string p = prefix;
  m::add(m::register_metric(p + ".in_ring.producer_blocked", m::Kind::kCounter), in_blocked);
  m::add(m::register_metric(p + ".in_ring.producer_parks", m::Kind::kCounter), in_parks);
  m::add(m::register_metric(p + ".in_ring.consumer_parks", m::Kind::kCounter),
         in_consumer_parks);
  m::add(m::register_metric(p + ".out_ring.producer_blocked", m::Kind::kCounter), out_blocked);
  m::add(m::register_metric(p + ".out_ring.producer_parks", m::Kind::kCounter), out_parks);
  m::add(m::register_metric(p + ".out_ring.consumer_parks", m::Kind::kCounter),
         out_consumer_parks);
}

void rethrow_first(const ShardList& shards, const std::exception_ptr& merger_error) {
  for (const auto& sp : shards)
    if (sp->error) std::rethrow_exception(sp->error);
  if (merger_error) std::rethrow_exception(merger_error);
}

}  // namespace

// ---------------------------------------------------------------- //

struct ParallelScanPipeline::Impl {
  std::unique_ptr<FunctionSink> owned_sink;  // legacy-adapter storage, if any
  EventSink* sink = nullptr;
  std::vector<EventSink*> shard_sinks;  ///< sharded mode: one borrowed sink per shard
  std::vector<FilterDayStats> merged_stats;
  ShardList shards;
  std::thread merger_thread;
  std::exception_ptr merger_error;
  Feeder feeder;
  bool flushed = false;

  ~Impl() { join_all(shards, merger_thread); }  // backstop; flush() normally joined

  /// Exactly one of `sink_in` (total-order mode) and `per_shard`
  /// (sharded-ownership mode) is set.
  void start(const DetectorConfig& config, const std::optional<ArtifactFilterConfig>& filter,
             const ParallelConfig& parallel, EventSink* sink_in,
             ShardSinkFactory per_shard = {}) {
    // Fail fast, on the caller's thread, with the serial classes' own
    // validation; the workers construct theirs later.
    { ScanDetector probe(config, [](ScanEvent&&) {}); }
    if (filter) {
      ArtifactFilter probe(*filter, [](const sim::LogRecord&) {});
    }
    validate_parallel(parallel, "ParallelScanPipeline");
    const bool sharded = static_cast<bool>(per_shard);
    sink = sink_in;

    feeder.shard_len = filter ? std::min(config.source_prefix_len, filter->source_prefix_len)
                              : config.source_prefix_len;
    feeder.tick_interval =
        parallel.tick_interval_us > 0 ? parallel.tick_interval_us : config.timeout_us;

    const int n = resolve_threads(parallel.threads);
    // Sharded mode never touches the output rings; keep them at the
    // ring's own floor instead of provisioning merger-sized buffers.
    const std::size_t out_cap =
        sharded ? 8 : std::max<std::size_t>(1024, parallel.ring_capacity / 4);
    shards.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      shards.push_back(std::make_unique<Shard>(parallel.ring_capacity, out_cap));
    feeder.init(shards.size());
    if (sharded) {
      // Resolve every per-shard sink on the caller's thread, before
      // any worker can race the factory.
      shard_sinks.reserve(shards.size());
      for (std::size_t s = 0; s < shards.size(); ++s) shard_sinks.push_back(&per_shard(s));
    }

    const util::metrics::MetricId batch_hist = util::metrics::register_metric(
        "pipeline.worker.batch_size", util::metrics::Kind::kHistogram);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      Shard& sh = *shards[s];
      EventSink* shard_sink = sharded ? shard_sinks[s] : nullptr;
      sh.thread = std::thread([&sh, s, config, filter, batch_hist, shard_sink] {
        worker_main(sh, s, config, filter, batch_hist, shard_sink);
      });
    }
    if (sharded) return;  // no merger: workers rendezvous only at flush
    merger_thread = std::thread([this, timeout = config.timeout_us] {
      try {
        EventMerger merger(shards, 1, timeout,
                           [this](std::size_t, ScanEvent&& ev) { sink->on_event(std::move(ev)); });
        merger.run();
      } catch (...) {
        merger_error = std::current_exception();
        discard_outputs(shards);
      }
    });
  }

  /// Bulk-consuming worker loop. Runs are popped from the input ring
  /// in chunks (one consumer release per chunk), ticks are split from
  /// records, and each contiguous record span goes through the
  /// detector's (or filter's) batch path — recovering the grouped
  /// per-source apply inside the shard. Emitted events are buffered
  /// locally and flushed to the output ring with one producer release,
  /// and the watermark is published once per consumed chunk.
  ///
  /// Ordering stays intact under both batchings: the watermark is the
  /// detector clock at the *end* of the chunk, still a lower bound on
  /// every future finalization, and emitted events are pushed to the
  /// ring strictly before the watermark store — so the merger can
  /// never observe a watermark that promises events it cannot yet see.
  ///
  /// Sharded-ownership mode (`shard_sink` non-null): events bypass the
  /// output ring entirely and go straight into the shard's own sink,
  /// still on this thread — the sink sees this shard's events in the
  /// shard's serial order, and nothing else. Watermarks keep being
  /// published (they are cheap and keep the two modes' loops
  /// identical) but have no consumer.
  static void worker_main(Shard& sh, std::size_t shard_idx, const DetectorConfig& config,
                          const std::optional<ArtifactFilterConfig>& filter,
                          util::metrics::MetricId batch_hist, EventSink* shard_sink) {
    try {
      bool flushing = false;
      sim::TimeUs det_time = INT64_MIN;
      std::vector<OutItem> out_buf;
      const auto flush_out = [&] {
        if (out_buf.empty()) return;
        sh.out.push_n(out_buf.data(), out_buf.size());  // moving overload
        out_buf.clear();
      };
      ScanDetector det(config, shard_sink ? ScanDetector::EventFn([&sh, shard_sink](ScanEvent&& ev) {
        ++sh.events_emitted;
        shard_sink->on_event(std::move(ev));
      })
                                          : ScanDetector::EventFn([&](ScanEvent&& ev) {
                                              ++sh.events_emitted;
                                              out_buf.push_back(OutItem{std::move(ev), 0, flushing});
                                            }));
      std::unique_ptr<ArtifactFilter> af;
      if (filter)
        af = std::make_unique<ArtifactFilter>(
            *filter,
            [&](const sim::LogRecord& rr) {
              det.feed(rr);
              det_time = rr.ts_us;
            },
            [&](const FilterDayStats& s) { sh.day_stats.push_back(s); });

      std::vector<InItem> chunk(kWorkerChunk);
      std::vector<sim::LogRecord> recs(kWorkerChunk);
      for (std::size_t got; (got = sh.in.pop_n(chunk.data(), chunk.size())) > 0;) {
        if (util::metrics::enabled()) util::metrics::observe(batch_hist, got);
        std::size_t i = 0;
        while (i < got) {
          if (chunk[i].barrier) {
            // Checkpoint rendezvous: everything fed before the barrier
            // has been applied, so the visitor sees exactly the state
            // after the first K records — the quiesced point the
            // resume-equivalence contract is built on.
            flush_out();
            std::exception_ptr err;
            try {
              (*chunk[i].barrier->fn)(shard_idx, det, af.get());
            } catch (...) {
              err = std::current_exception();
            }
            chunk[i].barrier->arrive(std::move(err));
            ++i;
            continue;
          }
          if (chunk[i].tick) {
            const sim::TimeUs ts = chunk[i].rec.ts_us;
            if (!af) {
              det.advance(ts);
              det_time = ts;
            } else {
              af->advance(ts);
              det.advance(day_start(ts));
              det_time = std::max(det_time, day_start(ts));
            }
            ++i;
            continue;
          }
          // Contiguous record span up to the next tick/barrier (or
          // chunk end).
          std::size_t j = i;
          for (; j < got && !chunk[j].tick && !chunk[j].barrier; ++j) recs[j - i] = chunk[j].rec;
          const std::span<const sim::LogRecord> span(recs.data(), j - i);
          const sim::TimeUs ts = span.back().ts_us;
          if (!af) {
            det.feed_batch(span);
            det_time = ts;
          } else {
            af->feed_batch(span);
            // The detector clock follows the filter's release
            // frontier, never the raw stream clock: the open day's
            // records are still buffered behind it.
            det.advance(day_start(ts));
            det_time = std::max(det_time, day_start(ts));
          }
          i = j;
        }
        flush_out();  // events must be visible before the watermark
        sh.watermark.store(det_time, std::memory_order_release);
      }
      if (af) af->flush();  // releases the final day into the detector
      flush_out();          // final-day events precede the +inf watermark
      sh.watermark.store(INT64_MAX, std::memory_order_release);
      flushing = true;
      det.flush();
      flush_out();
    } catch (...) {
      sh.error = std::current_exception();
      // Keep the feeder unblocked; a barrier must still be arrived at
      // (with this shard's error) or with_shard_state would deadlock.
      while (auto it = sh.in.pop())
        if (it->barrier) it->barrier->arrive(sh.error);
    }
    sh.out.close();
  }

  void with_shard_state(const ParallelScanPipeline::ShardStateFn& fn) {
    if (flushed)
      throw std::logic_error("ParallelScanPipeline: with_shard_state after flush");
    if (sink)
      throw std::logic_error(
          "ParallelScanPipeline: with_shard_state requires sharded-ownership mode "
          "(total-order mode holds in-flight merger state)");
    // The barrier must not overtake records staged before it — same
    // publish-first rule as the tick broadcast.
    feeder.publish(shards);
    BarrierCtl ctl;
    ctl.fn = &fn;
    ctl.remaining = shards.size();
    pm().barriers.add();
    for (auto& sp : shards) {
      InItem item;
      item.barrier = &ctl;
      sp->in.push(std::move(item));
    }
    std::unique_lock lk(ctl.m);
    ctl.cv.wait(lk, [&] { return ctl.remaining == 0; });
    if (ctl.error) std::rethrow_exception(ctl.error);
  }

  void flush() {
    if (flushed) return;
    flushed = true;
    feeder.publish(shards);  // nothing stays staged past a flush
    join_all(shards, merger_thread);

    std::map<std::int64_t, FilterDayStats> by_day;
    for (const auto& sp : shards)
      for (const auto& s : sp->day_stats) {
        FilterDayStats& d = by_day[s.day];
        d.day = s.day;
        d.packets_in += s.packets_in;
        d.packets_dropped += s.packets_dropped;
        d.sources_seen += s.sources_seen;
        d.sources_dropped += s.sources_dropped;
        for (const auto& [port, n] : s.dropped_by_port) d.dropped_by_port[port] += n;
      }
    merged_stats.reserve(by_day.size());
    for (auto& [day, s] : by_day) merged_stats.push_back(std::move(s));

    report_ring_stats(shards, "pipeline");
    rethrow_first(shards, merger_error);
  }
};

namespace {

/// Legacy-ctor helper: validate + wrap the callable so the adapter
/// ctors keep throwing the pipeline's own null-sink message.
std::unique_ptr<FunctionSink> wrap_event_fn(ScanDetector::EventFn fn) {
  if (!fn) throw std::invalid_argument("ParallelScanPipeline: null sink");
  return std::make_unique<FunctionSink>(std::move(fn));
}

}  // namespace

ParallelScanPipeline::ParallelScanPipeline(const DetectorConfig& config,
                                           const ParallelConfig& parallel, EventSink& sink)
    : impl_(std::make_unique<Impl>()) {
  impl_->start(config, std::nullopt, parallel, &sink);
}

ParallelScanPipeline::ParallelScanPipeline(const DetectorConfig& config,
                                           const ArtifactFilterConfig& filter,
                                           const ParallelConfig& parallel, EventSink& sink)
    : impl_(std::make_unique<Impl>()) {
  impl_->start(config, filter, parallel, &sink);
}

ParallelScanPipeline::ParallelScanPipeline(const DetectorConfig& config,
                                           const ParallelConfig& parallel, EventFn fn)
    : impl_(std::make_unique<Impl>()) {
  impl_->owned_sink = wrap_event_fn(std::move(fn));
  impl_->start(config, std::nullopt, parallel, impl_->owned_sink.get());
}

ParallelScanPipeline::ParallelScanPipeline(const DetectorConfig& config,
                                           const ArtifactFilterConfig& filter,
                                           const ParallelConfig& parallel, EventFn fn)
    : impl_(std::make_unique<Impl>()) {
  impl_->owned_sink = wrap_event_fn(std::move(fn));
  impl_->start(config, filter, parallel, impl_->owned_sink.get());
}

ParallelScanPipeline::ParallelScanPipeline(const DetectorConfig& config,
                                           const ParallelConfig& parallel,
                                           ShardSinkFactory per_shard)
    : impl_(std::make_unique<Impl>()) {
  if (!per_shard) throw std::invalid_argument("ParallelScanPipeline: null shard sink factory");
  impl_->start(config, std::nullopt, parallel, nullptr, std::move(per_shard));
}

ParallelScanPipeline::ParallelScanPipeline(const DetectorConfig& config,
                                           const ArtifactFilterConfig& filter,
                                           const ParallelConfig& parallel,
                                           ShardSinkFactory per_shard)
    : impl_(std::make_unique<Impl>()) {
  if (!per_shard) throw std::invalid_argument("ParallelScanPipeline: null shard sink factory");
  impl_->start(config, filter, parallel, nullptr, std::move(per_shard));
}

ParallelScanPipeline::~ParallelScanPipeline() {
  try {
    impl_->flush();
  } catch (...) {  // a dropped pipeline must not terminate
  }
}

void ParallelScanPipeline::feed(const sim::LogRecord& r) {
  if (impl_->flushed) throw std::logic_error("ParallelScanPipeline: feed after flush");
  impl_->feeder.route(impl_->shards, r, "ParallelScanPipeline");
}

void ParallelScanPipeline::feed_batch(std::span<const sim::LogRecord> batch) {
  if (impl_->flushed) throw std::logic_error("ParallelScanPipeline: feed after flush");
  impl_->feeder.route_batch(impl_->shards, batch, "ParallelScanPipeline");
}

void ParallelScanPipeline::flush() { impl_->flush(); }

void ParallelScanPipeline::with_shard_state(const ShardStateFn& fn) {
  if (!fn) throw std::invalid_argument("ParallelScanPipeline: null shard state visitor");
  impl_->with_shard_state(fn);
}

int ParallelScanPipeline::threads() const noexcept {
  return static_cast<int>(impl_->shards.size());
}

std::uint64_t ParallelScanPipeline::packets_seen() const noexcept { return impl_->feeder.fed; }

const std::vector<FilterDayStats>& ParallelScanPipeline::filter_stats() const {
  // Before flush() the per-shard stats are still being appended to on
  // the worker threads — reading them here would be a data race, not
  // merely a stale view.
  if (!impl_->flushed)
    throw std::logic_error("ParallelScanPipeline: filter_stats before flush");
  return impl_->merged_stats;
}

// ---------------------------------------------------------------- //

struct ParallelIds::Impl {
  IdsConfig cfg;
  OrderMode order = OrderMode::kTotal;
  AlertSink sink;
  std::vector<std::vector<ScanEvent>> events;  ///< merged, serial order
  /// Sharded mode: each worker's private per-level slim events,
  /// [shard][level]; folded into `events` at flush.
  std::vector<std::vector<std::vector<OutItem>>> shard_events;
  AlertTracker tracker;
  std::unique_ptr<util::SpscRing<sim::TimeUs>> barriers;
  ShardList shards;
  std::thread merger_thread;
  std::exception_ptr merger_error;
  Feeder feeder;
  std::atomic<sim::TimeUs> final_now{0};
  sim::TimeUs next_pass = 0;
  bool flushed = false;

  ~Impl() { join_all(shards, merger_thread); }  // backstop; flush() normally joined

  void start(const IdsConfig& config, const ParallelConfig& parallel, AlertSink sink_in,
             OrderMode order_in) {
    if (!sink_in) throw std::invalid_argument("ParallelIds: null sink");
    if (config.adaptive.ladder.empty())
      throw std::invalid_argument("ParallelIds: empty aggregation ladder");
    validate_parallel(parallel, "ParallelIds");
    {  // borrow the serial front end's full validation
      StreamingIds probe(config, [](const IdsAlert&) {});
    }
    cfg = config;
    order = order_in;
    sink = std::move(sink_in);
    events.resize(cfg.adaptive.ladder.size());
    const bool sharded = order == OrderMode::kSharded;
    if (!sharded) barriers = std::make_unique<util::SpscRing<sim::TimeUs>>(1 << 12);

    feeder.shard_len = *std::min_element(cfg.adaptive.ladder.begin(), cfg.adaptive.ladder.end());
    feeder.tick_interval =
        parallel.tick_interval_us > 0 ? parallel.tick_interval_us : cfg.timeout_us;

    const int n = resolve_threads(parallel.threads);
    const std::size_t out_cap =
        sharded ? 8 : std::max<std::size_t>(1024, parallel.ring_capacity / 4);
    shards.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      shards.push_back(std::make_unique<Shard>(parallel.ring_capacity, out_cap));
    feeder.init(shards.size());
    if (sharded)
      shard_events.assign(shards.size(),
                          std::vector<std::vector<OutItem>>(cfg.adaptive.ladder.size()));

    const util::metrics::MetricId batch_hist = util::metrics::register_metric(
        "ids.pipeline.worker.batch_size", util::metrics::Kind::kHistogram);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      Shard& sh = *shards[s];
      auto* collect = sharded ? &shard_events[s] : nullptr;
      sh.thread = std::thread(
          [&sh, config, batch_hist, collect] { worker_main(sh, config, batch_hist, collect); });
    }
    if (sharded) return;  // no merger, no barriers: one pass at flush
    merger_thread = std::thread([this] {
      try {
        EventMerger merger(
            shards, cfg.adaptive.ladder.size(), cfg.timeout_us,
            [this](std::size_t level, ScanEvent&& ev) { events[level].push_back(std::move(ev)); },
            barriers.get(),
            [this](sim::TimeUs t) { tracker.run_pass(events, cfg.adaptive, t, sink); },
            "ids.pipeline");
        merger.run();
        // The final pass the serial front end runs from flush().
        tracker.run_pass(events, cfg.adaptive, final_now.load(std::memory_order_acquire), sink);
      } catch (...) {
        merger_error = std::current_exception();
        discard_outputs(shards);
      }
    });
  }

  /// Bulk-consuming IDS worker: same chunked pop / span split /
  /// buffered emit / per-chunk watermark scheme as the scan pipeline's
  /// worker, with every ladder level fed the same record span. Events
  /// of different levels interleave differently on the output ring
  /// than under per-record feeding, but the merger buffers and orders
  /// per (shard, level), so only the per-level subsequences matter —
  /// and those are unchanged.
  ///
  /// Sharded mode (`collect` non-null): events accumulate in the
  /// shard's private per-level vectors — each holding the shard's
  /// serial two-run order (timed-out events, then flush()ed events) —
  /// and the output ring stays untouched; flush() re-merges the runs.
  static void worker_main(Shard& sh, const IdsConfig& config, util::metrics::MetricId batch_hist,
                          std::vector<std::vector<OutItem>>* collect) {
    try {
      bool flushing = false;
      std::vector<OutItem> out_buf;
      const auto flush_out = [&] {
        if (out_buf.empty()) return;
        sh.out.push_n(out_buf.data(), out_buf.size());  // moving overload
        out_buf.clear();
      };
      std::vector<std::unique_ptr<ScanDetector>> dets;
      dets.reserve(config.adaptive.ladder.size());
      for (std::size_t i = 0; i < config.adaptive.ladder.size(); ++i)
        dets.push_back(std::make_unique<ScanDetector>(
            ladder_detector_config(config, i),
            collect ? ScanDetector::EventFn([&sh, collect, &flushing, i](ScanEvent&& ev) {
              ++sh.events_emitted;
              (*collect)[i].push_back(
                  OutItem{std::move(ev), static_cast<std::uint16_t>(i), flushing});
            })
                    : ScanDetector::EventFn([&sh, &out_buf, &flushing, i](ScanEvent&& ev) {
                        ++sh.events_emitted;
                        out_buf.push_back(
                            OutItem{std::move(ev), static_cast<std::uint16_t>(i), flushing});
                      })));

      std::vector<InItem> chunk(kWorkerChunk);
      std::vector<sim::LogRecord> recs(kWorkerChunk);
      for (std::size_t got; (got = sh.in.pop_n(chunk.data(), chunk.size())) > 0;) {
        if (util::metrics::enabled()) util::metrics::observe(batch_hist, got);
        std::size_t i = 0;
        while (i < got) {
          if (chunk[i].tick) {
            for (auto& d : dets) d->advance(chunk[i].rec.ts_us);
            ++i;
            continue;
          }
          std::size_t j = i;
          for (; j < got && !chunk[j].tick; ++j) recs[j - i] = chunk[j].rec;
          const std::span<const sim::LogRecord> span(recs.data(), j - i);
          for (auto& d : dets) d->feed_batch(span);
          i = j;
        }
        flush_out();  // events must be visible before the watermark
        sh.watermark.store(chunk[got - 1].rec.ts_us, std::memory_order_release);
      }
      sh.watermark.store(INT64_MAX, std::memory_order_release);
      flushing = true;
      for (auto& d : dets) d->flush();
      flush_out();
    } catch (...) {
      sh.error = std::current_exception();
      while (sh.in.pop()) {
      }
    }
    sh.out.close();
  }

  /// Stage one record and fire the attribution barrier when it crosses
  /// the reattribution boundary. Staged runs are published before the
  /// barrier's tick so no ring sees the tick ahead of earlier records.
  void stage(const sim::LogRecord& r) {
    if (next_pass == 0) next_pass = r.ts_us + cfg.reattribution_period_us;
    feeder.stage(shards, r, "ParallelIds");
    if (r.ts_us >= next_pass) {
      if (order == OrderMode::kTotal) {
        // Exactly the serial trigger: a pass over everything finalized
        // strictly before this record. The tick drives every shard's
        // watermark to r.ts_us so the barrier can clear.
        feeder.publish(shards);
        Feeder::broadcast_tick(shards, r.ts_us);
        barriers->push(sim::TimeUs{r.ts_us});
        pm().barriers.add();
      }
      // Sharded mode trades the mid-stream pass away, but tracks the
      // trigger times so the flush pass uses the serial timestamp.
      next_pass = r.ts_us + cfg.reattribution_period_us;
    }
  }

  void feed(const sim::LogRecord& r) {
    if (flushed) throw std::logic_error("ParallelIds: feed after flush");
    stage(r);
    feeder.publish(shards);
  }

  void feed_batch(std::span<const sim::LogRecord> batch) {
    if (flushed) throw std::logic_error("ParallelIds: feed after flush");
    for (const auto& r : batch) stage(r);
    feeder.publish(shards);
  }

  void flush() {
    if (flushed) return;
    flushed = true;
    feeder.publish(shards);  // nothing stays staged past a flush
    final_now.store(next_pass, std::memory_order_release);
    join_all(shards, merger_thread);
    if (order == OrderMode::kSharded && !shard_events.empty()) {
      merge_shard_events();
      // The single attribution pass, at the same timestamp the serial
      // front end's flush pass would use. attribute_adaptive folds the
      // events order-insensitively (per-source sums; last-wins ASN is
      // restored by the re-merge above), so the blocklist matches the
      // serial one exactly; only the mid-stream alert cadence is lost.
      tracker.run_pass(events, cfg.adaptive, next_pass, sink);
    }
    report_ring_stats(shards, "ids.pipeline");
    rethrow_first(shards, merger_error);
  }

  /// Reconstruct each level's serial event order from the per-shard
  /// runs: every shard emits two sorted runs — timed-out events in
  /// (end-time, source) order, then flush()ed events in source order —
  /// and the serial detector's stream is exactly their merge.
  void merge_shard_events() {
    for (std::size_t l = 0; l < events.size(); ++l) {
      std::vector<ScanEvent> stream_run, flush_run;
      for (auto& per_level : shard_events)
        for (auto& it : per_level[l])
          (it.flushed ? flush_run : stream_run).push_back(std::move(it.ev));
      std::sort(stream_run.begin(), stream_run.end(), [](const ScanEvent& a, const ScanEvent& b) {
        if (a.last_us != b.last_us) return a.last_us < b.last_us;
        return a.source < b.source;
      });
      std::sort(flush_run.begin(), flush_run.end(),
                [](const ScanEvent& a, const ScanEvent& b) { return a.source < b.source; });
      events[l] = std::move(stream_run);
      events[l].insert(events[l].end(), std::make_move_iterator(flush_run.begin()),
                       std::make_move_iterator(flush_run.end()));
    }
    shard_events.clear();
  }
};

ParallelIds::ParallelIds(const IdsConfig& config, const ParallelConfig& parallel, AlertSink sink,
                         OrderMode order)
    : impl_(std::make_unique<Impl>()) {
  impl_->start(config, parallel, std::move(sink), order);
}

ParallelIds::~ParallelIds() {
  try {
    impl_->flush();
  } catch (...) {
  }
}

void ParallelIds::feed(const sim::LogRecord& r) { impl_->feed(r); }

void ParallelIds::feed_batch(std::span<const sim::LogRecord> batch) {
  impl_->feed_batch(batch);
}

void ParallelIds::flush() { impl_->flush(); }

int ParallelIds::threads() const noexcept { return static_cast<int>(impl_->shards.size()); }

const std::vector<Attribution>& ParallelIds::blocklist() const {
  // The merger thread mutates the tracker during barrier passes, so a
  // pre-flush read is a data race, not merely a stale view.
  if (!impl_->flushed) throw std::logic_error("ParallelIds: blocklist before flush");
  return impl_->tracker.blocklist();
}

}  // namespace v6sonar::core
