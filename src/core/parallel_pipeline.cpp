// Implementation notes.
//
// Equivalence argument (docs/ARCHITECTURE.md has the long form): the
// serial detector emits timed-out events in (end-time, source) order
// and flush() then emits the rest in source order. Sharding by the
// aggregated source prefix puts every record of one detector key on
// one worker, in stream order, so each worker's private detector
// produces exactly the serial events of its key subset. Its split
// into the two runs matches the serial split once the worker's
// detector ends at the serial final clock, which flush() arranges;
// merge_shard_events() then rebuilds the serial stream.
//
// Ticks: the feeder broadcasts a bare clock tick every detection
// timeout of stream time, so a shard that receives no traffic still
// finalizes its quiet sources; workers apply ticks with
// ScanDetector::advance, which finalizes exactly the events the
// serial detector would have finalized by that time. In filtered mode
// a tick goes to ArtifactFilter::advance instead, and the detector
// clock follows only the records the filter releases — exactly the
// serial chain's detector clock.

#include "core/parallel_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
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

/// A rendezvous visitor: runs once on each shard's own worker thread,
/// with the shard's index, while that worker is quiesced.
using ShardVisit = std::function<void(std::size_t shard)>;

/// Control block of one rendezvous: every worker runs the visitor
/// against its private state, and the last arrival releases the
/// waiting feeder thread. A worker that is already dead (error path)
/// arrives with its stored exception instead of running the visitor,
/// so the caller never deadlocks on a shard that cannot comply — it
/// gets the shard's real error rethrown.
struct BarrierCtl {
  const ShardVisit* visit = nullptr;
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

/// One parcel on a feeder->worker ring. A tick or a pass carries its
/// stream time in rec.ts_us.
struct InItem {
  enum class Kind : std::uint8_t {
    kRecord,
    kTick,     ///< bare clock advance
    kPass,     ///< ParallelIds: advance, then an attribution pass
    kBarrier,  ///< rendezvous: run the visitor, then go on
  };
  sim::LogRecord rec;
  Kind kind = Kind::kRecord;
  BarrierCtl* barrier = nullptr;
};

/// One shard: a worker thread plus its input ring.
struct Shard {
  explicit Shard(std::size_t in_cap) : in(in_cap) { in.set_stats(&in_stats); }

  util::SpscRing<InItem> in;
  util::SpscRingStats in_stats;
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

/// Start `n` shards with rings of `ring_capacity` records.
ShardList make_shards(int requested, std::size_t ring_capacity) {
  int n = requested;
  if (n <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw ? static_cast<int>(hw) : 4;
  }
  ShardList shards;
  shards.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) shards.push_back(std::make_unique<Shard>(ring_capacity));
  return shards;
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

/// The bulk-consuming worker loop both pipelines share. Items are
/// popped in chunks (one consumer release per chunk); each contiguous
/// run of records goes to `records` as one span — recovering the
/// grouped per-source apply inside the shard — a barrier runs its
/// visitor for shard `shard`, and every other item goes to `control`,
/// in ring order. At a barrier everything fed before it has been
/// applied, so the visitor sees exactly the state after the records
/// before it — the quiesced point checkpoints are built on. Returns
/// once the ring is closed and drained.
template <typename Records, typename Control>
void consume(Shard& sh, std::size_t shard, util::metrics::MetricId batch_hist,
             Records&& records, Control&& control) {
  std::vector<InItem> chunk(kWorkerChunk);
  std::vector<sim::LogRecord> recs(kWorkerChunk);
  for (std::size_t got; (got = sh.in.pop_n(chunk.data(), chunk.size())) > 0;) {
    if (util::metrics::enabled()) util::metrics::observe(batch_hist, got);
    for (std::size_t i = 0; i < got;) {
      if (chunk[i].kind == InItem::Kind::kBarrier) {
        std::exception_ptr err;
        try {
          (*chunk[i].barrier->visit)(shard);
        } catch (...) {
          err = std::current_exception();
        }
        chunk[i].barrier->arrive(std::move(err));
        ++i;
        continue;
      }
      if (chunk[i].kind != InItem::Kind::kRecord) {
        control(chunk[i]);
        ++i;
        continue;
      }
      std::size_t j = i;
      for (; j < got && chunk[j].kind == InItem::Kind::kRecord; ++j) recs[j - i] = chunk[j].rec;
      records(std::span<const sim::LogRecord>(recs.data(), j - i));
      i = j;
    }
  }
}

/// Feeder-side state shared by both pipelines: order validation,
/// shard routing, and the periodic tick broadcast.
///
/// Batching: stage() appends records to per-shard pending runs instead
/// of pushing them immediately; publish() then hands each run to its
/// ring with a single producer release (util::SpscRing::push_n). Each
/// shard's record subsequence is exactly the serial one — staging
/// never reorders within a shard — and every staged record is
/// published before any tick, pass or barrier carrying a later-or-
/// equal timestamp is pushed (stage() publishes before its own tick
/// broadcast; other control points must call publish() first).
struct Feeder {
  int shard_len = 64;
  sim::TimeUs tick_interval = 0;  ///< one detection timeout
  sim::TimeUs next_tick = 0;
  sim::TimeUs last_ts = INT64_MIN;
  std::uint64_t fed = 0;
  std::vector<std::vector<InItem>> staged;  ///< pending run per shard

  /// Size the per-shard staging vectors once, at pipeline start-up, so
  /// stage() never re-checks them per record; pre-reserving skips the
  /// first few growth reallocations of every run.
  void init(std::size_t n_shards, int shard_prefix_len, sim::TimeUs timeout_us) {
    shard_len = shard_prefix_len;
    tick_interval = timeout_us;
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
    staged[shard_of(r.src, shard_len, shards.size())].push_back(InItem{r});
    if (next_tick == 0)
      next_tick = r.ts_us + tick_interval;
    else if (r.ts_us >= next_tick) {
      publish(shards);
      broadcast(shards, InItem::Kind::kTick, r.ts_us);
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

  static void broadcast(ShardList& shards, InItem::Kind kind, sim::TimeUs t) {
    pm().ticks.add();
    InItem item;
    item.rec.ts_us = t;
    item.kind = kind;
    for (auto& sp : shards) sp->in.push(InItem{item});
  }
};

/// Run `visit` on every worker once it has consumed everything fed
/// before this call: publish the staged records (a barrier must not
/// overtake them), push a barrier into every ring, and block until
/// every worker has arrived. Rethrows the first visitor or shard
/// failure.
void rendezvous(Feeder& feeder, ShardList& shards, const ShardVisit& visit) {
  feeder.publish(shards);
  BarrierCtl ctl;
  ctl.visit = &visit;
  ctl.remaining = shards.size();
  pm().barriers.add();
  for (auto& sp : shards) {
    InItem item;
    item.kind = InItem::Kind::kBarrier;
    item.barrier = &ctl;
    sp->in.push(std::move(item));
  }
  std::unique_lock lk(ctl.m);
  ctl.cv.wait(lk, [&] { return ctl.remaining == 0; });
  if (ctl.error) std::rethrow_exception(ctl.error);
}

/// A failed worker's last duty: keep the feeder unblocked, and arrive
/// at every barrier with the shard's error, or a rendezvous would
/// deadlock.
void drain_failed(Shard& sh) {
  while (auto it = sh.in.pop())
    if (it->kind == InItem::Kind::kBarrier) it->barrier->arrive(sh.error);
}

void join_all(ShardList& shards) {
  for (auto& sp : shards) sp->in.close();
  for (auto& sp : shards)
    if (sp->thread.joinable()) sp->thread.join();
}

/// Fold the per-shard ring stats into named metrics. Called once at
/// flush, after the workers have joined, so every load is quiescent.
/// Registers the per-shard gauge names lazily — the shard count is a
/// runtime choice, so the names cannot be static handles.
void report_ring_stats(const ShardList& shards, const char* prefix) {
  namespace m = util::metrics;
  if (!m::enabled()) return;
  std::uint64_t blocked = 0, parks = 0, consumer_parks = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const util::SpscRingStats& in = shards[s]->in_stats;
    std::string base = prefix;
    base += ".shard";
    base += std::to_string(s);
    m::gauge_max(m::register_metric(base + ".in_ring.occupancy_hw", m::Kind::kGauge),
                 in.occupancy_hw.load(std::memory_order_relaxed));
    m::add(m::register_metric(base + ".events", m::Kind::kCounter), shards[s]->events_emitted);
    blocked += in.producer_blocked.load(std::memory_order_relaxed);
    parks += in.producer_parks.load(std::memory_order_relaxed);
    consumer_parks += in.consumer_parks.load(std::memory_order_relaxed);
  }
  const std::string p = prefix;
  m::add(m::register_metric(p + ".in_ring.producer_blocked", m::Kind::kCounter), blocked);
  m::add(m::register_metric(p + ".in_ring.producer_parks", m::Kind::kCounter), parks);
  m::add(m::register_metric(p + ".in_ring.consumer_parks", m::Kind::kCounter), consumer_parks);
}

void rethrow_first(const ShardList& shards) {
  for (const auto& sp : shards)
    if (sp->error) std::rethrow_exception(sp->error);
}

}  // namespace

// ---------------------------------------------------------------- //

struct ParallelScanPipeline::Impl {
  std::vector<EventSink*> shard_sinks;  ///< one borrowed sink per shard
  std::vector<FilterDayStats> merged_stats;
  ShardList shards;
  /// detectors[s] and filters[s] (filtered mode; else empty) belong to
  /// worker s until it is joined.
  std::vector<std::unique_ptr<ScanDetector>> detectors;
  std::vector<std::unique_ptr<ArtifactFilter>> filters;
  Feeder feeder;
  sim::TimeUs timeout_us = 0;
  /// The serial detector's final clock; set by flush() before the
  /// rings close, read by each worker once its ring is drained.
  std::atomic<sim::TimeUs> final_clock{INT64_MIN};
  bool flushed = false;

  ~Impl() { join_all(shards); }  // backstop; flush() normally joined

  void start(const DetectorConfig& config, const std::optional<ArtifactFilterConfig>& filter,
             const ParallelConfig& parallel, const ShardSinkFactory& per_shard) {
    if (!per_shard) throw std::invalid_argument("ParallelScanPipeline: null shard sink factory");
    // Fail fast, on the caller's thread, with the serial classes' own
    // validation; the workers construct theirs later.
    { ScanDetector probe(config, [](ScanEvent&&) {}); }
    if (filter) {
      ArtifactFilter probe(*filter, [](const sim::LogRecord&) {});
    }
    validate_parallel(parallel, "ParallelScanPipeline");
    timeout_us = config.timeout_us;

    shards = make_shards(parallel.threads, parallel.ring_capacity);
    feeder.init(shards.size(),
                filter ? std::min(config.source_prefix_len, filter->source_prefix_len)
                       : config.source_prefix_len,
                config.timeout_us);
    // Resolve every per-shard sink on the caller's thread, before any
    // worker can race the factory.
    shard_sinks.reserve(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) shard_sinks.push_back(&per_shard(s));

    // Each shard's detector (behind its filter) drives the shard's own
    // sink on the worker thread: the sink sees this shard's events in
    // the shard's serial order, and nothing else.
    for (std::size_t s = 0; s < shards.size(); ++s) {
      Shard& sh = *shards[s];
      EventSink& sink = *shard_sinks[s];
      auto& det = *detectors.emplace_back(
          std::make_unique<ScanDetector>(config, [&sh, &sink](ScanEvent&& ev) {
            ++sh.events_emitted;
            sink.on_event(std::move(ev));
          }));
      if (filter)
        filters.push_back(std::make_unique<ArtifactFilter>(
            *filter, [&det](const sim::LogRecord& rr) { det.feed(rr); },
            [&sh](const FilterDayStats& d) { sh.day_stats.push_back(d); }));
    }
    const util::metrics::MetricId batch_hist = util::metrics::register_metric(
        "pipeline.worker.batch_size", util::metrics::Kind::kHistogram);
    // Only now: the workers index these vectors.
    for (std::size_t s = 0; s < shards.size(); ++s)
      shards[s]->thread = std::thread([this, s, batch_hist] { worker_main(s, batch_hist); });
  }

  [[nodiscard]] ArtifactFilter* filter_of(std::size_t s) const {
    return filters.empty() ? nullptr : filters[s].get();
  }

  void worker_main(std::size_t s, util::metrics::MetricId batch_hist) {
    Shard& sh = *shards[s];
    ScanDetector& det = *detectors[s];
    ArtifactFilter* af = filter_of(s);
    try {
      consume(
          sh, s, batch_hist,
          [&](std::span<const sim::LogRecord> span) {
            if (af)
              af->feed_batch(span);
            else
              det.feed_batch(span);
          },
          [&](const InItem& item) {
            if (af)
              // The filter closes the days before the tick; the
              // detector clock moves only with the records it releases.
              af->advance(item.rec.ts_us);
            else
              det.advance(item.rec.ts_us);
          });
      det.advance(final_clock.load(std::memory_order_acquire));
      det.flush();
    } catch (...) {
      sh.error = std::current_exception();
      drain_failed(sh);
    }
  }

  void with_shard_state(const ParallelScanPipeline::ShardStateFn& fn) {
    if (flushed)
      throw std::logic_error("ParallelScanPipeline: with_shard_state after flush");
    rendezvous(feeder, shards,
               [&](std::size_t s) { fn(s, *detectors[s], filter_of(s)); });
  }

  void flush() {
    if (flushed) return;
    // The serial detector's final clock is the latest shard detector
    // clock: the last record in plain mode (restored state included),
    // the last record the serial filter released in filtered mode —
    // so release every shard's final day first.
    std::vector<sim::TimeUs> clocks(shards.size(), INT64_MIN);
    std::exception_ptr end_error;
    try {
      rendezvous(feeder, shards, [&](std::size_t s) {
        if (ArtifactFilter* af = filter_of(s)) af->flush();
        clocks[s] = detectors[s]->clock();
      });
    } catch (...) {
      end_error = std::current_exception();
    }
    const sim::TimeUs final = *std::max_element(clocks.begin(), clocks.end());
    flushed = true;
    feeder.publish(shards);  // nothing stays staged past a flush
    final_clock.store(final, std::memory_order_release);
    join_all(shards);

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
    rethrow_first(shards);
    if (end_error) std::rethrow_exception(end_error);
  }

  void merge_shard_events(const ShardEventPull& pull, EventSink& out) const {
    if (!flushed) throw std::logic_error("ParallelScanPipeline: merge_shard_events before flush");
    const sim::TimeUs final = final_clock.load(std::memory_order_relaxed);
    // The serial run an event belongs to: timed out when due (last_us
    // + timeout) strictly before the final clock, flushed otherwise.
    const auto timed_out = [&](const ScanEvent& ev) { return ev.last_us + timeout_us < final; };
    const auto before = [&](const ScanEvent& a, const ScanEvent& b) {
      const bool ta = timed_out(a);
      if (ta != timed_out(b)) return ta;
      if (ta && a.last_us != b.last_us) return a.last_us < b.last_us;
      return a.source < b.source;
    };
    const std::size_t n = shards.size();
    std::vector<ScanEvent> heads(n);
    std::vector<bool> live(n);
    for (std::size_t s = 0; s < n; ++s) live[s] = pull(s, heads[s]);
    for (;;) {
      std::size_t best = n;
      for (std::size_t s = 0; s < n; ++s)
        if (live[s] && (best == n || before(heads[s], heads[best]))) best = s;
      if (best == n) return;
      out.on_event(std::move(heads[best]));
      live[best] = pull(best, heads[best]);
    }
  }
};

ParallelScanPipeline::ParallelScanPipeline(const DetectorConfig& config,
                                           const ParallelConfig& parallel,
                                           ShardSinkFactory per_shard)
    : impl_(std::make_unique<Impl>()) {
  impl_->start(config, std::nullopt, parallel, per_shard);
}

ParallelScanPipeline::ParallelScanPipeline(const DetectorConfig& config,
                                           const ArtifactFilterConfig& filter,
                                           const ParallelConfig& parallel,
                                           ShardSinkFactory per_shard)
    : impl_(std::make_unique<Impl>()) {
  impl_->start(config, filter, parallel, per_shard);
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

void ParallelScanPipeline::merge_shard_events(const ShardEventPull& pull, EventSink& out) const {
  impl_->merge_shard_events(pull, out);
}

int ParallelScanPipeline::threads() const noexcept {
  return static_cast<int>(impl_->shards.size());
}


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
  /// One shard's part of one pass: its alerts, in prefix order, and
  /// its blocklist size after the pass.
  struct PassBatch {
    std::vector<IdsAlert> alerts;
    std::size_t blocklist_size = 0;
  };
  /// A worker's finished passes. The worker appends under the lock and
  /// goes on; it never waits for the caller to take them.
  struct Outbox {
    std::mutex m;
    std::vector<PassBatch> done;
  };

  IdsConfig cfg;
  AlertSink sink;
  ShardList shards;
  std::vector<std::unique_ptr<IdsCore>> cores;  ///< cores[s] belongs to worker s until joined
  std::vector<std::unique_ptr<Outbox>> outboxes;
  std::vector<std::deque<PassBatch>> pending;  ///< caller side: taken, not yet complete
  Feeder feeder;
  /// Stream time of the final pass; set by flush() before the rings close.
  std::atomic<sim::TimeUs> final_pass{0};
  sim::TimeUs next_pass = 0;
  std::uint64_t passes_issued = 0;     ///< mid-stream pass ticks sent
  std::uint64_t passes_delivered = 0;  ///< logical passes handed to the sink
  bool flushed = false;

  ~Impl() { join_all(shards); }  // backstop; flush() normally joined

  void start(const IdsConfig& config, const ParallelConfig& parallel, AlertSink sink_in) {
    if (!sink_in) throw std::invalid_argument("ParallelIds: null sink");
    if (config.reattribution_period_us <= 0)
      throw std::invalid_argument("ParallelIds: bad reattribution period");
    validate_parallel(parallel, "ParallelIds");
    { IdsCore probe(config); }  // the ladder's and the detectors' own validation
    cfg = config;
    sink = std::move(sink_in);

    shards = make_shards(parallel.threads, parallel.ring_capacity);
    feeder.init(shards.size(),
                *std::min_element(cfg.adaptive.ladder.begin(), cfg.adaptive.ladder.end()),
                cfg.timeout_us);
    pending.resize(shards.size());
    const util::metrics::MetricId batch_hist = util::metrics::register_metric(
        "ids.pipeline.worker.batch_size", util::metrics::Kind::kHistogram);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      cores.push_back(std::make_unique<IdsCore>(cfg));
      outboxes.push_back(std::make_unique<Outbox>());
    }
    // Only now: the workers index these vectors.
    for (std::size_t s = 0; s < shards.size(); ++s)
      shards[s]->thread = std::thread([this, s, batch_hist] { worker_main(s, batch_hist); });
  }

  /// One worker: its IdsCore over the shard's records. A pass tick
  /// first advances the ladder to the pass time — finalizing exactly
  /// the events the serial ladder finalized by the triggering record —
  /// then attributes the shard's dirty groups. The end of the ring is
  /// the serial flush(): finalize everything, then the final pass.
  void worker_main(std::size_t s, util::metrics::MetricId batch_hist) {
    Shard& sh = *shards[s];
    IdsCore& core = *cores[s];
    Outbox& outbox = *outboxes[s];
    const auto run_pass = [&](sim::TimeUs now) {
      PassBatch batch;
      core.attributor().pass(now, [&batch](const IdsAlert& a) { batch.alerts.push_back(a); });
      batch.blocklist_size = core.attributor().blocklist_size();
      std::lock_guard lk(outbox.m);
      outbox.done.push_back(std::move(batch));
    };
    try {
      consume(
          sh, s, batch_hist,
          [&](std::span<const sim::LogRecord> span) { core.feed_batch(span); },
          [&](const InItem& item) {
            core.advance(item.rec.ts_us);
            if (item.kind == InItem::Kind::kPass) run_pass(item.rec.ts_us);
          });
      core.flush();
      run_pass(final_pass.load(std::memory_order_acquire));
    } catch (...) {
      sh.error = std::current_exception();
      drain_failed(sh);
    }
    sh.events_emitted = core.events();
  }

  /// Stage one record; at the serial pass trigger, publish the staged
  /// runs and put a pass tick into every ring behind them.
  void stage(const sim::LogRecord& r) {
    if (next_pass == 0) next_pass = r.ts_us + cfg.reattribution_period_us;
    feeder.stage(shards, r, "ParallelIds");
    if (r.ts_us >= next_pass) {
      feeder.publish(shards);
      Feeder::broadcast(shards, InItem::Kind::kPass, r.ts_us);
      ++passes_issued;
      next_pass = r.ts_us + cfg.reattribution_period_us;
    }
  }

  /// Hand every pass all shards have finished to the sink, in pass
  /// order. Shards own disjoint prefixes, so sorting one pass's alerts
  /// by prefix is the serial order of that pass.
  void deliver() {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      std::lock_guard lk(outboxes[s]->m);
      for (auto& b : outboxes[s]->done) pending[s].push_back(std::move(b));
      outboxes[s]->done.clear();
    }
    for (;;) {
      for (const auto& p : pending)
        if (p.empty()) return;
      std::vector<IdsAlert> alerts;
      std::size_t blocklist_size = 0;
      for (auto& p : pending) {
        alerts.insert(alerts.end(), p.front().alerts.begin(), p.front().alerts.end());
        blocklist_size += p.front().blocklist_size;
        p.pop_front();
      }
      std::sort(alerts.begin(), alerts.end(), [](const IdsAlert& a, const IdsAlert& b) {
        return a.attribution.source < b.attribution.source;
      });
      ++passes_delivered;
      note_ids_pass(blocklist_size);
      for (const auto& a : alerts) sink(a);
    }
  }

  void feed(const sim::LogRecord& r) {
    if (flushed) throw std::logic_error("ParallelIds: feed after flush");
    stage(r);
    feeder.publish(shards);
    if (passes_delivered < passes_issued) deliver();
  }

  void feed_batch(std::span<const sim::LogRecord> batch) {
    if (flushed) throw std::logic_error("ParallelIds: feed after flush");
    for (const auto& r : batch) stage(r);
    feeder.publish(shards);
    if (passes_delivered < passes_issued) deliver();
  }

  void checkpoint(CheckpointWriter& ck) {
    if (flushed) throw std::logic_error("ParallelIds: checkpoint after flush");
    std::vector<CheckpointSection> sections(shards.size());
    rendezvous(feeder, shards, [&](std::size_t s) {
      util::StateWriter w;
      cores[s]->save(w);
      sections[s] = CheckpointSection(shard_section(s), std::move(w));
    });
    // Every pass issued before the barrier is finished on every shard:
    // hand them all to the sink before the state that knows of their
    // alerts can become a checkpoint.
    deliver();
    util::StateWriter w;
    save_config(w);
    w.i64(next_pass);
    ck.add("ids", std::move(w));
    for (auto& section : sections) ck.add(std::move(section));
  }

  void resume(const CheckpointReader& ck) {
    if (flushed || feeder.fed != 0) throw std::logic_error("ParallelIds: resume after feed");
    auto r = ck.section("ids");
    util::StateWriter config;
    save_config(config);
    std::vector<std::uint8_t> saved(std::min(r.remaining(), config.bytes().size()));
    r.raw(saved.data(), saved.size());
    if (!std::ranges::equal(saved, config.bytes()))
      throw std::runtime_error("ParallelIds: checkpoint configuration mismatch");
    const sim::TimeUs saved_next_pass = r.i64();
    r.expect_end();
    if (!ck.has(shard_section(shards.size() - 1)) || ck.has(shard_section(shards.size())))
      throw std::runtime_error("ParallelIds: checkpoint has a different shard count than the " +
                               std::to_string(shards.size()) + " configured");
    rendezvous(feeder, shards, [&](std::size_t s) {
      auto sr = ck.section(shard_section(s));
      cores[s]->load(sr);
      sr.expect_end();
    });
    next_pass = saved_next_pass;
  }

  static std::string shard_section(std::size_t s) {
    return "shard" + std::to_string(s) + ".ids";
  }

  /// The configuration fingerprint: the ladder, the absorption rule,
  /// the detection thresholds and the period. A checkpoint resumes
  /// only into an IDS whose fingerprint is byte for byte the saved one.
  void save_config(util::StateWriter& w) const {
    w.u64(cfg.adaptive.ladder.size());
    for (const int level : cfg.adaptive.ladder) w.i32(level);
    w.f64(cfg.adaptive.absorb_ratio);
    w.u64(cfg.adaptive.max_children_absorbed);
    w.u32(cfg.min_destinations);
    w.i64(cfg.timeout_us);
    w.i64(cfg.reattribution_period_us);
  }

  void flush() {
    if (flushed) return;
    flushed = true;
    feeder.publish(shards);  // nothing stays staged past a flush
    final_pass.store(next_pass, std::memory_order_release);
    join_all(shards);
    report_ring_stats(shards, "ids.pipeline");
    rethrow_first(shards);
    deliver();  // every pass left, the final one included
  }
};

ParallelIds::ParallelIds(const IdsConfig& config, const ParallelConfig& parallel, AlertSink sink,
                         OrderMode)
    : impl_(std::make_unique<Impl>()) {
  impl_->start(config, parallel, std::move(sink));
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

void ParallelIds::checkpoint(CheckpointWriter& ck) { impl_->checkpoint(ck); }

void ParallelIds::resume(const CheckpointReader& ck) { impl_->resume(ck); }

int ParallelIds::threads() const noexcept { return static_cast<int>(impl_->shards.size()); }

std::vector<Attribution> ParallelIds::blocklist() const {
  // The workers own their attributors until they are joined, so a
  // pre-flush read is a data race, not merely a stale view.
  if (!impl_->flushed) throw std::logic_error("ParallelIds: blocklist before flush");
  std::vector<Attribution> out;
  for (const auto& core : impl_->cores) {
    const auto part = core->attributor().blocklist();
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Attribution& a, const Attribution& b) { return a.source < b.source; });
  return out;
}

}  // namespace v6sonar::core
