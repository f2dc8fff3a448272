// Implementation notes.
//
// One shard engine (ShardEngine below) runs both front ends. It owns
// the shards, the feeder, the worker loop, the one rendezvous and the
// flush/join/rethrow; a front end supplies only its per-shard stage
// (ShardStage): a ScanDetector for ParallelScanPipeline, an IdsCore
// and its pass outbox for ParallelIds. The rendezvous returns a
// completion handle (Rendezvous); every blocking caller — flush's
// final clock, resume, ParallelIds::checkpoint, with_shard_state —
// waits on it, and DetectRun's checkpoint hands it to a committer.
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
// finalizes its quiet sources; workers apply ticks with advance(),
// which finalizes exactly the events the serial detector would have
// finalized by that time. For the IDS the feeder also keeps the serial
// pass clock and broadcasts a pass tick at each pass trigger.

#include "core/parallel_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
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

/// What one shard runs on its worker thread; a front end supplies one
/// per shard. Every call comes from that worker, in ring order.
struct ShardStage {
  ShardStage() = default;
  ShardStage(const ShardStage&) = delete;  // its worker holds its address
  ShardStage& operator=(const ShardStage&) = delete;
  virtual ~ShardStage() = default;
  /// A contiguous run of the shard's records.
  virtual void records(std::span<const sim::LogRecord> span) = 0;
  /// A clock tick at stream time `now`; `pass` marks an IDS pass tick.
  virtual void tick(sim::TimeUs now, bool pass) = 0;
  /// The ring is closed and drained: the end of the stream. `final` is
  /// the time the front end passed to ShardEngine::close.
  virtual void finish(sim::TimeUs final) = 0;
  /// Events the shard's detectors emitted; read once the worker ends.
  [[nodiscard]] virtual std::uint64_t events() const = 0;
};

/// A rendezvous visitor: runs once on each shard's own worker thread,
/// with the shard's index, while that worker is quiesced.
using ShardVisit = std::function<void(std::size_t shard)>;

}  // namespace

/// Control block of one rendezvous, owned by its handle: every worker
/// runs the visitor against its private state, and the last arrival
/// completes it. A worker that is already dead (error path) arrives
/// with its stored exception instead of running the visitor, so a
/// waiter never deadlocks on a shard that cannot comply — it gets the
/// shard's real error rethrown.
struct Rendezvous::State {
  State(ShardVisit v, std::size_t shards) : visit(std::move(v)), remaining(shards) {}

  ShardVisit visit;
  std::mutex m;
  std::condition_variable cv;
  std::size_t remaining;
  std::exception_ptr error;  ///< first visitor/shard failure

  /// A worker's last touch of the state: notify under the lock, since
  /// the waiter may free the state as soon as it sees the count at 0.
  void arrive(std::exception_ptr err) {
    std::lock_guard lk(m);
    if (err && !error) error = std::move(err);
    if (--remaining == 0) cv.notify_all();
  }

  void block() {
    std::unique_lock lk(m);
    cv.wait(lk, [&] { return remaining == 0; });
  }
};

Rendezvous::Rendezvous(std::unique_ptr<State> state) noexcept : state_(std::move(state)) {}
Rendezvous::Rendezvous(Rendezvous&& other) noexcept = default;

Rendezvous::~Rendezvous() {
  if (state_) state_->block();
}

void Rendezvous::wait() {
  state_->block();
  if (state_->error) std::rethrow_exception(state_->error);
}

namespace {

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
  Rendezvous::State* barrier = nullptr;
};

/// One shard: a worker thread, its input ring and its stage.
struct Shard {
  explicit Shard(std::size_t in_cap) : in(in_cap) { in.set_stats(&in_stats); }

  util::SpscRing<InItem> in;
  util::SpscRingStats in_stats;
  ShardStage* stage = nullptr;  ///< borrowed from the front end
  std::exception_ptr error;
  /// stage->events() once the worker is done; read after join, when it
  /// folds into the per-shard <prefix>.shard<N>.events counters.
  std::uint64_t events_emitted = 0;
  std::thread thread;  ///< last: it uses every member above
};

using ShardList = std::vector<std::unique_ptr<Shard>>;

std::size_t shard_of(const net::Ipv6Address& src, int shard_len, std::size_t n) {
  std::size_t h = std::hash<net::Ipv6Address>{}(src.masked(shard_len));
  h ^= h >> 33;  // fmix64: the modulo must not correlate with the raw hash
  h *= 0xff51'afd7'ed55'8ccdULL;
  h ^= h >> 33;
  return h % n;
}

/// Items a worker pops from its input ring per blocking bulk consume;
/// also the span cap for the contiguous record runs handed to the
/// stage. Big enough to amortize the acquire/release pair and keep the
/// grouped detector path fed, small enough that a chunk of InItems plus
/// its record scratch stays comfortably L2-resident.
constexpr std::size_t kWorkerChunk = 1024;

/// Feeder-side state: order validation, shard routing, the periodic
/// tick broadcast and, for the IDS, the serial pass clock.
///
/// Batching: stage() appends records to per-shard pending runs instead
/// of pushing them immediately; publish() then hands each run to its
/// ring with a single producer release (util::SpscRing::push_n). Each
/// shard's record subsequence is exactly the serial one — staging
/// never reorders within a shard — and every staged record is
/// published before any tick, pass or barrier carrying a later-or-
/// equal timestamp is pushed (stage() publishes before its own
/// broadcasts; other control points must call publish() first).
struct Feeder {
  int shard_len = 64;
  sim::TimeUs tick_interval = 0;  ///< one detection timeout
  sim::TimeUs next_tick = 0;
  /// The IDS reattribution period (0: no passes). A pass runs after
  /// the first record at or past the previous pass plus the period.
  sim::TimeUs pass_period = 0;
  sim::TimeUs next_pass = 0;  ///< 0 until the first record
  std::uint64_t passes = 0;   ///< pass ticks sent
  sim::TimeUs last_ts = INT64_MIN;
  std::uint64_t fed = 0;
  std::vector<std::vector<InItem>> staged;  ///< pending run per shard

  /// Validate and stage one record; on crossing the tick boundary or
  /// the pass trigger, publish the staged runs (a tick must not
  /// overtake records that precede it) and then broadcast the tick.
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
    if (pass_period == 0) return;
    if (next_pass == 0)
      next_pass = r.ts_us + pass_period;
    else if (r.ts_us >= next_pass) {
      publish(shards);
      broadcast(shards, InItem::Kind::kPass, r.ts_us);
      ++passes;
      next_pass = r.ts_us + pass_period;
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

  static void broadcast(ShardList& shards, InItem::Kind kind, sim::TimeUs t) {
    pm().ticks.add();
    InItem item;
    item.rec.ts_us = t;
    item.kind = kind;
    for (auto& sp : shards) sp->in.push(InItem{item});
  }
};

/// The shard engine both front ends run on. Construction validates the
/// ParallelConfig and sizes the shards; start() hands each shard its
/// stage and starts the workers; close() ends the stream.
class ShardEngine {
 public:
  /// Rejects configurations whose rings could not function: a zero or
  /// sub-minimum capacity either breaks the power-of-two rounding
  /// contract or thrashes every hand-off through backpressure one
  /// element at a time. 8 is SpscRing's own capacity floor. Messages
  /// name the CLI flag alongside the field so a failed `v6sonar detect
  /// --ring-cap 4` is actionable without reading this file.
  ShardEngine(const ParallelConfig& parallel, const char* who) : who_(who) {
    if (parallel.threads < 0)
      throw std::invalid_argument(std::string(who) + ": threads (--threads) must be >= 0, got " +
                                  std::to_string(parallel.threads) +
                                  " (0 means one per hardware thread)");
    if (parallel.ring_capacity < 8)
      throw std::invalid_argument(std::string(who) +
                                  ": ring_capacity (--ring-cap) must be at least 8 slots, got " +
                                  std::to_string(parallel.ring_capacity));
    int n = parallel.threads;
    if (n == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      n = hw ? static_cast<int>(hw) : 4;
    }
    shards_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>(parallel.ring_capacity));
  }

  ~ShardEngine() { join(); }  // backstop; close() normally joined
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return shards_.size(); }
  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] Feeder& feeder() noexcept { return feeder_; }

  /// Route records by their /`shard_len` source prefix, tick every
  /// `tick_us` of stream time and, with a nonzero `pass_us`, put a pass
  /// tick behind the records at each pass trigger. Metrics go under
  /// `prefix` (pipeline, ids.pipeline). The stages must outlive the
  /// engine.
  void start(const std::vector<ShardStage*>& stages, int shard_len, sim::TimeUs tick_us,
             sim::TimeUs pass_us, const char* prefix) {
    prefix_ = prefix;
    feeder_.shard_len = shard_len;
    feeder_.tick_interval = tick_us;
    feeder_.pass_period = pass_us;
    feeder_.staged.resize(shards_.size());
    for (auto& run : feeder_.staged) run.reserve(1024);
    const util::metrics::MetricId batch_hist = util::metrics::register_metric(
        prefix_ + ".worker.batch_size", util::metrics::Kind::kHistogram);
    for (std::size_t s = 0; s < shards_.size(); ++s) shards_[s]->stage = stages[s];
    for (std::size_t s = 0; s < shards_.size(); ++s)
      shards_[s]->thread = std::thread([this, s, batch_hist] { worker_main(s, batch_hist); });
  }

  void feed_batch(std::span<const sim::LogRecord> batch) {
    if (closed_) throw std::logic_error(who_ + ": feed after flush");
    for (const auto& r : batch) feeder_.stage(shards_, r, who_.c_str());
    feeder_.publish(shards_);
  }

  /// The one rendezvous: run `visit` on every worker once it has
  /// consumed everything fed before this call. Publishes the staged
  /// records (a barrier must not overtake them), pushes a barrier into
  /// every ring and returns the completion handle without waiting.
  [[nodiscard]] Rendezvous rendezvous(ShardVisit visit) {
    feeder_.publish(shards_);
    auto state = std::make_unique<Rendezvous::State>(std::move(visit), shards_.size());
    pm().barriers.add();
    for (auto& sp : shards_) {
      InItem item;
      item.kind = InItem::Kind::kBarrier;
      item.barrier = state.get();
      sp->in.push(std::move(item));
    }
    return Rendezvous(std::move(state));
  }

  /// End of stream: every stage finishes at `final`, the workers join,
  /// the ring stats fold into metrics, and the first worker error, if
  /// any, is rethrown.
  void close(sim::TimeUs final) {
    closed_ = true;
    feeder_.publish(shards_);  // nothing stays staged past a flush
    final_.store(final, std::memory_order_release);
    join();
    report_ring_stats();
    for (const auto& sp : shards_)
      if (sp->error) std::rethrow_exception(sp->error);
  }

 private:
  /// The bulk-consuming worker loop. Items are popped in chunks (one
  /// consumer release per chunk); each contiguous run of records goes
  /// to the stage as one span — recovering the grouped per-source
  /// apply inside the shard — a barrier runs its visitor, and a tick or
  /// pass goes to the stage, in ring order. At a barrier everything fed
  /// before it has been applied, so the visitor sees exactly the state
  /// after the records before it — the quiesced point checkpoints are
  /// built on — and the worker goes on with the items behind it as soon
  /// as the visitor returns. A failed worker's last duty is to keep the
  /// feeder unblocked and arrive at every barrier with its error — those
  /// left in the chunk it failed in, then those still in its ring — or a
  /// rendezvous would deadlock.
  void worker_main(std::size_t s, util::metrics::MetricId batch_hist) {
    Shard& sh = *shards_[s];
    ShardStage& stage = *sh.stage;
    std::vector<InItem> chunk;
    std::size_t got = 0, i = 0;  // the chunk's fill and the item in hand
    try {
      chunk.resize(kWorkerChunk);
      std::vector<sim::LogRecord> recs(kWorkerChunk);
      while ((got = sh.in.pop_n(chunk.data(), chunk.size())) > 0) {
        if (util::metrics::enabled()) util::metrics::observe(batch_hist, got);
        for (i = 0; i < got;) {
          const InItem& item = chunk[i];
          if (item.kind == InItem::Kind::kBarrier) {
            std::exception_ptr err;
            try {
              item.barrier->visit(s);
            } catch (...) {
              err = std::current_exception();
            }
            item.barrier->arrive(std::move(err));
            ++i;
          } else if (item.kind != InItem::Kind::kRecord) {
            stage.tick(item.rec.ts_us, item.kind == InItem::Kind::kPass);
            ++i;
          } else {
            std::size_t j = i;
            for (; j < got && chunk[j].kind == InItem::Kind::kRecord; ++j)
              recs[j - i] = chunk[j].rec;
            stage.records(std::span<const sim::LogRecord>(recs.data(), j - i));
            i = j;
          }
        }
      }
      stage.finish(final_.load(std::memory_order_acquire));
    } catch (...) {
      sh.error = std::current_exception();
      for (; i < got; ++i)
        if (chunk[i].kind == InItem::Kind::kBarrier) chunk[i].barrier->arrive(sh.error);
      while (auto it = sh.in.pop())
        if (it->kind == InItem::Kind::kBarrier) it->barrier->arrive(sh.error);
    }
    sh.events_emitted = stage.events();
  }

  void join() {
    for (auto& sp : shards_) sp->in.close();
    for (auto& sp : shards_)
      if (sp->thread.joinable()) sp->thread.join();
  }

  /// Fold the per-shard ring stats into named metrics. Called once at
  /// close, after the workers have joined, so every load is quiescent.
  /// Registers the per-shard gauge names lazily — the shard count is a
  /// runtime choice, so the names cannot be static handles.
  void report_ring_stats() const {
    namespace m = util::metrics;
    if (!m::enabled()) return;
    std::uint64_t blocked = 0, parks = 0, consumer_parks = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const util::SpscRingStats& in = shards_[s]->in_stats;
      const std::string base = prefix_ + ".shard" + std::to_string(s);
      m::gauge_max(m::register_metric(base + ".in_ring.occupancy_hw", m::Kind::kGauge),
                   in.occupancy_hw.load(std::memory_order_relaxed));
      m::add(m::register_metric(base + ".events", m::Kind::kCounter),
             shards_[s]->events_emitted);
      blocked += in.producer_blocked.load(std::memory_order_relaxed);
      parks += in.producer_parks.load(std::memory_order_relaxed);
      consumer_parks += in.consumer_parks.load(std::memory_order_relaxed);
    }
    m::add(m::register_metric(prefix_ + ".in_ring.producer_blocked", m::Kind::kCounter), blocked);
    m::add(m::register_metric(prefix_ + ".in_ring.producer_parks", m::Kind::kCounter), parks);
    m::add(m::register_metric(prefix_ + ".in_ring.consumer_parks", m::Kind::kCounter),
           consumer_parks);
  }

  std::string who_;     ///< front-end name for error messages
  std::string prefix_;  ///< metric-name prefix
  ShardList shards_;
  Feeder feeder_;
  /// The stages' finish() time; set by close() before the rings close,
  /// read by each worker once its ring is drained.
  std::atomic<sim::TimeUs> final_{INT64_MIN};
  bool closed_ = false;
};

}  // namespace

std::string shard_section(std::size_t shard, std::string_view what) {
  std::string name = "shard" + std::to_string(shard);
  name += what;
  return name;
}

void check_shard_count(const CheckpointReader& ck, std::size_t n, std::string_view what) {
  if (!ck.has(shard_section(n - 1, what)) || ck.has(shard_section(n, what)))
    throw std::runtime_error("checkpoint has a different shard count than the " +
                             std::to_string(n) + " configured");
}

// ---------------------------------------------------------------- //

struct ParallelScanPipeline::Impl {
  /// One shard's detector, driving the shard's sink on its worker: the
  /// sink sees this shard's events in the shard's serial order, and
  /// nothing else.
  struct DetectStage final : ShardStage {
    DetectStage(const DetectorConfig& config, EventSink& sink)
        : det(config, [this, &sink](ScanEvent&& ev) {
            ++emitted;
            sink.on_event(std::move(ev));
          }) {}

    void records(std::span<const sim::LogRecord> span) override { det.feed_batch(span); }
    void tick(sim::TimeUs now, bool) override { det.advance(now); }
    void finish(sim::TimeUs final) override {
      det.advance(final);
      det.flush();
    }
    [[nodiscard]] std::uint64_t events() const override { return emitted; }

    std::uint64_t emitted = 0;
    ScanDetector det;
  };

  /// stages[s] belongs to worker s until it is joined; declared before
  /// the engine, so the engine joins before they go.
  std::vector<std::unique_ptr<DetectStage>> stages;
  ShardEngine engine;
  sim::TimeUs timeout_us = 0;
  /// The serial detector's final clock; set by flush().
  sim::TimeUs final_clock = INT64_MIN;

  Impl(const DetectorConfig& config, const ParallelConfig& parallel,
       const ShardSinkFactory& per_shard)
      : engine(parallel, "ParallelScanPipeline") {
    if (!per_shard) throw std::invalid_argument("ParallelScanPipeline: null shard sink factory");
    timeout_us = config.timeout_us;
    // Resolve every per-shard sink and build every detector (its
    // constructor validates the config) on the caller's thread, before
    // any worker can race the factory.
    std::vector<ShardStage*> raw;
    for (std::size_t s = 0; s < engine.size(); ++s) {
      stages.push_back(std::make_unique<DetectStage>(config, per_shard(s)));
      raw.push_back(stages.back().get());
    }
    engine.start(raw, config.source_prefix_len, config.timeout_us, 0, "pipeline");
  }

  Rendezvous begin_shard_state(ParallelScanPipeline::ShardStateFn fn) {
    if (engine.closed())
      throw std::logic_error("ParallelScanPipeline: with_shard_state after flush");
    return engine.rendezvous(
        [this, fn = std::move(fn)](std::size_t s) { fn(s, stages[s]->det, nullptr); });
  }

  void flush() {
    if (engine.closed()) return;
    // The serial detector's final clock is the latest shard detector
    // clock: the last record, restored state included.
    std::vector<sim::TimeUs> clocks(engine.size(), INT64_MIN);
    std::exception_ptr end_error;
    try {
      engine.rendezvous([&](std::size_t s) { clocks[s] = stages[s]->det.clock(); }).wait();
    } catch (...) {
      end_error = std::current_exception();
    }
    final_clock = *std::max_element(clocks.begin(), clocks.end());
    engine.close(final_clock);
    if (end_error) std::rethrow_exception(end_error);
  }

  void merge_shard_events(const ShardEventPull& pull, EventSink& out) const {
    if (!engine.closed())
      throw std::logic_error("ParallelScanPipeline: merge_shard_events before flush");
    // The serial run an event belongs to: timed out when due (last_us
    // + timeout) strictly before the final clock, flushed otherwise.
    const auto timed_out = [&](const ScanEvent& ev) {
      return ev.last_us + timeout_us < final_clock;
    };
    const auto before = [&](const ScanEvent& a, const ScanEvent& b) {
      const bool ta = timed_out(a);
      if (ta != timed_out(b)) return ta;
      if (ta && a.last_us != b.last_us) return a.last_us < b.last_us;
      return a.source < b.source;
    };
    const std::size_t n = engine.size();
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
    : impl_(std::make_unique<Impl>(config, parallel, per_shard)) {}

ParallelScanPipeline::~ParallelScanPipeline() {
  try {
    impl_->flush();
  } catch (...) {  // a dropped pipeline must not terminate
  }
}

void ParallelScanPipeline::feed(const sim::LogRecord& r) { impl_->engine.feed_batch({&r, 1}); }

void ParallelScanPipeline::feed_batch(std::span<const sim::LogRecord> batch) {
  impl_->engine.feed_batch(batch);
}

void ParallelScanPipeline::flush() { impl_->flush(); }

Rendezvous ParallelScanPipeline::begin_shard_state(ShardStateFn fn) {
  if (!fn) throw std::invalid_argument("ParallelScanPipeline: null shard state visitor");
  return impl_->begin_shard_state(std::move(fn));
}

void ParallelScanPipeline::with_shard_state(const ShardStateFn& fn) {
  begin_shard_state(fn).wait();
}

void ParallelScanPipeline::merge_shard_events(const ShardEventPull& pull, EventSink& out) const {
  impl_->merge_shard_events(pull, out);
}

int ParallelScanPipeline::threads() const noexcept {
  return static_cast<int>(impl_->engine.size());
}

// ---------------------------------------------------------------- //

struct ParallelIds::Impl {
  /// One shard's part of one pass: its alerts, in prefix order, and
  /// its blocklist size after the pass.
  struct PassBatch {
    std::vector<IdsAlert> alerts;
    std::size_t blocklist_size = 0;
  };

  /// One shard's IdsCore over its prefixes. A pass tick first advances
  /// the ladder to the pass time — finalizing exactly the events the
  /// serial ladder finalized by the triggering record — then attributes
  /// the shard's dirty groups. The end of the ring is the serial
  /// flush(): finalize everything, then the final pass. Finished passes
  /// go to the outbox; the worker never waits for the caller to take
  /// them.
  struct IdsStage final : ShardStage {
    explicit IdsStage(const IdsConfig& config) : core(config) {}

    void records(std::span<const sim::LogRecord> span) override { core.feed_batch(span); }
    void tick(sim::TimeUs now, bool pass) override {
      core.advance(now);
      if (pass) run_pass(now);
    }
    void finish(sim::TimeUs final) override {
      core.flush();
      run_pass(final);
    }
    [[nodiscard]] std::uint64_t events() const override { return core.events(); }

    void run_pass(sim::TimeUs now) {
      PassBatch batch;
      core.attributor().pass(now, [&batch](const IdsAlert& a) { batch.alerts.push_back(a); });
      batch.blocklist_size = core.attributor().blocklist_size();
      std::lock_guard lk(m);
      done.push_back(std::move(batch));
    }

    IdsCore core;
    std::mutex m;
    std::vector<PassBatch> done;  ///< the outbox, under m
  };

  IdsConfig cfg;
  AlertSink sink;
  /// stages[s] belongs to worker s until it is joined; declared before
  /// the engine, so the engine joins before they go.
  std::vector<std::unique_ptr<IdsStage>> stages;
  ShardEngine engine;
  std::vector<std::deque<PassBatch>> pending;  ///< caller side: taken, not yet complete
  std::uint64_t passes_delivered = 0;          ///< logical passes handed to the sink

  Impl(const IdsConfig& config, const ParallelConfig& parallel, AlertSink sink_in)
      : cfg(config), sink(std::move(sink_in)), engine(parallel, "ParallelIds") {
    if (!sink) throw std::invalid_argument("ParallelIds: null sink");
    if (cfg.reattribution_period_us <= 0)
      throw std::invalid_argument("ParallelIds: bad reattribution period");
    pending.resize(engine.size());
    // Each IdsCore validates the ladder and the thresholds, on the
    // caller's thread.
    std::vector<ShardStage*> raw;
    for (std::size_t s = 0; s < engine.size(); ++s) {
      stages.push_back(std::make_unique<IdsStage>(cfg));
      raw.push_back(stages.back().get());
    }
    engine.start(raw, *std::min_element(cfg.adaptive.ladder.begin(), cfg.adaptive.ladder.end()),
                 cfg.timeout_us, cfg.reattribution_period_us, "ids.pipeline");
  }

  /// Hand every pass all shards have finished to the sink, in pass
  /// order. Shards own disjoint prefixes, so sorting one pass's alerts
  /// by prefix is the serial order of that pass.
  void deliver() {
    for (std::size_t s = 0; s < stages.size(); ++s) {
      std::lock_guard lk(stages[s]->m);
      for (auto& b : stages[s]->done) pending[s].push_back(std::move(b));
      stages[s]->done.clear();
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

  void feed_batch(std::span<const sim::LogRecord> batch) {
    engine.feed_batch(batch);
    if (passes_delivered < engine.feeder().passes) deliver();
  }

  void checkpoint(CheckpointWriter& ck) {
    if (engine.closed()) throw std::logic_error("ParallelIds: checkpoint after flush");
    std::vector<CheckpointSection> sections(engine.size());
    engine
        .rendezvous([&](std::size_t s) {
          util::StateWriter w;
          stages[s]->core.save(w);
          sections[s] = CheckpointSection(shard_section(s, ".ids"), std::move(w));
        })
        .wait();
    // Every pass issued before the barrier is finished on every shard:
    // hand them all to the sink before the state that knows of their
    // alerts can become a checkpoint.
    deliver();
    util::StateWriter w;
    save_config(w);
    w.i64(engine.feeder().next_pass);
    ck.add("ids", std::move(w));
    for (auto& section : sections) ck.add(std::move(section));
  }

  void resume(const CheckpointReader& ck) {
    if (engine.closed() || engine.feeder().fed != 0)
      throw std::logic_error("ParallelIds: resume after feed");
    auto r = ck.section("ids");
    util::StateWriter config;
    save_config(config);
    std::vector<std::uint8_t> saved(std::min(r.remaining(), config.bytes().size()));
    r.raw(saved.data(), saved.size());
    if (!std::ranges::equal(saved, config.bytes()))
      throw std::runtime_error("ParallelIds: checkpoint configuration mismatch");
    const sim::TimeUs saved_next_pass = r.i64();
    r.expect_end();
    check_shard_count(ck, engine.size(), ".ids");
    engine
        .rendezvous([&](std::size_t s) {
          auto sr = ck.section(shard_section(s, ".ids"));
          stages[s]->core.load(sr);
          sr.expect_end();
        })
        .wait();
    engine.feeder().next_pass = saved_next_pass;
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
    if (engine.closed()) return;
    engine.close(engine.feeder().next_pass);  // the final pass's time
    deliver();  // every pass left, the final one included
  }
};

ParallelIds::ParallelIds(const IdsConfig& config, const ParallelConfig& parallel, AlertSink sink,
                         OrderMode)
    : impl_(std::make_unique<Impl>(config, parallel, std::move(sink))) {}

ParallelIds::~ParallelIds() {
  try {
    impl_->flush();
  } catch (...) {
  }
}

void ParallelIds::feed(const sim::LogRecord& r) { impl_->feed_batch({&r, 1}); }

void ParallelIds::feed_batch(std::span<const sim::LogRecord> batch) {
  impl_->feed_batch(batch);
}

void ParallelIds::flush() { impl_->flush(); }

void ParallelIds::checkpoint(CheckpointWriter& ck) { impl_->checkpoint(ck); }

void ParallelIds::resume(const CheckpointReader& ck) { impl_->resume(ck); }

int ParallelIds::threads() const noexcept { return static_cast<int>(impl_->engine.size()); }

std::vector<Attribution> ParallelIds::blocklist() const {
  // The workers own their attributors until they are joined, so a
  // pre-flush read is a data race, not merely a stale view.
  if (!impl_->engine.closed()) throw std::logic_error("ParallelIds: blocklist before flush");
  std::vector<Attribution> out;
  for (const auto& stage : impl_->stages) {
    const auto part = stage->core.attributor().blocklist();
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Attribution& a, const Attribution& b) { return a.source < b.source; });
  return out;
}

}  // namespace v6sonar::core
