#include "core/artifact_filter.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/metrics.hpp"
#include "util/signal_drain.hpp"

namespace v6sonar::core {

namespace {

/// Per-day filter telemetry (names in docs/OBSERVABILITY.md). Recorded
/// once per closed day — never on the per-record path.
struct FilterMetrics {
  util::metrics::Counter days_closed{"filter.days_closed"};
  util::metrics::Counter packets_in{"filter.packets_in"};
  util::metrics::Counter packets_dropped{"filter.packets_dropped"};
  util::metrics::Counter duplicate_packets{"filter.duplicate_packets"};
  util::metrics::Counter sources_seen{"filter.sources_seen"};
  util::metrics::Counter sources_dropped{"filter.sources_dropped"};
  /// Distribution of per-source daily duplicate fractions, in percent
  /// (log2 bins: 0, 1, 2-3, 4-7, ... — enough to see how close the
  /// population sits to the 30% drop line).
  util::metrics::Histogram source_dup_pct{"filter.source_duplicate_pct"};
  /// filter_stream()'s wall time split by what the writing thread was
  /// waiting on, one sample per work item (µs): its records being read,
  /// then filtered, then appended. The end-of-input wait and the final
  /// close/fsync add one read and one write sample; the three sums add
  /// up to filter_stream()'s wall time.
  util::metrics::Histogram read_us{"filter.read_us"};
  util::metrics::Histogram work_us{"filter.work_us"};
  util::metrics::Histogram write_us{"filter.write_us"};
};

FilterMetrics& fm() {
  static FilterMetrics m;
  return m;
}

[[noreturn]] void throw_unordered() {
  throw std::invalid_argument("ArtifactFilter: records must be time-ordered");
}

}  // namespace

ArtifactFilter::ArtifactFilter(const ArtifactFilterConfig& config, RecordSink out,
                               StatsSink stats)
    : config_(config), deriver_(config.source_prefix_len), out_(std::move(out)),
      stats_(std::move(stats)) {
  if (!out_) throw std::invalid_argument("ArtifactFilter: null output sink");
  if (config_.max_duplicate_fraction < 0 || config_.max_duplicate_fraction > 1)
    throw std::invalid_argument("ArtifactFilter: bad duplicate fraction");
  if (config_.source_prefix_len < 0 || config_.source_prefix_len > 128)
    throw std::invalid_argument("ArtifactFilter: bad aggregation length");
}

ArtifactFilter::~ArtifactFilter() {
  // SourceDays are pool blocks holding live containers; destroy them
  // explicitly (clearing the index would only drop the pointers).
  destroy_days();
}

ArtifactFilter::SourceDay* ArtifactFilter::new_day() {
  void* p = pool_.acquire(sizeof(SourceDay));
  return new (p) SourceDay(&pool_);
}

void ArtifactFilter::delete_day(SourceDay* sd) noexcept {
  sd->~SourceDay();
  pool_.release(sd, sizeof(SourceDay));
}

void ArtifactFilter::destroy_days() noexcept {
  sources_.for_each([this](const net::Ipv6Prefix&, SourceDay* sd) { delete_day(sd); });
  sources_.reset();
}

void ArtifactFilter::feed(const sim::LogRecord& r) {
  const net::PrefixKeyDeriver::Derived d = deriver_(r.src);
  feed_one(r, d.key, d.hash,
           FlowKeyHash{}(FlowKey{r.dst, proto_port_key(r.proto, r.dst_port)}));
}

void ArtifactFilter::feed_one(const sim::LogRecord& r, const net::Ipv6Prefix& key,
                              std::size_t key_hash, std::size_t flow_hash) {
  if (r.ts_us < last_ts_) throw_unordered();
  last_ts_ = r.ts_us;

  const std::int64_t day = day_of(r.ts_us);
  if (day != current_day_) {
    close_day();
    current_day_ = day;
  }

  buffer_.push_back(r);
  SourceDay*& slot = sources_.insert_hashed(key, key_hash);
  if (slot == nullptr) slot = new_day();
  SourceDay& sd = *slot;
  ++sd.packets;
  if (++sd.hits.insert_hashed(FlowKey{r.dst, proto_port_key(r.proto, r.dst_port)},
                              flow_hash) > config_.duplicate_threshold)
    ++sd.duplicates;
}

void ArtifactFilter::feed_batch(std::span<const sim::LogRecord> batch) {
  const std::size_t n = batch.size();
  batch_keys_.resize(n);
  batch_key_hashes_.resize(n);
  batch_flow_hashes_.resize(n);
  // Vectorizable pre-pass: mask + multiply per record, no table
  // probes. Both hashes are derived exactly once and reused by the
  // prefetch stages and the insert probes below.
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = batch[i];
    const net::PrefixKeyDeriver::Derived d = deriver_(r.src);
    batch_keys_[i] = d.key;
    batch_key_hashes_[i] = d.hash;
    batch_flow_hashes_[i] =
        FlowKeyHash{}(FlowKey{r.dst, proto_port_key(r.proto, r.dst_port)});
  }
  if (sources_.size() < kPrefetchMinSources) {
    for (std::size_t i = 0; i < n; ++i)
      feed_one(batch[i], batch_keys_[i], batch_key_hashes_[i], batch_flow_hashes_[i]);
    return;
  }
  // Same two-stage software pipeline as the detector's serial path:
  // far stage warms the source-index slot, near stage resolves it and
  // warms the day's hit-table slot. Hints are read-only, so output is
  // identical to feed(). A day boundary inside the batch only makes
  // later hints miss (the index was rebuilt), never changes output.
  constexpr std::size_t kLookahead = 12;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 * kLookahead < n) sources_.prefetch_hash(batch_key_hashes_[i + 2 * kLookahead]);
    if (i + kLookahead < n) {
      if (SourceDay* const* p =
              sources_.find_hashed(batch_keys_[i + kLookahead], batch_key_hashes_[i + kLookahead]))
        (*p)->hits.prefetch_hash(batch_flow_hashes_[i + kLookahead]);
    }
    feed_one(batch[i], batch_keys_[i], batch_key_hashes_[i], batch_flow_hashes_[i]);
  }
}

void ArtifactFilter::close_day() {
  if (buffer_.empty()) {
    destroy_days();
    return;
  }
  FilterDayStats stats;
  stats.day = current_day_;
  stats.packets_in = buffer_.size();
  stats.sources_seen = sources_.size();

  // Decide which sources to drop today. The verdict is stored on the
  // SourceDay itself (index iteration order is unspecified, but every
  // per-source quantity here is an order-independent sum/observation).
  const bool counting = util::metrics::enabled();
  std::uint64_t duplicate_packets = 0;
  sources_.for_each([&](const net::Ipv6Prefix&, SourceDay* sd) {
    const bool drop = static_cast<double>(sd->duplicates) >
                      config_.max_duplicate_fraction * static_cast<double>(sd->packets);
    sd->dropped = drop;
    stats.sources_dropped += drop;
    if (counting) {
      duplicate_packets += sd->duplicates;
      fm().source_dup_pct.observe(sd->packets ? 100 * sd->duplicates / sd->packets : 0);
    }
  });

  // Release (or account) the buffered records in arrival order; the
  // verdict lookup reuses the hash-once derivation.
  for (const auto& r : buffer_) {
    const net::PrefixKeyDeriver::Derived d = deriver_(r.src);
    SourceDay* const* p = sources_.find_hashed(d.key, d.hash);
    if ((*p)->dropped) {
      ++stats.packets_dropped;
      ++stats.dropped_by_port[proto_port_key(r.proto, r.dst_port)];
    } else {
      out_(r);
    }
  }
  buffer_.clear();
  destroy_days();
  if (counting) {
    fm().days_closed.add();
    fm().packets_in.add(stats.packets_in);
    fm().packets_dropped.add(stats.packets_dropped);
    fm().duplicate_packets.add(duplicate_packets);
    fm().sources_seen.add(stats.sources_seen);
    fm().sources_dropped.add(stats.sources_dropped);
  }
  if (stats_) stats_(stats);
}

void ArtifactFilter::flush() {
  close_day();
  current_day_ = INT64_MIN;
}

namespace {

/// Work-item target: consecutive whole days are merged into one item
/// until it holds at least this many records (a bigger day is one item).
constexpr std::size_t kItemRecords = std::size_t{1} << 16;
/// Records per input read, and per feed_batch() call on a worker (the
/// batch path's per-batch key buffers stay cache-resident).
constexpr std::size_t kBatchRecords = 4'096;

using Clock = std::chrono::steady_clock;

std::uint64_t us_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count());
}

/// One or more whole days of input; once filtered, `records` holds
/// their clean records.
struct WorkItem {
  std::vector<sim::LogRecord> records;
  std::vector<FilterDayStats> stats;
  bool done = false;  ///< guarded by DayParallelFilter::mu_
};

/// filter_stream()'s threads. Items are numbered in input order and
/// live in a ring of 2 × workers slots: the reader fills slot
/// `published_`, workers claim slots in FIFO order (so each worker's
/// clock only moves forward), and the writing thread appends slot
/// `written_` once it is done and hands it back to the reader.
class DayParallelFilter {
 public:
  /// Starts the threads; `first` is the stream's first record.
  DayParallelFilter(sim::RecordStream& in, const sim::LogRecord& first, unsigned workers)
      : in_(in), items_(2 * std::size_t{workers}) {
    try {
      reader_ = std::thread([this, first] { read_loop(first); });
      for (unsigned i = 0; i < workers; ++i) workers_.emplace_back([this] { work_loop(); });
    } catch (...) {
      stop();
      throw;
    }
  }
  ~DayParallelFilter() { stop(); }
  DayParallelFilter(const DayParallelFilter&) = delete;
  DayParallelFilter& operator=(const DayParallelFilter&) = delete;

  /// Append every item to `out` in input order (on the calling thread),
  /// timing each from `mark`; rethrows the first error once every item
  /// before it is written.
  void drain(sim::LogWriter& out, const ArtifactFilter::StatsSink& stats,
             Clock::time_point mark) {
    for (;;) {
      WorkItem* item = nullptr;
      Clock::time_point read_end;
      {
        std::unique_lock lock(mu_);
        ready_cv_.wait(lock, [&] { return abort_ || written_ < published_ || reader_done_; });
        read_end = Clock::now();
        fm().read_us.observe(us_between(mark, read_end));
        if (abort_ || written_ == published_) break;
        item = &items_[written_ % items_.size()];
        ready_cv_.wait(lock, [&] { return abort_ || item->done; });
        if (abort_) break;
      }
      const Clock::time_point work_end = Clock::now();
      fm().work_us.observe(us_between(read_end, work_end));
      out.write(item->records);
      if (stats)
        for (const auto& s : item->stats) stats(s);
      item->records.clear();
      item->stats.clear();
      mark = Clock::now();
      fm().write_us.observe(us_between(work_end, mark));
      {
        const std::lock_guard lock(mu_);
        item->done = false;
        ++written_;
      }
      space_cv_.notify_one();
    }
    stop();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  /// Abort (if still running) and join every thread.
  void stop() noexcept {
    {
      const std::lock_guard lock(mu_);
      abort_ = true;
    }
    space_cv_.notify_all();
    work_cv_.notify_all();
    ready_cv_.notify_all();
    if (reader_.joinable()) reader_.join();
    for (auto& w : workers_)
      if (w.joinable()) w.join();
  }

  /// The slot the reader fills next, once the ring has room; nullptr on abort.
  WorkItem* acquire() {
    std::unique_lock lock(mu_);
    space_cv_.wait(lock, [&] { return abort_ || published_ - written_ < items_.size(); });
    return abort_ ? nullptr : &items_[published_ % items_.size()];
  }

  void publish() {
    {
      const std::lock_guard lock(mu_);
      ++published_;
    }
    work_cv_.notify_one();
    ready_cv_.notify_one();
  }

  /// End of input (error empty) or a reader failure: either way every
  /// published item is still filtered and written first.
  void finish_reading(std::exception_ptr error) {
    {
      const std::lock_guard lock(mu_);
      reader_done_ = true;
      if (!error_) error_ = std::move(error);
    }
    work_cv_.notify_all();
    ready_cv_.notify_all();
  }

  void fail(std::exception_ptr error) {
    {
      const std::lock_guard lock(mu_);
      if (!error_) error_ = std::move(error);
      abort_ = true;
    }
    space_cv_.notify_all();
    work_cv_.notify_all();
    ready_cv_.notify_all();
  }

  /// Cut the stream into items of whole days. Checks the global time
  /// order the workers' filters can only see per item.
  void read_loop(const sim::LogRecord& first) {
    try {
      WorkItem* item = acquire();
      if (item == nullptr) return;
      std::vector<sim::LogRecord> batch(kBatchRecords);
      batch[0] = first;
      std::size_t n = 1;
      std::int64_t day = INT64_MIN;
      sim::TimeUs last_ts = INT64_MIN;
      std::size_t day_start = 0;  // where the open day begins in item->records
      // Append batch[from, to) to the item being filled.
      const auto take = [&](std::size_t from, std::size_t to) {
        item->records.insert(item->records.end(), batch.begin() + from, batch.begin() + to);
      };
      while (n > 0) {
        std::size_t from = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const sim::TimeUs ts = batch[i].ts_us;
          if (ts < last_ts) {
            // The serial filter loses the open day with the exception:
            // publish only the days it would have released.
            item->records.resize(day_start);
            if (day_start > 0) publish();
            throw_unordered();
          }
          last_ts = ts;
          const std::int64_t d = day_of(ts);
          if (d == day) continue;
          day = d;
          take(from, i);
          from = i;
          if (item->records.size() >= kItemRecords) {
            publish();
            if ((item = acquire()) == nullptr) return;
          }
          day_start = item->records.size();
        }
        take(from, n);
        if (util::ShutdownSignal::requested()) break;
        n = in_.next_batch(batch.data(), batch.size());
      }
      if (!item->records.empty()) publish();
      finish_reading(nullptr);
    } catch (...) {
      finish_reading(std::current_exception());
    }
  }

  /// Filter items in FIFO order with one reused filter. Clean records
  /// overwrite the item's consumed prefix in place: the filter copies a
  /// record into its day buffer as it reads it and releases a day only
  /// after reading all of it, so the write index never passes the read
  /// index.
  void work_loop() {
    try {
      WorkItem* item = nullptr;
      std::size_t kept = 0;
      ArtifactFilter filter(
          {}, [&](const sim::LogRecord& r) { item->records[kept++] = r; },
          [&item](const FilterDayStats& s) { item->stats.push_back(s); });
      for (;;) {
        {
          std::unique_lock lock(mu_);
          work_cv_.wait(lock, [&] { return abort_ || taken_ < published_ || reader_done_; });
          if (abort_ || taken_ == published_) return;
          item = &items_[taken_++ % items_.size()];
        }
        const std::span<const sim::LogRecord> recs(item->records);
        kept = 0;
        for (std::size_t off = 0; off < recs.size(); off += kBatchRecords)
          filter.feed_batch(recs.subspan(off, std::min(kBatchRecords, recs.size() - off)));
        filter.flush();
        item->records.resize(kept);
        {
          const std::lock_guard lock(mu_);
          item->done = true;
        }
        ready_cv_.notify_one();
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }

  sim::RecordStream& in_;
  std::vector<WorkItem> items_;

  std::mutex mu_;
  std::condition_variable space_cv_;  ///< reader: a slot was written back
  std::condition_variable work_cv_;   ///< workers: an item was published
  std::condition_variable ready_cv_;  ///< writer: an item was published or done
  std::uint64_t published_ = 0;       ///< items handed out by the reader
  std::uint64_t taken_ = 0;           ///< items claimed by workers
  std::uint64_t written_ = 0;         ///< items appended by the writer
  bool reader_done_ = false;
  bool abort_ = false;
  std::exception_ptr error_;

  std::thread reader_;
  std::vector<std::thread> workers_;
};

}  // namespace

void filter_stream(sim::RecordStream& in, sim::LogWriter& out, unsigned workers,
                   const ArtifactFilter::StatsSink& stats) {
  const Clock::time_point start = Clock::now();
  // The first read runs here so an empty input allocates no buffers
  // and starts no thread.
  if (const auto first = in.next()) {
    DayParallelFilter pipeline(in, *first, std::max(workers, 1u));
    pipeline.drain(out, stats, start);
  } else {
    fm().read_us.observe(us_between(start, Clock::now()));
  }
  const Clock::time_point close_start = Clock::now();
  out.close();
  fm().write_us.observe(us_between(close_start, Clock::now()));
}

}  // namespace v6sonar::core
