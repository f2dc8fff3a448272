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
/// once per judged day — never on the per-record path.
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
  /// waiting on, one sample per work item (µs): the item being cut,
  /// then judged, then its kept images appended and its input pages
  /// released. The end-of-input wait and the final close/fsync add one
  /// read and one write sample; the three sums add up to
  /// filter_stream()'s wall time.
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

constexpr std::size_t kRec = sim::kLogRecordBytes;

/// The first timestamp of the day after `day`; INT64_MAX for the last
/// day a timestamp can fall in.
sim::TimeUs next_day_start(std::int64_t day) noexcept {
  return day >= INT64_MAX / kUsPerDay ? INT64_MAX : (day + 1) * kUsPerDay;
}

}  // namespace

DayJudge::DayJudge(const ArtifactFilterConfig& config)
    : config_(config), deriver_(config.source_prefix_len) {
  if (config_.max_duplicate_fraction < 0 || config_.max_duplicate_fraction > 1)
    throw std::invalid_argument("ArtifactFilter: bad duplicate fraction");
  if (config_.source_prefix_len < 0 || config_.source_prefix_len > 128)
    throw std::invalid_argument("ArtifactFilter: bad aggregation length");
}

FilterDayStats DayJudge::judge(std::int64_t day, std::span<const std::uint8_t> images,
                               std::vector<std::uint8_t>& kept) {
  const std::size_t n = images.size() / kRec;
  const std::uint8_t* const first = images.data();
  if (source_of_.size() < n) source_of_.resize(n);

  // Count: every record's source gets a day index, and each flow of
  // that source its hit count.
  const std::uint8_t* p = first;
  for (std::size_t i = 0; i < n; ++i, p += kRec) {
    const sim::RecordImage r{p};
    const net::PrefixKeyDeriver::Derived d = deriver_(r.src());
    const std::size_t seen = sources_.size();
    std::uint32_t& index = sources_.insert_hashed(d.key, d.hash);
    if (sources_.size() != seen) {
      index = static_cast<std::uint32_t>(tally_.size());
      tally_.emplace_back();
    }
    source_of_[i] = index;
    const FlowKey flow{index, proto_port_key(r.proto(), r.dst_port()), r.dst()};
    Tally& t = tally_[index];
    ++t.packets;
    if (++hits_.insert_hashed(flow, FlowKeyHash{}(flow)) > config_.duplicate_threshold)
      ++t.duplicates;
  }

  FilterDayStats stats;
  stats.day = day;
  stats.packets_in = n;
  stats.sources_seen = tally_.size();
  const bool counting = util::metrics::enabled();
  std::uint64_t duplicate_packets = 0;
  for (Tally& t : tally_) {
    t.dropped = static_cast<double>(t.duplicates) >
                config_.max_duplicate_fraction * static_cast<double>(t.packets);
    stats.sources_dropped += t.dropped;
    if (counting) {
      duplicate_packets += t.duplicates;
      fm().source_dup_pct.observe(100 * t.duplicates / t.packets);
    }
  }

  // Copy the kept records out in runs; account for the dropped ones.
  const std::size_t kept_from = kept.size();
  const std::uint8_t* run = first;
  p = first;
  for (std::size_t i = 0; i < n; ++i, p += kRec) {
    if (!tally_[source_of_[i]].dropped) continue;
    kept.insert(kept.end(), run, p);
    run = p + kRec;
    ++stats.packets_dropped;
    const sim::RecordImage r{p};
    ++stats.dropped_by_port[proto_port_key(r.proto(), r.dst_port())];
  }
  kept.insert(kept.end(), run, p);
  for (std::size_t at = kept_from + 51; at < kept.size(); at += kRec) kept[at] = kept[at] != 0;

  sources_.reset();
  hits_.reset();
  tally_.clear();
  if (counting) {
    fm().days_closed.add();
    fm().packets_in.add(stats.packets_in);
    fm().packets_dropped.add(stats.packets_dropped);
    fm().duplicate_packets.add(duplicate_packets);
    fm().sources_seen.add(stats.sources_seen);
    fm().sources_dropped.add(stats.sources_dropped);
  }
  return stats;
}

ArtifactFilter::ArtifactFilter(const ArtifactFilterConfig& config, RecordSink out,
                               StatsSink stats)
    : judge_(config), out_(std::move(out)), stats_(std::move(stats)) {
  if (!out_) throw std::invalid_argument("ArtifactFilter: null output sink");
}

void ArtifactFilter::feed(const sim::LogRecord& r) {
  if (r.ts_us < last_ts_) throw_unordered();
  last_ts_ = r.ts_us;
  const std::int64_t day = day_of(r.ts_us);
  if (day != current_day_) {
    close_day();
    current_day_ = day;
  }
  std::uint8_t image[kRec];
  sim::encode_record(r, image);
  day_.insert(day_.end(), image, image + kRec);
}

void ArtifactFilter::feed_batch(std::span<const sim::LogRecord> batch) {
  for (const auto& r : batch) feed(r);
}

void ArtifactFilter::close_day() {
  if (day_.empty()) return;
  kept_.clear();
  const FilterDayStats stats = judge_.judge(current_day_, day_, kept_);
  day_.clear();
  for (std::size_t at = 0; at < kept_.size(); at += kRec) out_(sim::decode_record(&kept_[at]));
  if (stats_) stats_(stats);
}

void ArtifactFilter::flush() {
  close_day();
  current_day_ = INT64_MIN;
}

namespace {

/// Work-item target: consecutive whole days are merged into one item
/// until it holds at least this many records (a bigger day is one item).
constexpr std::size_t kItemBytes = (std::size_t{1} << 16) * kRec;
/// The cutter checks for a drain signal once per this many records.
constexpr std::size_t kSignalCheckBytes = 4'096 * kRec;

using Clock = std::chrono::steady_clock;

std::uint64_t us_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count());
}

/// One or more whole days of the mapping: day i is
/// [days[i], days[i + 1]). Once judged, `kept` holds the kept images.
struct WorkItem {
  std::vector<const std::uint8_t*> days;
  std::vector<std::uint8_t> kept;
  std::vector<FilterDayStats> stats;
  bool done = false;  ///< guarded by DayParallelFilter::mu_
};

/// filter_stream()'s threads. Items are numbered in input order and
/// live in a ring of 2 × workers slots: the cutter fills slot
/// `published_`, workers claim slots in FIFO order, and the writing
/// thread appends slot `written_` once it is done and hands it back to
/// the cutter.
class DayParallelFilter {
 public:
  /// Starts the threads over `in.unread()`, which must not be empty.
  DayParallelFilter(sim::MappedLogReader& in, unsigned workers)
      : in_(in), input_(in.unread()), cut_end_(input_.data()), items_(2 * std::size_t{workers}) {
    try {
      cutter_ = std::thread([this] { cut_loop(); });
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
  /// timing each from `mark`, and move `in`'s cursor past the records
  /// cut; rethrows the first error once every item before it is written.
  void drain(sim::LogWriter& out, const ArtifactFilter::StatsSink& stats,
             Clock::time_point mark) {
    for (;;) {
      WorkItem* item = nullptr;
      Clock::time_point read_end;
      {
        std::unique_lock lock(mu_);
        ready_cv_.wait(lock, [&] { return abort_ || written_ < published_ || cutter_done_; });
        read_end = Clock::now();
        fm().read_us.observe(us_between(mark, read_end));
        if (abort_ || written_ == published_) break;
        item = &items_[written_ % items_.size()];
        ready_cv_.wait(lock, [&] { return abort_ || item->done; });
        if (abort_) break;
      }
      const Clock::time_point work_end = Clock::now();
      fm().work_us.observe(us_between(read_end, work_end));
      out.write_images(item->kept);
      if (stats)
        for (const auto& s : item->stats) stats(s);
      in_.release(item->days.back());
      item->days.clear();
      item->kept.clear();
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
    in_.skip(static_cast<std::uint64_t>(cut_end_ - input_.data()) / kRec);
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
    if (cutter_.joinable()) cutter_.join();
    for (auto& w : workers_)
      if (w.joinable()) w.join();
  }

  /// The slot the cutter fills next, once the ring has room; nullptr on abort.
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

  /// End of input (error empty) or an ordering error: either way every
  /// published item is still judged and written first.
  void finish_cutting(const std::uint8_t* cut_end, std::exception_ptr error) {
    {
      const std::lock_guard lock(mu_);
      cutter_done_ = true;
      cut_end_ = cut_end;
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

  /// Cut the mapping into items of whole days, reading only the
  /// timestamps. Checks the global time order the judges never see.
  void cut_loop() {
    const std::uint8_t* p = input_.data();
    const std::uint8_t* const end = p + input_.size();
    try {
      WorkItem* item = acquire();
      if (item == nullptr) return;
      std::int64_t day = INT64_MIN;
      sim::TimeUs day_end = INT64_MIN;  // first timestamp past `day`
      sim::TimeUs last_ts = INT64_MIN;
      while (p != end) {
        const std::uint8_t* const stretch_end =
            p + std::min<std::size_t>(kSignalCheckBytes, static_cast<std::size_t>(end - p));
        for (; p != stretch_end; p += kRec) {
          const sim::TimeUs ts = sim::RecordImage{p}.ts_us();
          if (ts < last_ts) {
            // The streaming filter loses the open day with the
            // exception: publish only the days it would have released.
            if (item->days.size() > 1) publish();
            throw_unordered();
          }
          last_ts = ts;
          if (ts < day_end || day_of(ts) == day) continue;
          day = day_of(ts);
          day_end = next_day_start(day);
          if (!item->days.empty() &&
              static_cast<std::size_t>(p - item->days.front()) >= kItemBytes) {
            item->days.push_back(p);
            publish();
            if ((item = acquire()) == nullptr) return;
          }
          item->days.push_back(p);
        }
        if (util::ShutdownSignal::requested()) break;
      }
      item->days.push_back(p);
      publish();
      finish_cutting(p, nullptr);
    } catch (...) {
      finish_cutting(p, std::current_exception());
    }
  }

  /// Judge items in FIFO order with one reused DayJudge.
  void work_loop() {
    try {
      DayJudge judge({});
      for (;;) {
        WorkItem* item = nullptr;
        {
          std::unique_lock lock(mu_);
          work_cv_.wait(lock, [&] { return abort_ || taken_ < published_ || cutter_done_; });
          if (abort_ || taken_ == published_) return;
          item = &items_[taken_++ % items_.size()];
        }
        for (std::size_t d = 0; d + 1 < item->days.size(); ++d) {
          const std::uint8_t* from = item->days[d];
          item->stats.push_back(judge.judge(
              day_of(sim::RecordImage{from}.ts_us()),
              {from, static_cast<std::size_t>(item->days[d + 1] - from)}, item->kept));
        }
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

  sim::MappedLogReader& in_;
  const std::span<const std::uint8_t> input_;
  const std::uint8_t* cut_end_;  ///< guarded by mu_: where the cutter stopped
  std::vector<WorkItem> items_;

  std::mutex mu_;
  std::condition_variable space_cv_;  ///< cutter: a slot was written back
  std::condition_variable work_cv_;   ///< workers: an item was published
  std::condition_variable ready_cv_;  ///< writer: an item was published or done
  std::uint64_t published_ = 0;       ///< items handed out by the cutter
  std::uint64_t taken_ = 0;           ///< items claimed by workers
  std::uint64_t written_ = 0;         ///< items appended by the writer
  bool cutter_done_ = false;
  bool abort_ = false;
  std::exception_ptr error_;

  std::thread cutter_;
  std::vector<std::thread> workers_;
};

}  // namespace

void filter_stream(sim::MappedLogReader& in, sim::LogWriter& out, unsigned workers,
                   const ArtifactFilter::StatsSink& stats) {
  const Clock::time_point start = Clock::now();
  if (!in.unread().empty()) {
    DayParallelFilter pipeline(in, std::max(workers, 1u));
    pipeline.drain(out, stats, start);
  } else {
    fm().read_us.observe(us_between(start, Clock::now()));
  }
  const Clock::time_point close_start = Clock::now();
  out.close();
  fm().write_us.observe(us_between(close_start, Clock::now()));
}

}  // namespace v6sonar::core
