// CDN artifact pre-filter (§2.1, Appendix A.1).
//
// Port-agnostic "5-duplicate" rule: within each UTC day, a packet is a
// 5-duplicate if it is the 6th-or-later packet from its source /64 to
// the same (destination IP, destination port). Source /64s whose daily
// traffic is more than 30% 5-duplicates are dropped for that day.
//
// Streaming with one-day buffering: records are held until their day
// completes, then flagged sources' records are discarded and the rest
// released in order.
//
// A day's verdicts depend on that day's records alone, so whole days
// can be filtered independently: filter_stream() cuts a stream at day
// boundaries and filters the days on worker threads, with output
// identical to one serial ArtifactFilter.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/state_codec.hpp"
#include "net/prefix.hpp"
#include "sim/log_io.hpp"
#include "sim/record.hpp"
#include "util/arena.hpp"
#include "util/flat_hash.hpp"

namespace v6sonar::core {

struct ArtifactFilterConfig {
  /// A (dst IP, dst port) hit more than this many times per day marks
  /// subsequent packets as duplicates.
  std::uint32_t duplicate_threshold = 5;
  /// Sources above this duplicate fraction are removed.
  double max_duplicate_fraction = 0.30;
  /// Aggregation for the source accounting (paper: /64).
  int source_prefix_len = 64;
};

/// The UTC day (days since the epoch) a timestamp falls in: the unit
/// the filter decides on. Truncates like sim::seconds_of.
[[nodiscard]] constexpr std::int64_t day_of(sim::TimeUs ts) noexcept {
  return sim::seconds_of(ts) / 86'400;
}

/// Per-day summary of what the filter removed — Appendix A.1's table.
struct FilterDayStats {
  std::int64_t day = 0;  ///< days since epoch (UTC)
  std::uint64_t packets_in = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t sources_seen = 0;
  std::uint64_t sources_dropped = 0;
  /// Packets dropped per destination port (proto-qualified key:
  /// proto number << 16 | port).
  std::unordered_map<std::uint32_t, std::uint64_t> dropped_by_port;
};

class ArtifactFilter : public StateCodec {
 public:
  using RecordSink = std::function<void(const sim::LogRecord&)>;
  using StatsSink = std::function<void(const FilterDayStats&)>;

  /// Clean records are forwarded to `out` in their original order
  /// (whole days at a time). `stats` (optional) receives one summary
  /// per completed day.
  ArtifactFilter(const ArtifactFilterConfig& config, RecordSink out, StatsSink stats = {});
  ~ArtifactFilter();

  /// Feed one record; records must be in non-decreasing time order.
  void feed(const sim::LogRecord& r);

  /// Feed a whole batch; exactly equivalent to feeding each record in
  /// turn (same ordering contract), but faster: source keys, their
  /// hashes, and the flow-key hashes are derived for the whole batch
  /// in one vectorizable pre-pass, and a two-stage prefetch pipeline
  /// hides the source-index and hit-table probe misses.
  void feed_batch(std::span<const sim::LogRecord> batch);

  /// Advance the clock without a packet: if `now` has moved past the
  /// buffered day, close it and release its clean records — exactly
  /// what the first record of a later day would have triggered. No-op
  /// if `now` is not ahead.
  void advance(sim::TimeUs now);

  /// Flush the final partial day.
  void flush();

  /// Freeze/thaw (core::StateCodec). Only the clock and the buffered
  /// (incomplete) day are serialized — the per-source hit tables are a
  /// pure function of the buffered records, so load() rebuilds them by
  /// replaying the buffer through the same accounting as feed().
  void save(util::StateWriter& w) const override;
  void load(util::StateReader& r) override;

 private:
  /// Below this many tracked sources the per-day tables are
  /// cache-resident and batch lookahead would be pure overhead.
  static constexpr std::size_t kPrefetchMinSources = 1'024;

  void close_day();

  /// (dst address, proto+port) composite flow key.
  struct FlowKey {
    net::Ipv6Address dst;
    std::uint32_t proto_port = 0;
    friend bool operator==(const FlowKey&, const FlowKey&) = default;
  };
  /// Mixed multiplier-lane combine (shared with the prefix hash): the
  /// old XOR of two independent hashes canceled structure between the
  /// address and port lanes; this one avalanches the 20-byte key as a
  /// whole, which the flat table's control tags depend on.
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      return static_cast<std::size_t>(
          net::prefix_hash_mix(k.dst.hi(), k.dst.lo(), k.proto_port));
    }
  };

  struct SourceDay {
    /// Hit-count storage comes from the filter's pool: a source's day
    /// closing hands its array to the next day's sources.
    explicit SourceDay(util::SlabPool* pool) noexcept : hits(pool) {}

    std::uint64_t packets = 0;
    std::uint64_t duplicates = 0;
    bool dropped = false;  ///< close_day verdict, read by the release loop
    util::FlatMap<FlowKey, std::uint32_t, FlowKeyHash> hits;
  };

  /// feed() with the source key, its hash, and the flow-key hash
  /// already derived — the single per-record update both feed paths
  /// funnel through.
  void feed_one(const sim::LogRecord& r, const net::Ipv6Prefix& key, std::size_t key_hash,
                std::size_t flow_hash);
  [[nodiscard]] SourceDay* new_day();
  void delete_day(SourceDay* sd) noexcept;
  /// Destroy all SourceDay objects and empty the index, keeping its
  /// slot array (day-over-day population is similar).
  void destroy_days() noexcept;

  ArtifactFilterConfig config_;
  net::PrefixKeyDeriver deriver_;
  RecordSink out_;
  StatsSink stats_;
  std::int64_t current_day_ = INT64_MIN;
  std::deque<sim::LogRecord> buffer_;
  util::SlabPool pool_;  // declared before sources_: destroyed after its users

  // Flat open-addressed index of pool-allocated per-day source
  // accounting, mirroring the detector's state index: flat so the
  // batch path can prefetch from the precomputed hash alone, pointers
  // so growth never moves a SourceDay.
  util::FlatMap<net::Ipv6Prefix, SourceDay*> sources_;
  sim::TimeUs last_ts_ = INT64_MIN;

  // feed_batch() derivation scratch (capacity persists across batches).
  std::vector<net::Ipv6Prefix> batch_keys_;
  std::vector<std::size_t> batch_key_hashes_;
  std::vector<std::size_t> batch_flow_hashes_;
};

/// Filter a whole time-ordered stream with the paper's configuration
/// into `out`, then close `out` (header backpatch + fsync). Output and
/// the `stats` sequence equal a serial ArtifactFilter's for every
/// worker count: a reader thread cuts
/// the input at day boundaries into work items of whole days (merged
/// up to ~64 k records), `workers` threads (0 counts as 1) each run one
/// reused ArtifactFilter over an item at a time, and the calling thread
/// appends finished items in input order and delivers `stats` in day
/// order. At most 2 × workers items are in flight, so memory is bounded
/// by the item size and the largest day, never by the input's length;
/// an empty input starts no thread.
///
/// Reading stops early, as at end of input, once
/// util::ShutdownSignal::requested(); every record read is still
/// filtered and written. Out-of-order input throws the serial filter's
/// std::invalid_argument after writing the days the serial filter would
/// have released, leaving `out` open.
void filter_stream(sim::RecordStream& in, sim::LogWriter& out, unsigned workers,
                   const ArtifactFilter::StatsSink& stats = {});

/// Proto-qualified port key used in FilterDayStats::dropped_by_port.
[[nodiscard]] constexpr std::uint32_t proto_port_key(wire::IpProto proto,
                                                     std::uint16_t port) noexcept {
  return static_cast<std::uint32_t>(static_cast<std::uint8_t>(proto)) << 16 | port;
}

}  // namespace v6sonar::core
