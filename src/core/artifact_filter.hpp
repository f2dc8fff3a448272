// CDN artifact pre-filter (§2.1, Appendix A.1).
//
// Port-agnostic "5-duplicate" rule: within each UTC day, a packet is a
// 5-duplicate if it is the 6th-or-later packet from its source /64 to
// the same (destination IP, destination port). Source /64s whose daily
// traffic is more than 30% 5-duplicates are dropped for that day.
//
// A day's verdicts depend on that day's records alone, so the filter
// judges whole days: DayJudge decides one day from its 52-byte wire
// images (sim/log_io.hpp) and copies the kept ones out verbatim. Both
// front ends run it: the streaming ArtifactFilter buffers its open day
// as wire images, and filter_stream() cuts a mapped log at day
// boundaries and judges the days on worker threads, with output
// identical to one streaming ArtifactFilter.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/prefix.hpp"
#include "sim/log_io.hpp"
#include "sim/record.hpp"
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

inline constexpr sim::TimeUs kUsPerDay = 86'400 * sim::kUsPerSecond;

/// The UTC day (days since the epoch, rounded down) a timestamp falls
/// in: the unit the filter decides on. A timestamp before the epoch
/// belongs to a negative day.
[[nodiscard]] constexpr std::int64_t day_of(sim::TimeUs ts) noexcept {
  return ts / kUsPerDay - (ts % kUsPerDay < 0);
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

/// Decides one UTC day at a time from its records' wire images. Its
/// tables are reset between days, never freed, so a reused judge stops
/// allocating once it has seen its largest day.
class DayJudge {
 public:
  /// Throws std::invalid_argument on an out-of-range fraction or
  /// aggregation length.
  explicit DayJudge(const ArtifactFilterConfig& config);

  /// Judge UTC day `day` from `images` (its time-ordered records, each
  /// sim::kLogRecordBytes long) and append the kept images to `kept` in
  /// order, byte for byte except byte 51 (dst_in_dns), which is written
  /// as 0 or 1 like sim::encode_record writes it. Returns the day's
  /// summary.
  FilterDayStats judge(std::int64_t day, std::span<const std::uint8_t> images,
                       std::vector<std::uint8_t>& kept);

 private:
  /// One (source, dst address, proto << 16 | port) flow of the day; the
  /// source is its index into tally_.
  struct FlowKey {
    std::uint32_t source = 0;
    std::uint32_t proto_port = 0;
    net::Ipv6Address dst;
    friend bool operator==(const FlowKey&, const FlowKey&) = default;
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      return static_cast<std::size_t>(net::prefix_hash_mix(
          k.dst.hi(), k.dst.lo(), std::uint64_t{k.source} << 32 | k.proto_port));
    }
  };
  struct Tally {
    std::uint64_t packets = 0;
    std::uint64_t duplicates = 0;
    bool dropped = false;
  };

  ArtifactFilterConfig config_;
  net::PrefixKeyDeriver deriver_;
  util::FlatMap<net::Ipv6Prefix, std::uint32_t> sources_;  ///< source prefix -> tally_ index
  util::FlatMap<FlowKey, std::uint32_t, FlowKeyHash> hits_;
  std::vector<Tally> tally_;
  std::vector<std::uint32_t> source_of_;  ///< tally_ index of each record of the day
};

class ArtifactFilter {
 public:
  using RecordSink = std::function<void(const sim::LogRecord&)>;
  using StatsSink = std::function<void(const FilterDayStats&)>;

  /// Clean records are forwarded to `out` in their original order
  /// (whole days at a time). `stats` (optional) receives one summary
  /// per completed day.
  ArtifactFilter(const ArtifactFilterConfig& config, RecordSink out, StatsSink stats = {});

  /// Feed one record; records must be in non-decreasing time order.
  void feed(const sim::LogRecord& r);

  /// Feed a whole batch; exactly equivalent to feeding each record in
  /// turn (same ordering contract).
  void feed_batch(std::span<const sim::LogRecord> batch);

  /// Flush the final partial day.
  void flush();

 private:
  void close_day();

  DayJudge judge_;
  RecordSink out_;
  StatsSink stats_;
  std::int64_t current_day_ = INT64_MIN;
  sim::TimeUs last_ts_ = INT64_MIN;
  std::vector<std::uint8_t> day_;   ///< the open day's wire images
  std::vector<std::uint8_t> kept_;  ///< close_day() scratch: the kept images
};

/// Filter the rest of a time-ordered log (from `in`'s cursor) with the
/// paper's configuration into `out`, then close `out` (header
/// backpatch + fsync). Output and the `stats` sequence equal a
/// streaming ArtifactFilter's for every worker count: a cutter thread
/// reads the timestamps from the mapping and cuts it at day boundaries
/// into work items of whole days (merged up to ~64 k records), each a
/// range of the mapping; `workers` threads (0 counts as 1) each judge
/// an item's days with one reused DayJudge, and the calling thread
/// appends the kept images in input order, delivers `stats` in day
/// order and hands the item's input pages back to the kernel. At most
/// 2 × workers items are in flight, so memory is bounded by the item
/// size and the largest day, never by the input's length; an empty
/// input starts no thread. On return `in`'s cursor is past the records
/// filtered.
///
/// Cutting stops early, as at end of input, once
/// util::ShutdownSignal::requested(); every record cut is still
/// filtered and written. Out-of-order input throws the streaming
/// filter's std::invalid_argument after writing the days the streaming
/// filter would have released, leaving `out` open.
void filter_stream(sim::MappedLogReader& in, sim::LogWriter& out, unsigned workers,
                   const ArtifactFilter::StatsSink& stats = {});

/// Proto-qualified port key used in FilterDayStats::dropped_by_port.
[[nodiscard]] constexpr std::uint32_t proto_port_key(wire::IpProto proto,
                                                     std::uint16_t port) noexcept {
  return static_cast<std::uint32_t>(static_cast<std::uint8_t>(proto)) << 16 | port;
}

}  // namespace v6sonar::core
