// The artifact-filter oracle the filter tests check against: the
// paper's 5-duplicate rule (§2.1, Appendix A.1) written out with
// ordered maps and integer arithmetic, sharing no code with
// core/artifact_filter beyond the FilterDayStats type it reports in.
// Per UTC day (rounded down, so a timestamp before the epoch falls in
// a negative day) and per source /64, it counts the source's packets
// and the 6th-or-later hits on each (destination address, protocol,
// destination port); a source whose duplicates are more than 30% of
// its packets is dropped for that day.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "core/artifact_filter.hpp"
#include "sim/record.hpp"

namespace v6sonar::core::testing {

/// One UTC day's summary, in the terms of core::FilterDayStats.
struct OracleDay {
  std::int64_t day = 0;
  std::uint64_t packets_in = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t sources_seen = 0;
  std::uint64_t sources_dropped = 0;
  /// Dropped packets per protocol number << 16 | destination port.
  std::map<std::uint32_t, std::uint64_t> dropped_by_port;
};

struct OracleVerdict {
  std::vector<std::size_t> kept;  ///< indices of the kept records, in input order
  std::vector<OracleDay> days;    ///< one per UTC day with records, in day order
};

[[nodiscard]] inline OracleVerdict filter_oracle(const std::vector<sim::LogRecord>& records) {
  constexpr std::int64_t kUsPerDay = 86'400'000'000;
  std::map<std::int64_t, std::vector<std::size_t>> by_day;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::int64_t ts = records[i].ts_us;
    const std::int64_t day = ts / kUsPerDay - (ts % kUsPerDay < 0 ? 1 : 0);
    by_day[day].push_back(i);
  }

  OracleVerdict out;
  std::vector<bool> keep(records.size(), false);
  for (const auto& [day, members] : by_day) {
    struct Source {
      std::uint64_t packets = 0;
      std::uint64_t duplicates = 0;
    };
    // A /64 is the address's high 64 bits.
    std::map<std::uint64_t, Source> sources;
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, int, int>, std::uint64_t>
        hits;
    for (const std::size_t i : members) {
      const sim::LogRecord& r = records[i];
      Source& s = sources[r.src.hi()];
      ++s.packets;
      const auto flow = std::make_tuple(r.src.hi(), r.dst.hi(), r.dst.lo(),
                                        static_cast<int>(r.proto), static_cast<int>(r.dst_port));
      if (++hits[flow] >= 6) ++s.duplicates;
    }
    OracleDay d;
    d.day = day;
    d.packets_in = members.size();
    d.sources_seen = sources.size();
    for (const auto& [prefix, s] : sources) d.sources_dropped += 10 * s.duplicates > 3 * s.packets;
    for (const std::size_t i : members) {
      const sim::LogRecord& r = records[i];
      const Source& s = sources[r.src.hi()];
      if (10 * s.duplicates > 3 * s.packets) {
        ++d.packets_dropped;
        ++d.dropped_by_port[static_cast<std::uint32_t>(r.proto) << 16 | r.dst_port];
      } else {
        keep[i] = true;
      }
    }
    out.days.push_back(std::move(d));
  }
  for (std::size_t i = 0; i < records.size(); ++i)
    if (keep[i]) out.kept.push_back(i);
  return out;
}

/// The oracle's day summaries as the filter reports them.
[[nodiscard]] inline std::vector<FilterDayStats> as_filter_stats(
    const std::vector<OracleDay>& days) {
  std::vector<FilterDayStats> out;
  for (const auto& d : days) {
    FilterDayStats s;
    s.day = d.day;
    s.packets_in = d.packets_in;
    s.packets_dropped = d.packets_dropped;
    s.sources_seen = d.sources_seen;
    s.sources_dropped = d.sources_dropped;
    s.dropped_by_port.insert(d.dropped_by_port.begin(), d.dropped_by_port.end());
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace v6sonar::core::testing
