// Weekly time series over scan events (Figs. 2 and 3) and traffic
// concentration (top-k source share).
//
// TimeSeriesAnalyzer is the incremental core (a core::EventSink); the
// vector entry points replay through it (see analyzer.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/scan_event.hpp"
#include "net/prefix.hpp"
#include "util/flat_hash.hpp"

namespace v6sonar::analysis {

/// One week of Fig. 2 / Fig. 3 data at one aggregation level.
struct WeekPoint {
  std::int32_t week = 0;
  std::uint64_t active_sources = 0;  ///< distinct scan sources with packets this week
  std::uint64_t packets = 0;         ///< scan packets logged this week
  double top1_share = 0;             ///< fraction of packets from the busiest source
  double top2_share = 0;             ///< ... busiest two sources
  double top3_share = 0;
};

/// Streaming weekly fold: per-(week, source) packet counts in one flat
/// map — memory proportional to active (week, source) pairs, not to
/// the event count.
class TimeSeriesAnalyzer final : public Analyzer {
 public:
  TimeSeriesAnalyzer() : Analyzer("timeseries") {}

  /// Weekly series, sorted by week; weeks with no activity omitted.
  [[nodiscard]] std::vector<WeekPoint> weekly() const;
  /// Overall top-k packet share across sources.
  [[nodiscard]] double overall_top_k(std::size_t k) const;
  /// Mean of the weekly top-k shares.
  [[nodiscard]] double mean_weekly_top_k(std::size_t k) const;

  void save(util::StateWriter& w) const override;
  void load(util::StateReader& r) override;

 private:
  void consume(const core::ScanEvent& ev) override;
  void merge_from(Analyzer& other) override;

  struct WeekSourceKey {
    std::int32_t week = 0;
    net::Ipv6Prefix source;
    friend bool operator==(const WeekSourceKey&, const WeekSourceKey&) = default;
    friend void save_elem(util::StateWriter& w, const WeekSourceKey& k) {
      core::save_tagged_prefix(w, static_cast<std::uint32_t>(k.week), k.source);
    }
    friend void load_elem(util::StateReader& r, WeekSourceKey& k) {
      k.week = static_cast<std::int32_t>(core::load_tagged_prefix(r, k.source));
    }
  };
  struct WeekSourceHash {
    std::size_t operator()(const WeekSourceKey& k) const noexcept {
      return std::hash<net::Ipv6Prefix>{}(k.source) ^
             (static_cast<std::size_t>(static_cast<std::uint32_t>(k.week)) *
              0x9E3779B97F4A7C15ULL);
    }
  };
  util::FlatMap<WeekSourceKey, std::uint64_t, WeekSourceHash> week_source_packets_;
  util::FlatMap<net::Ipv6Prefix, std::uint64_t> source_packets_;
};

/// Weekly series from a set of qualified scan events. Weeks with no
/// scan activity are omitted.
[[nodiscard]] std::vector<WeekPoint> weekly_series(const std::vector<core::ScanEvent>& events);

/// Overall top-k packet share across sources (the "two most active
/// sources account for 70% of all logged scan traffic" statistic).
[[nodiscard]] double overall_top_k_share(const std::vector<core::ScanEvent>& events,
                                         std::size_t k);

/// Mean of the weekly top-k shares (the "92% week-by-week" statistic).
[[nodiscard]] double mean_weekly_top_k_share(const std::vector<core::ScanEvent>& events,
                                             std::size_t k);

}  // namespace v6sonar::analysis
