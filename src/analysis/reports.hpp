// Folding scan events into the paper's summary statistics: per-source
// and per-AS reports (Tables 1 and 2), and duration statistics (§3.1).
//
// Each table has an incremental analyzer (a core::EventSink; see
// analyzer.hpp) that folds events as they stream out of the detector,
// and a legacy vector entry point implemented as a thin replay adapter
// over the same analyzer — both paths produce identical results.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/scan_event.hpp"
#include "net/prefix.hpp"
#include "util/flat_hash.hpp"

namespace v6sonar::analysis {

/// Totals for one detected scan source (a prefix at the detector's
/// aggregation level) across all of its scan events.
struct SourceReport {
  net::Ipv6Prefix source;
  std::uint32_t asn = 0;
  std::uint64_t scans = 0;
  std::uint64_t packets = 0;
  std::uint64_t distinct_dsts_max = 0;  ///< largest single-event target count
};

/// Table 1 row: totals for one aggregation level.
struct AggregateTotals {
  std::uint64_t scans = 0;
  std::uint64_t packets = 0;
  std::uint64_t sources = 0;
  std::uint64_t ases = 0;
};

/// Streaming per-source fold: Table 1 totals plus the per-source rows,
/// in memory proportional to the number of distinct sources.
class SourceAnalyzer final : public Analyzer {
 public:
  SourceAnalyzer() : Analyzer("sources") {}

  /// Per-source rows, sorted by source prefix.
  [[nodiscard]] std::vector<SourceReport> sources() const;
  [[nodiscard]] AggregateTotals totals() const;

  void save(util::StateWriter& w) const override;
  void load(util::StateReader& r) override;

 private:
  void consume(const core::ScanEvent& ev) override;
  void merge_from(Analyzer& other) override;

  struct Acc {
    std::uint32_t asn = 0;
    std::uint64_t scans = 0;
    std::uint64_t packets = 0;
    std::uint64_t dsts_max = 0;
    // Checkpoint image: asn, 4 zero bytes (the padding), the counts.
    friend void save_elem(util::StateWriter& w, const Acc& a) {
      w.u32(a.asn);
      w.u32(0);
      w.u64(a.scans);
      w.u64(a.packets);
      w.u64(a.dsts_max);
    }
    friend void load_elem(util::StateReader& r, Acc& a) {
      a.asn = r.u32();
      r.skip(4);
      a.scans = r.u64();
      a.packets = r.u64();
      a.dsts_max = r.u64();
    }
  };
  util::FlatMap<net::Ipv6Prefix, Acc> by_source_;
  util::FlatSet<std::uint32_t, util::IntHash> ases_;  ///< distinct nonzero src_asn
  std::uint64_t scans_ = 0;
  std::uint64_t packets_ = 0;
};

[[nodiscard]] std::vector<SourceReport> fold_sources(const std::vector<core::ScanEvent>& events);

[[nodiscard]] AggregateTotals totals(const std::vector<core::ScanEvent>& events);

/// Table 2 rows: per-AS packet totals and source counts at one
/// aggregation level. Sorted by ASN; sorted by packets descending when
/// rendered by the bench.
struct AsSources {
  std::uint32_t asn = 0;
  std::uint64_t packets = 0;
  std::uint64_t sources = 0;
  std::uint64_t scans = 0;
};

/// Streaming per-AS fold (Table 2). Distinct sources per AS are
/// tracked with one flat set of (asn, source) pairs.
class AsAnalyzer final : public Analyzer {
 public:
  AsAnalyzer() : Analyzer("by_as") {}

  /// Per-AS rows, sorted by ASN ascending.
  [[nodiscard]] std::vector<AsSources> by_as() const;

  void save(util::StateWriter& w) const override;
  void load(util::StateReader& r) override;

 private:
  void consume(const core::ScanEvent& ev) override;
  void merge_from(Analyzer& other) override;

  struct Acc {
    std::uint64_t packets = 0;
    std::uint64_t scans = 0;
    std::uint64_t sources = 0;
  };
  struct AsSourceKey {
    std::uint32_t asn = 0;
    net::Ipv6Prefix source;
    friend bool operator==(const AsSourceKey&, const AsSourceKey&) = default;
    friend void save_elem(util::StateWriter& w, const AsSourceKey& k) {
      core::save_tagged_prefix(w, k.asn, k.source);
    }
    friend void load_elem(util::StateReader& r, AsSourceKey& k) {
      k.asn = core::load_tagged_prefix(r, k.source);
    }
  };
  struct AsSourceHash {
    std::size_t operator()(const AsSourceKey& k) const noexcept {
      return std::hash<net::Ipv6Prefix>{}(k.source) ^
             (static_cast<std::size_t>(k.asn) * 0x9E3779B97F4A7C15ULL);
    }
  };
  util::FlatMap<std::uint32_t, Acc, util::IntHash> by_as_;
  util::FlatSet<AsSourceKey, AsSourceHash> seen_;  ///< distinct (asn, source)
};

[[nodiscard]] std::vector<AsSources> fold_by_as(const std::vector<core::ScanEvent>& events);

/// §3.1 scan durations: quantiles over event durations in seconds.
struct DurationStats {
  double median_sec = 0;
  double p90_sec = 0;
  double max_sec = 0;
  std::size_t events = 0;
};

/// Streaming §3.1 durations: a 1-second-bin histogram spanning one
/// week (longer events land in the edge bin), so memory is bounded by
/// the distinct durations seen, never by the event count. Quantiles are
/// read back as the bin's lower bound — exact to 1 s for events up to a
/// week; the maximum is tracked exactly. The vector fold
/// duration_stats() stays exact (type-7 interpolated) because it has
/// all samples in hand; the two agree to bin resolution, which is what
/// the report paths use.
class DurationAnalyzer final : public Analyzer {
 public:
  DurationAnalyzer() : Analyzer("durations") {}

  [[nodiscard]] DurationStats stats() const;

  /// The nonzero bins in bin order, each as (bin, count).
  void save(util::StateWriter& w) const override;
  void load(util::StateReader& r) override;

 private:
  /// One bin per second for a week: 604800 bins — the timeout-carved
  /// events the detector emits essentially never span longer, and the
  /// edge bin plus the exact max cover those that do.
  static constexpr std::uint64_t kBins = 7 * 24 * 3600;

  void consume(const core::ScanEvent& ev) override;
  void merge_from(Analyzer& other) override;
  /// The nonzero bins as (bin, count), in bin order.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted_bins() const;

  /// Only the nonzero bins (bin -> count): a daemon shard publishes a
  /// delta analyzer per snapshot, and a dense week-wide array would be
  /// zero-filled and walked for each one.
  util::FlatMap<std::uint64_t, std::uint64_t, util::IntHash> bins_;
  std::size_t events_ = 0;
  double max_sec_ = 0;
};

[[nodiscard]] DurationStats duration_stats(const std::vector<core::ScanEvent>& events);

}  // namespace v6sonar::analysis
