// Port-targeting analyses (§3.3, Figs. 4 and 8, Table 3).
//
// PortBucketAnalyzer / TopPortsAnalyzer are the incremental cores
// (core::EventSinks); the vector entry points replay through them
// (see analyzer.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/scan_event.hpp"
#include "net/prefix.hpp"
#include "util/flat_hash.hpp"

namespace v6sonar::analysis {

/// Footnote-9 classification of a scan by the fraction f of its
/// packets hitting its most common port:
///   f > 0.5    -> single port
///   f > 0.09   -> fewer than 10 ports
///   f > 0.009  -> fewer than 100 ports
///   otherwise  -> more than 100 ports.
enum class PortBucket { kSingle, kUnder10, kUnder100, kOver100 };

[[nodiscard]] PortBucket classify_ports(const core::ScanEvent& ev) noexcept;
[[nodiscard]] std::string_view to_string(PortBucket b) noexcept;

/// Fig. 4 / Fig. 8 rows: per bucket, the share of scans, of distinct
/// scan sources, and of scan packets.
struct PortBucketShares {
  double scans[4] = {};
  double sources[4] = {};
  double packets[4] = {};
  std::uint64_t total_scans = 0;
};

/// Streaming bucket fold: four counters plus one flat map of
/// source -> widest bucket exhibited.
class PortBucketAnalyzer final : public Analyzer {
 public:
  PortBucketAnalyzer() : Analyzer("port_buckets") {}

  [[nodiscard]] PortBucketShares shares() const;

  void save(util::StateWriter& w) const override;
  void load(util::StateReader& r) override;

 private:
  void consume(const core::ScanEvent& ev) override;
  void merge_from(Analyzer& other) override;

  std::uint64_t scans_[4] = {};
  std::uint64_t packets_[4] = {};
  std::uint64_t total_scans_ = 0;
  std::uint64_t total_packets_ = 0;
  util::FlatMap<net::Ipv6Prefix, std::uint32_t> source_bucket_;
};

[[nodiscard]] PortBucketShares port_bucket_shares(const std::vector<core::ScanEvent>& events);

/// Table 3: top ports ranked three ways. `exclude` (optional) removes
/// events (e.g. AS #18's, which §3.3 reports separately because it
/// holds 80% of /64 sources).
struct TopPortsRow {
  std::uint16_t port = 0;
  double share = 0;  ///< meaning depends on the ranking
};

struct TopPorts {
  std::vector<TopPortsRow> by_packets;  ///< share of all scan packets
  std::vector<TopPortsRow> by_scans;    ///< share of scans targeting the port
  std::vector<TopPortsRow> by_sources;  ///< share of sources targeting the port
};

/// Streaming Table-3 fold: per-port packet/scan/source counters in one
/// flat map, with (port, source) distinctness tracked in a flat set.
class TopPortsAnalyzer final : public Analyzer {
 public:
  explicit TopPortsAnalyzer(std::size_t n,
                            std::function<bool(const core::ScanEvent&)> exclude = {})
      : Analyzer("top_ports"), n_(n), exclude_(std::move(exclude)) {}

  [[nodiscard]] TopPorts result() const;

  /// The exclude predicate is opaque and NOT serialized; load()
  /// requires the thawed instance to be constructed with the same
  /// predicate presence (and, by the StateCodec contract, semantics).
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
  struct PortSourceKey {
    std::uint32_t port = 0;
    net::Ipv6Prefix source;
    friend bool operator==(const PortSourceKey&, const PortSourceKey&) = default;
    friend void save_elem(util::StateWriter& w, const PortSourceKey& k) {
      core::save_tagged_prefix(w, k.port, k.source);
    }
    friend void load_elem(util::StateReader& r, PortSourceKey& k) {
      k.port = core::load_tagged_prefix(r, k.source);
    }
  };
  struct PortSourceHash {
    std::size_t operator()(const PortSourceKey& k) const noexcept {
      return std::hash<net::Ipv6Prefix>{}(k.source) ^
             (static_cast<std::size_t>(k.port) * 0x9E3779B97F4A7C15ULL);
    }
  };

  std::size_t n_;
  std::function<bool(const core::ScanEvent&)> exclude_;
  util::FlatMap<std::uint32_t, Acc, util::IntHash> by_port_;
  util::FlatSet<PortSourceKey, PortSourceHash> port_source_seen_;
  util::FlatSet<net::Ipv6Prefix> all_sources_;
  std::uint64_t total_packets_ = 0;
  std::uint64_t total_scans_ = 0;
};

[[nodiscard]] TopPorts top_ports(const std::vector<core::ScanEvent>& events, std::size_t n,
                                 const std::function<bool(const core::ScanEvent&)>& exclude = {});

}  // namespace v6sonar::analysis
