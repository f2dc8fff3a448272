// Shared analyzer bundle + text renderers.
//
// One struct holds the full streaming analyzer set — one incremental
// analyzer per paper table, all foldable over a scan-event stream in
// bounded memory — and one family of renderers turns that state into
// the report text. Both the batch CLI (`detect --report`, `report`)
// and the v6sonard query plane build on this, so a daemon report is
// byte-identical to a batch run over the same events by construction:
// there is exactly one fold and exactly one formatter.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/dns_targeting.hpp"
#include "analysis/ports.hpp"
#include "analysis/reports.hpp"
#include "analysis/timeseries.hpp"
#include "core/adaptive.hpp"
#include "core/event_sink.hpp"

namespace v6sonar::analysis {

/// The full streaming analyzer bundle. Copyable and movable: the
/// daemon's snapshot seam publishes per-shard copies of this state,
/// and merge() is the rendezvous that folds them back together.
struct ReportBundle {
  SourceAnalyzer sources;
  AsAnalyzer by_as;
  DurationAnalyzer durations;
  TimeSeriesAnalyzer timeseries;
  PortBucketAnalyzer port_buckets;
  TopPortsAnalyzer top_ports;
  DnsTargetingAnalyzer dns;

  explicit ReportBundle(std::size_t top = 10) : top_ports(top) {}

  /// Hang every analyzer off one fan-out so a single pass over the
  /// event stream feeds every analysis.
  void attach(core::FanOutSink& fan) {
    fan.add(sources);
    fan.add(by_as);
    fan.add(durations);
    fan.add(timeseries);
    fan.add(port_buckets);
    fan.add(top_ports);
    fan.add(dns);
  }

  /// Fold one event into every analyzer without consuming it — the
  /// snapshot-publisher path, where the event continues downstream.
  void observe(const core::ScanEvent& ev) {
    sources.observe(ev);
    by_as.observe(ev);
    durations.observe(ev);
    timeseries.observe(ev);
    port_buckets.observe(ev);
    top_ports.observe(ev);
    dns.observe(ev);
  }

  /// Absorb another bundle's state, member-wise — per-shard bundles
  /// fold into one before rendering. Analyzer merge contracts apply
  /// (notably AsAnalyzer: merge shards in stream order).
  void merge(ReportBundle&& other) {
    sources.merge(std::move(other.sources));
    by_as.merge(std::move(other.by_as));
    durations.merge(std::move(other.durations));
    timeseries.merge(std::move(other.timeseries));
    port_buckets.merge(std::move(other.port_buckets));
    top_ports.merge(std::move(other.top_ports));
    dns.merge(std::move(other.dns));
  }

  /// Freeze/thaw, member-wise in declaration order (core::StateCodec
  /// contracts apply per analyzer: load onto a same-configured fresh
  /// bundle).
  void save(util::StateWriter& w) const {
    sources.save(w);
    by_as.save(w);
    durations.save(w);
    timeseries.save(w);
    port_buckets.save(w);
    top_ports.save(w);
    dns.save(w);
  }
  void load(util::StateReader& r) {
    sources.load(r);
    by_as.load(r);
    durations.load(r);
    timeseries.load(r);
    port_buckets.load(r);
    top_ports.load(r);
    dns.load(r);
  }
};

/// printf-style append, at most 255 bytes a call: the renderers build
/// one string, so the batch CLI and the daemon's wire responses share
/// every formatted byte.
template <typename... Args>
void appendf(std::string& out, const char* fmt, Args... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  if (n > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n), sizeof buf - 1));
}

/// Render the full report (sources, ASes, durations, ports, weekly,
/// DNS) exactly as `v6sonar detect --report` prints it.
[[nodiscard]] std::string render_report(const ReportBundle& a, std::size_t top);

/// Individual sections, for the daemon's narrower query verbs.
[[nodiscard]] std::string render_top_sources(const ReportBundle& a, std::size_t top);
/// The `top` sources by packets as a table (with an AS column when
/// `with_as`), then "(+N more sources)" when there are more.
[[nodiscard]] std::string render_source_table(const SourceAnalyzer& sources, std::size_t top,
                                              bool with_as);
[[nodiscard]] std::string render_top_ports(const ReportBundle& a);
[[nodiscard]] std::string render_as_report(const ReportBundle& a, std::size_t top);

/// Render an attribution set as the IDS blocklist table.
[[nodiscard]] std::string render_blocklist(const std::vector<core::Attribution>& blocklist);

}  // namespace v6sonar::analysis
