#include "analysis/reports.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace v6sonar::analysis {

void SourceAnalyzer::consume(const core::ScanEvent& ev) {
  auto& s = by_source_[ev.source];
  s.asn = ev.src_asn;  // last event wins, as in the vector fold
  ++s.scans;
  s.packets += ev.packets;
  s.dsts_max = std::max<std::uint64_t>(s.dsts_max, ev.distinct_dsts);
  ++scans_;
  packets_ += ev.packets;
  if (ev.src_asn != 0) ases_.insert(ev.src_asn);
}

void SourceAnalyzer::merge_from(Analyzer& other_base) {
  auto& other = dynamic_cast<SourceAnalyzer&>(other_base);
  other.by_source_.for_each([&](const net::Ipv6Prefix& src, const Acc& o) {
    auto& s = by_source_[src];
    s.asn = o.asn;  // other wins, matching last-event-wins in stream order
    s.scans += o.scans;
    s.packets += o.packets;
    s.dsts_max = std::max(s.dsts_max, o.dsts_max);
  });
  other.ases_.for_each([&](std::uint32_t asn) { ases_.insert(asn); });
  scans_ += other.scans_;
  packets_ += other.packets_;
}

std::vector<SourceReport> SourceAnalyzer::sources() const {
  std::vector<SourceReport> out;
  out.reserve(by_source_.size());
  by_source_.for_each([&](const net::Ipv6Prefix& src, const Acc& a) {
    out.push_back({src, a.asn, a.scans, a.packets, a.dsts_max});
  });
  std::sort(out.begin(), out.end(),
            [](const SourceReport& a, const SourceReport& b) { return a.source < b.source; });
  return out;
}

AggregateTotals SourceAnalyzer::totals() const {
  return {scans_, packets_, by_source_.size(), ases_.size()};
}

void SourceAnalyzer::save(util::StateWriter& w) const {
  util::save_flat(w, by_source_);
  util::save_flat(w, ases_);
  w.u64(scans_);
  w.u64(packets_);
}

void SourceAnalyzer::load(util::StateReader& r) {
  if (scans_ != 0 || !by_source_.empty())
    throw std::runtime_error("SourceAnalyzer::load: analyzer already fed");
  util::load_flat(r, by_source_);
  util::load_flat(r, ases_);
  scans_ = r.u64();
  packets_ = r.u64();
}

std::vector<SourceReport> fold_sources(const std::vector<core::ScanEvent>& events) {
  SourceAnalyzer a;
  for (const auto& ev : events) a.observe(ev);
  a.flush();
  return a.sources();
}

AggregateTotals totals(const std::vector<core::ScanEvent>& events) {
  SourceAnalyzer a;
  for (const auto& ev : events) a.observe(ev);
  a.flush();
  return a.totals();
}

void AsAnalyzer::consume(const core::ScanEvent& ev) {
  auto& a = by_as_[ev.src_asn];
  a.packets += ev.packets;
  ++a.scans;
  if (seen_.insert({ev.src_asn, ev.source})) ++a.sources;
}

void AsAnalyzer::merge_from(Analyzer& other_base) {
  auto& other = dynamic_cast<AsAnalyzer&>(other_base);
  other.by_as_.for_each([&](std::uint32_t asn, const Acc& o) {
    auto& a = by_as_[asn];
    a.packets += o.packets;
    a.scans += o.scans;
  });
  // Distinct (asn, source) pairs union through the same insert that
  // consume() uses, so per-AS source counts stay exact even when both
  // sides saw the same source.
  other.seen_.for_each([&](const AsSourceKey& k) {
    if (seen_.insert(k)) ++by_as_[k.asn].sources;
  });
}

std::vector<AsSources> AsAnalyzer::by_as() const {
  std::vector<AsSources> out;
  out.reserve(by_as_.size());
  by_as_.for_each([&](std::uint32_t asn, const Acc& a) {
    out.push_back({asn, a.packets, a.sources, a.scans});
  });
  std::sort(out.begin(), out.end(),
            [](const AsSources& a, const AsSources& b) { return a.asn < b.asn; });
  return out;
}

void AsAnalyzer::save(util::StateWriter& w) const {
  util::save_flat(w, by_as_);
  util::save_flat(w, seen_);
}

void AsAnalyzer::load(util::StateReader& r) {
  if (!by_as_.empty()) throw std::runtime_error("AsAnalyzer::load: analyzer already fed");
  util::load_flat(r, by_as_);
  util::load_flat(r, seen_);
}

std::vector<AsSources> fold_by_as(const std::vector<core::ScanEvent>& events) {
  AsAnalyzer a;
  for (const auto& ev : events) a.observe(ev);
  a.flush();
  return a.by_as();
}

void DurationAnalyzer::consume(const core::ScanEvent& ev) {
  const double sec = ev.duration_sec();
  hist_.add(static_cast<std::size_t>(sec));
  ++events_;
  max_sec_ = std::max(max_sec_, sec);
}

void DurationAnalyzer::merge_from(Analyzer& other_base) {
  auto& other = dynamic_cast<DurationAnalyzer&>(other_base);
  hist_.merge(other.hist_);
  events_ += other.events_;
  max_sec_ = std::max(max_sec_, other.max_sec_);
}

DurationStats DurationAnalyzer::stats() const {
  DurationStats d;
  d.events = events_;
  if (events_ == 0) return d;
  // Bin-resolution quantile: the type-7 rank is h = (n-1)q; the value
  // at that rank lies in the first bin whose cumulative count exceeds
  // floor(h) — report that bin's lower bound (whole seconds).
  const auto bin_quantile = [this](double q) {
    const auto rank =
        static_cast<std::uint64_t>(std::floor(static_cast<double>(events_ - 1) * q));
    std::uint64_t cum = 0;
    const auto& counts = hist_.counts();
    for (std::size_t b = 0; b < counts.size(); ++b) {
      cum += counts[b];
      if (cum > rank) return static_cast<double>(b);
    }
    return static_cast<double>(hist_.bins() - 1);
  };
  d.median_sec = bin_quantile(0.5);
  d.p90_sec = bin_quantile(0.9);
  d.max_sec = max_sec_;
  return d;
}

void DurationAnalyzer::save(util::StateWriter& w) const {
  w.u64(events_);
  w.f64(max_sec_);
  const auto& counts = hist_.counts();
  std::uint64_t nonzero = 0;
  for (const auto c : counts) nonzero += c != 0;
  w.u64(nonzero);
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    w.u32(static_cast<std::uint32_t>(b));
    w.u64(counts[b]);
  }
}

void DurationAnalyzer::load(util::StateReader& r) {
  if (events_ != 0) throw std::runtime_error("DurationAnalyzer::load: analyzer already fed");
  events_ = r.u64();
  max_sec_ = r.f64();
  const std::uint64_t nonzero = r.count(12);
  for (std::uint64_t i = 0; i < nonzero; ++i) {
    const std::uint32_t bin = r.u32();
    if (bin >= kBins) throw std::runtime_error("DurationAnalyzer::load: bin out of range");
    hist_.add(bin, r.u64());
  }
}

DurationStats duration_stats(const std::vector<core::ScanEvent>& events) {
  // Exact (type-7 interpolated) quantiles need every sample in hand,
  // so this one stays a direct fold rather than an analyzer replay;
  // DurationAnalyzer is the bounded-memory counterpart.
  DurationStats d;
  d.events = events.size();
  if (events.empty()) return d;
  std::vector<double> secs;
  secs.reserve(events.size());
  for (const auto& ev : events) secs.push_back(ev.duration_sec());
  d.median_sec = util::quantile(secs, 0.5);
  d.p90_sec = util::quantile(secs, 0.9);
  d.max_sec = util::quantile(secs, 1.0);
  return d;
}

}  // namespace v6sonar::analysis
