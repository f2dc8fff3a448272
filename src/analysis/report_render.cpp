#include "analysis/report_render.hpp"

#include <algorithm>
#include <cstdio>

#include "util/table.hpp"

namespace v6sonar::analysis {

std::string render_source_table(const SourceAnalyzer& analyzer, std::size_t top, bool with_as) {
  std::string out;
  auto sources = analyzer.sources();
  std::sort(sources.begin(), sources.end(),
            [](const SourceReport& x, const SourceReport& y) { return x.packets > y.packets; });
  util::TextTable st(with_as
                         ? std::vector<std::string>{"source", "AS", "scans", "packets",
                                                    "max dsts/scan"}
                         : std::vector<std::string>{"source", "scans", "packets",
                                                    "max dsts/scan"});
  for (std::size_t i = 0; i < std::min(top, sources.size()); ++i) {
    const auto& s = sources[i];
    if (with_as)
      st.add_row({s.source.to_string(), std::to_string(s.asn), util::with_commas(s.scans),
                  util::with_commas(s.packets), util::with_commas(s.distinct_dsts_max)});
    else
      st.add_row({s.source.to_string(), util::with_commas(s.scans),
                  util::with_commas(s.packets), util::with_commas(s.distinct_dsts_max)});
  }
  out += st.render();
  if (sources.size() > top) appendf(out, "(+%zu more sources)\n", sources.size() - top);
  return out;
}

std::string render_top_sources(const ReportBundle& a, std::size_t top) {
  std::string out;
  const auto t = a.sources.totals();
  appendf(out, "%llu scans from %llu sources in %llu ASes (%llu packets attributed)\n",
          static_cast<unsigned long long>(t.scans), static_cast<unsigned long long>(t.sources),
          static_cast<unsigned long long>(t.ases), static_cast<unsigned long long>(t.packets));
  out += "\ntop sources by packets:\n";
  out += render_source_table(a.sources, top, /*with_as=*/true);
  return out;
}

std::string render_as_report(const ReportBundle& a, std::size_t top) {
  std::string out;
  auto by_as = a.by_as.by_as();
  std::stable_sort(by_as.begin(), by_as.end(), [](const AsSources& x, const AsSources& y) {
    return x.packets > y.packets;
  });
  out += "\ntop ASes by packets:\n";
  util::TextTable at({"AS", "packets", "sources", "scans"});
  for (std::size_t i = 0; i < std::min(top, by_as.size()); ++i) {
    const auto& r = by_as[i];
    at.add_row({std::to_string(r.asn), util::with_commas(r.packets),
                util::with_commas(r.sources), util::with_commas(r.scans)});
  }
  out += at.render();
  if (by_as.size() > top) appendf(out, "(+%zu more ASes)\n", by_as.size() - top);
  return out;
}

std::string render_top_ports(const ReportBundle& a) {
  std::string out;
  const auto tp = a.top_ports.result();
  const std::size_t port_rows =
      std::max({tp.by_packets.size(), tp.by_scans.size(), tp.by_sources.size()});
  out += "\ntop ports, ranked three ways:\n";
  util::TextTable tt({"rank", "by packets", "by scans", "by sources"});
  const auto port_cell = [](const std::vector<TopPortsRow>& rows, std::size_t i) {
    if (i >= rows.size()) return std::string{};
    return std::to_string(rows[i].port) + " (" + util::percent(rows[i].share) + ")";
  };
  for (std::size_t i = 0; i < port_rows; ++i)
    tt.add_row({std::to_string(i + 1), port_cell(tp.by_packets, i), port_cell(tp.by_scans, i),
                port_cell(tp.by_sources, i)});
  out += tt.render();
  return out;
}

std::string render_report(const ReportBundle& a, std::size_t top) {
  std::string out = render_top_sources(a, top);
  out += render_as_report(a, top);

  const auto d = a.durations.stats();
  appendf(out, "\nscan durations (%zu events): median %ss  p90 %ss  max %ss\n", d.events,
          util::fixed(d.median_sec, 1).c_str(), util::fixed(d.p90_sec, 1).c_str(),
          util::fixed(d.max_sec, 1).c_str());

  const auto pb = a.port_buckets.shares();
  out += "\nport targeting breadth (share of scans / sources / packets):\n";
  util::TextTable pt({"ports per scan", "scans", "sources", "packets"});
  for (int b = 0; b < 4; ++b)
    pt.add_row({std::string(to_string(static_cast<PortBucket>(b))), util::percent(pb.scans[b]),
                util::percent(pb.sources[b]), util::percent(pb.packets[b])});
  out += pt.render();

  out += render_top_ports(a);

  const auto weeks = a.timeseries.weekly();
  appendf(out, "\nweekly activity (%zu weeks): overall top-2 share %s, mean weekly top-2 %s\n",
          weeks.size(), util::percent(a.timeseries.overall_top_k(2)).c_str(),
          util::percent(a.timeseries.mean_weekly_top_k(2)).c_str());
  util::TextTable wt({"week", "active sources", "packets", "top1", "top2"});
  for (const auto& w : weeks)
    wt.add_row({std::to_string(w.week), util::with_commas(w.active_sources),
                util::with_commas(w.packets), util::percent(w.top1_share),
                util::percent(w.top2_share)});
  out += wt.render();

  const auto dns = a.dns.report();
  appendf(out, "\nDNS targeting: %zu sources, %s all-in-DNS, %s with >=1/3 not-in-DNS\n",
          dns.sources, util::percent(dns.all_in_dns_fraction).c_str(),
          util::percent(dns.third_not_in_dns_fraction).c_str());
  return out;
}

std::string render_blocklist(const std::vector<core::Attribution>& blocklist) {
  std::string out;
  util::TextTable table({"blocked prefix", "level", "packets", "covered sources"});
  for (const auto& a : blocklist) {
    // Built with += (not operator+) to dodge GCC 12's -Wrestrict false
    // positive on const char* + std::string&&.
    std::string level = "/";
    level += std::to_string(a.level);
    table.add_row({a.source.to_string(), std::move(level), util::with_commas(a.packets),
                   util::with_commas(a.children)});
  }
  out += table.render();
  return out;
}

}  // namespace v6sonar::analysis
