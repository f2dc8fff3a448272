// Table 2 — Top-20 source ASes by scan packets, with per-AS source
// counts at /48, /64, and /128 aggregation.
//
// Paper shape to reproduce: two CN datacenters on top with ~39% and
// ~35% of packets; top-5 ASes ~93%, top-10 >99%; AS #18 shows ~1,000
// /48//64//128 sources with /48s exceeding /64s; mostly datacenter /
// cloud networks, no residential ISPs.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "analysis/reports.hpp"
#include "common.hpp"
#include "util/table.hpp"

namespace {

using namespace v6sonar;

void print_table2() {
  benchx::banner("Table 2: top-20 source ASes by scan packets",
                 "#1 Datacenter(CN) 839M (39.2%), #2 Datacenter(CN) 744M (34.8%), "
                 "#3 Cybersecurity(US) 275M (12.9%); AS#18: 1,092 /48s > 1,057 /64s");

  const benchx::WorldMeta meta;
  const auto at128 = benchx::load_events(128);
  const auto at64 = benchx::load_events(64);
  const auto at48 = benchx::load_events(48);

  const auto by_as64 = analysis::fold_by_as(at64);
  const auto by_as48 = analysis::fold_by_as(at48);
  const auto by_as128 = analysis::fold_by_as(at128);

  // Rank by paper-equivalent (re-weighted) packets at /64.
  std::vector<std::pair<double, std::uint32_t>> ranked;
  double total_eq = 0;
  for (const auto& a : by_as64) {
    const double eq = meta.paper_equivalent(a.asn, a.packets);
    ranked.push_back({eq, a.asn});
    total_eq += eq;
  }
  std::sort(ranked.rbegin(), ranked.rend());

  util::TextTable table({"rank", "AS type", "packets(eq)", "share", "/48s", "/64s", "/128s"});
  double top5 = 0, top10 = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(20, ranked.size()); ++i) {
    const auto [eq, asn] = ranked[i];
    if (i < 5) top5 += eq;
    if (i < 10) top10 += eq;
    const auto* info = meta.registry().find(asn);
    const std::string label = info ? std::string(sim::to_string(info->type)) + " (" +
                                         info->country + ")"
                                   : "AS" + std::to_string(asn);
    auto count_of = [&](const std::vector<analysis::AsSources>& rows) {
      // Rows are sorted by ASN.
      const auto it = std::lower_bound(
          rows.begin(), rows.end(), asn,
          [](const analysis::AsSources& r, std::uint32_t key) { return r.asn < key; });
      return it == rows.end() || it->asn != asn ? std::uint64_t{0} : it->sources;
    };
    table.add_row({"#" + std::to_string(i + 1), label,
                   util::compact_count(static_cast<std::uint64_t>(eq)),
                   util::percent(eq / total_eq), util::with_commas(count_of(by_as48)),
                   util::with_commas(count_of(by_as64)),
                   util::with_commas(count_of(by_as128))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("top-5 AS packet share:  %s   (paper: 92.8%%)\n",
              util::percent(top5 / total_eq).c_str());
  std::printf("top-10 AS packet share: %s   (paper: >99%%)\n",
              util::percent(top10 / total_eq).c_str());
  std::printf("('packets(eq)' re-weights each actor's simulated volume by its\n"
              " configured thinning factor; raw counts come from the detector.)\n");
}

}  // namespace

int main() {
  print_table2();
  return 0;
}
