// Figure 3 — Weekly scan packets (/64 aggregation) and the share of
// the top two sources.
//
// Paper shape: the top-2 weekly sources carry ~92% of scan packets on
// average; over the whole window the two most active sources account
// for ~70%; scan traffic from the remaining sources grows in early
// 2022.

#include <cstdio>

#include "analysis/timeseries.hpp"
#include "common.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;

void print_fig3() {
  benchx::banner("Figure 3: weekly scan packets and top-2 source share (/64)",
                 "top-2 weekly share ~92% on average; top-2 overall ~70% of all "
                 "scan traffic");

  const auto events = benchx::load_events(64);
  const auto series = analysis::weekly_series(events);

  util::TextTable table({"week of", "packets", "top-1", "top-2", "rest"});
  for (std::size_t i = 0; i < series.size(); i += 4) {
    const auto& p = series[i];
    const auto when = util::kWindowStart + static_cast<std::int64_t>(p.week) * util::kSecondsPerWeek;
    table.add_row({util::format_date(when), util::with_commas(p.packets),
                   util::percent(p.top1_share), util::percent(p.top2_share),
                   util::percent(1.0 - p.top2_share)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("raw (thinned) shares:   weekly top-2 %s, overall top-2 %s\n",
              util::percent(analysis::mean_weekly_top_k_share(events, 2)).c_str(),
              util::percent(analysis::overall_top_k_share(events, 2)).c_str());

  // The megascanners are thinned 64x while burst-structured actors are
  // not, which deflates raw concentration. Reweighting each event by
  // its actor's configured thinning factor restores the paper-window
  // shares.
  const benchx::WorldMeta meta;
  auto reweighted = events;
  for (auto& ev : reweighted) {
    const double eq = meta.paper_equivalent(ev.src_asn, ev.packets);
    ev.packets = static_cast<std::uint64_t>(eq);
    for (auto& [week, pkts] : ev.weekly_packets)
      pkts = static_cast<std::uint64_t>(meta.paper_equivalent(ev.src_asn, pkts));
  }
  std::printf("paper-equivalent:       weekly top-2 %s (paper ~92%%), overall top-2 %s "
              "(paper ~70%%)\n",
              util::percent(analysis::mean_weekly_top_k_share(reweighted, 2)).c_str(),
              util::percent(analysis::overall_top_k_share(reweighted, 2)).c_str());

  // The early-2022 growth of the non-top-2 remainder.
  double rest_2021 = 0, rest_2022 = 0;
  std::size_t n21 = 0, n22 = 0;
  for (const auto& p : series) {
    const double rest = static_cast<double>(p.packets) * (1.0 - p.top2_share);
    if (p.week < 52) {
      rest_2021 += rest;
      ++n21;
    } else {
      rest_2022 += rest;
      ++n22;
    }
  }
  if (n21 && n22)
    std::printf("mean weekly non-top-2 packets 2021: %.0f, 2022: %.0f\n",
                rest_2021 / static_cast<double>(n21), rest_2022 / static_cast<double>(n22));
}

}  // namespace

int main() {
  print_fig3();
  return 0;
}
