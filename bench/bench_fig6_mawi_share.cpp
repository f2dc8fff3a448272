// Figure 6 (Appendix A.2) — MAWI: daily scan packets and the share of
// the top-1/2/3 scan sources.
//
// Paper shape: scan traffic is heavily concentrated; the single most
// active source dominates almost every day and contributes 92.8% of
// all scan packets over the window (confirmed to be the same AS #1
// entity the CDN sees).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/fh_detector.hpp"
#include "mawi/world.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;

void print_fig6() {
  benchx::banner("Figure 6: MAWI daily scan packets and top-k source share",
                 "top source contributes 92.8% of all scan packets and dominates "
                 "almost all days; it is the CDN's AS #1");

  sim::AsRegistry registry;
  scanner::Hitlist hitlist({.seed = 3, .external_addresses = 20'000}, {});
  mawi::MawiWorld world({}, registry, hitlist);

  util::TextTable table({"date", "scan pkts", "top-1", "top-2", "top-3"});
  std::uint64_t total_packets = 0, as1_packets = 0;
  int as1_top_days = 0, days_with_scans = 0;

  for (int d = 0; d < world.days(); ++d) {
    const auto recs = world.generate_day(d);
    const auto scans = core::fh_detect(recs, {.min_destinations = 100});
    if (scans.empty()) continue;
    ++days_with_scans;
    std::vector<std::uint64_t> pkts;
    std::uint64_t day_total = 0;
    const core::FhScan* top = nullptr;
    for (const auto& s : scans) {
      pkts.push_back(s.packets);
      day_total += s.packets;
      if (!top || s.packets > top->packets) top = &s;
      total_packets += s.packets;
      if (s.source == world.as1_source64()) as1_packets += s.packets;
    }
    if (top && top->source == world.as1_source64()) ++as1_top_days;
    std::sort(pkts.rbegin(), pkts.rend());
    auto share = [&](std::size_t k) {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < std::min(k, pkts.size()); ++i) sum += pkts[i];
      return util::percent(static_cast<double>(sum) / static_cast<double>(day_total));
    };
    if (d % 30 == 0) {
      const auto when = util::kWindowStart + static_cast<std::int64_t>(d) * util::kSecondsPerDay;
      table.add_row({util::format_date(when), util::with_commas(day_total), share(1),
                     share(2), share(3)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("AS #1 share of all MAWI scan packets: %s  (paper: 92.8%%)\n",
              util::percent(static_cast<double>(as1_packets) /
                            static_cast<double>(total_packets)).c_str());
  std::printf("days where AS #1 is the top source: %d of %d with scans\n", as1_top_days,
              days_with_scans);
}

}  // namespace

int main() {
  print_fig6();
  return 0;
}
