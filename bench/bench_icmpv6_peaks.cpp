// §4 ICMPv6 scans in MAWI — prevalence and the two peak events.
//
// Paper: large-scale ICMPv6 scans on 342 of 439 days; on 236 days they
// are the majority of scan sources. July 6, 2021: a /124-clustered
// 7-source peak from the AS #3 cybersecurity network (noticed on
// NANOG). December 24, 2021: the largest peak, one /128 from a US
// cloud provider at 214 kpps visible.

#include <cstdio>

#include "common.hpp"
#include "core/fh_detector.hpp"
#include "mawi/world.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;

void print_peaks() {
  benchx::banner("Section 4: ICMPv6 scanning in MAWI",
                 "ICMPv6 scans on 342/439 days, majority of sources on 236 days; "
                 "peaks on Jul 6 (7 srcs, one /124) and Dec 24 (one /128, random IIDs)");

  sim::AsRegistry registry;
  scanner::Hitlist hitlist({.seed = 3, .external_addresses = 20'000}, {});
  mawi::MawiWorld world({}, registry, hitlist);

  int days_with_icmp = 0, days_icmp_majority = 0, days_total = 0;
  std::uint64_t jul6_pkts = 0, dec24_pkts = 0, typical_pkts = 0;
  int typical_days = 0;

  for (int d = 0; d < world.days(); ++d) {
    const auto recs = world.generate_day(d);
    const auto scans = core::fh_detect(recs, {.min_destinations = 100});
    ++days_total;
    std::size_t icmp = 0;
    std::uint64_t icmp_pkts = 0;
    for (const auto& s : scans) {
      icmp += s.icmpv6;
      if (s.icmpv6) icmp_pkts += s.packets;
    }
    if (icmp > 0) ++days_with_icmp;
    if (icmp * 2 > scans.size() && !scans.empty()) ++days_icmp_majority;
    if (d == mawi::day_index({2021, 7, 6}))
      jul6_pkts = icmp_pkts;
    else if (d == mawi::day_index({2021, 12, 24}))
      dec24_pkts = icmp_pkts;
    else {
      typical_pkts += icmp_pkts;
      ++typical_days;
    }
  }

  util::TextTable table({"metric", "measured", "paper"});
  table.add_row({"days with ICMPv6 scans",
                 std::to_string(days_with_icmp) + " / " + std::to_string(days_total),
                 "342 / 439"});
  table.add_row({"days ICMPv6 sources are majority", std::to_string(days_icmp_majority),
                 "236"});
  table.add_row({"Jul 6 ICMPv6 scan packets (window)", util::with_commas(jul6_pkts),
                 "first large peak"});
  table.add_row({"Dec 24 ICMPv6 scan packets (window)", util::with_commas(dec24_pkts),
                 "by-far largest (214 kpps)"});
  table.add_row({"typical day ICMPv6 scan packets",
                 util::with_commas(typical_days ? typical_pkts / static_cast<std::uint64_t>(
                                                                     typical_days)
                                                : 0),
                 "(low baseline)"});
  std::printf("%s\n", table.render().c_str());
  std::printf("Dec 24 rate at the vantage point: %.0f pps over the 15-min window\n",
              static_cast<double>(dec24_pkts) / 900.0);
  std::printf("(the simulator thins the paper's 214 kpps; the *ratio* to normal\n"
              " days is what the figure reproduces)\n");
}

}  // namespace

int main() {
  print_peaks();
  return 0;
}
