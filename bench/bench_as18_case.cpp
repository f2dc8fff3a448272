// §3.2 case study — the AS #18 /32-spreading scanner: what each
// aggregation level reveals.
//
// Paper: 1,092 /48 sources, 1,057 /64 sources, 1,057 /128s; applying
// the scan definition to the aggregate /32 yields 1.9M packets — more
// than three times the 0.6M attributed through /48-level detection,
// because many /48s individually stay under 100 destinations.

#include <cstdio>
#include <set>

#include "analysis/reports.hpp"
#include "common.hpp"
#include "util/table.hpp"

namespace {

using namespace v6sonar;

void print_as18() {
  benchx::banner("Section 3.2 case study: AS #18 across aggregation levels",
                 "1,092 /48s > 1,057 /64s = 1,057 /128s; /32 aggregation reveals "
                 "1.9M packets vs 0.6M at /48 (>3x)");

  const benchx::WorldMeta meta;
  const std::uint32_t asn18 = meta.asn_of_rank(18);

  util::TextTable table({"aggregation", "sources", "scans", "packets"});
  std::uint64_t p48 = 0, p32 = 0;
  for (int len : benchx::kLevels) {
    std::set<net::Ipv6Prefix> sources;
    std::uint64_t scans = 0, packets = 0;
    for (const auto& ev : benchx::load_events(len)) {
      if (ev.src_asn != asn18) continue;
      sources.insert(ev.source);
      ++scans;
      packets += ev.packets;
    }
    if (len == 48) p48 = packets;
    if (len == 32) p32 = packets;
    table.add_row({"/" + std::to_string(len), util::with_commas(sources.size()),
                   util::with_commas(scans), util::with_commas(packets)});
  }
  std::printf("%s\n", table.render().c_str());
  if (p48)
    std::printf("/32 packets vs /48-detected packets: %.1fx  (paper: >3x)\n",
                static_cast<double>(p32) / static_cast<double>(p48));
}

}  // namespace

int main() {
  print_as18();
  return 0;
}
