// Table 3 — Top-10 targeted ports by share of scan packets, of scan
// events, and of /64 scan sources (the last two exclude AS #18, which
// holds ~80% of /64 sources and probes only TCP/22).
//
// Paper shape: no clear-cut dominant service; the packets column is
// led by TCP/22, 3389, 8443, 8080 around 3.3-3.5% each (AS #1's late
// port set); the scans column has ~20 ports in the 36-45% band; the
// /64-sources column is led by TCP/1433.

#include <cstdio>

#include "analysis/ports.hpp"
#include "common.hpp"
#include "util/table.hpp"

namespace {

using namespace v6sonar;

void print_table3() {
  benchx::banner("Table 3: top targeted ports (three rankings)",
                 "pkts: 22/3389/8443/8080 at 3.3-3.5%; scans: 22 45.3%, 23 43.6%; "
                 "/64s: 1433 59.5%, 22 44.2% (scans//64s exclude AS#18)");

  const benchx::WorldMeta meta;
  const std::uint32_t asn18 = meta.asn_of_rank(18);
  const auto events = benchx::load_events(64);

  const auto with_18 = analysis::top_ports(events, 10);
  const auto without_18 = analysis::top_ports(
      events, 10, [asn18](const core::ScanEvent& ev) { return ev.src_asn == asn18; });

  util::TextTable table(
      {"rank", "by pkts", "share", "by scans*", "share", "by /64s*", "share"});
  for (std::size_t i = 0; i < 10; ++i) {
    auto cell = [&](const std::vector<analysis::TopPortsRow>& rows, bool port)
        -> std::string {
      if (i >= rows.size()) return "-";
      return port ? "TCP/" + std::to_string(rows[i].port)
                  : util::percent(rows[i].share);
    };
    table.add_row({"#" + std::to_string(i + 1), cell(with_18.by_packets, true),
                   cell(with_18.by_packets, false), cell(without_18.by_scans, true),
                   cell(without_18.by_scans, false), cell(without_18.by_sources, true),
                   cell(without_18.by_sources, false)});
  }
  std::printf("%s\n(*) excluding AS#18, as in the paper's Section 3.3.\n",
              table.render().c_str());
}

}  // namespace

int main() {
  print_table3();
  return 0;
}
