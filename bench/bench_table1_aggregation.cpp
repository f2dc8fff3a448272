// Table 1 — Detected scans over the measurement window at /128, /64,
// and /48 source aggregation: scans, packets, sources, ASes.
//
// Paper (Jan 2021 - Mar 2022, 2.15B packets):
//   /128: 65,485 scans, 2.04B pkts, 3,542 sources, 55 ASes
//   /64:   5,199 scans, 2.14B pkts, 1,326 sources, 62 ASes
//   /48:   5,019 scans, 2.15B pkts, 1,372 sources, 76 ASes
// Shape to reproduce: scans collapse ~12x from /128 to /64 and dip
// again at /48; packets *grow* with coarser aggregation; /48 sources
// exceed /64 sources; AS count rises with coarser aggregation.

#include <cstdio>

#include "analysis/reports.hpp"
#include "common.hpp"
#include "util/table.hpp"

namespace {

using namespace v6sonar;

void print_table1() {
  benchx::banner("Table 1: scan totals per source aggregation",
                 "/128: 65,485 scans / 3,542 srcs / 55 ASes; /64: 5,199 / 1,326 / 62; "
                 "/48: 5,019 / 1,372 / 76; packets rise 2.04B -> 2.15B");

  util::TextTable table({"aggregation", "scans", "packets", "sources", "ASes"});
  for (int len : {128, 64, 48}) {
    const auto events = benchx::load_events(len);
    const auto t = analysis::totals(events);
    table.add_row({"/" + std::to_string(len), util::with_commas(t.scans),
                   util::with_commas(t.packets), util::with_commas(t.sources),
                   util::with_commas(t.ases)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(Packet counts are thinned; see bench_table2_top_ases for\n"
              " per-actor paper-equivalent volumes.)\n");
}

}  // namespace

int main() {
  print_table1();
  return 0;
}
