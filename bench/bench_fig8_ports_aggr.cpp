// Figure 8 (Appendix A.3) — Ports targeted per scan at /128 (no
// aggregation) and /48 (heavy aggregation).
//
// Paper shape: the "most packets come from multi-port scans" statement
// holds at every aggregation; without aggregation the number of
// single-port *scans* rises sharply (one entity scanning ports in
// distinct episodes); /48 aggregation shifts more sources into the
// >100-ports class (distinct entities merged together).

#include <cstdio>

#include "analysis/ports.hpp"
#include "common.hpp"
#include "util/table.hpp"

namespace {

using namespace v6sonar;

void print_fig8() {
  benchx::banner("Figure 8: ports per scan at /128 and /48 aggregation",
                 "multi-port dominance of packets holds at all aggregations; "
                 "single-port scan count rises without aggregation");

  for (int len : {128, 48}) {
    const auto events = benchx::load_events(len);
    const auto shares = analysis::port_bucket_shares(events);
    std::printf("--- /%d aggregation (%llu scans) ---\n", len,
                static_cast<unsigned long long>(shares.total_scans));
    util::TextTable table({"ports per scan", "% scans", "% sources", "% packets"});
    for (int b = 0; b < 4; ++b) {
      table.add_row({std::string(analysis::to_string(static_cast<analysis::PortBucket>(b))),
                     util::percent(shares.scans[b]), util::percent(shares.sources[b]),
                     util::percent(shares.packets[b])});
    }
    std::printf("%s\n", table.render().c_str());
  }

  const auto s128 = analysis::port_bucket_shares(benchx::load_events(128));
  const auto s48 = analysis::port_bucket_shares(benchx::load_events(48));
  std::printf("multi-port packet share: /128 %s vs /48 %s (both dominant)\n",
              util::percent(1 - s128.packets[0]).c_str(),
              util::percent(1 - s48.packets[0]).c_str());
}

}  // namespace

int main() {
  print_fig8();
  return 0;
}
