// §3.1 Scan durations — per aggregation level.
//
// Paper: /128 median 94 s (short rotating-source bursts), longest
// >128 days; /64 median 2.7 h; /48 median 3.4 h.

#include <cstdio>

#include "analysis/reports.hpp"
#include "common.hpp"
#include "util/table.hpp"

namespace {

using namespace v6sonar;

std::string human_duration(double sec) {
  char buf[48];
  if (sec < 120)
    std::snprintf(buf, sizeof buf, "%.0f s", sec);
  else if (sec < 2 * 3'600)
    std::snprintf(buf, sizeof buf, "%.1f min", sec / 60);
  else if (sec < 2 * 86'400)
    std::snprintf(buf, sizeof buf, "%.1f h", sec / 3'600);
  else
    std::snprintf(buf, sizeof buf, "%.1f days", sec / 86'400);
  return buf;
}

void print_durations() {
  benchx::banner("Section 3.1: scan durations per aggregation",
                 "/128 median 94 s, longest >128 days; /64 median 2.7 h; /48 3.4 h");

  util::TextTable table({"aggregation", "events", "median", "p90", "longest"});
  for (int len : {128, 64, 48}) {
    const auto d = analysis::duration_stats(benchx::load_events(len));
    table.add_row({"/" + std::to_string(len), util::with_commas(d.events),
                   human_duration(d.median_sec), human_duration(d.p90_sec),
                   human_duration(d.max_sec)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main() {
  print_durations();
  return 0;
}
