// Figure 2 — Weekly active scan sources at /128, /64, and /48
// aggregation over the 15-month window.
//
// Paper shape: /64 and /48 curves are flat in the 10-100 band (median
// weekly /64 sources: 22); the /128 curve sits higher and jumps by
// roughly an order of magnitude from November 2021 (a single entity,
// AS #9, varying its low source bits).

#include <cstdio>

#include "analysis/timeseries.hpp"
#include "common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;

void print_fig2() {
  benchx::banner("Figure 2: weekly active scan sources per aggregation",
                 "flat 10-100 band for /64 and /48 (median /64 = 22); strong /128 "
                 "uptick from Nov 2021 caused by AS #9");

  std::vector<std::vector<analysis::WeekPoint>> series;
  for (int len : {128, 64, 48}) series.push_back(analysis::weekly_series(benchx::load_events(len)));

  util::TextTable table({"week of", "/128 srcs", "/64 srcs", "/48 srcs"});
  // Index series by week for aligned printing (every 4th week).
  auto at = [&](std::size_t s, std::int32_t week) -> std::uint64_t {
    for (const auto& p : series[s])
      if (p.week == week) return p.active_sources;
    return 0;
  };
  for (std::int32_t week = 0; week < util::kWindowWeeks; week += 4) {
    const auto when = util::kWindowStart + static_cast<std::int64_t>(week) * util::kSecondsPerWeek;
    table.add_row({util::format_date(when), util::with_commas(at(0, week)),
                   util::with_commas(at(1, week)), util::with_commas(at(2, week))});
  }
  std::printf("%s\n", table.render().c_str());

  std::vector<double> weekly64;
  for (const auto& p : series[1]) weekly64.push_back(static_cast<double>(p.active_sources));
  std::printf("median weekly /64 sources: %.0f   (paper: 22)\n", util::median(weekly64));

  // The Nov-2021 /128 uptick, quantified.
  double before = 0, after = 0;
  std::size_t nb = 0, na = 0;
  for (const auto& p : series[0]) {
    (p.week < 43 ? before : after) += static_cast<double>(p.active_sources);
    ++(p.week < 43 ? nb : na);
  }
  std::printf("mean weekly /128 sources before Nov 2021: %.0f, after: %.0f (%.1fx)\n",
              before / static_cast<double>(nb), after / static_cast<double>(na),
              (after / static_cast<double>(na)) / (before / static_cast<double>(nb)));
}

}  // namespace

int main() {
  print_fig2();
  return 0;
}
