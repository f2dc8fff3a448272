// Figure 5 (Appendix A.2) — MAWI: daily scan sources for /128, /64,
// and /48 aggregation under both destination thresholds (100 = the
// paper's large-scale definition, 5 = Fukuda-Heidemann's original).
//
// Paper shape: relatively constant daily counts across 15 months at
// every aggregation; the threshold-5 curves sit more than an order of
// magnitude above the threshold-100 curves. Median large-scale scan
// sources per day: 6.

#include <cstdio>

#include "common.hpp"
#include "core/fh_detector.hpp"
#include "mawi/world.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;

void print_fig5() {
  benchx::banner("Figure 5: MAWI daily scan sources (aggregations x thresholds)",
                 "constant daily counts; threshold 5 sees >10x more sources than "
                 "threshold 100; median large-scale sources/day = 6");

  sim::AsRegistry registry;
  scanner::Hitlist hitlist({.seed = 3, .external_addresses = 20'000}, {});
  mawi::MawiWorld world({}, registry, hitlist);

  const int levels[] = {128, 64, 48};
  std::vector<double> per_day_100[3], per_day_5[3];
  util::TextTable table({"date", "/128 N=100", "/64 N=100", "/48 N=100", "/128 N=5",
                         "/64 N=5", "/48 N=5"});

  for (int d = 0; d < world.days(); ++d) {
    const auto recs = world.generate_day(d);
    std::size_t counts100[3], counts5[3];
    for (int li = 0; li < 3; ++li) {
      counts100[li] =
          core::fh_detect(recs, {.source_prefix_len = levels[li], .min_destinations = 100})
              .size();
      counts5[li] =
          core::fh_detect(recs, {.source_prefix_len = levels[li], .min_destinations = 5})
              .size();
      per_day_100[li].push_back(static_cast<double>(counts100[li]));
      per_day_5[li].push_back(static_cast<double>(counts5[li]));
    }
    if (d % 30 == 0) {
      const auto when = util::kWindowStart + static_cast<std::int64_t>(d) * util::kSecondsPerDay;
      table.add_row({util::format_date(when), std::to_string(counts100[0]),
                     std::to_string(counts100[1]), std::to_string(counts100[2]),
                     std::to_string(counts5[0]), std::to_string(counts5[1]),
                     std::to_string(counts5[2])});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("median daily /64 sources, N=100: %.0f (paper: 6); N=5: %.0f\n",
              util::median(per_day_100[1]), util::median(per_day_5[1]));
  std::printf("N=5 / N=100 source ratio: %.1fx (paper: >10x)\n",
              util::median(per_day_5[1]) / util::median(per_day_100[1]));
}

}  // namespace

int main() {
  print_fig5();
  return 0;
}
