// Figure 7 (Appendix A.2) — MAWI: Hamming-weight distributions of
// target-address IIDs for selected scan sources and dates.
//
// Paper shape: AS #1's targets have low Hamming weight, with May 27,
// 2021 (hitlist-seeding day) even lower than May 28 (discovery mode);
// the July 6 ICMPv6 peak (AS #3) is similarly low; the December 24
// peak follows a perfect Gaussian around 32 — fully random IIDs.

#include <cstdio>

#include "analysis/hamming.hpp"
#include "common.hpp"
#include "mawi/world.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;
using util::CivilDate;

void print_fig7() {
  benchx::banner("Figure 7: Hamming weight of target IIDs (selected sources/days)",
                 "AS#1 May 27 < May 28, both low; Jul 6 low; Dec 24 Gaussian at 32");

  sim::AsRegistry registry;
  scanner::Hitlist hitlist({.seed = 3, .external_addresses = 20'000}, {});
  mawi::MawiWorld world({}, registry, hitlist);

  struct Case {
    const char* label;
    CivilDate date;
    net::Ipv6Prefix source;
  };
  const Case cases[] = {
      {"AS#1 2021-05-27 (seed day)", {2021, 5, 27}, world.as1_source64()},
      {"AS#1 2021-05-28 (discovery)", {2021, 5, 28}, world.as1_source64()},
      {"AS#3 2021-07-06 (ICMPv6 peak)", {2021, 7, 6}, world.jul6_source64()},
      {"cloud 2021-12-24 (ICMPv6 peak)", {2021, 12, 24}, world.dec24_source64()},
  };

  util::TextTable table({"source / day", "targets", "mean HW", "p10-p90 HW", "histogram"});
  for (const auto& c : cases) {
    analysis::TargetAnalysis ta({c.source}, 64);
    for (const auto& r : world.generate_day(mawi::day_index(c.date))) ta.feed(r);
    const auto& res = ta.results().at(c.source);

    // Compact sparkline over HW 0..64 in buckets of 8.
    std::string spark;
    std::uint64_t maxb = 1;
    std::uint64_t buckets[8] = {};
    for (int hw = 0; hw <= 64; ++hw) buckets[std::min(hw / 8, 7)] += res.hw_histogram[static_cast<std::size_t>(hw)];
    for (auto b : buckets) maxb = std::max(maxb, b);
    const char* levels = " .:-=+*#";
    for (auto b : buckets) spark += levels[b * 7 / maxb];

    // p10/p90 from the histogram.
    auto quantile_hw = [&](double q) {
      const std::uint64_t want =
          static_cast<std::uint64_t>(q * static_cast<double>(res.distinct_targets));
      std::uint64_t acc = 0;
      for (int hw = 0; hw <= 64; ++hw) {
        acc += res.hw_histogram[static_cast<std::size_t>(hw)];
        if (acc >= want) return hw;
      }
      return 64;
    };
    table.add_row({c.label, util::with_commas(res.distinct_targets),
                   util::fixed(analysis::TargetAnalysis::mean_hamming_weight(res), 1),
                   std::to_string(quantile_hw(0.1)) + "-" + std::to_string(quantile_hw(0.9)),
                   "[" + spark + "]"});
  }
  std::printf("%s\n", table.render().c_str());

  // Target closeness (§4): distinct targets per destination /64.
  analysis::TargetAnalysis close({world.as1_source64()}, 64);
  for (const auto& r : world.generate_day(300)) close.feed(r);
  std::printf("AS#1 median targets per destination /64: %.0f  (paper: 2)\n",
              analysis::TargetAnalysis::median_targets_per_dst64(
                  close.results().at(world.as1_source64())));
}

}  // namespace

int main() {
  print_fig7();
  return 0;
}
