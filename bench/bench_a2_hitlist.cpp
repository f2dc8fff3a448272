// Appendix A.2 — Hitlist overlap of MAWI scan targets.
//
// Paper: AS #1's targets have almost no overlap with the public IPv6
// hitlist — except May 27, 2021 (99.2% overlap, unique destinations
// dropping from 50k+ to 2.3k: a seeding run over known-active
// addresses, right when the port strategy changed). The Jul 6 and
// Dec 24 peaks have no hitlist overlap.

#include <cstdio>
#include <unordered_set>

#include "common.hpp"
#include "mawi/world.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;
using util::CivilDate;

void print_a2() {
  benchx::banner("Appendix A.2: hitlist overlap of MAWI scan targets",
                 "AS#1 near-zero overlap except May 27, 2021: 99.2% with unique "
                 "dsts dropping to 2.3k; peaks have no overlap");

  sim::AsRegistry registry;
  scanner::Hitlist hitlist({.seed = 3, .external_addresses = 20'000}, {});
  mawi::MawiWorld world({}, registry, hitlist);

  struct Case {
    const char* label;
    CivilDate date;
    net::Ipv6Prefix source;
  };
  const Case cases[] = {
      {"AS#1 2021-03-15", {2021, 3, 15}, world.as1_source64()},
      {"AS#1 2021-05-26", {2021, 5, 26}, world.as1_source64()},
      {"AS#1 2021-05-27 (seed day)", {2021, 5, 27}, world.as1_source64()},
      {"AS#1 2021-05-28", {2021, 5, 28}, world.as1_source64()},
      {"AS#1 2022-01-15", {2022, 1, 15}, world.as1_source64()},
      {"AS#3 2021-07-06 (peak)", {2021, 7, 6}, world.jul6_source64()},
      {"cloud 2021-12-24 (peak)", {2021, 12, 24}, world.dec24_source64()},
  };

  util::TextTable table({"source / day", "unique dsts", "hitlist overlap"});
  for (const auto& c : cases) {
    std::unordered_set<net::Ipv6Address> dsts;
    for (const auto& r : world.generate_day(mawi::day_index(c.date)))
      if (c.source.contains(r.src)) dsts.insert(r.dst);
    const std::vector<net::Ipv6Address> targets(dsts.begin(), dsts.end());
    table.add_row({c.label, util::with_commas(targets.size()),
                   util::percent(hitlist.overlap(targets))});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main() {
  print_a2();
  return 0;
}
