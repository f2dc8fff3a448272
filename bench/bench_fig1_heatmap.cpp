// Figure 1 — Heatmap of source /64s in November 2021: destinations
// targeted (x) vs packets logged (y), log-binned.
//
// Paper shape: the vast majority of source /64s cluster near the
// origin (few destinations — artifacts and misconfigured clients); a
// small population sits far right (many destinations — the scanners);
// a vertical band of high-packet/low-destination sources is the
// retry-artifact mass the 5-duplicate filter removes.
//
// This bench runs pre-filter (like the paper's raw logs), restricted
// to November 2021, so it regenerates that month's traffic directly.

#include <cstdio>
#include <map>

#include "common.hpp"
#include "util/histogram.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;

void print_fig1() {
  benchx::banner("Figure 1: per-/64 destinations vs packets (Nov 2021, pre-filter)",
                 "most /64s near the origin; a small number of /64 sources target "
                 "a large number of destinations");

  telescope::WorldConfig cfg;
  cfg.apply_artifact_filter = false;  // Fig. 1 shows raw, unfiltered sources
  telescope::CdnWorld world(cfg);

  struct PerSource {
    util::FlatSet<net::Ipv6Address> dsts;
    std::uint64_t packets = 0;
  };
  std::map<net::Ipv6Prefix, PerSource> sources;
  constexpr sim::TimeUs kFrom = sim::us_from_seconds(util::kNov2021Start);
  constexpr sim::TimeUs kTo = sim::us_from_seconds(util::kNov2021End);
  world.run([&](const sim::LogRecord& r) {
    if (r.ts_us < kFrom || r.ts_us >= kTo) return;
    auto& s = sources[net::Ipv6Prefix{r.src, 64}];
    s.dsts.insert(r.dst);
    ++s.packets;
  });

  util::LogHistogram2D heat(6, 7);
  std::size_t near_origin = 0, far_right = 0;
  for (const auto& [src, s] : sources) {
    heat.add(s.dsts.size(), s.packets);
    near_origin += s.dsts.size() < 10;
    far_right += s.dsts.size() >= 100;
  }
  std::printf("%s\n", heat.render("destination IPs targeted", "packets logged").c_str());
  std::printf("source /64s in November 2021: %zu\n", sources.size());
  std::printf("  < 10 destinations (near origin):   %zu (%.1f%%)\n", near_origin,
              100.0 * static_cast<double>(near_origin) / static_cast<double>(sources.size()));
  std::printf("  >= 100 destinations (scan region): %zu (%.1f%%)\n", far_right,
              100.0 * static_cast<double>(far_right) / static_cast<double>(sources.size()));
}

}  // namespace

int main() {
  print_fig1();
  return 0;
}
