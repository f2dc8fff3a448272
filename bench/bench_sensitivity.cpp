// §2.2 Parameter sensitivity — the scan-definition knobs:
//   timeout 3600 s -> 1800 s -> 900 s (at /64, threshold 100), and
//   destination threshold 100 -> 50.
//
// Paper: 1800 s: 5,175 scans (-0.5%) / 1,221 sources (-8%);
//        900 s:  5,097 scans (-2%)   / 1,182 sources (-11%);
//        threshold 50: 22,701 scans (+436%) from 7,835 sources
//        (+590%), 92% of the new sources from AS #18.

#include <cstdio>
#include <set>

#include "analysis/reports.hpp"
#include "common.hpp"
#include "sim/log_io.hpp"
#include "util/table.hpp"

namespace {

using namespace v6sonar;

void print_sensitivity() {
  benchx::banner("Section 2.2: scan-definition parameter sensitivity (/64)",
                 "timeout 3600->1800 s: scans -0.5%, sources -8%; ->900 s: -2%/-11%; "
                 "threshold 100->50: scans +436%, sources +590% (92% AS #18)");

  const std::string log = benchx::ensure_world_log();
  const std::vector<core::DetectorConfig> configs = {
      {.source_prefix_len = 64, .min_destinations = 100, .timeout_us = 3'600'000'000LL},
      {.source_prefix_len = 64, .min_destinations = 100, .timeout_us = 1'800'000'000LL},
      {.source_prefix_len = 64, .min_destinations = 100, .timeout_us = 900'000'000LL},
      {.source_prefix_len = 64, .min_destinations = 50, .timeout_us = 3'600'000'000LL},
  };
  sim::MappedLogReader reader(log);
  const auto results = core::detect_multi(reader, configs);

  const benchx::WorldMeta meta;
  const std::uint32_t asn18 = meta.asn_of_rank(18);

  util::TextTable table({"configuration", "scans", "d_scans", "sources", "d_sources"});
  const char* names[] = {"3600 s / 100 dsts (baseline)", "1800 s / 100 dsts",
                         "900 s / 100 dsts", "3600 s / 50 dsts"};
  const auto base = analysis::totals(results[0]);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto t = analysis::totals(results[i]);
    auto delta = [](std::uint64_t now, std::uint64_t was) {
      const double d = 100.0 * (static_cast<double>(now) - static_cast<double>(was)) /
                       static_cast<double>(was);
      char buf[16];
      std::snprintf(buf, sizeof buf, "%+.1f%%", d);
      return std::string(buf);
    };
    table.add_row({names[i], util::with_commas(t.scans),
                   i == 0 ? "-" : delta(t.scans, base.scans), util::with_commas(t.sources),
                   i == 0 ? "-" : delta(t.sources, base.sources)});
  }
  std::printf("%s\n", table.render().c_str());

  // Who the threshold-50 explosion belongs to.
  std::set<net::Ipv6Prefix> srcs50, srcs50_as18;
  for (const auto& ev : results[3]) {
    srcs50.insert(ev.source);
    if (ev.src_asn == asn18) srcs50_as18.insert(ev.source);
  }
  std::printf("threshold-50 /64 sources from AS#18: %zu of %zu (%.0f%%; paper: 92%%)\n",
              srcs50_as18.size(), srcs50.size(),
              100.0 * static_cast<double>(srcs50_as18.size()) /
                  static_cast<double>(srcs50.size()));
}

}  // namespace

int main() {
  print_sensitivity();
  return 0;
}
