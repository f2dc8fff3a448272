// Appendix A.1 — What the 5-duplicate artifact filter removes.
//
// Paper (November 2021): UDP/500 (ISAKMP/IPsec) and TCP/25 (SMTP
// MX-fallback) are the two most prevalent filtered protocols by
// packets and by sources.

#include <algorithm>
#include <cstdio>
#include <map>

#include "common.hpp"
#include "core/artifact_filter.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;

void print_a1() {
  benchx::banner("Appendix A.1: artifact-filter removals (Nov 2021)",
                 "UDP/500 (ISAKMP) and TCP/25 (SMTP) dominate filtered packets");

  telescope::CdnWorld world({});
  std::map<std::uint32_t, std::uint64_t> dropped_by_port;  // proto<<16|port
  std::uint64_t packets_in = 0, packets_dropped = 0, sources_dropped = 0, sources_seen = 0;
  constexpr std::int64_t kFromDay = util::kNov2021Start / util::kSecondsPerDay;
  constexpr std::int64_t kToDay = util::kNov2021End / util::kSecondsPerDay;
  world.run([](const sim::LogRecord&) {},
            [&](const core::FilterDayStats& s) {
              if (s.day < kFromDay || s.day >= kToDay) return;
              packets_in += s.packets_in;
              packets_dropped += s.packets_dropped;
              sources_dropped += s.sources_dropped;
              sources_seen += s.sources_seen;
              for (const auto& [key, n] : s.dropped_by_port) dropped_by_port[key] += n;
            });

  std::printf("November 2021: %llu packets in, %llu dropped (%.1f%%), "
              "%llu of %llu source-days dropped\n\n",
              static_cast<unsigned long long>(packets_in),
              static_cast<unsigned long long>(packets_dropped),
              100.0 * static_cast<double>(packets_dropped) / static_cast<double>(packets_in),
              static_cast<unsigned long long>(sources_dropped),
              static_cast<unsigned long long>(sources_seen));

  std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
  for (const auto& [key, n] : dropped_by_port) ranked.push_back({n, key});
  std::sort(ranked.rbegin(), ranked.rend());

  util::TextTable table({"rank", "protocol/port", "dropped packets", "share"});
  for (std::size_t i = 0; i < std::min<std::size_t>(8, ranked.size()); ++i) {
    const auto [n, key] = ranked[i];
    const char* proto = (key >> 16) == 6 ? "TCP" : (key >> 16) == 17 ? "UDP" : "ICMPv6";
    table.add_row({"#" + std::to_string(i + 1),
                   std::string(proto) + "/" + std::to_string(key & 0xFFFF),
                   util::with_commas(n),
                   util::percent(static_cast<double>(n) /
                                 static_cast<double>(packets_dropped))});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main() {
  print_a1();
  return 0;
}
