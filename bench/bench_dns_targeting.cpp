// §3.3 Targeted addresses — in-DNS vs not-in-DNS targeting per /64
// scan source, and the "previous nearby in-DNS probe" inference for
// sources with mostly not-in-DNS targets.
//
// Paper: 75% of /64 sources probe only in-DNS addresses; 10% have
// >=33% not-in-DNS targets; AS #18 sits at 50% not-in-DNS. For the
// nearby-probe check (/124../112 windows) one source hits 100%, two
// ~97%, others about half.

#include <algorithm>
#include <cstdio>

#include "analysis/dns_targeting.hpp"
#include "common.hpp"
#include "sim/log_io.hpp"
#include "util/table.hpp"

namespace {

using namespace v6sonar;

void print_dns_targeting() {
  benchx::banner("Section 3.3: in-DNS vs not-in-DNS targeting (/64 sources)",
                 "75% of /64s all-in-DNS; 10% with >=1/3 not-in-DNS; AS#18 at 50%; "
                 "nearby-probe precedence: one source 100%, two 97%, rest ~half");

  const benchx::WorldMeta meta;
  const std::uint32_t asn18 = meta.asn_of_rank(18);
  const auto events = benchx::load_events(64);

  const auto rep = analysis::dns_targeting(events, asn18);
  std::printf("/64 sources excluding AS#18: %zu\n", rep.sources);
  std::printf("  all targets in DNS:        %s  (paper: 75%%)\n",
              util::percent(rep.all_in_dns_fraction).c_str());
  std::printf("  >=1/3 targets NOT in DNS:  %s  (paper: 10%%)\n",
              util::percent(rep.third_not_in_dns_fraction).c_str());

  // AS #18's own not-in-DNS fraction.
  double frac = 0;
  std::size_t n18 = 0;
  for (const auto& ev : events) {
    if (ev.src_asn != asn18 || ev.distinct_dsts == 0) continue;
    frac += 1.0 - static_cast<double>(ev.distinct_dsts_in_dns) /
                      static_cast<double>(ev.distinct_dsts);
    ++n18;
  }
  if (n18)
    std::printf("AS#18 mean not-in-DNS target fraction: %s  (paper: 50%%)\n",
                util::percent(frac / static_cast<double>(n18)).c_str());

  // Nearby-probe analysis over sources with >=50% not-in-DNS targets.
  std::vector<net::Ipv6Prefix> watched;
  for (const auto& [src, not_in] : rep.not_in_dns_fraction)
    if (not_in >= 0.33) watched.push_back(src);
  if (watched.size() > 24) watched.resize(24);  // the paper samples, too
  std::printf("\nnearby-probe inference over %zu high-not-in-DNS sources:\n",
              watched.size());

  analysis::NearbyProbeAnalysis nearby(watched, 64);
  sim::MappedLogReader reader(benchx::ensure_world_log());
  while (auto r = reader.next()) nearby.feed(*r);

  util::TextTable table({"source /64", "not-in-DNS probes", "/124", "/120", "/116", "/112"});
  std::vector<double> fractions120;
  for (const auto& [src, res] : nearby.results()) {
    if (res.not_in_dns_probes == 0) continue;
    auto pct = [&](int w) {
      return util::percent(static_cast<double>(res.preceded[w]) /
                           static_cast<double>(res.not_in_dns_probes));
    };
    fractions120.push_back(static_cast<double>(res.preceded[1]) /
                           static_cast<double>(res.not_in_dns_probes));
    table.add_row({src.to_string(), util::with_commas(res.not_in_dns_probes), pct(0),
                   pct(1), pct(2), pct(3)});
  }
  std::printf("%s\n", table.render().c_str());
  if (!fractions120.empty()) {
    std::sort(fractions120.rbegin(), fractions120.rend());
    // The paper excludes the strictest /124 window for its headline
    // numbers ("Excluding the strictest sense of nearby of /124, one
    // source had the nice result ... for *all*").
    std::printf("preceded-in-/120 fractions, best three: %s %s %s\n",
                util::percent(fractions120[0]).c_str(),
                fractions120.size() > 1 ? util::percent(fractions120[1]).c_str() : "-",
                fractions120.size() > 2 ? util::percent(fractions120[2]).c_str() : "-");
    std::printf("(paper: one source 100%%, two at ~97%%, others about half)\n");
  }
}

}  // namespace

int main() {
  print_dns_targeting();
  return 0;
}
