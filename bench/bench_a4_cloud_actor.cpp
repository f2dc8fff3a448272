// Appendix A.4 — Evidence that two /64s in cloud provider AS #6 (in
// different /48s) belong to one actor.
//
// Paper: the two /64s probed ~71.4k in-DNS + ~63.5k/64.5k not-in-DNS
// addresses with the same in-DNS fraction to three significant
// figures; target-set Jaccard 78%; both active at the start and end of
// the window; one sent ~3x the probes of the other.

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "analysis/similarity.hpp"
#include "common.hpp"
#include "sim/log_io.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;

void print_a4() {
  benchx::banner("Appendix A.4: common-actor evidence for two AS #6 /64s",
                 "similar in-DNS fractions, 78% target Jaccard, both span the "
                 "window, one with ~3x the probes");

  // Identify AS #6's two busiest /64 scan sources.
  const benchx::WorldMeta meta;
  const std::uint32_t asn6 = meta.asn_of_rank(6);
  std::map<net::Ipv6Prefix, std::uint64_t> per_source;
  for (const auto& ev : benchx::load_events(64))
    if (ev.src_asn == asn6) per_source[ev.source] += ev.packets;
  std::vector<std::pair<std::uint64_t, net::Ipv6Prefix>> ranked;
  for (const auto& [src, pkts] : per_source) ranked.push_back({pkts, src});
  std::sort(ranked.rbegin(), ranked.rend());
  if (ranked.size() < 2) {
    std::printf("unexpected: fewer than two AS#6 /64 sources\n");
    return;
  }
  const net::Ipv6Prefix a = ranked[0].second, b = ranked[1].second;

  analysis::SimilarityAnalysis sim_an({a, b}, 64);
  sim::MappedLogReader reader(benchx::ensure_world_log());
  while (auto r = reader.next()) sim_an.feed(*r);
  const auto& pa = sim_an.profiles().at(a);
  const auto& pb = sim_an.profiles().at(b);

  util::TextTable table({"metric", a.to_string(), b.to_string()});
  table.add_row({"packets", util::with_commas(pa.packets), util::with_commas(pb.packets)});
  table.add_row({"targets in DNS", util::with_commas(pa.targets_in_dns),
                 util::with_commas(pb.targets_in_dns)});
  table.add_row({"targets NOT in DNS", util::with_commas(pa.targets_not_in_dns),
                 util::with_commas(pb.targets_not_in_dns)});
  table.add_row({"in-DNS fraction", util::fixed(pa.in_dns_fraction(), 3),
                 util::fixed(pb.in_dns_fraction(), 3)});
  table.add_row({"distinct ports", std::to_string(pa.ports.size()),
                 std::to_string(pb.ports.size())});
  table.add_row({"first activity", util::format_date(sim::seconds_of(pa.first_us)),
                 util::format_date(sim::seconds_of(pb.first_us))});
  table.add_row({"last activity", util::format_date(sim::seconds_of(pa.last_us)),
                 util::format_date(sim::seconds_of(pb.last_us))});
  std::printf("%s\n", table.render().c_str());

  std::printf("target-set Jaccard: %.2f  (paper: 0.78)\n",
              analysis::SimilarityAnalysis::target_jaccard(pa, pb));
  std::printf("probe ratio (busy/quiet): %.1fx  (paper: ~3x)\n",
              static_cast<double>(std::max(pa.packets, pb.packets)) /
                  static_cast<double>(std::min(pa.packets, pb.packets)));
  std::printf("in different /48s: %s  (paper: yes)\n",
              a.parent(48) != b.parent(48) ? "yes" : "no");
}

}  // namespace

int main() {
  print_a4();
  return 0;
}
