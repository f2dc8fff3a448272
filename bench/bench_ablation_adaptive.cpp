// Ablation — adaptive source-aggregation attribution vs fixed levels
// (the §5 IDS discussion).
//
// Metrics per strategy: completeness (fraction of all scan packets the
// chosen attributions capture, AS #18-style spread traffic included)
// and collateral (how many distinct ground-truth actors end up merged
// under one reported prefix — cloud-tenant damage).

#include <cstdio>
#include <map>
#include <set>

#include "common.hpp"
#include "core/adaptive.hpp"
#include "util/table.hpp"

namespace {

using namespace v6sonar;

void print_ablation() {
  benchx::banner("Ablation: adaptive attribution vs fixed aggregation",
                 "fixed /128 misses spread actors; fixed /48 merges cloud tenants; "
                 "the adaptive ladder should capture both");

  std::vector<std::vector<core::ScanEvent>> levels;
  for (int len : benchx::kLevels) levels.push_back(benchx::load_events(len));

  // Ground truth: total scan-attributable packets = /32-level totals
  // (the coarsest view sees every spread actor whole).
  std::uint64_t total_packets = 0;
  for (const auto& ev : levels.back()) total_packets += ev.packets;

  // Actor identity = ASN (each cast actor owns one AS; AS #6 holds a
  // multi-tenant population, which is exactly the collateral case).
  auto evaluate = [&](const std::string& name,
                      const std::vector<core::Attribution>& attributions) {
    std::uint64_t captured = 0;
    std::size_t merged_sources = 0;
    for (const auto& a : attributions) captured += a.packets;
    // Collateral: attributions at /48 or coarser covering sources that
    // belong to a multi-tenant provider merge distinct tenants.
    for (const auto& a : attributions)
      if (a.level <= 48 && a.children > 1) merged_sources += a.children;
    return std::tuple{name, captured, attributions.size(), merged_sources};
  };

  util::TextTable table({"strategy", "packets captured", "completeness", "attributions",
                         "tenants merged"});
  auto add = [&](const auto& row) {
    const auto& [name, captured, count, merged] = row;
    table.add_row({name, util::with_commas(captured),
                   util::percent(static_cast<double>(captured) /
                                 static_cast<double>(total_packets)),
                   util::with_commas(count), util::with_commas(merged)});
  };

  // Fixed levels: attribution = fold of that level's events.
  for (std::size_t i = 0; i < benchx::kLevels.size(); ++i) {
    std::map<net::Ipv6Prefix, core::Attribution> folded;
    for (const auto& ev : levels[i]) {
      auto& a = folded[ev.source];
      a.source = ev.source;
      a.level = benchx::kLevels[i];
      a.packets += ev.packets;
      a.src_asn = ev.src_asn;
    }
    std::vector<core::Attribution> fixed;
    fixed.reserve(folded.size());
    for (auto& [src, a] : folded) fixed.push_back(a);
    // children for fixed-coarse levels: count finer-level sources inside.
    if (benchx::kLevels[i] <= 48) {
      std::map<net::Ipv6Prefix, std::size_t> fine_count;
      for (const auto& ev : levels[0]) fine_count[ev.source.parent(benchx::kLevels[i])] = 0;
      std::set<net::Ipv6Prefix> fine_sources;
      for (const auto& ev : levels[0]) fine_sources.insert(ev.source);
      for (const auto& s : fine_sources) ++fine_count[s.parent(benchx::kLevels[i])];
      for (auto& a : fixed) {
        const auto it = fine_count.find(a.source);
        a.children = it == fine_count.end() ? 0 : it->second;
      }
    }
    add(evaluate("fixed /" + std::to_string(benchx::kLevels[i]), fixed));
  }

  add(evaluate("adaptive ladder", core::attribute_adaptive(levels, {})));
  std::printf("%s\n", table.render().c_str());
  std::printf("completeness = share of /32-visible scan packets captured;\n"
              "tenants merged = finer-level sources folded into /48-or-coarser "
              "attributions.\n");
}

}  // namespace

int main() {
  print_ablation();
  return 0;
}
