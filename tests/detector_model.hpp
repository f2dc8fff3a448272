// The batch reference model of ScanDetector: trivially correct and
// deliberately unoptimised (std::map/std::set, a full sort). The
// detector model test checks the streaming detector against it, and
// bench_guard times the detector against it as a yardstick that no
// detector optimisation touches.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/detector.hpp"

namespace v6sonar::core::testing {

struct RefEvent {
  net::Ipv6Prefix source;
  sim::TimeUs first = 0, last = 0;
  std::uint64_t packets = 0;
  std::set<net::Ipv6Address> dsts;
  std::map<std::uint16_t, std::uint64_t> ports;
};

/// O(n log n) batch reference: group by aggregated source, split on
/// gaps > timeout, keep groups with enough distinct destinations.
inline std::vector<RefEvent> reference(std::vector<sim::LogRecord> records,
                                       const DetectorConfig& cfg) {
  std::stable_sort(records.begin(), records.end(),
                   [](const sim::LogRecord& a, const sim::LogRecord& b) {
                     return a.ts_us < b.ts_us;
                   });
  std::map<net::Ipv6Prefix, std::vector<const sim::LogRecord*>> by_src;
  for (const auto& r : records)
    by_src[net::Ipv6Prefix{r.src, cfg.source_prefix_len}].push_back(&r);

  std::vector<RefEvent> out;
  for (const auto& [src, recs] : by_src) {
    std::vector<std::vector<const sim::LogRecord*>> runs(1);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (i > 0 && recs[i]->ts_us - recs[i - 1]->ts_us > cfg.timeout_us)
        runs.emplace_back();
      runs.back().push_back(recs[i]);
    }
    for (const auto& run : runs) {
      if (run.empty()) continue;
      RefEvent ev;
      ev.source = src;
      ev.first = run.front()->ts_us;
      ev.last = run.back()->ts_us;
      for (const auto* r : run) {
        ++ev.packets;
        ev.dsts.insert(r->dst);
        ++ev.ports[r->dst_port];
      }
      if (ev.dsts.size() >= cfg.min_destinations) out.push_back(std::move(ev));
    }
  }
  std::sort(out.begin(), out.end(), [](const RefEvent& a, const RefEvent& b) {
    return std::tie(a.source, a.first) < std::tie(b.source, b.first);
  });
  return out;
}

}  // namespace v6sonar::core::testing
