// Adaptive-aggregation IDS: the paper's §5 discussion turned into an
// operational tool. ParallelIds tracks scan detectors at /128, /64,
// /48 and /32 simultaneously over the live packet stream and
// periodically re-attributes each scanning actor at the aggregation
// level that captures its traffic without merging unrelated tenants.
// New actors and escalations (an AS #18-style spread scanner coming
// into focus at /32) arrive as alerts — the feed an operator would
// wire into a blocklist.
//
// Usage: adaptive_ids [--full]

#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "core/parallel_pipeline.hpp"
#include "telescope/world.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

int main(int argc, char** argv) {
  using namespace v6sonar;

  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;
  telescope::WorldConfig config =
      full ? telescope::WorldConfig{} : telescope::WorldConfig::small();

  std::printf("Streaming the telescope through the adaptive IDS "
              "(/128,/64,/48,/32 tracked simultaneously)...\n\n");
  telescope::CdnWorld world(config);

  std::vector<core::IdsAlert> alerts;
  core::IdsConfig ids_config;
  ids_config.reattribution_period_us = 7LL * 86'400 * 1'000'000;  // weekly pass
  core::ParallelIds ids(ids_config, {.threads = 1},
                        [&](const core::IdsAlert& a) { alerts.push_back(a); });

  std::vector<sim::LogRecord> batch;
  world.run([&](const sim::LogRecord& r) {
    batch.push_back(r);
    if (batch.size() == 4'096) {
      ids.feed_batch(batch);
      batch.clear();
    }
  });
  ids.feed_batch(batch);
  ids.flush();

  std::printf("=== alert timeline (first 15 of %zu) ===\n", alerts.size());
  util::TextTable timeline({"when", "kind", "prefix", "level", "packets"});
  std::size_t shown = 0;
  for (const auto& a : alerts) {
    if (++shown > 15) break;
    timeline.add_row({util::format_date(sim::seconds_of(a.at_us)),
                      a.is_new ? "new actor" : "escalation",
                      a.attribution.source.to_string(),
                      "/" + std::to_string(a.attribution.level),
                      util::with_commas(a.attribution.packets)});
  }
  std::printf("%s\n", timeline.render().c_str());

  std::printf("=== final blocklist (heavy hitters) ===\n");
  util::TextTable table({"blocklist prefix", "level", "packets", "hidden traffic",
                         "covered sources", "network"});
  std::map<int, int> by_level;
  for (const auto& a : ids.blocklist()) {
    ++by_level[a.level];
    if (a.packets < 5'000) continue;
    const auto* info = world.registry().find(a.src_asn);
    // "Hidden traffic": packets invisible at the finest level — the
    // detection the escalation bought us.
    const std::uint64_t hidden = a.packets - a.child_packets;
    table.add_row({a.source.to_string(), "/" + std::to_string(a.level),
                   util::with_commas(a.packets), util::with_commas(hidden),
                   std::to_string(a.children),
                   info ? std::string(sim::to_string(info->type)) : "?"});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("attributions per level:");
  for (const auto& [level, n] : by_level) std::printf("  /%d: %d", level, n);
  std::printf("\n\nReading the table: a /32-level entry whose 'hidden traffic'\n"
              "dominates is an AS#18-style spread scanner (blocking only its\n"
              "visible /64s would miss most of it). Entries kept at /128 inside\n"
              "cloud networks avoid blocklisting a whole provider because of\n"
              "one tenant.\n");
  return 0;
}
