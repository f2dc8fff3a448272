#include "core/adaptive.hpp"

#include <stdexcept>

namespace v6sonar::core {

void fold_event(LevelTally& level, const ScanEvent& ev) {
  auto& s = level[ev.source];
  s.packets += ev.packets;
  s.asn = ev.src_asn;
}

void validate_ladder(const AdaptiveConfig& config) {
  if (config.ladder.empty()) throw std::invalid_argument("adaptive: empty aggregation ladder");
  for (std::size_t i = 1; i < config.ladder.size(); ++i)
    if (config.ladder[i] >= config.ladder[i - 1])
      throw std::invalid_argument("attribute_adaptive: ladder must go finest to coarsest");
}

void attribute_tallies(std::span<const TallyRange> levels, const AdaptiveConfig& config,
                       std::vector<Attribution>& out) {
  // Start with every finest-level source attributed to itself.
  std::map<net::Ipv6Prefix, Attribution> current;
  for (const auto& [src, s] : levels.front()) {
    Attribution a;
    a.source = src;
    a.level = config.ladder.front();
    a.packets = s.packets;
    a.child_packets = s.packets;
    a.children = 1;
    a.src_asn = s.asn;
    current.emplace(src, a);
  }

  // Walk the ladder coarser level by coarser level.
  for (std::size_t li = 1; li < config.ladder.size(); ++li) {
    const int parent_len = config.ladder[li];
    std::map<net::Ipv6Prefix, Attribution> next;

    // Group current attributions by their parent prefix.
    std::map<net::Ipv6Prefix, std::vector<const Attribution*>> groups;
    for (const auto& [src, a] : current)
      groups[a.source.parent(parent_len)].push_back(&a);

    // Parents that qualified at this level but have no qualified
    // children at all (pure spread actors) appear only in levels[li].
    for (const auto& [parent, ps] : levels[li]) {
      auto git = groups.find(parent);
      const std::uint64_t child_sum =
          git == groups.end()
              ? 0
              : [&] {
                  std::uint64_t s = 0;
                  for (const auto* a : git->second) s += a->packets;
                  return s;
                }();
      const std::size_t child_count = git == groups.end() ? 0 : git->second.size();

      const bool absorb =
          child_count <= config.max_children_absorbed &&
          static_cast<double>(ps.packets) >=
              config.absorb_ratio * static_cast<double>(child_sum == 0 ? 1 : child_sum) &&
          (child_sum == 0 || ps.packets > child_sum);

      if (absorb) {
        Attribution a;
        a.source = parent;
        a.level = parent_len;
        a.packets = ps.packets;
        a.child_packets = child_sum;
        a.children = child_count;
        a.src_asn = ps.asn;
        next.emplace(parent, a);
        if (git != groups.end()) groups.erase(git);  // children replaced
      }
    }

    // Keep everything not absorbed.
    for (const auto& [parent, ps] : groups)
      for (const auto* a : ps) next.emplace(a->source, *a);

    current = std::move(next);
  }

  for (auto& [src, a] : current) out.push_back(a);
}

std::vector<Attribution> attribute_adaptive(
    const std::vector<std::vector<ScanEvent>>& events_per_level,
    const AdaptiveConfig& config) {
  if (events_per_level.size() != config.ladder.size())
    throw std::invalid_argument("attribute_adaptive: one event list per ladder level required");
  validate_ladder(config);

  std::vector<LevelTally> levels(events_per_level.size());
  std::vector<TallyRange> ranges;
  ranges.reserve(levels.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    for (const auto& ev : events_per_level[i]) fold_event(levels[i], ev);
    ranges.emplace_back(levels[i]);
  }
  std::vector<Attribution> out;
  attribute_tallies(ranges, config, out);
  return out;
}

}  // namespace v6sonar::core
