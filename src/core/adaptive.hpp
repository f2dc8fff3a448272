// Adaptive source-aggregation attribution (§5, "Scan detection and
// attribution").
//
// The paper's discussion argues IDSes must pick the aggregation level
// per actor: too specific misses spread-source scans (AS #18, only
// fully visible at /32), too coarse merges distinct tenants (AS #6's
// cloud VMs) and causes collateral blocklisting. This implements the
// proposed "track multiple aggregations simultaneously" idea as a
// post-pass over multi-level detector output: keep the finest level,
// and escalate to a parent prefix only when the parent saw
// substantially more scan traffic than all of its qualified children
// combined — evidence that the actor is deliberately spreading below
// the detection threshold.
#pragma once

#include <cstdint>
#include <map>
#include <ranges>
#include <span>
#include <vector>

#include "core/scan_event.hpp"
#include "net/prefix.hpp"

namespace v6sonar::core {

struct AdaptiveConfig {
  /// Aggregation ladder, finest first. Events must be supplied for
  /// each level, in this order.
  std::vector<int> ladder = {128, 64, 48, 32};
  /// Escalate to the parent when parent packets exceed the sum of its
  /// qualified children's packets by this factor.
  double absorb_ratio = 1.5;
  /// Never escalate past a parent covering more distinct qualified
  /// children than this (cloud-provider guard against collateral).
  std::size_t max_children_absorbed = 4'096;
};

/// One attributed scanning source at its chosen aggregation level.
struct Attribution {
  net::Ipv6Prefix source;
  int level = 128;               ///< chosen ladder level
  std::uint64_t packets = 0;     ///< packets at the chosen level
  std::uint64_t child_packets = 0;  ///< packets visible at the finer level
  std::size_t children = 0;      ///< qualified finer-level sources covered
  std::uint32_t src_asn = 0;

  friend bool operator==(const Attribution&, const Attribution&) = default;
};

/// What attribution reads of one source at one ladder level: the
/// packets of all its events and the ASN of the last one.
struct SourceTally {
  std::uint64_t packets = 0;
  std::uint32_t asn = 0;
};

/// One ladder level's tallies, in prefix order.
using LevelTally = std::map<net::Ipv6Prefix, SourceTally>;

/// A run of one level's tallies: the whole level, or the sources under
/// one coarsest-rung prefix.
using TallyRange = std::ranges::subrange<LevelTally::const_iterator>;

/// The fold step: add one event to its level's tally. Folding a
/// level's events in arrival order gives attribute_adaptive's input.
void fold_event(LevelTally& level, const ScanEvent& ev);

/// Throws std::invalid_argument unless the ladder is non-empty and
/// runs strictly finest to coarsest.
void validate_ladder(const AdaptiveConfig& config);

/// The attribution walk over folded tallies, `levels[i]` at
/// `config.ladder[i]` (a validated ladder). Appends the chosen
/// attributions to `out`, sorted by source prefix. Every parent the
/// walk considers lies at or below the coarsest rung, so walking the
/// tallies under each coarsest-rung prefix on its own, in prefix
/// order, appends exactly what one walk over whole levels does.
void attribute_tallies(std::span<const TallyRange> levels, const AdaptiveConfig& config,
                       std::vector<Attribution>& out);

/// `events_per_level[i]` are the scan events detected at
/// `config.ladder[i]`. Returns the chosen attribution set, sorted by
/// source prefix: fold_event() over every list, then
/// attribute_tallies() over whole levels.
[[nodiscard]] std::vector<Attribution> attribute_adaptive(
    const std::vector<std::vector<ScanEvent>>& events_per_level,
    const AdaptiveConfig& config);

}  // namespace v6sonar::core
