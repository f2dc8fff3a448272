// The streaming intrusion-detection core (§5, "IDSes should determine
// the aggregation in real-time ... track simultaneously various
// aggregations").
//
// Scan detectors run at every ladder level over one packet stream,
// and the accumulated scan activity is periodically re-attributed
// with the adaptive algorithm. Whenever a scanning actor first
// appears, or its best attribution escalates to a coarser prefix (an
// AS #18-style spread actor coming into focus), an alert is emitted —
// the feed an operator would wire into a blocklist. This header holds
// the pieces; core::ParallelIds (core/parallel_pipeline.hpp) is the
// front end that drives them, at one shard or many.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "core/adaptive.hpp"
#include "core/detector.hpp"

namespace v6sonar::core {

struct IdsConfig {
  AdaptiveConfig adaptive;
  /// Detection thresholds applied at every ladder level.
  std::uint32_t min_destinations = 100;
  sim::TimeUs timeout_us = 3'600LL * 1'000'000;
  /// How often the attribution pass re-runs over accumulated activity.
  sim::TimeUs reattribution_period_us = 24LL * 3'600 * 1'000'000;
};

/// One blocklist alert.
struct IdsAlert {
  Attribution attribution;
  /// True the first time the prefix is attributed; false when an
  /// existing entry escalated to a coarser level (the attribution's
  /// prefix then covers previously alerted finer entries).
  bool is_new = true;
  sim::TimeUs at_us = 0;
};

/// The detector configuration of ladder level `level`: the IDS
/// thresholds at that aggregation, summary-only — attribution reads
/// source, packets and ASN, so the ladder tracks nothing else, and its
/// events arrive as slim as slim_scan_event() would make them.
[[nodiscard]] DetectorConfig ladder_detector_config(const IdsConfig& config, std::size_t level);

/// Strip a scan event down to the source, times, packets, destination
/// count and ASN, for callers that collect the events of full
/// detectors for attribution: those carry heavy per-port and per-week
/// vectors that attribution never looks at.
[[nodiscard]] ScanEvent slim_scan_event(const ScanEvent& ev);

using AlertSink = std::function<void(const IdsAlert&)>;

/// Count one logical attribution pass and note the blocklist size it
/// left (ids.reattribution.passes, ids.blocklist.size_hw).
/// ParallelIds, whose shards each run their part of the pass, calls it
/// once per pass with the summed size.
void note_ids_pass(std::size_t blocklist_size);

/// Incremental adaptive attribution plus the alert diff. Events fold
/// into per-(level, source) tallies as they arrive (fold_event), and
/// the coarsest-rung prefix (/32) each falls under is marked dirty. A
/// pass re-runs attribute_tallies() over each dirty group alone, in
/// prefix order: attribution never looks across a coarsest-rung
/// prefix, and a group with no new events re-derives attributions
/// that were all alerted already, so this is exactly the full refold
/// of attribute_adaptive() followed by the full-list diff.
class Attributor {
 public:
  /// Throws std::invalid_argument on a bad ladder (validate_ladder).
  explicit Attributor(const AdaptiveConfig& config);

  /// Fold one event detected at ladder level `level`.
  void add(std::size_t level, const ScanEvent& ev);

  /// One attribution pass at stream time `now`: emits to `sink` one
  /// IdsAlert per prefix that is new or escalated to a coarser level
  /// since it was last alerted, in prefix order, and refreshes the
  /// blocklist. Timed as one ids.attribute_us sample.
  void pass(sim::TimeUs now, const AlertSink& sink);

  /// The attribution set as of the last pass, in prefix order.
  [[nodiscard]] std::vector<Attribution> blocklist() const;
  [[nodiscard]] std::size_t blocklist_size() const noexcept { return attributed_count_; }

  /// Checkpoint pieces. A level saves as one folded event per source
  /// (its packet sum and last ASN, the only fields attribution reads)
  /// in the event-list layout; loading folds whatever list it finds,
  /// so a list of unfolded events loads to the same tallies. Loaded
  /// sources mark their groups dirty.
  void save_level(util::StateWriter& w, std::size_t level) const;
  void load_level(util::StateReader& r, std::size_t level);
  /// The blocklist and the already-alerted map, so a resumed IDS does
  /// not re-alert known actors.
  void save_alerts(util::StateWriter& w) const;
  void load_alerts(util::StateReader& r);

 private:
  [[nodiscard]] net::Ipv6Prefix group_of(const net::Ipv6Prefix& source) const noexcept {
    return source.parent(config_.ladder.back());
  }
  void alert(const Attribution& a, sim::TimeUs now, const AlertSink& sink);

  AdaptiveConfig config_;
  std::vector<LevelTally> levels_;
  std::set<net::Ipv6Prefix> dirty_;  ///< groups with events since their last pass
  std::map<net::Ipv6Prefix, std::vector<Attribution>> attributed_;  ///< group -> attributions
  std::size_t attributed_count_ = 0;
  std::map<net::Ipv6Prefix, int> alerted_;  ///< prefix -> level already alerted
};

/// The IDS core: one summary-only detector per ladder level, each
/// folding its events into one Attributor. Each ParallelIds worker
/// drives one over its shard of coarsest-rung prefixes.
class IdsCore {
 public:
  explicit IdsCore(const IdsConfig& config);
  IdsCore(const IdsCore&) = delete;
  IdsCore& operator=(const IdsCore&) = delete;

  /// Feed every ladder level (time-ordered, as ScanDetector).
  void feed_batch(std::span<const sim::LogRecord> batch);
  /// Advance every level's clock: finalizes the events due before `now`.
  void advance(sim::TimeUs now);
  /// Finalize every in-flight event.
  void flush();

  /// Events the ladder detectors emitted (all levels).
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] Attributor& attributor() noexcept { return attributor_; }
  [[nodiscard]] const Attributor& attributor() const noexcept { return attributor_; }

  /// Per level: detector state, then its folded tallies; then the
  /// alert state.
  void save(util::StateWriter& w) const;
  void load(util::StateReader& r);

 private:
  Attributor attributor_;
  std::vector<std::unique_ptr<ScanDetector>> detectors_;
  std::uint64_t events_ = 0;
};

}  // namespace v6sonar::core
