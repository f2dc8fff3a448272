// Streaming intrusion-detection front end (§5, "IDSes should determine
// the aggregation in real-time ... track simultaneously various
// aggregations").
//
// Runs scan detectors at every ladder level over one packet stream,
// and periodically re-attributes the accumulated scan activity with
// the adaptive algorithm. Whenever a scanning actor first appears, or
// its best attribution escalates to a coarser prefix (an AS #18-style
// spread actor coming into focus), an alert is emitted — the feed an
// operator would wire into a blocklist.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
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

/// Strip a scan event down to the fields the attribution pass reads
/// (source/times/packets/dsts/asn), for callers that attribute the
/// events of full detectors (the daemon): those carry heavy per-port
/// and per-week vectors that attribution never looks at.
[[nodiscard]] ScanEvent slim_scan_event(const ScanEvent& ev);

/// The alert-diff state machine shared by the serial and the sharded
/// IDS front ends: given a fresh attribution set, emit one IdsAlert
/// per prefix that is new or escalated since the previous pass, and
/// remember the current blocklist.
class AlertTracker {
 public:
  using AlertSink = std::function<void(const IdsAlert&)>;

  /// Diff `attributions` against everything alerted so far.
  void update(std::vector<Attribution> attributions, sim::TimeUs now, const AlertSink& sink);

  /// One attribution pass: attribute_adaptive() over the per-level
  /// events, then update(). Timed as one `ids.attribute_us` sample.
  void run_pass(const std::vector<std::vector<ScanEvent>>& events_per_level,
                const AdaptiveConfig& adaptive, sim::TimeUs now, const AlertSink& sink);

  [[nodiscard]] const std::vector<Attribution>& blocklist() const noexcept {
    return blocklist_;
  }

  /// Freeze/thaw the diff state (blocklist + already-alerted map) so a
  /// resumed IDS does not re-emit alerts for known actors.
  void save(util::StateWriter& w) const;
  void load(util::StateReader& r);

 private:
  std::vector<Attribution> blocklist_;
  std::map<net::Ipv6Prefix, int> alerted_;  ///< prefix -> level already alerted
};

class StreamingIds : public StateCodec {
 public:
  using AlertSink = AlertTracker::AlertSink;

  StreamingIds(const IdsConfig& config, AlertSink sink);

  /// Feed one record (time-ordered).
  void feed(const sim::LogRecord& r);

  /// Feed a whole batch; exactly equivalent to feeding each record in
  /// turn — reattribution passes trigger at the same records. The
  /// batch is sliced at reattribution boundaries and each slice is fed
  /// through the detectors' batched path (grouped updates, hash-once
  /// key derivation), so the ladder no longer pays the record-at-a-time
  /// fan-out cost between passes.
  void feed_batch(std::span<const sim::LogRecord> batch);

  /// Finalize all in-flight events and run a last attribution pass.
  void flush();

  /// Current blocklist: attributed scanning prefixes at their chosen
  /// aggregation level.
  [[nodiscard]] const std::vector<Attribution>& blocklist() const noexcept {
    return tracker_.blocklist();
  }

  /// Freeze/thaw (core::StateCodec): per-level detector state, the
  /// accumulated slim events awaiting the next attribution pass, the
  /// alert tracker, and the pass clock.
  void save(util::StateWriter& w) const override;
  void load(util::StateReader& r) override;

 private:
  void reattribute(sim::TimeUs now);

  IdsConfig config_;
  AlertSink sink_;
  std::vector<std::unique_ptr<ScanDetector>> detectors_;
  std::vector<std::vector<ScanEvent>> events_;  ///< accumulated per ladder level
  AlertTracker tracker_;
  sim::TimeUs next_pass_us_ = 0;
};

}  // namespace v6sonar::core
