// The IDS oracle the IDS tests check against: the trivially correct,
// unoptimised IDS. Full (not summary-only) detectors at every ladder
// level, every event kept in a per-level list, and on every pass
// attribute_adaptive() over the whole lists followed by a diff of the
// whole attribution set against everything alerted so far, scanning
// the alerted map for covered prefixes.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "core/detector.hpp"
#include "core/state_codec.hpp"
#include "core/streaming_ids.hpp"
#include "util/state_io.hpp"

namespace v6sonar::core::testing {

class OracleIds {
 public:
  OracleIds(const IdsConfig& cfg, AlertSink sink)
      : cfg_(cfg), sink_(std::move(sink)), events_(cfg.adaptive.ladder.size()) {
    for (std::size_t i = 0; i < cfg.adaptive.ladder.size(); ++i)
      detectors_.push_back(std::make_unique<ScanDetector>(
          DetectorConfig{.source_prefix_len = cfg.adaptive.ladder[i],
                         .min_destinations = cfg.min_destinations,
                         .timeout_us = cfg.timeout_us},
          [this, i](ScanEvent&& ev) { events_[i].push_back(slim_scan_event(ev)); }));
  }

  void feed(const sim::LogRecord& r) {
    if (next_pass_ == 0) next_pass_ = r.ts_us + cfg_.reattribution_period_us;
    for (auto& d : detectors_) d->feed(r);
    if (r.ts_us >= next_pass_) {
      pass(r.ts_us);
      next_pass_ = r.ts_us + cfg_.reattribution_period_us;
    }
  }

  void flush() {
    for (auto& d : detectors_) d->flush();
    pass(next_pass_);
  }

  [[nodiscard]] const std::vector<Attribution>& blocklist() const { return blocklist_; }
  [[nodiscard]] std::size_t passes() const { return passes_; }

  /// The configuration fingerprint and the pass clock: the layout of
  /// a ParallelIds checkpoint's "ids" section.
  void save_clock(util::StateWriter& w) const {
    w.u64(cfg_.adaptive.ladder.size());
    for (const int level : cfg_.adaptive.ladder) w.i32(level);
    w.f64(cfg_.adaptive.absorb_ratio);
    w.u64(cfg_.adaptive.max_children_absorbed);
    w.u32(cfg_.min_destinations);
    w.i64(cfg_.timeout_us);
    w.i64(cfg_.reattribution_period_us);
    w.i64(next_pass_);
  }

  /// The IdsCore state layout as it was when the IDS kept whole event
  /// lists: per level the detector, then every event it emitted; then
  /// the blocklist and the alerted map. One shard's "shard<i>.ids".
  void save_core(util::StateWriter& w) const {
    for (std::size_t i = 0; i < detectors_.size(); ++i) {
      detectors_[i]->save(w);
      w.u64(events_[i].size());
      for (const auto& ev : events_[i]) save_scan_event(w, ev);
    }
    w.u64(blocklist_.size());
    for (const auto& a : blocklist_) save_attribution(w, a);
    w.u64(alerted_.size());
    for (const auto& [prefix, level] : alerted_) {
      save_prefix(w, prefix);
      w.i32(level);
    }
  }

  /// Both in one section: the "ids" section of the checkpoints the
  /// serial IDS front end (StreamingIds) wrote before ParallelIds
  /// replaced it.
  void save(util::StateWriter& w) const {
    save_clock(w);
    save_core(w);
  }

 private:
  void pass(sim::TimeUs now) {
    ++passes_;
    blocklist_ = attribute_adaptive(events_, cfg_.adaptive);
    for (const auto& a : blocklist_) {
      const auto it = alerted_.find(a.source);
      if (it != alerted_.end() && it->second == a.level) continue;  // already known
      bool covers_known = false;
      for (const auto& [prefix, level] : alerted_)
        covers_known |= a.source != prefix && a.source.contains(prefix);
      IdsAlert alert;
      alert.attribution = a;
      alert.at_us = now;
      alert.is_new = !covers_known && it == alerted_.end();
      alerted_[a.source] = a.level;
      sink_(alert);
    }
  }

  IdsConfig cfg_;
  AlertSink sink_;
  std::vector<std::unique_ptr<ScanDetector>> detectors_;
  std::vector<std::vector<ScanEvent>> events_;
  std::vector<Attribution> blocklist_;
  std::map<net::Ipv6Prefix, int> alerted_;
  sim::TimeUs next_pass_ = 0;
  std::size_t passes_ = 0;
};

}  // namespace v6sonar::core::testing
