#include "core/streaming_ids.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "util/metrics.hpp"

namespace v6sonar::core {

namespace {

/// IDS telemetry (names in docs/OBSERVABILITY.md). Alerts and pass
/// timings are counted in the Attributor, which every ParallelIds
/// shard and the daemon's blocklist verb run; logical passes are
/// counted by ParallelIds through note_ids_pass().
struct IdsMetrics {
  util::metrics::Counter passes{"ids.reattribution.passes"};
  util::metrics::Counter alerts{"ids.alerts.total"};
  util::metrics::Counter alerts_new{"ids.alerts.new"};
  util::metrics::Counter alerts_escalated{"ids.alerts.escalated"};
  util::metrics::Gauge blocklist_size{"ids.blocklist.size_hw"};
  util::metrics::Histogram attribute_us{"ids.attribute_us"};
};

IdsMetrics& im() {
  static IdsMetrics m;
  return m;
}

}  // namespace

DetectorConfig ladder_detector_config(const IdsConfig& config, std::size_t level) {
  return DetectorConfig{.source_prefix_len = config.adaptive.ladder[level],
                        .min_destinations = config.min_destinations,
                        .timeout_us = config.timeout_us,
                        .summary_only = true};
}

ScanEvent slim_scan_event(const ScanEvent& ev) {
  ScanEvent slim;
  slim.source = ev.source;
  slim.first_us = ev.first_us;
  slim.last_us = ev.last_us;
  slim.packets = ev.packets;
  slim.distinct_dsts = ev.distinct_dsts;
  slim.src_asn = ev.src_asn;
  return slim;
}

void note_ids_pass(std::size_t blocklist_size) {
  im().passes.add();
  im().blocklist_size.note(blocklist_size);
}

// ------------------------------------------------------------------ //

Attributor::Attributor(const AdaptiveConfig& config) : config_(config) {
  validate_ladder(config_);
  levels_.resize(config_.ladder.size());
}

void Attributor::add(std::size_t level, const ScanEvent& ev) {
  fold_event(levels_[level], ev);
  dirty_.insert(group_of(ev.source));
}

void Attributor::pass(sim::TimeUs now, const AlertSink& sink) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<TallyRange> ranges(levels_.size());
  std::vector<Attribution> fresh;
  for (const net::Ipv6Prefix& group : dirty_) {
    // A group's tallies are one contiguous run per level: prefixes
    // order by address first, and the group covers one address range.
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const auto lo = levels_[l].lower_bound(group);
      auto hi = lo;
      while (hi != levels_[l].end() && group.contains(hi->first)) ++hi;
      ranges[l] = TallyRange(lo, hi);
    }
    fresh.clear();
    attribute_tallies(ranges, config_, fresh);
    for (const auto& a : fresh) alert(a, now, sink);
    auto& slot = attributed_[group];
    attributed_count_ = attributed_count_ - slot.size() + fresh.size();
    if (fresh.empty())
      attributed_.erase(group);
    else
      slot = fresh;
  }
  dirty_.clear();
  im().attribute_us.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() - t0)
          .count()));
}

void Attributor::alert(const Attribution& a, sim::TimeUs now, const AlertSink& sink) {
  const auto it = alerted_.find(a.source);
  if (it != alerted_.end() && it->second == a.level) return;  // already known
  // Escalation: a previously alerted finer prefix is now covered by
  // this coarser attribution. Prefixes order by address, then length,
  // so everything a prefix covers sorts right after it: the next
  // alerted entry decides.
  const auto next = alerted_.upper_bound(a.source);
  const bool covers_known = next != alerted_.end() && a.source.contains(next->first);
  IdsAlert alert;
  alert.attribution = a;
  alert.at_us = now;
  alert.is_new = !covers_known && it == alerted_.end();
  alerted_[a.source] = a.level;
  im().alerts.add();
  (alert.is_new ? im().alerts_new : im().alerts_escalated).add();
  sink(alert);
}

std::vector<Attribution> Attributor::blocklist() const {
  std::vector<Attribution> out;
  out.reserve(attributed_count_);
  for (const auto& [group, attributions] : attributed_)
    out.insert(out.end(), attributions.begin(), attributions.end());
  return out;
}

void Attributor::save_level(util::StateWriter& w, std::size_t level) const {
  w.u64(levels_[level].size());
  for (const auto& [source, tally] : levels_[level]) {
    ScanEvent folded;
    folded.source = source;
    folded.packets = tally.packets;
    folded.src_asn = tally.asn;
    save_scan_event(w, folded);
  }
}

void Attributor::load_level(util::StateReader& r, std::size_t level) {
  const std::uint64_t n = r.count(47);
  for (std::uint64_t i = 0; i < n; ++i) add(level, load_scan_event(r));
}

void Attributor::save_alerts(util::StateWriter& w) const {
  w.u64(attributed_count_);
  for (const auto& [group, attributions] : attributed_)
    for (const auto& a : attributions) save_attribution(w, a);
  // std::map iterates in key order, so this part is deterministic.
  w.u64(alerted_.size());
  for (const auto& [prefix, level] : alerted_) {
    save_prefix(w, prefix);
    w.i32(level);
  }
}

void Attributor::load_alerts(util::StateReader& r) {
  const std::uint64_t n_block = r.count(41);
  for (std::uint64_t i = 0; i < n_block; ++i) {
    const Attribution a = load_attribution(r);
    attributed_[group_of(a.source)].push_back(a);
    ++attributed_count_;
  }
  const std::uint64_t n_alerted = r.count(24);
  for (std::uint64_t i = 0; i < n_alerted; ++i) {
    const net::Ipv6Prefix prefix = load_prefix(r);
    alerted_[prefix] = r.i32();
  }
}

// ------------------------------------------------------------------ //

IdsCore::IdsCore(const IdsConfig& config) : attributor_(config.adaptive) {
  for (std::size_t i = 0; i < config.adaptive.ladder.size(); ++i)
    detectors_.push_back(std::make_unique<ScanDetector>(
        ladder_detector_config(config, i),
        [this, i](ScanEvent&& ev) {
          ++events_;
          attributor_.add(i, ev);
        }));
}

void IdsCore::feed_batch(std::span<const sim::LogRecord> batch) {
  // Detectors are independent, so feeding d1 the whole batch before d2
  // produces the same per-level event streams as interleaving record
  // by record.
  for (auto& d : detectors_) d->feed_batch(batch);
}

void IdsCore::advance(sim::TimeUs now) {
  for (auto& d : detectors_) d->advance(now);
}

void IdsCore::flush() {
  for (auto& d : detectors_) d->flush();
}

void IdsCore::save(util::StateWriter& w) const {
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    detectors_[i]->save(w);
    attributor_.save_level(w, i);
  }
  attributor_.save_alerts(w);
}

void IdsCore::load(util::StateReader& r) {
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    detectors_[i]->load(r);
    attributor_.load_level(r, i);
  }
  attributor_.load_alerts(r);
}

}  // namespace v6sonar::core
