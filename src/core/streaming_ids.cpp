#include "core/streaming_ids.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "util/metrics.hpp"

namespace v6sonar::core {

namespace {

/// IDS telemetry (names in docs/OBSERVABILITY.md). AlertTracker is the
/// state machine both the serial and the sharded front ends funnel
/// through, so counting here covers StreamingIds and ParallelIds alike.
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

void AlertTracker::update(std::vector<Attribution> attributions, sim::TimeUs now,
                          const AlertSink& sink) {
  im().passes.add();
  blocklist_ = std::move(attributions);
  im().blocklist_size.note(blocklist_.size());
  for (const auto& a : blocklist_) {
    const auto it = alerted_.find(a.source);
    if (it != alerted_.end() && it->second == a.level) continue;  // already known
    IdsAlert alert;
    alert.attribution = a;
    alert.at_us = now;
    // Escalation: a previously alerted finer prefix is now covered by
    // this coarser attribution.
    bool covers_known = false;
    for (const auto& [prefix, level] : alerted_)
      covers_known |= a.source != prefix && a.source.contains(prefix);
    alert.is_new = !covers_known && it == alerted_.end();
    alerted_[a.source] = a.level;
    im().alerts.add();
    (alert.is_new ? im().alerts_new : im().alerts_escalated).add();
    sink(alert);
  }
}

void AlertTracker::run_pass(const std::vector<std::vector<ScanEvent>>& events_per_level,
                            const AdaptiveConfig& adaptive, sim::TimeUs now,
                            const AlertSink& sink) {
  const auto t0 = std::chrono::steady_clock::now();
  update(attribute_adaptive(events_per_level, adaptive), now, sink);
  im().attribute_us.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() - t0)
          .count()));
}

StreamingIds::StreamingIds(const IdsConfig& config, AlertSink sink)
    : config_(config), sink_(std::move(sink)) {
  if (!sink_) throw std::invalid_argument("StreamingIds: null sink");
  if (config_.reattribution_period_us <= 0)
    throw std::invalid_argument("StreamingIds: bad reattribution period");
  events_.resize(config_.adaptive.ladder.size());
  for (std::size_t i = 0; i < config_.adaptive.ladder.size(); ++i) {
    detectors_.push_back(std::make_unique<ScanDetector>(
        ladder_detector_config(config_, i),
        [this, i](ScanEvent&& ev) { events_[i].push_back(std::move(ev)); }));
  }
}

void StreamingIds::feed(const sim::LogRecord& r) {
  if (next_pass_us_ == 0) next_pass_us_ = r.ts_us + config_.reattribution_period_us;
  for (auto& d : detectors_) d->feed(r);
  if (r.ts_us >= next_pass_us_) {
    reattribute(r.ts_us);
    next_pass_us_ = r.ts_us + config_.reattribution_period_us;
  }
}

void StreamingIds::feed_batch(std::span<const sim::LogRecord> batch) {
  // Slice at reattribution boundaries: a pass must run after the
  // triggering record is fed to every detector and before the next
  // record is fed to any, exactly as the record-at-a-time loop does.
  // Records within a slice never trigger, so each slice can take the
  // detectors' batched fast path. Detectors are independent, so
  // feeding d1 the whole slice before d2 produces the same per-level
  // event streams as interleaving record by record.
  while (!batch.empty()) {
    if (next_pass_us_ == 0) next_pass_us_ = batch[0].ts_us + config_.reattribution_period_us;
    std::size_t cut = batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].ts_us >= next_pass_us_) {
        cut = i + 1;  // the triggering record itself is fed first
        break;
      }
    }
    const std::span<const sim::LogRecord> slice = batch.first(cut);
    for (auto& d : detectors_) d->feed_batch(slice);
    if (batch[cut - 1].ts_us >= next_pass_us_) {
      reattribute(batch[cut - 1].ts_us);
      next_pass_us_ = batch[cut - 1].ts_us + config_.reattribution_period_us;
    }
    batch = batch.subspan(cut);
  }
}

void StreamingIds::flush() {
  for (auto& d : detectors_) d->flush();
  reattribute(next_pass_us_);
}

void StreamingIds::reattribute(sim::TimeUs now) {
  tracker_.run_pass(events_, config_.adaptive, now, sink_);
}

void AlertTracker::save(util::StateWriter& w) const {
  w.u64(blocklist_.size());
  for (const auto& a : blocklist_) save_attribution(w, a);
  // std::map iterates in key order, so this part is deterministic.
  w.u64(alerted_.size());
  for (const auto& [prefix, level] : alerted_) {
    save_prefix(w, prefix);
    w.i32(level);
  }
}

void AlertTracker::load(util::StateReader& r) {
  const std::uint64_t n_block = r.count(41);
  blocklist_.reserve(static_cast<std::size_t>(n_block));
  for (std::uint64_t i = 0; i < n_block; ++i) blocklist_.push_back(load_attribution(r));
  const std::uint64_t n_alerted = r.count(24);
  for (std::uint64_t i = 0; i < n_alerted; ++i) {
    const net::Ipv6Prefix prefix = load_prefix(r);
    alerted_[prefix] = r.i32();
  }
}

void StreamingIds::save(util::StateWriter& w) const {
  w.u64(config_.adaptive.ladder.size());
  for (const int level : config_.adaptive.ladder) w.i32(level);
  w.f64(config_.adaptive.absorb_ratio);
  w.u64(config_.adaptive.max_children_absorbed);
  w.u32(config_.min_destinations);
  w.i64(config_.timeout_us);
  w.i64(config_.reattribution_period_us);
  w.i64(next_pass_us_);
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    detectors_[i]->save(w);
    w.u64(events_[i].size());
    for (const auto& ev : events_[i]) save_scan_event(w, ev);
  }
  tracker_.save(w);
}

void StreamingIds::load(util::StateReader& r) {
  if (next_pass_us_ != 0)
    throw std::runtime_error("StreamingIds::load: IDS already fed");
  const std::uint64_t ladder_n = r.count(4);
  bool config_ok = ladder_n == config_.adaptive.ladder.size();
  for (std::uint64_t i = 0; i < ladder_n; ++i) {
    const int level = r.i32();
    config_ok = config_ok && i < config_.adaptive.ladder.size() &&
                level == config_.adaptive.ladder[static_cast<std::size_t>(i)];
  }
  config_ok = config_ok && r.f64() == config_.adaptive.absorb_ratio &&
              r.u64() == config_.adaptive.max_children_absorbed &&
              r.u32() == config_.min_destinations && r.i64() == config_.timeout_us &&
              r.i64() == config_.reattribution_period_us;
  if (!config_ok) throw std::runtime_error("StreamingIds::load: configuration mismatch");
  next_pass_us_ = r.i64();
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    detectors_[i]->load(r);
    const std::uint64_t n_events = r.count(47);
    events_[i].reserve(static_cast<std::size_t>(n_events));
    for (std::uint64_t e = 0; e < n_events; ++e) events_[i].push_back(load_scan_event(r));
  }
  tracker_.load(r);
  // No expect_end(): the outermost section consumer asserts it.
}

}  // namespace v6sonar::core
