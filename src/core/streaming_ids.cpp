#include "core/streaming_ids.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "util/metrics.hpp"

namespace v6sonar::core {

namespace {

/// IDS telemetry (names in docs/OBSERVABILITY.md). Alerts and pass
/// timings are counted in the Attributor, which both the serial and
/// the sharded front ends run; logical passes are counted by the
/// front ends through note_ids_pass().
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
    if (sink)
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

void IdsCore::feed(const sim::LogRecord& r) {
  for (auto& d : detectors_) d->feed(r);
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

// ------------------------------------------------------------------ //

StreamingIds::StreamingIds(const IdsConfig& config, AlertSink sink)
    : config_(config), sink_(std::move(sink)), core_(config_) {
  if (!sink_) throw std::invalid_argument("StreamingIds: null sink");
  if (config_.reattribution_period_us <= 0)
    throw std::invalid_argument("StreamingIds: bad reattribution period");
}

void StreamingIds::feed(const sim::LogRecord& r) {
  if (next_pass_us_ == 0) next_pass_us_ = r.ts_us + config_.reattribution_period_us;
  core_.feed(r);
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
  // detectors' batched fast path.
  while (!batch.empty()) {
    if (next_pass_us_ == 0) next_pass_us_ = batch[0].ts_us + config_.reattribution_period_us;
    std::size_t cut = batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].ts_us >= next_pass_us_) {
        cut = i + 1;  // the triggering record itself is fed first
        break;
      }
    }
    core_.feed_batch(batch.first(cut));
    if (batch[cut - 1].ts_us >= next_pass_us_) {
      reattribute(batch[cut - 1].ts_us);
      next_pass_us_ = batch[cut - 1].ts_us + config_.reattribution_period_us;
    }
    batch = batch.subspan(cut);
  }
}

void StreamingIds::flush() {
  core_.flush();
  reattribute(next_pass_us_);
}

void StreamingIds::reattribute(sim::TimeUs now) {
  core_.attributor().pass(now, sink_);
  note_ids_pass(core_.attributor().blocklist_size());
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
  core_.save(w);
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
  core_.load(r);
  // No expect_end(): the outermost section consumer asserts it.
}

}  // namespace v6sonar::core
